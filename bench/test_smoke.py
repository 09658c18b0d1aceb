"""Fast smoke test of the benchmark, apart from the repository's test suite.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload at tiny size, traced and untraced, and shows that the
output checks can fail: a deliberately wrong expected value must raise the
failure ratio above zero.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name, trace=False, seed=run.DEFAULT_SEED, expected=None):
    if expected is None:
        expected = run.load_expected(name, seed)
    return run.measure(name, seed, 0.01, trace, tiny=True, expected=expected)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_passes_its_checks(name, trace):
    report = tiny(name, trace)
    assert report["attempted"] > 0
    assert report["failed"] == 0, report["failures"]
    kind = "per_layer" if trace else "end_to_end"
    assert list(report["metrics"]) == [m["name"] for m in CONTRACT[kind]]
    units = {m["name"]: m["unit"] for m in CONTRACT[kind]}
    assert all(units[k] == unit for k, (_, unit) in report["metrics"].items())


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_other_seed_passes_invariant_checks(name):
    report = tiny(name, seed=7)
    assert report["failed"] == 0, report["failures"]


def first_entry(name):
    wl = run.WORKLOADS[name](run.DEFAULT_SEED, True)
    wl.setup(run.import_sigdom(), run.Tracer())
    try:
        item = next(iter(wl.items(0)))
        return wl.entry(item, wl.run(item, run.Tracer()))
    finally:
        wl.close()


@pytest.mark.parametrize("name", ["exact_solve", "batch_solve", "cli_session"])
def test_wrong_expected_value_is_a_failure(name):
    expected = dict(run.load_expected(name, run.DEFAULT_SEED))
    key, value = first_entry(name)
    assert expected[key] == value
    if name == "exact_solve":
        expected[key] = [value[0] + 1, value[1]]
    else:
        expected[key] = value[:-1] + ["0" * 64] if isinstance(value, list) else "0" * 64
    report = tiny(name, expected=expected)
    assert report["failed"] >= 1
    assert report["fail_ratio"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "universality", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
