import argparse
import hashlib
import json
from pathlib import Path

import pytest

from sigdom import Graph, read_edge_list, read_signed_edge_list, sweep_cases
from sigdom.cli import _sweep_rows, build_parser, main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects unknown choices this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture
def cube_file(tmp_path, capsys):
    path = tmp_path / "p41.edges"
    code, _, _ = run(capsys, "gen", "P", "4", "1", "-o", str(path))
    assert code == 0
    return path


@pytest.fixture
def cube_signed(tmp_path, cube_file, capsys):
    path = tmp_path / "p41.sig"
    code, _, _ = run(capsys, "sign", str(cube_file), "--all-positive", "-o", str(path))
    assert code == 0
    return path


# ------------------------------------------------------------------- gen


def test_gen_writes_readable_family(cube_file):
    g, fam = read_edge_list(cube_file.read_text())
    assert g.n == 8 and len(g.edges) == 12
    assert fam.kind == "P" and fam.params == (4, 1)


def test_gen_k4u(tmp_path, capsys):
    path = tmp_path / "k.edges"
    code, _, _ = run(capsys, "gen", "K4U", "2", "-o", str(path))
    assert code == 0
    g, fam = read_edge_list(path.read_text())
    assert g == Graph(8, [(a, b) for c in (0, 4) for a in range(c, c + 4) for b in range(a + 1, c + 4)])
    assert fam.kind == "K4U"


def test_gen_rejects_bad_params(capsys):
    code, _, err = run(capsys, "gen", "P", "4", "2")
    assert code == 2
    assert "error" in err


# ------------------------------------------------------------------ sign


def test_sign_seeded_is_reproducible(tmp_path, cube_file, capsys):
    a = tmp_path / "a.sig"
    b = tmp_path / "b.sig"
    run(capsys, "sign", str(cube_file), "--random", "0.5", "--seed", "5", "-o", str(a))
    run(capsys, "sign", str(cube_file), "--random", "0.5", "--seed", "5", "-o", str(b))
    assert a.read_text() == b.read_text()


def test_sign_prints_seed(cube_file, capsys):
    code, out, _ = run(capsys, "sign", str(cube_file), "--random", "0.5")
    assert code == 0
    assert "seed: 1729" in out  # the documented default


def test_sign_from_explicit_file(tmp_path, cube_file, capsys):
    src = tmp_path / "signs.txt"
    lines = ["8 12"]
    g, _ = read_edge_list(cube_file.read_text())
    for a, b in g.edges:
        lines.append(f"{a} {b} -")
    src.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "neg.sig"
    code, _, _ = run(capsys, "sign", str(cube_file), "--signs", str(src), "-o", str(out_path))
    assert code == 0
    s, _ = read_signed_edge_list(out_path.read_text())
    assert len(s.negative_edges()) == 12


# ---------------------------------------------------------------- verify


def test_verify_ok_and_failure(cube_signed, capsys):
    code, out, _ = run(capsys, "verify", str(cube_signed), "--set", "u0,u1,v2,v3")
    assert code == 0
    assert "ok: true" in out
    code, out, _ = run(capsys, "verify", str(cube_signed), "--set", "u0,u1")
    assert code == 1
    assert "coverage" in out


def test_verify_names_first_uncovered_vertex(cube_signed, capsys):
    code, out, _ = run(capsys, "verify", str(cube_signed), "--set", "u0,u1,u2,u3")
    assert code == 1
    assert "failure: coverage vertex=v0 multiplicity=1" in out


def test_verify_json_report(cube_signed, capsys):
    code, payload, _ = run_json(
        capsys, "verify", str(cube_signed), "--set", "0,1,6,7", "--json"
    )
    assert code == 0
    assert payload["command"] == "verify"
    assert payload["results"]["ok"] is True
    assert set(payload) == {"command", "inputs", "seed", "results", "timing_ms"}


# (argv with {graph}/{signed}/{signs} placeholders, files read, reported seed)
REPORT_CASES = {
    "gen": (["gen", "P", "4", "1"], [], None),
    "sign-all-positive": (["sign", "{graph}", "--all-positive"], ["graph"], None),
    "sign-random": (["sign", "{graph}", "--random", "0.5"], ["graph"], 1729),
    "sign-signs": (["sign", "{graph}", "--signs", "{signs}"], ["graph", "signs"], None),
    "verify": (["verify", "{signed}", "--set", "u0,u1"], ["signed"], None),
    "balance": (["balance", "{signed}"], ["signed"], None),
    "switch": (["switch", "{signed}", "--set", "u0"], ["signed"], None),
    "decompose-cut": (["decompose-cut", "{graph}", "--set", "u0,u2,v0,v2"], ["graph"], None),
    "construct": (["construct", "P", "5", "2", "--signatures", "3", "--seed", "9"], [], 9),
    "solve": (["solve", "{signed}"], ["signed"], None),
    "sweep": (["sweep", "--family", "P", "--n", "5..6", "--k", "1..2"], [], 1729),
}


def test_report_cases_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv, _, _ in REPORT_CASES.values()} == set(sub.choices)


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_json_report_for_every_subcommand(case, tmp_path, cube_file, cube_signed, capsys):
    signs = tmp_path / "signs.sig"
    g, _ = read_edge_list(cube_file.read_text())
    signs.write_text("8 12\n" + "".join(f"{a} {b} -\n" for a, b in g.edges))
    paths = {"graph": str(cube_file), "signed": str(cube_signed), "signs": str(signs)}
    template, reads, seed = REPORT_CASES[case]
    argv = [arg.format(**paths) for arg in template]
    code, out, err = run(capsys, *argv, "--json")
    assert code in (0, 1) and err == ""
    assert out.endswith("\n") and out.count("\n") == 1  # one JSON document, no prose
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "seed", "results", "timing_ms"}
    assert payload["command"] == argv[0]
    assert payload["inputs"] == {
        paths[name]: hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest()
        for name in reads
    }
    assert payload["seed"] == seed
    assert payload["timing_ms"] >= 0


# --------------------------------------------------------------- balance


def test_balance_verdicts(tmp_path, cube_file, cube_signed, capsys):
    code, out, _ = run(capsys, "balance", str(cube_signed))
    assert code == 0
    assert "balanced: true" in out
    assert "marking" in out
    neg = tmp_path / "neg.sig"
    run(capsys, "sign", str(cube_file), "--random", "0.5", "--seed", "1", "-o", str(neg))
    code, out, _ = run(capsys, "balance", str(neg))
    assert code in (0, 1)
    if code == 1:
        assert "negative_cycle" in out


def test_switch_then_balance_is_invariant(tmp_path, cube_file, capsys):
    sig = tmp_path / "s.sig"
    run(capsys, "sign", str(cube_file), "--random", "0.6", "--seed", "9", "-o", str(sig))
    base_code, _, _ = run(capsys, "balance", str(sig))
    switched = tmp_path / "sw.sig"
    code, _, _ = run(capsys, "switch", str(sig), "--set", "u0,v2", "-o", str(switched))
    assert code == 0
    sw_code, _, _ = run(capsys, "balance", str(switched))
    assert sw_code == base_code


# ----------------------------------------------------------- decompose-cut


def test_decompose_cut_even_case(cube_file, capsys):
    code, out, _ = run(
        capsys, "decompose-cut", str(cube_file), "--set", "u0,u1,u2,u3,v0,v1,v2,v3"
    )
    # cut of the full vertex set is empty: zero cycles, still decomposable
    assert code == 0


def test_decompose_cut_odd_case(cube_file, capsys):
    code, out, _ = run(capsys, "decompose-cut", str(cube_file), "--set", "u0")
    assert code == 1
    assert "not decomposable" in out or "odd" in out


def test_decompose_cut_tight_p61(tmp_path, capsys):
    path = tmp_path / "p61.edges"
    run(capsys, "gen", "P", "6", "1", "-o", str(path))
    code, out, _ = run(
        capsys, "decompose-cut", str(path), "--set", "u0,u2,u4,v0,v2,v4"
    )
    assert code == 0
    assert out.count("cycle:") == 2


# --------------------------------------------------------------- construct


def test_construct_reports_size_and_checks(capsys):
    code, out, _ = run(capsys, "construct", "P", "17", "2")
    assert code == 0
    assert "size: 25" in out
    assert "self_check: ok" in out


def test_construct_tight(capsys):
    code, out, _ = run(capsys, "construct", "P", "6", "1", "--tight")
    assert code == 0
    assert "size: 6" in out


def test_construct_json(capsys):
    code, payload, _ = run_json(capsys, "construct", "I", "11", "2", "3", "--json")
    assert code == 0
    r = payload["results"]
    assert r["case_tag"] == "igraph_gcd1"
    assert r["claimed_size"] == len(r["set"])
    assert r["self_check"] is True


def test_construct_rejects_tight_on_odd(capsys):
    code, _, err = run(capsys, "construct", "P", "5", "1", "--tight")
    assert code == 2


@pytest.mark.parametrize("count", ["0", "-3"])
def test_construct_rejects_nonpositive_signature_count(capsys, count):
    code, out, err = run(capsys, "construct", "P", "17", "2", "--signatures", count)
    assert code == 2
    assert "error:" in err
    assert "self_check" not in out


# ------------------------------------------------------------------ solve


def test_solve_exact_value(cube_signed, capsys):
    code, out, _ = run(capsys, "solve", str(cube_signed))
    assert code == 0
    assert "value: 4" in out


def test_solve_k4(tmp_path, capsys):
    edges = tmp_path / "k4.edges"
    edges.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    sig = tmp_path / "k4.sig"
    run(capsys, "sign", str(edges), "--all-positive", "-o", str(sig))
    code, out, _ = run(capsys, "solve", str(sig))
    assert code == 0
    assert "value: 2" in out


def test_solve_budget_exhaustion(tmp_path, capsys):
    path = tmp_path / "p10.edges"
    run(capsys, "gen", "P", "10", "2", "-o", str(path))
    sig = tmp_path / "p10.sig"
    run(capsys, "sign", str(path), "--all-positive", "-o", str(sig))
    code, out, _ = run(capsys, "solve", str(sig), "--max-nodes", "3")
    assert code == 3
    assert "limits" in out


def test_solve_infeasible(tmp_path, capsys):
    f = tmp_path / "tiny.sig"
    f.write_text("2 1\n0 1 +\n")
    code, out, _ = run(capsys, "solve", str(f), "--k", "3")
    assert code == 1
    assert "infeasible" in out


def test_solve_respects_vertex_cap(tmp_path, capsys):
    path = tmp_path / "p13.edges"
    run(capsys, "gen", "P", "13", "1", "-o", str(path))
    sig = tmp_path / "p13.sig"
    run(capsys, "sign", str(path), "--all-positive", "-o", str(sig))
    code, _, err = run(capsys, "solve", str(sig))
    assert code == 2
    code, out, _ = run(capsys, "solve", str(sig), "--max-n", "26")
    assert code == 0
    assert "value: 14" in out  # 2(m+1) with n = 2m+1 = 13


def test_solve_long_cycle_is_usage_error_not_traceback(tmp_path, capsys):
    # the search recurses once per vertex; past its ceiling the graph is refused
    n = 1800
    sig = tmp_path / "c1800.sig"
    sig.write_text(f"{n} {n}\n" + "".join(f"{i} {(i + 1) % n} +\n" for i in range(n)))
    code, out, err = run(capsys, "solve", str(sig), "--max-n", "2000", "--max-nodes", "100000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


# ------------------------------------------------------------------ sweep


def test_sweep_small_range(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "P", "--n", "5..8", "--k", "1..2",
        "--solver-cap", "20",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if "," in l]
    header, *rows = lines
    assert header.startswith("family,n,j,k,d,case_tag")
    cols = header.split(",")
    for row in rows:
        rec = dict(zip(cols, row.split(",")))
        assert rec["sandwich_ok"] == "True"
        assert rec["construction_size"] == rec["closed_form_bound"]
        assert int(rec["lower_bound"]) <= int(rec["construction_size"])
        if rec["solver_value"] != "":
            assert int(rec["lower_bound"]) <= int(rec["solver_value"])
            assert int(rec["solver_value"]) <= int(rec["construction_size"])


def test_sweep_output_is_stable(capsys):
    argv = ["sweep", "--family", "P", "--n", "5..7", "--k", "1..2",
            "--solver-cap", "16", "--seed", "77"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_sweep_ring_case_all_sandwich_ok(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "P", "--n", "3..12", "--k", "1..1",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("P,")]
    assert len(rows) == 10
    assert all(row.endswith("True") for row in rows)


def test_sweep_includes_igraphs(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "I", "--n", "7..9", "--j", "2..2",
        "--k", "2..3", "--solver-cap", "18",
    )
    assert code == 0
    assert any(line.startswith("I,") for line in out.splitlines())


def test_sweep_solver_cap_is_the_solver_vertex_cap(capsys):
    code, out, _ = run(
        capsys, "sweep", "--family", "P", "--n", "13..13", "--k", "2..2",
        "--solver-cap", "30",
    )
    assert code == 0
    header, row = [l for l in out.splitlines() if "," in l]
    rec = dict(zip(header.split(","), row.split(",")))
    assert rec["solver_value"] == "15"


@pytest.mark.parametrize("max_n,k_max", [(3, 1), (12, 4), (20, 6)])
def test_sweep_rows_match_sweep_cases(max_n, k_max):
    args = build_parser().parse_args(
        ["sweep", "--n", f"3..{max_n}", "--k", f"1..{k_max}", "--j", f"2..{k_max}"]
    )
    assert _sweep_rows(args) == list(sweep_cases(max_n, k_max, k_max))


# ------------------------------------------------------------------ misc


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "X", "5")
    assert code == 2


def test_malformed_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("not a header\n")
    code, _, err = run(capsys, "balance", str(bad))
    assert code == 2
    assert "error" in err


def test_json_suppresses_prose(cube_signed, capsys):
    code, out, _ = run(capsys, "solve", str(cube_signed), "--json")
    payload = json.loads(out)  # the whole stdout must be one JSON document
    assert payload["results"]["value"] == 4
