import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigdom
from sigdom import (
    EdgeListFormatError,
    FamilyInfo,
    Graph,
    construct_family,
    read_edge_list,
    read_signed_edge_list,
)
from sigdom import cli
from sigdom.cli import _sweep_rows, build_parser, main
from sigdom.families import _FAMILIES, family_cases


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


@pytest.fixture
def cube_random(tmp_path, cube_file, capsys):
    # seed 1 makes the outer 4-cycle u0,u1,u2,u3 negative
    path = tmp_path / "p41-seed1.sig"
    argv = ["sign", str(cube_file), "--random", "0.5", "--seed", "1", "-o", str(path)]
    code, _, _ = run(capsys, *argv)
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
    code, out, err = run(capsys, "gen", "K4U", "1", "2")
    assert code == 2 and out == ""
    assert err == "error: family K4U expects 1 parameter, got 2\n"


# one good and one bad parameter tuple per kind of the family table
FAMILY_CASES = {
    "P": ((5, 2), (5, 7)),
    "I": ((7, 2, 3), (9, 4, 2)),
    "K4U": ((2,), (0,)),
}


def test_gen_choices_are_the_family_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    family = next(a for a in sub.choices["gen"]._actions if a.dest == "family")
    assert list(family.choices) == list(_FAMILIES) == list(FAMILY_CASES)


@pytest.mark.parametrize("kind", sorted(FAMILY_CASES))
def test_gen_and_header_read_share_one_rule(kind, tmp_path, capsys):
    good, bad = FAMILY_CASES[kind]
    path = tmp_path / "g.edges"
    code, _, _ = run(capsys, "gen", kind, *map(str, good), "-o", str(path))
    assert code == 0
    graph, info = read_edge_list(path.read_text())
    expected = FamilyInfo(kind, good)
    assert info == expected
    assert graph == expected.graph
    assert graph.n == info.vertices

    code, out, err = run(capsys, "gen", kind, *map(str, bad))
    assert code == 2 and out == ""
    header = " ".join(("# family", kind, *map(str, bad)))
    with pytest.raises(EdgeListFormatError) as exc:
        read_edge_list(f"{header}\n0 0\n")
    message = str(exc.value)
    assert message.startswith("line 1: ")
    assert err == f"error: {message.removeprefix('line 1: ')}\n"


@pytest.mark.parametrize(
    "header", ["# family P 5 7", "# family I 9 4 2", "# family K4U 0", "# family P 5 \u00b2"]
)
def test_sign_refuses_family_header_that_gen_cannot_build(header, tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text(f"{header}\n10 0\n")
    code, out, err = run(capsys, "sign", str(path), "--all-positive")
    assert code == 2 and out == ""
    assert err.startswith("error: line 1: ")


def test_sign_refuses_family_header_that_names_other_edges(tmp_path, capsys):
    # I(5,2,2) has P(5,2)'s vertex count but not its edges
    path = tmp_path / "p.edges"
    assert run(capsys, "gen", "P", "5", "2", "-o", str(path))[0] == 0
    path.write_text(path.read_text().replace("# family P 5 2", "# family I 5 2 2"))
    code, out, err = run(capsys, "sign", str(path), "--all-positive")
    assert code == 2 and out == ""
    assert err == "error: line 2: edges are not those of family I 5 2 2\n"


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


@pytest.mark.parametrize("p_neg", ["1.5", "-0.1", "nan"])
def test_sign_refuses_random_outside_unit_interval(p_neg, tmp_path, cube_file, capsys):
    # refused before any output, the seed line included
    out_file = tmp_path / "out"
    code, out, err = run(capsys, "sign", str(cube_file), "--random", p_neg, "-o", str(out_file))
    assert code == 2 and out == ""
    assert err == f"error: --random must lie in [0, 1], got {float(p_neg)}\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sign", "GRAPH", "--random", "0.5", "--seed", "-3", "-o", "OUT"],
        ["construct", "P", "5", "2", "--seed", "-2", "--signatures", "5"],
        ["sweep", "--n", "5..6", "--seed", "-4", "-o", "OUT"],
    ],
)
def test_negative_seed_is_usage_error(argv, tmp_path, cube_file, capsys):
    # Random(-s) seeds like Random(s): a negative seed would name another seed's draws
    out_file = tmp_path / "out"
    argv = [{"GRAPH": str(cube_file), "OUT": str(out_file)}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    seed = argv[argv.index("--seed") + 1]
    assert code == 2 and out == ""
    assert err == f"error: --seed must be >= 0, got {seed}\n"
    assert not out_file.exists()


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


def test_sign_refuses_signs_for_another_graph(tmp_path, cube_file, capsys):
    # the cube with one edge missing has the cube's vertices but not its edges
    g, _ = read_edge_list(cube_file.read_text())
    signs = tmp_path / "other.sig"
    signs.write_text("8 11\n" + "".join(f"{a} {b} -\n" for a, b in g.edges[:-1]))
    out_file = tmp_path / "out"
    argv = ["sign", str(cube_file), "--signs", str(signs), "-o", str(out_file)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: --signs file is for a different graph\n"
    assert not out_file.exists()


def test_sign_accepts_a_signed_file_as_its_graph(tmp_path, cube_file, cube_signed, capsys):
    # the sign column of the input is dropped: re-signing a .sig names the same graph
    negative = tmp_path / "neg.sig"
    run(capsys, "sign", str(cube_file), "--random", "1", "--seed", "3", "-o", str(negative))
    code, out, err = run(capsys, "sign", str(negative), "--all-positive")
    assert (code, err) == (0, "")
    assert out == cube_signed.read_text()


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


def test_verify_reports_unbalanced_cut(tmp_path, cube_file, capsys):
    # negative u0u1 and v0v1: D = u0,u2,v0,v2 double dominates, and its cut
    # is the two rims, of which the outer one is negative
    signs = tmp_path / "signs.txt"
    g, _ = read_edge_list(cube_file.read_text())
    lines = [f"{a} {b} {'-' if (a, b) in {(0, 1), (4, 5)} else '+'}" for a, b in g.edges]
    signs.write_text("\n".join(["8 12", *lines]) + "\n")
    signed = tmp_path / "neg.sig"
    assert run(capsys, "sign", str(cube_file), "--signs", str(signs), "-o", str(signed))[0] == 0
    code, out, _ = run(capsys, "verify", str(signed), "--set", "u0,u2,v0,v2")
    assert code == 1
    assert out == "set: u0,u2,v0,v2\nok: false\nfailure: unbalanced_cut cycle=u0,u1,u2,u3\n"
    code, payload, _ = run_json(capsys, "verify", str(signed), "--set", "u0,u2,v0,v2", "--json")
    assert code == 1
    assert payload["results"] == {
        "ok": False,
        "failure_kind": "unbalanced_cut",
        "failure_vertex": None,
        "failure_multiplicity": None,
        "witness_cycle": [0, 1, 2, 3],
    }


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


def test_json_stdout_is_the_report_alone_when_the_command_writes_text(capsys):
    # without -o, gen writes its edge list to stdout; under --json only the report is left
    code, out, err = run(capsys, "gen", "P", "5", "2", "--json")
    assert (code, err) == (0, "")
    assert out.count("\n") == 1 and out.endswith("\n")
    assert json.loads(out)["results"] == {"n": 10, "m": 15, "family": "family P 5 2"}


@pytest.mark.parametrize(
    "argv",
    [
        ["sign", "GRAPH", "--random", "0.5", "--seed", "3", "-o", "MISSING/x.sig"],
        ["sweep", "--n", "5..6", "--k", "1..2", "-o", "MISSING/t.csv"],
    ],
    ids=["sign", "sweep"],
)
def test_refused_command_leaves_nothing_on_stdout(argv, tmp_path, cube_file, capsys):
    # both print their seed line before -o fails; main drops it with the rest
    missing = tmp_path / "missing"
    argv = [a.replace("GRAPH", str(cube_file)).replace("MISSING", str(missing)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] No such file or directory: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not missing.exists()


@pytest.mark.parametrize("old_size", [3, 5000], ids=["shorter", "longer"])
@pytest.mark.parametrize("command", ["gen", "sign", "switch"])
def test_output_rewrites_an_existing_file_to_the_printed_bytes(
    command, old_size, tmp_path, cube_file, cube_random, capsys
):
    argv = {
        "gen": ["gen", "P", "4", "1"],
        "sign": ["sign", str(cube_file), "--random", "0.5", "--seed", "1"],
        "switch": ["switch", str(cube_random), "--set", "u0,v1"],
    }[command]
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    printed = printed.removeprefix("seed: 1\n")  # sign prints its seed to stdout alone
    out = tmp_path / "out"
    out.write_bytes(b"x" * old_size)
    assert run(capsys, *argv, "-o", str(out)) == (0, "seed: 1\n" if command == "sign" else "", "")
    assert out.read_bytes() == printed.encode()


def test_output_to_a_device_is_not_trimmed(capsys):
    assert run(capsys, "gen", "P", "5", "2", "-o", os.devnull) == (0, "", "")


def test_output_creates_a_file_with_open_s_mode(tmp_path, capsys):
    umask = os.umask(0o002)
    try:
        assert run(capsys, "gen", "P", "5", "2", "-o", str(tmp_path / "new.edges"))[0] == 0
    finally:
        os.umask(umask)
    assert (tmp_path / "new.edges").stat().st_mode & 0o777 == 0o666 & ~0o002


@pytest.mark.parametrize(
    "target,message",
    [
        ("", "[Errno 21] Is a directory: 'DIR'"),
        ("/", "[Errno 21] Is a directory: 'DIR'"),  # named as open names it, without the slash
        ("/missing/x.edges", "[Errno 2] No such file or directory: 'DIR/missing/x.edges'"),
    ],
    ids=["directory", "directory-slash", "missing-directory"],
)
def test_output_that_cannot_be_opened_is_one_error_line(target, message, tmp_path, capsys):
    code, out, err = run(capsys, "gen", "P", "5", "2", "-o", f"{tmp_path}{target}")
    assert (code, out, err) == (2, "", f"error: {message.replace('DIR', str(tmp_path))}\n")


# --------------------------------------------------------------- balance


def test_balance_verdicts(cube_signed, cube_random, capsys):
    code, out, _ = run(capsys, "balance", str(cube_signed))
    assert code == 0
    assert "balanced: true" in out
    assert "marking" in out
    code, out, _ = run(capsys, "balance", str(cube_random))
    assert code == 1
    assert out == "balanced: false\nnegative_cycle: u0,u1,u2,u3\n"
    code, payload, _ = run_json(capsys, "balance", str(cube_random), "--json")
    assert code == 1
    assert payload["results"] == {"balanced": False, "witness_cycle": [0, 1, 2, 3]}


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


def test_construct_self_check_fails_on_a_broken_set(monkeypatch, capsys):
    # without its smallest member the set misses some signature's check
    def broken(n, j, k):
        result = construct_family(n, j, k)
        return dataclasses.replace(result, dds=result.dds - {min(result.dds)})

    monkeypatch.setattr(cli, "construct_family", broken)
    argv = ["construct", "P", "7", "2", "--signatures", "3", "--seed", "5"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.splitlines()[-1] == (
        "self_check: FAIL (signature_seed=5 FAIL, signatures=3, cut_forest=ok)"
    )
    code, payload, _ = run_json(capsys, *argv, "--json")
    assert code == 1
    assert payload["results"] == {
        "case_tag": "gcd1_even",
        "claimed_size": 10,
        "set": [1, 2, 3, 4, 5, 6, 9, 10, 13],
        "self_check": False,
    }


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


def test_construct_rejects_tight_beyond_pn1(capsys):
    code, out, err = run(capsys, "construct", "P", "5", "2", "--tight")
    assert (code, out) == (2, "")
    assert err == "error: --tight applies to P(n,1) only\n"


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


def test_solve_and_verify_json_results(cube_random, capsys):
    # the results objects of solve and of a coverage failure, field for field
    code, payload, _ = run_json(capsys, "solve", str(cube_random), "--json")
    assert code == 0
    assert payload["results"] == {
        "value": 5,
        "witness": [0, 1, 2, 4, 7],
        "nodes_explored": 63,
        "limits_hit": False,
    }
    code, payload, _ = run_json(capsys, "verify", str(cube_random), "--set", "u0", "--json")
    assert code == 1
    assert payload["results"] == {
        "ok": False,
        "failure_kind": "coverage",
        "failure_vertex": 0,
        "failure_multiplicity": 1,
        "witness_cycle": None,
    }


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
    code, payload, _ = run_json(capsys, "solve", str(sig), "--max-nodes", "3", "--json")
    assert code == 3
    assert payload["results"] == {
        "value": None,
        "witness": None,
        "nodes_explored": 4,
        "limits_hit": True,
    }


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
    code, out, err = run(capsys, "solve", str(sig))
    assert code == 2
    assert out == ""
    assert err == "error: 26 vertices exceeds the solver cap of 24\n"
    code, out, _ = run(capsys, "solve", str(sig), "--max-n", "26")
    assert code == 0
    assert "value: 14" in out  # 2(m+1) with n = 2m+1 = 13


def test_solve_long_cycle_is_usage_error_not_traceback(tmp_path, capsys):
    # the search recurses once per included vertex; past its ceiling the graph is refused
    n = 1800
    sig = tmp_path / "c1800.sig"
    sig.write_text(f"{n} {n}\n" + "".join(f"{i} {(i + 1) % n} +\n" for i in range(n)))
    code, out, err = run(capsys, "solve", str(sig), "--max-n", "2000", "--max-nodes", "100000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_solve_rejects_family_header_that_miscounts_vertices(tmp_path, capsys):
    path = tmp_path / "p52.edges"
    run(capsys, "gen", "P", "5", "2", "-o", str(path))
    sig = tmp_path / "p52.sig"
    run(capsys, "sign", str(path), "--all-positive", "-o", str(sig))
    sig.write_text(sig.read_text().replace("# family P 5 2", "# family P 3 1"))
    code, out, err = run(capsys, "solve", str(sig))
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "limit",
    [
        (["--max-nodes", "-5"], "--max-nodes must be >= 0, got -5"),
        (["--max-seconds", "-1"], "--max-seconds must be >= 0, got -1.0"),
        (["--max-seconds", "nan"], "--max-seconds must be >= 0, got nan"),
    ],
)
def test_solve_rejects_negative_or_nan_budget(cube_signed, capsys, limit):
    flags, message = limit
    code, out, err = run(capsys, "solve", str(cube_signed), *flags)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["verify", "--set", "u0"], ["solve"]])
@pytest.mark.parametrize("existing", [True, False])
def test_nonpositive_k_is_refused_before_the_file_is_read(
    command, existing, tmp_path, cube_signed, capsys
):
    path = cube_signed if existing else tmp_path / "missing.sig"
    code, out, err = run(capsys, command[0], str(path), *command[1:], "--k", "0")
    assert (code, out) == (2, "")
    assert err == "error: --k must be >= 1, got 0\n"


@pytest.mark.parametrize("cap", ["-1", "-24"])
def test_solve_refuses_negative_max_n(cube_signed, capsys, cap):
    code, out, err = run(capsys, "solve", str(cube_signed), "--max-n", cap)
    assert code == 2 and out == ""
    assert err == f"error: --max-n must be >= 0, got {cap}\n"


# ------------------------------------------------------------------ sweep


def test_sweep_small_range(capsys):
    argv = ["sweep", "--family", "P", "--n", "5..8", "--k", "1..2", "--solver-cap", "20"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = [l for l in out.splitlines() if "," in l]
    header, *rows = lines
    cols = header.split(",")
    assert cols == ["family", "n", "j", "k", "d", "case_tag", "construction_size",
                    "lower_bound", "solver_value", "sandwich_ok"]
    for row in rows:
        rec = dict(zip(cols, row.split(",")))
        assert rec["sandwich_ok"] == "True"
        assert int(rec["lower_bound"]) <= int(rec["construction_size"])
        if rec["solver_value"] != "":
            assert int(rec["lower_bound"]) <= int(rec["solver_value"])
            assert int(rec["solver_value"]) <= int(rec["construction_size"])
    code, report, _ = run_json(capsys, *argv, "--json")
    assert code == 0 and len(report["results"]["rows"]) == len(rows)
    assert all(len(row) == len(cols) for row in report["results"]["rows"])


def test_sweep_output_is_stable(capsys):
    argv = ["sweep", "--family", "P", "--n", "5..7", "--k", "1..2",
            "--solver-cap", "16", "--seed", "77"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_sweep_golden_digest(tmp_path, capsys):
    # every sweep case tag, the bounds and the solver, at the default seed
    out_file = tmp_path / "t.csv"
    code, _, _ = run(capsys, "sweep", "--n", "5..7", "--k", "1..2", "-o", str(out_file))
    assert code == 0
    text = out_file.read_bytes()
    tags = {line.split(b",")[5] for line in text.splitlines()[1:]}
    assert tags == {b"P_odd_1", b"P_even_1", b"gcd1_odd", b"gcd1_even", b"gcd_d",
                    b"igraph_gcd1", b"igraph_gcd_d"}
    assert hashlib.sha256(text).hexdigest() == (
        "e00d90005768631e367af747106e521cbb2b8f40a342b58338cab753aa22e857"
    )


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


def test_sweep_row_does_not_depend_on_the_range(capsys):
    def rows(n_range):
        _, out, _ = run(capsys, "sweep", "--family", "P", "--n", n_range, "--k", "1..3")
        return {l for l in out.splitlines() if l.startswith(("P,8,1,3,", "P,12,1,3,"))}

    wide = rows("3..12")
    assert len(wide) == 2
    assert wide == rows("8..12")


@pytest.mark.parametrize("cap", ["-1", "-5", "513"])
def test_sweep_refuses_negative_solver_cap(cap, tmp_path, capsys):
    # a cap above the search's 512-vertex ceiling would otherwise fail mid-sweep
    rule = ">= 0" if int(cap) < 0 else "<= 512, the search's recursion-depth ceiling"
    out_file = tmp_path / "t.csv"
    code, out, err = run(capsys, "sweep", "--n", "5", "--solver-cap", cap, "-o", str(out_file))
    assert code == 2 and out == ""  # no seed line either
    assert err == f"error: --solver-cap must be {rule}, got {cap}\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "flag,spec",
    [("--n", "5.."), ("--n", "1_0"), ("--n", "+7"), ("--n", "7..5"), ("--n", ""),
     ("--k", "..2"), ("--k", "1..2..3"), ("--j", "-1..3"), ("--j", " 2..3")],
)
def test_sweep_refuses_bad_range(flag, spec, tmp_path, capsys):
    # refused before any output, the seed line included
    out_file = tmp_path / "t.csv"
    code, out, err = run(capsys, "sweep", f"{flag}={spec}", "-o", str(out_file))
    assert code == 2 and out == ""
    assert err == f"error: bad range {spec!r} (expected A or A..B with decimal A <= B)\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "ranges,message",
    [
        # P(5,3) breaks 2k < n
        (["--n", "5", "--k", "3"], "no instance of --family all in --n 5 --j 2..5 --k 3"),
        # the I rows start at j = 2
        (
            ["--family", "I", "--n", "5", "--j", "1..1"],
            "no instance of --family I in --n 5 --j 1..1 --k 1..5",
        ),
    ],
    ids=["2k-not-below-n", "I-j-below-2"],
)
def test_sweep_refuses_ranges_with_no_instance(ranges, message, tmp_path, capsys):
    # refused before any output, the seed line included
    out_file = tmp_path / "out.csv"
    code, out, err = run(capsys, "sweep", *ranges, "-o", str(out_file))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not out_file.exists()


def test_sweep_single_value_is_a_one_value_range(capsys):
    code, one, _ = run(capsys, "sweep", "--family", "P", "--n", "7", "--k", "2")
    assert code == 0 and "\nP,7,1,2," in one
    assert one == run(capsys, "sweep", "--family", "P", "--n", "7..7", "--k", "2..2")[1]


@pytest.mark.parametrize("max_n,k_max", [(3, 1), (12, 4), (20, 6)])
def test_sweep_rows_match_sweep_cases(max_n, k_max):
    args = build_parser().parse_args(
        # an inverted --j like 2..1 is a usage error; j = 2 > k adds no row either way
        ["sweep", "--n", f"3..{max_n}", "--k", f"1..{k_max}", "--j", f"2..{max(k_max, 2)}"]
    )
    ns, steps = range(3, max_n + 1), range(2, k_max + 1)
    expected = [*family_cases(ns, (1,), range(1, k_max + 1)), *family_cases(ns, steps, steps)]
    assert _sweep_rows(args) == expected


@pytest.mark.parametrize("flag", ["--k", "--j"])
def test_sweep_clips_steps_that_give_no_row(flag, capsys):
    # every row has j <= k and 2k < n, so with n <= 7 no step above 3 gives one;
    # a range of 10**12 steps is clipped by value before anything is enumerated
    base = ["sweep", "--n", "5..7", "--solver-cap", "0"]
    code, wide, err = run(capsys, *base, flag, "2..1000000000000")
    assert (code, err) == (0, "")
    assert wide == run(capsys, *base, flag, "2..3")[1]


def test_sweep_with_only_clipped_steps_quotes_the_flags_as_given(capsys):
    code, out, err = run(capsys, "sweep", "--n", "5", "--k", "3..1000000000000")
    assert (code, out) == (2, "")
    assert err == "error: no instance of --family all in --n 5 --j 2..5 --k 3..1000000000000\n"


@pytest.mark.parametrize("spec", ["5..50001", "50001", "1000000000000"])
def test_sweep_refuses_n_above_the_vertex_ceiling(spec, capsys):
    code, out, err = run(capsys, "sweep", "--n", spec)
    top = int(spec.rpartition(".")[2])
    assert (code, out) == (2, "")
    assert err == (
        f"error: --n {spec} reaches {2 * top} vertices, above the 100000-vertex ceiling\n"
    )


def test_sweep_accepts_n_at_the_vertex_ceiling():
    # only the row list is built here, not the graph
    args = build_parser().parse_args(["sweep", "--family", "P", "--n", "50000", "--k", "1"])
    assert _sweep_rows(args) == [(50_000, 1, 1)]


# ------------------------------------------------------------------ misc


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gen", "P", "50001", "2"], "family P 50001 2 has 100002 vertices"),
        (["gen", "I", "50001", "2", "3", "-o", "OUT"], "family I 50001 2 3 has 100002 vertices"),
        (["gen", "K4U", "25001"], "family K4U 25001 has 100004 vertices"),
        (["construct", "P", "50001", "2"], "family P 50001 2 has 100002 vertices"),
        (["construct", "P", "50001", "1", "--tight"], "family P 50001 1 has 100002 vertices"),
        (["sign", "COUNT", "--all-positive"], "line 1: n=100001 is"),
        (["balance", "COUNT"], "line 1: n=100001 is"),
        (["verify", "COUNT", "--set", "0"], "line 1: n=100001 is"),
        (["switch", "COUNT", "--set", "0", "-o", "OUT"], "line 1: n=100001 is"),
        (["decompose-cut", "COUNT", "--set", "0"], "line 1: n=100001 is"),
        (["solve", "COUNT"], "line 1: n=100001 is"),
        (["sign", "HEADED", "--all-positive"], "line 1: family P 50001 2 has 100002 vertices"),
    ],
)
def test_vertex_ceiling_is_a_usage_error_on_every_path(argv, message, tmp_path, capsys):
    count, headed = tmp_path / "count.edges", tmp_path / "headed.edges"
    count.write_text("100001 0\n")
    headed.write_text("# family P 50001 2\n100002 0\n")
    out_file = tmp_path / "out"
    paths = {"COUNT": str(count), "HEADED": str(headed), "OUT": str(out_file)}
    code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert err.endswith(" above the 100000-vertex ceiling\n") and err.count("\n") == 1
    assert not out_file.exists()


def test_every_exported_error_is_a_value_error():
    # main maps ValueError and OSError to exit 2, so a refusal outside them would be a traceback
    errors = [x for x in vars(sigdom).values() if isinstance(x, type) and issubclass(x, Exception)]
    assert errors
    assert [e.__name__ for e in errors if not issubclass(e, ValueError)] == []


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


# ----------------------------------------------------------- parser reuse


def test_reused_parser_keeps_no_flags(tmp_path, cube_file, capsys):
    sig = tmp_path / "p41.sig"
    code, _, _ = run(
        capsys, "sign", str(cube_file), "--random", "0.5", "--seed", "7", "-o", str(sig), "--json"
    )
    assert code == 0 and sig.exists()
    written = sig.read_text()
    code, out, _ = run(capsys, "sign", str(cube_file), "--random", "0.5")
    assert code == 0
    assert out.startswith("seed: 1729\n# family P 4 1\n")  # default seed, text, stdout
    assert sig.read_text() == written

    code, out, _ = run(capsys, "solve", str(sig), "--max-nodes", "1")
    assert code == 3 and "limits_hit: true" in out
    code, out, _ = run(capsys, "solve", str(sig))
    assert code == 0 and "limits_hit: false" in out

    code, _, _ = run(capsys, "gen", "X", "5")
    assert code == 2
    code, out, _ = run(capsys, "gen", "P", "5", "2")
    assert code == 0 and out.startswith("# family P 5 2\n")


def test_main_builds_one_parser(monkeypatch, cube_signed, capsys):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(capsys, "gen", "P", "5", "2")[0] == 0
            assert run(capsys, "balance", str(cube_signed))[0] == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_parser_is_built_on_first_main_call_not_at_import():
    code = subprocess.run(
        [sys.executable, "-c", "import sigdom.cli as c; assert c._parser.cache_info().currsize == 0"],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    ).returncode
    assert code == 0
    assert build_parser() is not build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["gen", "-h"],
        ["gen", "P", "5", "2", "--bogus"],
        ["--json", "gen", "P", "5", "2"],
        ["ge", "P", "5", "2"],
        ["gen", "P", "x"],
        ["solve"],
        ["sweep", "--n", "5", "extra"],
    ],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_dispatch_exits_as_parse_args_does(argv, capsys):
    # main hands argv after a subcommand name to that subcommand's parser alone
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert run(capsys, *argv) == (exc.value.code, want.out, want.err)
