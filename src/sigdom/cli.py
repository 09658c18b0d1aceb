"""Command line front end.

Exit codes: 0 success, 1 negative verdict (not dominating, unbalanced,
not even, failed sandwich), 2 usage or input errors, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from math import gcd
from pathlib import Path

from .constructions import (
    build_family,
    construct_family,
    construct_pn1_tight,
    upper_bound,
)
from .domination import Budget, InfeasibleError, is_signed_dds, min_signed_dds
from .families import InvalidParametersError, family_cases, k4_union
from .fileio import (
    FamilyInfo,
    format_vertex_set,
    parse_vertex_spec,
    read_edge_list,
    read_graph_any,
    read_signed_edge_list,
    write_edge_list,
    write_signed_edge_list,
)
from .graph import (
    NotEvenGraphError,
    SizeLimitExceededError,
    cut_subgraph,
    cycle_decomposition,
    is_forest,
)
from .signed import SignedGraph, all_positive, is_balanced, random_signature, switch

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _say(args, line: str) -> None:
    if not args.json:
        print(line)


def _write_out(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    elif not args.json:
        sys.stdout.write(text)


def _load(args, path: str) -> str:
    """Read an input file and record its sha256 for the report's `inputs`."""
    text = Path(path).read_text()
    args.inputs[path] = hashlib.sha256(text.encode()).hexdigest()
    return text


def _seed(args) -> int:
    """Print the seed and record it as the report's `seed`."""
    _say(args, f"seed: {args.seed}")
    args.report_seed = args.seed
    return args.seed


def _cycle_text(cycle: tuple[int, ...], family: FamilyInfo | None) -> str:
    return ",".join(format_vertex_set(frozenset([v]), family) for v in cycle)


def _family_args(args) -> tuple[int, int, int]:
    arity = {"P": 2, "I": 3}[args.family]
    if len(args.params) != arity:
        raise InvalidParametersError(
            f"family {args.family} expects {arity} parameters, got {len(args.params)}"
        )
    if args.family == "P":
        n, k = args.params
        return n, 1, k
    n, j, k = args.params
    return n, j, k


def cmd_gen(args) -> tuple[int, dict]:
    if args.family == "K4U":
        if len(args.params) != 1:
            raise InvalidParametersError("family K4U expects one parameter")
        graph = k4_union(args.params[0])
    else:
        graph = build_family(*_family_args(args)).graph
    family = FamilyInfo(args.family, tuple(args.params))
    _write_out(args, write_edge_list(graph, family))
    return EXIT_OK, {"n": graph.n, "m": len(graph.edges), "family": family.header()[2:]}


def cmd_sign(args) -> tuple[int, dict]:
    graph, family = read_edge_list(_load(args, args.graph))
    if args.all_positive:
        signed = all_positive(graph)
    elif args.signs:
        signed, _ = read_signed_edge_list(_load(args, args.signs))
        if signed.graph != graph:
            raise InvalidParametersError("--signs file is for a different graph")
    else:
        signed = random_signature(graph, _seed(args), args.random)
    _write_out(args, write_signed_edge_list(signed, family))
    return EXIT_OK, {"negative_edges": len(signed.negative_edges())}


def cmd_verify(args) -> tuple[int, dict]:
    signed, family = read_signed_edge_list(_load(args, args.signed))
    members = parse_vertex_spec(args.set, signed.graph.n, family)
    verdict = is_signed_dds(signed, members, args.k)
    _say(args, f"set: {format_vertex_set(members, family)}")
    _say(args, f"ok: {str(verdict.ok).lower()}")
    if not verdict.ok:
        if verdict.failure_kind == "coverage":
            where = format_vertex_set(frozenset([verdict.failure_vertex]), family)
            _say(
                args,
                f"failure: coverage vertex={where} multiplicity={verdict.failure_multiplicity}",
            )
        else:
            cyc = _cycle_text(verdict.witness_cycle, family)
            _say(args, f"failure: unbalanced_cut cycle={cyc}")
    return (EXIT_OK if verdict.ok else EXIT_FAIL), verdict.to_dict()


def cmd_balance(args) -> tuple[int, dict]:
    signed, family = read_signed_edge_list(_load(args, args.signed))
    cert = is_balanced(signed)
    _say(args, f"balanced: {str(cert.balanced).lower()}")
    results: dict = {"balanced": cert.balanced}
    if cert.balanced:
        marking = "".join("+" if m > 0 else "-" for m in cert.marking)
        _say(args, f"marking: {marking}")
        results["marking"] = marking
    else:
        _say(args, f"negative_cycle: {_cycle_text(cert.witness_cycle, family)}")
        results["witness_cycle"] = list(cert.witness_cycle)
    return (EXIT_OK if cert.balanced else EXIT_FAIL), results


def cmd_switch(args) -> tuple[int, dict]:
    signed, family = read_signed_edge_list(_load(args, args.signed))
    members = parse_vertex_spec(args.set, signed.graph.n, family)
    _write_out(args, write_signed_edge_list(switch(signed, members), family))
    return EXIT_OK, {"switched": format_vertex_set(members, family)}


def cmd_decompose_cut(args) -> tuple[int, dict]:
    graph, family = read_graph_any(_load(args, args.graph))
    members = parse_vertex_spec(args.set, graph.n, family)
    cut = cut_subgraph(graph, members)
    _say(args, f"cut_edges: {len(cut.edges)}")
    results: dict = {"cut_edges": len(cut.edges)}
    try:
        decomposition = cycle_decomposition(cut)
    except NotEvenGraphError as exc:
        _say(args, f"not_even: {exc}")
        results["not_even"] = str(exc)
        return EXIT_FAIL, results
    for cyc in decomposition.cycles:
        _say(args, f"cycle: {_cycle_text(cyc, family)}")
    results["cycles"] = [list(c) for c in decomposition.cycles]
    return EXIT_OK, results


def cmd_construct(args) -> tuple[int, dict]:
    if args.signatures < 1:
        raise InvalidParametersError(f"--signatures must be >= 1, got {args.signatures}")
    n, j, k = _family_args(args)
    family = FamilyInfo(args.family, tuple(args.params))
    fg = build_family(n, j, k)
    checks: list[str] = []
    if args.tight:
        if j != 1 or k != 1:
            raise InvalidParametersError("--tight applies to P(n,1) only")
        result, signed = construct_pn1_tight(n)
        ok = is_signed_dds(signed, result.dds).ok
        checks.append(f"all_positive_dds={'ok' if ok else 'FAIL'}")
    else:
        result = construct_family(n, j, k)
        seed = _seed(args)
        ok = True
        for i in range(args.signatures):
            signed = random_signature(fg.graph, seed + i, 0.5)
            if not is_signed_dds(signed, result.dds).ok:
                ok = False
                checks.append(f"signature_seed={seed + i} FAIL")
                break
        checks.append(f"signatures={args.signatures}")
        if result.cut_forest_expected:
            forest = is_forest(cut_subgraph(fg.graph, result.dds))
            ok = ok and forest
            checks.append(f"cut_forest={'ok' if forest else 'FAIL'}")
    _say(args, f"case: {result.case_tag}")
    _say(args, f"size: {result.claimed_size}")
    _say(args, f"set: {format_vertex_set(result.dds, family)}")
    _say(args, f"self_check: {'ok' if ok else 'FAIL'} ({', '.join(checks)})")
    return (EXIT_OK if ok else EXIT_FAIL), {
        "case_tag": result.case_tag,
        "claimed_size": result.claimed_size,
        "set": sorted(result.dds),
        "self_check": ok,
    }


def cmd_solve(args) -> tuple[int, dict]:
    signed, family = read_signed_edge_list(_load(args, args.signed))
    budget = None
    if args.max_nodes is not None or args.max_seconds is not None:
        budget = Budget(args.max_nodes, args.max_seconds)
    try:
        result = min_signed_dds(signed, args.k, budget, args.max_n)
    except InfeasibleError as exc:
        _say(args, f"infeasible: {exc}")
        return EXIT_FAIL, {"infeasible": str(exc)}
    _say(args, f"value: {result.value if result.value is not None else 'unknown'}")
    witness = (
        format_vertex_set(result.witness, family) if result.witness is not None else "none"
    )
    _say(args, f"witness: {witness}")
    _say(args, f"nodes_explored: {result.nodes_explored}")
    _say(args, f"limits_hit: {str(result.limits_hit).lower()}")
    return (EXIT_BUDGET if result.limits_hit else EXIT_OK), result.to_dict()


def _parse_range(spec: str) -> range:
    lo, _, hi = spec.partition("..")
    try:
        a = int(lo)
        b = int(hi) if hi else a
    except ValueError:
        raise InvalidParametersError(f"bad range {spec!r} (expected A or A..B)") from None
    return range(a, b + 1)


def _sweep_rows(args) -> list[tuple[int, int, int]]:
    ns = _parse_range(args.n)
    ks = _parse_range(args.k)
    js = _parse_range(args.j)
    rows = []
    if args.family in ("P", "all"):
        rows += family_cases(ns, (1,), ks)
    if args.family in ("I", "all"):
        # j = 1 would repeat the P(n, k) rows
        rows += family_cases(ns, range(max(js.start, 2), js.stop), ks)
    return rows


def cmd_sweep(args) -> tuple[int, dict]:
    seed = _seed(args)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "family",
            "n",
            "j",
            "k",
            "d",
            "case_tag",
            "construction_size",
            "closed_form_bound",
            "lower_bound",
            "solver_value",
            "sandwich_ok",
        ]
    )
    all_ok = True
    rows = []
    for idx, (n, j, k) in enumerate(_sweep_rows(args)):
        fg = build_family(n, j, k)
        result = construct_family(n, j, k)
        bound = upper_bound(n, j, k).value
        lower = fg.graph.n // 2
        solver_value: int | str = ""
        sandwich: bool | str = ""
        if fg.graph.n <= args.solver_cap:
            solved = min_signed_dds(
                random_signature(fg.graph, seed + idx, 0.5), max_vertices=args.solver_cap
            )
            solver_value = solved.value
            sandwich = lower <= solved.value <= result.claimed_size
            all_ok = all_ok and sandwich
        row = [
            "P" if j == 1 else "I",
            n,
            j,
            k,
            gcd(n, k),
            result.case_tag,
            result.claimed_size,
            bound,
            lower,
            solver_value,
            sandwich,
        ]
        writer.writerow(row)
        rows.append(row)
    _write_out(args, buf.getvalue())
    return (EXIT_OK if all_ok else EXIT_FAIL), {"rows": rows, "all_sandwich_ok": all_ok}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigdom",
        description="signed graphs, balance, and double domination",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = add("gen", cmd_gen, help="generate a family graph edge list")
    p.add_argument("family", choices=["P", "I", "K4U"])
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("-o", "--output")

    p = add("sign", cmd_sign, help="attach a signature to a graph")
    p.add_argument("graph")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all-positive", action="store_true")
    mode.add_argument("--random", type=float, metavar="P_NEG")
    mode.add_argument("--signs", metavar="FILE")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output")

    p = add("verify", cmd_verify, help="check a signed double dominating set")
    p.add_argument("signed")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, default=2)

    p = add("balance", cmd_balance, help="balance certificate for a signed graph")
    p.add_argument("signed")

    p = add("switch", cmd_switch, help="switch a signed graph at a vertex set")
    p.add_argument("signed")
    p.add_argument("--set", required=True)
    p.add_argument("-o", "--output")

    p = add("decompose-cut", cmd_decompose_cut, help="cycle-decompose a cut subgraph")
    p.add_argument("graph")
    p.add_argument("--set", required=True)

    p = add("construct", cmd_construct, help="closed-form double dominating set")
    p.add_argument("family", choices=["P", "I"])
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("--tight", action="store_true")
    p.add_argument("--signatures", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("solve", cmd_solve, help="exact minimum signed double dominating set")
    p.add_argument("signed")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--max-n", type=int, default=24)
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--max-seconds", type=float)

    p = add("sweep", cmd_sweep, help="constructions vs bounds vs solver, as CSV")
    p.add_argument("--family", choices=["P", "I", "all"], default="all")
    p.add_argument("--n", default="3..20")
    p.add_argument("--j", default="2..5")
    p.add_argument("--k", default="1..5")
    p.add_argument("--solver-cap", type=int, default=24)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Dispatch a subcommand; with --json, print its one report.

    Each `cmd_*` returns (exit code, results) and reads its inputs and seed
    through `_load` and `_seed`, which fill the report's `inputs` and `seed`.
    """
    args = build_parser().parse_args(argv)
    args.inputs, args.report_seed = {}, None
    started = time.perf_counter()
    try:
        code, results = args.func(args)
    except (ValueError, SizeLimitExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        report = {
            "command": args.command,
            "inputs": args.inputs,
            "seed": args.report_seed,
            "results": results,
            "timing_ms": round(1000 * (time.perf_counter() - started), 3),
        }
        print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
