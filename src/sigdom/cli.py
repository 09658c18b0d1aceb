"""Command line front end.

Exit codes: 0 success, 1 negative verdict (not dominating, unbalanced,
not even, failed sandwich), 2 usage or input errors, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import stat
import sys
import time
from math import gcd
from pathlib import Path

from .constructions import construct_family, construct_pn1_tight
from .domination import (
    _MAX_SEARCH_VERTICES,
    Budget,
    InfeasibleError,
    cubic_lower_bound,
    is_signed_dds,
    min_signed_dds,
)
from .families import (
    _FAMILIES,
    MAX_VERTICES,
    FamilyInfo,
    InvalidParametersError,
    family_cases,
    igraph,
)
from .fileio import (
    format_vertex_set,
    parse_vertex_spec,
    read_edge_list,
    read_signed_edge_list,
    write_edge_list,
    write_signed_edge_list,
)
from .graph import (
    NotEvenGraphError,
    cut_subgraph,
    cycle_decomposition,
    is_forest,
)
from .signed import all_positive, is_balanced, random_signature, switch

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _write_out(path: str | None, text: str) -> None:
    if not path:
        sys.stdout.write(text)
        return
    # overwrite in place, then trim: O_TRUNC would free the old blocks only to
    # allocate new ones.  Path names the file in an error as open does ('d/'
    # as 'd'); a device such as /dev/null cannot be trimmed and is not.
    fd = os.open(Path(path), os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as f:
        f.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()


def _load(args, path: str) -> str:
    """Read an input file and record its sha256 for the report's `inputs`."""
    text = Path(path).read_text()
    args.inputs[path] = hashlib.sha256(text.encode()).hexdigest()
    return text


def _at_least(flag: str, value: float | None, low: int) -> None:
    """Refuse a flag's value below `low`, or NaN, naming the flag; an unset flag (None) passes."""
    if value is not None and not value >= low:
        raise InvalidParametersError(f"{flag} must be >= {low}, got {value}")


def _seed(args) -> int:
    """Print the seed and record it as the report's `seed`."""
    _at_least("--seed", args.seed, 0)
    print(f"seed: {args.seed}")
    args.report_seed = args.seed
    return args.seed


def _cycle_text(cycle: tuple[int, ...], family: FamilyInfo | None) -> str:
    return ",".join(format_vertex_set(frozenset([v]), family) for v in cycle)


def cmd_gen(args) -> tuple[int, dict]:
    family = FamilyInfo(args.family, tuple(args.params))
    graph = family.graph
    _write_out(args.output, write_edge_list(graph, family))
    return EXIT_OK, {"n": graph.n, "m": len(graph.edges), "family": family.header()[2:]}


def cmd_sign(args) -> tuple[int, dict]:
    # written so that NaN, which compares false, is refused too
    if args.random is not None and not 0 <= args.random <= 1:
        raise InvalidParametersError(f"--random must lie in [0, 1], got {args.random}")
    graph, family = read_edge_list(_load(args, args.graph))
    if args.all_positive:
        signed = all_positive(graph)
    elif args.signs:
        signed, _ = read_signed_edge_list(_load(args, args.signs))
        if signed.graph != graph:
            raise InvalidParametersError("--signs file is for a different graph")
    else:
        signed = random_signature(graph, _seed(args), args.random)
    _write_out(args.output, write_signed_edge_list(signed, family))
    return EXIT_OK, {"negative_edges": len(signed.negative_edges())}


def cmd_verify(args) -> tuple[int, dict]:
    _at_least("--k", args.k, 1)
    signed, family = read_signed_edge_list(_load(args, args.signed))
    members = parse_vertex_spec(args.set, signed.graph.n, family)
    verdict = is_signed_dds(signed, members, args.k)
    print(f"set: {format_vertex_set(members, family)}")
    print(f"ok: {str(verdict.ok).lower()}")
    if not verdict.ok:
        if verdict.failure_kind == "coverage":
            where = format_vertex_set(frozenset([verdict.failure_vertex]), family)
            print(f"failure: coverage vertex={where} multiplicity={verdict.failure_multiplicity}")
        else:
            cyc = _cycle_text(verdict.witness_cycle, family)
            print(f"failure: unbalanced_cut cycle={cyc}")
    return (EXIT_OK if verdict.ok else EXIT_FAIL), dict(vars(verdict))


def cmd_balance(args) -> tuple[int, dict]:
    signed, family = read_signed_edge_list(_load(args, args.signed))
    cert = is_balanced(signed)
    print(f"balanced: {str(cert.balanced).lower()}")
    results: dict = {"balanced": cert.balanced}
    if cert.balanced:
        marking = "".join("+" if m > 0 else "-" for m in cert.marking)
        print(f"marking: {marking}")
        results["marking"] = marking
    else:
        print(f"negative_cycle: {_cycle_text(cert.witness_cycle, family)}")
        results["witness_cycle"] = list(cert.witness_cycle)
    return (EXIT_OK if cert.balanced else EXIT_FAIL), results


def cmd_switch(args) -> tuple[int, dict]:
    signed, family = read_signed_edge_list(_load(args, args.signed))
    members = parse_vertex_spec(args.set, signed.graph.n, family)
    _write_out(args.output, write_signed_edge_list(switch(signed, members), family))
    return EXIT_OK, {"switched": format_vertex_set(members, family)}


def cmd_decompose_cut(args) -> tuple[int, dict]:
    graph, family = read_edge_list(_load(args, args.graph))
    members = parse_vertex_spec(args.set, graph.n, family)
    cut = cut_subgraph(graph, members)
    print(f"cut_edges: {len(cut.edges)}")
    results: dict = {"cut_edges": len(cut.edges)}
    try:
        decomposition = cycle_decomposition(cut)
    except NotEvenGraphError as exc:
        print(f"not_even: {exc}")
        results["not_even"] = str(exc)
        return EXIT_FAIL, results
    for cyc in decomposition:
        print(f"cycle: {_cycle_text(cyc, family)}")
    results["cycles"] = [list(c) for c in decomposition]
    return EXIT_OK, results


def cmd_construct(args) -> tuple[int, dict]:
    _at_least("--signatures", args.signatures, 1)
    family = FamilyInfo(args.family, tuple(args.params))
    n, j, k = family.njk
    checks: list[str] = []
    if args.tight:
        if j != 1 or k != 1:
            raise InvalidParametersError("--tight applies to P(n,1) only")
        result = construct_pn1_tight(n)
        ok = is_signed_dds(all_positive(family.graph), result.dds).ok
        checks.append(f"all_positive_dds={'ok' if ok else 'FAIL'}")
    else:
        result = construct_family(n, j, k)
        graph = family.graph
        seed = _seed(args)
        ok = True
        for i in range(args.signatures):
            signed = random_signature(graph, seed + i, 0.5)
            if not is_signed_dds(signed, result.dds).ok:
                ok = False
                checks.append(f"signature_seed={seed + i} FAIL")
                break
        checks.append(f"signatures={args.signatures}")
        forest = is_forest(cut_subgraph(graph, result.dds))
        ok = ok and forest
        checks.append(f"cut_forest={'ok' if forest else 'FAIL'}")
    print(f"case: {result.case_tag}")
    print(f"size: {result.claimed_size}")
    print(f"set: {format_vertex_set(result.dds, family)}")
    print(f"self_check: {'ok' if ok else 'FAIL'} ({', '.join(checks)})")
    return (EXIT_OK if ok else EXIT_FAIL), {
        "case_tag": result.case_tag,
        "claimed_size": result.claimed_size,
        "set": sorted(result.dds),
        "self_check": ok,
    }


def cmd_solve(args) -> tuple[int, dict]:
    _at_least("--k", args.k, 1)
    _at_least("--max-n", args.max_n, 0)
    _at_least("--max-nodes", args.max_nodes, 0)
    _at_least("--max-seconds", args.max_seconds, 0)
    signed, family = read_signed_edge_list(_load(args, args.signed))
    budget = Budget(args.max_nodes, args.max_seconds)
    try:
        result = min_signed_dds(signed, args.k, budget, args.max_n)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}")
        return EXIT_FAIL, {"infeasible": str(exc)}
    print(f"value: {result.value if result.value is not None else 'unknown'}")
    witness = (
        format_vertex_set(result.witness, family) if result.witness is not None else "none"
    )
    print(f"witness: {witness}")
    print(f"nodes_explored: {result.nodes_explored}")
    print(f"limits_hit: {str(result.limits_hit).lower()}")
    return (EXIT_BUDGET if result.limits_hit else EXIT_OK), {
        **vars(result),
        "witness": None if result.witness is None else sorted(result.witness),
    }


def _parse_range(spec: str) -> range:
    """`A` or `A..B` with decimal bounds and A <= B, as the inclusive range A..B."""
    lo, dots, hi = spec.partition("..")
    if not dots:
        hi = lo
    if not (lo.isdecimal() and hi.isdecimal() and int(lo) <= int(hi)):
        raise InvalidParametersError(
            f"bad range {spec!r} (expected A or A..B with decimal A <= B)"
        )
    return range(int(lo), int(hi) + 1)


def _sweep_rows(args) -> list[tuple[int, int, int]]:
    ns = _parse_range(args.n)
    ks = _parse_range(args.k)
    js = _parse_range(args.j)
    if 2 * ns[-1] > MAX_VERTICES:  # P(n, k) and I(n, j, k) have 2n vertices
        raise InvalidParametersError(
            f"--n {args.n} reaches {2 * ns[-1]} vertices, above the {MAX_VERTICES}-vertex ceiling"
        )
    # every row has j <= k and 2k < n, so steps from (max n + 1) / 2 on give none
    stop = (ns[-1] + 1) // 2
    ks = range(ks.start, min(ks.stop, stop))
    rows = []
    if args.family in ("P", "all"):
        rows += family_cases(ns, (1,), ks)
    if args.family in ("I", "all"):
        # j = 1 would repeat the P(n, k) rows
        rows += family_cases(ns, range(max(js.start, 2), min(js.stop, stop)), ks)
    if not rows:
        raise InvalidParametersError(
            f"no instance of --family {args.family} in --n {args.n} --j {args.j} --k {args.k}"
        )
    return rows


def _instance_seed(seed: int, n: int, j: int, k: int) -> int:
    """The signature seed of one sweep instance; it never depends on the range swept."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{n}:{j}:{k}".encode()).digest()[:8], "big")


def cmd_sweep(args) -> tuple[int, dict]:
    cases = _sweep_rows(args)  # check order decides only which error is reported
    _at_least("--solver-cap", args.solver_cap, 0)
    if args.solver_cap > _MAX_SEARCH_VERTICES:
        raise InvalidParametersError(
            f"--solver-cap must be <= {_MAX_SEARCH_VERTICES}, the search's "
            f"recursion-depth ceiling, got {args.solver_cap}"
        )
    seed = _seed(args)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        "family n j k d case_tag construction_size lower_bound solver_value sandwich_ok".split()
    )
    all_ok = True
    rows = []
    for n, j, k in cases:
        graph = igraph(n, j, k).graph
        result = construct_family(n, j, k)
        lower = cubic_lower_bound(graph)
        solver_value: int | str = ""
        sandwich: bool | str = ""
        if graph.n <= args.solver_cap:
            solved = min_signed_dds(
                random_signature(graph, _instance_seed(seed, n, j, k), 0.5),
                max_vertices=args.solver_cap,
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
            lower,
            solver_value,
            sandwich,
        ]
        writer.writerow(row)
        rows.append(row)
    _write_out(args.output, buf.getvalue())
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
    p.add_argument("family", choices=list(_FAMILIES))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses, built on the first call rather than at import."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Dispatch a subcommand; the one place that decides what reaches stdout.

    Each `cmd_*` prints its text and returns (exit code, results); `_load` and
    `_seed` fill the report's `inputs` and `seed`. Its stdout goes to a buffer
    (so calls must not run concurrently), which `main` writes, or with --json
    only the report, when it returns, and drops on a usage error (exit 2).
    """
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if argv and argv[0] in commands:
        # what parse_args does with a leading subcommand, minus its top-level pass
        args, extra = commands[argv[0]].parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    else:
        args = parser.parse_args(argv)
    args.inputs, args.report_seed = {}, None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code, results = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not args.json:
        sys.stdout.write(text.getvalue())
    else:
        print(json.dumps({
            "command": args.command,
            "inputs": args.inputs,
            "seed": args.report_seed,
            "results": results,
            "timing_ms": round(1000 * (time.perf_counter() - started), 3),
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
