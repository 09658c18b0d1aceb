#!/usr/bin/env python3
"""The sigdom benchmark: four closed-loop, single-process workloads.

    python3 bench/run.py --workload universality --seed 1729 --seconds 25 --trace 0
    python3 bench/run.py                      # every workload, one child process each

Each workload is one client that waits for every answer before it sends the
next request, the way a research script or a shell loop over `sigdom` does.
Work is grouped in rounds: a round calls every instance of the workload once,
and the loop runs whole rounds until `--seconds` have passed (at least one),
so every run measures the same mix of instances.  Every output is checked;
a wrong value, a rejected witness, a broken sandwich, a wrong exit code or a
digest mismatch against `bench/expected.json` counts as a failed operation.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics, measured by timing the
benchmark's own calls into the public functions of each `sigdom` module.
A human-readable table precedes it, and a full report (run metadata, sample
counts, failures) is written to `.bench_out/`.  See `bench/README.md`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED_PATH = BENCH / "expected.json"

DEFAULT_SEED = 1729
SETUP_REPS = 5  # at least; set-up repeats until SETUP_SECONDS have passed
SETUP_SECONDS = 1.0

PER_LAYER = [
    ("families.build_us", "us"),
    ("constructions.construct_us", "us"),
    ("graph.cut_subgraph_us", "us"),
    ("graph.is_forest_us", "us"),
    ("signed.random_signature_us", "us"),
    ("signed.is_balanced_us", "us"),
    ("signed.switch_us", "us"),
    ("domination.is_k_tuple_dominating_us", "us"),
    ("domination.is_signed_dds_us", "us"),
    ("domination.cut_check_us", "us"),
    ("domination.solve_nodes", "count"),
    ("domination.us_per_node", "us"),
    ("domination.batch_nodes", "count"),
    ("domination.batch_us_per_node", "us"),
    ("domination.acceptor_us_per_node", "us"),
    ("fileio.read_signed_us", "us"),
    ("fileio.write_signed_us", "us"),
    ("fileio.parse_vertex_spec_us", "us"),
    ("cli.parser_build_us", "us"),
    *((f"cli.{sub}_ms", "ms") for sub in
      ("gen", "sign", "balance", "verify", "switch", "construct", "solve")),
    ("trace.overhead_pct", "%"),
]


def input_seed(seed: int, key: str, index: int) -> int:
    """Seed of one generated input, a function of (seed, family, n, j, k, index) only.

    Adding or removing an instance never changes another instance's inputs.
    """
    return int(hashlib.sha256(f"{seed}:{key}:{index}".encode()).hexdigest()[:12], 16)


def family_key(n: int, j: int, k: int) -> str:
    return f"P-{n}-{k}" if j == 1 else f"I-{n}-{j}-{k}"


def family_instances(max_n: int, min_n: int = 3, step_cap: int = 5) -> list[tuple[int, int, int]]:
    """Every P(n,k), and every I(n,j,k) with j, k <= step_cap, for min_n <= n <= max_n."""
    out = []
    for n in range(min_n, max_n + 1):
        out.extend((n, 1, k) for k in range(1, (n - 1) // 2 + 1))
        out.extend(
            (n, j, k)
            for j in range(2, step_cap + 1)
            for k in range(j, step_cap + 1)
            if 2 * k < n
        )
    return out


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Tracer:
    """Spans in memory: [name, start, end, parent, op, probe, count].

    `call` times one public call.  Disabled, it only forwards the call.
    Probes are calls the traced run adds, outside the timed operation, to see
    inside a layer.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None

    def call(self, name, fn, *args, count=None, probe=False):
        if not self.enabled:
            return fn(*args)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op, probe, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args)
        finally:
            span[2] = perf_counter()
            self.stack.pop()
        if count is not None:
            span[6] = count(result)
        return result

    def probe(self, name, fn, *args):
        return self.call(name, fn, *args, probe=True) if self.enabled else None


def build(sd, tr: Tracer, n: int, j: int, k: int):
    fn = (lambda: sd.petersen(n, k)) if j == 1 else (lambda: sd.igraph(n, j, k))
    return tr.call("families.build", fn)


def check_dds(sd, tr: Tracer, sig, members) -> bool:
    tr.probe("domination.is_k_tuple_dominating", sd.is_k_tuple_dominating, sig.graph, members)
    return tr.call("domination.is_signed_dds", sd.is_signed_dds, sig, members).ok


def solve_failures(sd, tr, sig, result, upper) -> list[str]:
    """Sandwich |V|/2 <= value <= construction size, and the witness re-checked."""
    if result.limits_hit or result.value is None:
        return ["budget hit"]
    out = []
    if not sig.graph.n // 2 <= result.value <= upper:
        out.append(f"sandwich {sig.graph.n // 2} <= {result.value} <= {upper} broken")
    if len(result.witness) != result.value or not check_dds(sd, tr, sig, result.witness):
        out.append("witness rejected")
    return out


class Workload:
    """One closed-loop workload: set-up, rounds of items, one call and one check per item."""

    ROUNDS = 1  # rounds with distinct inputs that record_expected.py records

    def size(self, item) -> int:
        """Operations one item counts for."""
        return 1

    def references(self) -> list:
        """Signatures re-solved one at a time in the traced run (solver workloads)."""
        return []

    def close(self) -> None:
        pass


class Universality(Workload):
    """Acceptance criterion 2's loop: every family instance with n <= 60.

    Set-up builds each graph, constructs its DDS and checks that the cut is a
    forest.  One operation is one random_signature plus one is_signed_dds;
    round r verifies every instance against its r-th signature.
    """

    name = "universality"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.params = family_instances(10 if tiny else 60)
        random.Random(seed).shuffle(self.params)

    def setup(self, sd, tr: Tracer) -> None:
        self.sd = sd
        self.instances = []
        for n, j, k in self.params:
            graph = build(sd, tr, n, j, k).graph
            con = tr.call("constructions.construct", sd.construct_family, n, j, k)
            cut = tr.call("graph.cut_subgraph", sd.cut_subgraph, graph, con.dds)
            forest = tr.call("graph.is_forest", sd.is_forest, cut)
            ok = forest or not con.cut_forest_expected
            self.instances.append((family_key(n, j, k), graph, con.dds, ok))

    def items(self, r: int):
        return [(inst, input_seed(self.seed, inst[0], r)) for inst in self.instances]

    def run(self, item, tr: Tracer):
        (_, graph, dds, _), sseed = item
        sig = tr.call("signed.random_signature", self.sd.random_signature, graph, sseed)
        return tr.call("domination.is_signed_dds", self.sd.is_signed_dds, sig, dds)

    def check(self, item, verdict, tr: Tracer) -> tuple[int, list[str]]:
        (key, graph, dds, forest_ok), sseed = item
        tr.probe("domination.is_k_tuple_dominating", self.sd.is_k_tuple_dominating, graph, dds)
        if not forest_ok:
            return 1, [f"{key}: cut is not a forest"]
        if not verdict.ok:
            return 1, [f"{key} signature {sseed}: {verdict.failure_kind}"]
        return 0, []


class ExactSolve(Workload):
    """min_signed_dds on every P(n,k) and I(n,j,k) (steps <= 5) with 22 <= |V| <= 26.

    SIGNATURES signatures per instance are drawn in set-up, and every round
    solves each instance under each of them.  One operation is one solve.
    """

    name = "exact_solve"
    SIGNATURES = 3

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.params = family_instances(13, min_n=11)
        if tiny:
            self.params = [(11, 1, 1), (11, 1, 3)]

    def setup(self, sd, tr: Tracer) -> None:
        self.sd = sd
        self.instances = []
        for n, j, k in self.params:
            graph = build(sd, tr, n, j, k).graph
            key = family_key(n, j, k)
            upper = tr.call("constructions.construct", sd.construct_family, n, j, k).claimed_size
            sigs = [
                tr.call("signed.random_signature", sd.random_signature, graph, input_seed(self.seed, key, i))
                for i in range(self.SIGNATURES)
            ]
            self.instances.append((key, sigs, upper))

    def items(self, r: int):
        return [(inst, i) for inst in self.instances for i in range(self.SIGNATURES)]

    def run(self, item, tr: Tracer):
        (_, sigs, _), i = item
        return tr.call(
            "domination.solve", self.sd.min_signed_dds, sigs[i], 2, None, sigs[i].graph.n,
            count=lambda res: res.nodes_explored,
        )

    def check(self, item, result, tr: Tracer) -> tuple[int, list[str]]:
        (key, sigs, upper), i = item
        bad = solve_failures(self.sd, tr, sigs[i], result, upper)
        return (1 if bad else 0), [f"{key}/{i}: {b}" for b in bad]

    def entry(self, item, result):
        (key, _, _), i = item
        witness = sorted(result.witness) if result.witness is not None else None
        return f"{key}/{i}", [result.value, witness]

    def references(self):
        return [sigs[0] for _, sigs, _ in self.instances]


class BatchSolve(Workload):
    """Acceptance criterion 3's loop: min_signed_dds_many over every instance with |V| <= 22.

    Each call solves BATCH signatures of one graph in one shared search.  They
    are drawn just before the call, untimed, fresh for each of ROUNDS rounds
    (later rounds repeat them), so a run averages over many signature sets
    without holding them all.  One operation is one signature solved, and
    its latency is the call's time over BATCH.
    """

    name = "batch_solve"
    ROUNDS = 8
    BATCH = 100

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.params = family_instances(5 if tiny else 11)

    def setup(self, sd, tr: Tracer) -> None:
        self.sd = sd
        self.tr = tr
        self.instances = []
        for n, j, k in self.params:
            graph = build(sd, tr, n, j, k).graph
            upper = tr.call("constructions.construct", sd.construct_family, n, j, k).claimed_size
            self.instances.append((family_key(n, j, k), graph, upper))

    def draw(self, key, graph, index):
        return self.tr.call("signed.random_signature", self.sd.random_signature, graph,
                            input_seed(self.seed, key, index))

    def items(self, r: int):
        r %= self.ROUNDS
        for key, graph, upper in self.instances:
            sigs = [self.draw(key, graph, r * self.BATCH + b) for b in range(self.BATCH)]
            yield key, graph, upper, r, sigs

    def size(self, item) -> int:
        return self.BATCH

    def run(self, item, tr: Tracer):
        _, graph, _, _, sigs = item
        return tr.call(
            "domination.batch", self.sd.min_signed_dds_many, graph, sigs,
            count=lambda res: max(x.nodes_explored for x in res),
        )

    def check(self, item, results, tr: Tracer) -> tuple[int, list[str]]:
        key, _, upper, r, sigs = item
        failed, messages = 0, []
        for b, (sig, res) in enumerate(zip(sigs, results, strict=True)):
            bad = solve_failures(self.sd, tr, sig, res, upper)
            failed += bool(bad)
            messages.extend(f"{key}/{r}/{b}: {x}" for x in bad)
        return failed, messages

    def entry(self, item, results):
        key, _, _, r, _ = item
        return f"{key}/{r}", digest(
            [[x.value, sorted(x.witness) if x.witness is not None else None] for x in results]
        )

    def references(self):
        return [self.draw(key, graph, 0) for key, graph, _ in self.instances]


class CliSession(Workload):
    """In-process `sigdom.cli.main(argv)` over files in a scratch directory.

    Per instance: gen, sign, balance, verify, switch, construct, solve, each
    with --json.  One operation is one command; its exit code and its JSON
    `results` are checked.
    """

    name = "cli_session"
    SUBCOMMANDS = ("gen", "sign", "balance", "verify", "switch", "construct", "solve")
    SWITCH_SET = "u0,v1"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.params = [
            (5, 1, 2), (6, 1, 1), (6, 1, 2), (7, 1, 1), (7, 1, 2), (7, 1, 3), (8, 1, 1), (8, 1, 3),
            (9, 1, 2), (9, 1, 4), (10, 1, 3), (7, 2, 3), (8, 2, 3), (9, 2, 3), (10, 2, 4),
        ]
        if tiny:
            self.params = self.params[:1]
        self.tmp = None

    def setup(self, sd, tr: Tracer) -> None:
        self.sd = sd
        self.close()
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        self.commands = []
        for n, j, k in self.params:
            key = family_key(n, j, k)
            fam = build(sd, tr, n, j, k)
            con = tr.call("constructions.construct", sd.construct_family, n, j, k)
            info = sd.FamilyInfo("P", (n, k)) if j == 1 else sd.FamilyInfo("I", (n, j, k))
            dds = sd.format_vertex_set(con.dds, info)
            sseed = input_seed(self.seed, key, 0) % 10**9
            d = self.tmp / key
            d.mkdir()
            edges, sig, switched = str(d / "g.edges"), str(d / "g.sig"), str(d / "sw.sig")
            family = [info.kind, *map(str, info.params)]
            argvs = {
                "gen": ["gen", *family, "-o", edges],
                "sign": ["sign", edges, "--random", "0.5", "--seed", str(sseed), "-o", sig],
                "balance": ["balance", sig],
                "verify": ["verify", sig, "--set", dds],
                "switch": ["switch", sig, "--set", self.SWITCH_SET, "-o", switched],
                "construct": ["construct", *family, "--signatures", "5", "--seed", str(sseed)],
                "solve": ["solve", sig],
            }
            inst = dict(key=key, graph=fam.graph, info=info, con=con, sseed=sseed,
                        sig=sig, switched=switched)
            for sub in self.SUBCOMMANDS:
                self.commands.append((inst, sub, [*argvs[sub], "--json"]))

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def items(self, r: int):
        return self.commands

    def run(self, item, tr: Tracer):
        _, sub, argv = item
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tr.call(f"cli.{sub}", self.sd.cli.main, argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, item, result, tr: Tracer) -> tuple[int, list[str]]:
        inst, sub, _ = item
        tr.probe("cli.parser_build", self.sd.cli.build_parser)
        try:
            bad = self._invariants(inst, sub, result, tr)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            bad = [f"{type(exc).__name__}: {exc}"]
        return (1 if bad else 0), [f"{inst['key']}/{sub}: {b}" for b in bad]

    def _read(self, path: str, tr: Tracer):
        text = Path(path).read_text()
        return tr.call("fileio.read_signed", self.sd.read_signed_edge_list, text)

    def _invariants(self, inst, sub, result, tr: Tracer) -> list[str]:
        sd = self.sd
        code, out, err = result
        if err:
            return [f"stderr: {err.strip()}"]
        res = json.loads(out)["results"]
        graph, con = inst["graph"], inst["con"]
        if sub == "gen":
            ok = code == 0 and res["n"] == graph.n and res["m"] == len(graph.edges)
            return [] if ok else [f"exit {code}, results {res}"]
        signed, family = self._read(inst["sig"], tr)
        if sub == "sign":
            tr.probe("fileio.write_signed", sd.write_signed_edge_list, signed, family)
            want = sd.random_signature(graph, inst["sseed"])
            ok = code == 0 and signed == want and res["negative_edges"] == len(want.negative_edges())
            return [] if ok else [f"exit {code}: signature differs from random_signature"]
        if sub == "balance":
            tr.probe("signed.is_balanced", sd.is_balanced, signed)
            if res["balanced"]:
                marks = [1 if c == "+" else -1 for c in res["marking"]]
                ok = code == 0 and all(signed.signs[(a, b)] == marks[a] * marks[b] for a, b in graph.edges)
            else:
                ok = code == 1 and sd.cycle_sign(signed, res["witness_cycle"]) == -1
            return [] if ok else [f"exit {code}: certificate rejected"]
        if sub == "verify":
            tr.probe("fileio.parse_vertex_spec", sd.parse_vertex_spec,
                     sd.format_vertex_set(con.dds, family), graph.n, family)
            return [] if code == 0 and res["ok"] else [f"exit {code}: construction rejected"]
        if sub == "switch":
            members = tr.call("fileio.parse_vertex_spec", sd.parse_vertex_spec,
                              self.SWITCH_SET, graph.n, family)
            tr.probe("signed.switch", sd.switch, signed, members)
            switched, _ = self._read(inst["switched"], tr)
            ok = code == 0 and all(
                switched.signs[e] == signed.signs[e] * (-1 if (e[0] in members) != (e[1] in members) else 1)
                for e in graph.edges
            )
            return [] if ok else [f"exit {code}: switched signature wrong"]
        if sub == "construct":
            ok = (code == 0 and res["self_check"] and res["claimed_size"] == con.claimed_size
                  and res["set"] == sorted(con.dds))
            return [] if ok else [f"exit {code}, results {res}"]
        solved = sd.SolveResult(res["value"], res["witness"] and frozenset(res["witness"]),
                                res["nodes_explored"], res["limits_hit"])
        return ([] if code == 0 else [f"exit {code}"]) + solve_failures(
            sd, tr, signed, solved, con.claimed_size)

    def entry(self, item, result):
        inst, sub, _ = item
        code, out, _ = result
        try:
            results = json.loads(out)["results"]
        except (ValueError, KeyError):
            results = None
        return f"{inst['key']}/{sub}", [code, digest(results)]


WORKLOADS = {w.name: w for w in (Universality, ExactSolve, BatchSolve, CliSession)}


def import_sigdom():
    """Import sigdom from src/ afresh, the way the Tier-1 suite runs it."""
    for mod in [m for m in sys.modules if m == "sigdom" or m.startswith("sigdom.")]:
        del sys.modules[mod]
    importlib.invalidate_caches()
    sd = importlib.import_module("sigdom")
    importlib.import_module("sigdom.cli")
    return sd


class Tally:
    """Per-operation latency of every call, by its position in the round, and failure counts.

    Position i of every round is the same instance, with the same or a fresh
    input.  An operation's latency is the fastest of its repetitions: the
    machine's speed drifts with other tenants' load, and the fastest
    repetition is the one that drift disturbed least.
    """

    def __init__(self) -> None:
        self.by_position: dict[int, list[float]] = {}
        self.sizes: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, position: int, seconds: float, size: int) -> None:
        self.by_position.setdefault(position, []).append(seconds / size)
        self.sizes[position] = size
        self.attempted += size

    def fastest(self) -> tuple[float, list[float]]:
        """Throughput and per-operation latencies, each position at its fastest repetition."""
        best = {i: min(x) for i, x in self.by_position.items()}
        busy = sum(t * self.sizes[i] for i, t in best.items())
        latencies = [t for i, t in best.items() for _ in range(self.sizes[i])]
        return len(latencies) / busy, latencies


def run_rounds(wl, tr: Tracer, tally: Tally, expected, *, seconds=None, rounds=None):
    """Closed loop over whole rounds: `rounds` of them, or until `seconds` pass (at least one)."""
    start = perf_counter()
    r = 0
    while (r < rounds) if rounds is not None else (r == 0 or perf_counter() - start < seconds):
        for i, item in enumerate(wl.items(r)):
            tr.op = (r, i)
            t0 = perf_counter()
            result = tr.call("op", wl.run, item, tr)
            size = wl.size(item)
            tally.add(i, perf_counter() - t0, size)
            failed, messages = wl.check(item, result, tr)
            if expected is not None:
                key, got = wl.entry(item, result)
                if expected.get(key) != got:
                    failed = size
                    messages.append(f"{key}: expected {expected.get(key)}, got {got}")
            tally.failed += failed
            tally.messages.extend(messages)
        r += 1
    tr.op = None
    return r, perf_counter() - start


def load_expected(name: str, seed: int):
    if seed != DEFAULT_SEED or name == "universality":
        return None
    return json.loads(EXPECTED_PATH.read_text())[name]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(tally: Tally, setup_times: list[float]) -> tuple[dict, dict]:
    """The metrics, and the sample counts behind the latency percentiles."""
    rate, latencies = tally.fastest()
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000 * p90, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, {"samples": len(latencies), "beyond_p90": sum(x > p90 for x in latencies)}


def self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def per_layer(spans: list[list], overhead_pct: float) -> dict:
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        total[s[0]] = total.get(s[0], 0.0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1

    def mean(name: str, scale: float) -> float:
        return scale * total[name] / calls[name] if calls.get(name) else 0.0

    def per_node(selected) -> float:
        nodes = sum(s[6] for s in selected)
        return 1e6 * sum(s[2] - s[1] for s in selected) / nodes if nodes else 0.0

    solves = [s for s in spans if s[0] == "domination.solve"]
    refs = [s for s in solves if s[4][0] == "ref"]
    batches = [s for s in spans if s[0] == "domination.batch"]
    measured = batches or [s for s in solves if s[4][0] != "ref"]
    metrics = {}
    for name, unit in PER_LAYER:
        base = name.rsplit("_", 1)[0]
        metrics[name] = (mean(base, 1e3 if unit == "ms" else 1e6), unit)
    check = metrics["domination.is_signed_dds_us"][0] - metrics["domination.is_k_tuple_dominating_us"][0]
    metrics["domination.cut_check_us"] = (check if calls.get("domination.is_signed_dds") else 0.0, "us")
    metrics["domination.solve_nodes"] = (sum(s[6] for s in refs), "count")
    metrics["domination.us_per_node"] = (per_node(solves), "us")
    metrics["domination.batch_nodes"] = (sum(s[6] for s in batches if s[4][0] == 0), "count")
    metrics["domination.batch_us_per_node"] = (per_node(batches), "us")
    acceptor = per_node(measured) - per_node(refs) if refs else 0.0
    metrics["domination.acceptor_us_per_node"] = (acceptor, "us")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, *, tiny=False, expected=None) -> dict:
    """Run one workload; return its report (metrics, counts, failures)."""
    wl = WORKLOADS[name](seed, tiny)
    tally = Tally()
    tr = Tracer(enabled=trace)
    setup_times = []

    def setup(min_reps, min_seconds):
        while len(setup_times) < min_reps or sum(setup_times) < min_seconds:
            t0 = perf_counter()
            sd = import_sigdom()
            wl.setup(sd, tr)
            setup_times.append(perf_counter() - t0)
        return sd

    try:
        sd = setup(1, 0.0) if trace else setup(SETUP_REPS, SETUP_SECONDS)
        if not trace:
            rounds, wall = run_rounds(wl, tr, tally, expected, seconds=seconds)
            metrics, samples = end_to_end(tally, setup_times)
            extra = {"rounds": rounds, "wall_s": wall, **samples}
        else:
            tr.enabled = False
            rounds, plain = run_rounds(wl, tr, tally, expected, seconds=seconds / 2)
            tr.enabled = True
            traced_tally = Tally()
            _, traced = run_rounds(wl, tr, traced_tally, expected, rounds=rounds)
            overhead = 100 * (tally.fastest()[0] / traced_tally.fastest()[0] - 1)
            tally.attempted += traced_tally.attempted
            tally.failed += traced_tally.failed
            tally.messages += traced_tally.messages
            for i, sig in enumerate(wl.references()):
                tr.op = ("ref", i)
                tr.call("domination.solve", sd.min_signed_dds, sig, 2, None, sig.graph.n,
                        count=lambda res: res.nodes_explored)
            metrics = per_layer(tr.spans, overhead)
            extra = {"rounds": rounds, "untraced_s": plain, "traced_s": traced,
                     "spans": len(tr.spans)}
    finally:
        wl.close()
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": tally.failed / max(tally.attempted, 1),
        "setup_times_s": setup_times,
        "failures": tally.messages[:20],
        **extra,
        "_spans": tr.spans,
    }


def metadata() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def write_report(report: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    spans = report.pop("_spans")
    report["metadata"] = metadata()
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as f:
            for name, start, end, parent, op, probe, count in spans:
                f.write(json.dumps([name, start, end, parent, op, probe, count]) + "\n")
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    return path


def print_table(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}  rounds {report['rounds']}")
    for name, (value, unit) in report["metrics"].items():
        note = ""
        if name in ("op_p50_ms", "op_p90_ms", "ops_per_s"):
            note = (f"  ({report['samples']} operations, each the fastest of "
                    f"{report['rounds']} rounds; {report['beyond_p90']} beyond p90)")
        elif name == "setup_s":
            note = f"  (median of {len(report['setup_times_s'])})"
        print(f"  {name:38s} {value:14.6g} {unit}{note}")
    print(f"  {'fail_ratio':38s} {report['fail_ratio']:14.6g} ratio  "
          f"({report['failed']} of {report['attempted']})")
    for message in report["failures"]:
        print(f"  FAILED {message}")


def result_line(report: dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    })


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is the workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sigdom" / "__init__.py").is_file():
        print(f"error: {SRC / 'sigdom'} not found; run from a sigdom checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     expected=load_expected(args.workload, args.seed))
    path = write_report(report)
    print_table(report)
    print(f"report: {path.relative_to(ROOT)}")
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
