"""End-to-end acceptance checks.

Each test prints one `acceptance criterion N: PASS/FAIL` line (visible with
`pytest -s`) and then asserts, so a red run still names the criterion that
broke.  Runtime caps are asserted where a criterion carries one.
"""
import time
from itertools import combinations
from random import Random

import helpers
from sigdom import (
    FamilyInfo,
    Graph,
    all_positive,
    analyze_half_dds,
    construct_family,
    construct_pn1_tight,
    cubic_lower_bound,
    cut_subgraph,
    igraph,
    is_balanced,
    is_forest,
    is_k_tuple_dominating,
    is_signed_dds,
    min_signed_dds,
    min_signed_dds_many,
    petersen,
    random_signature,
    switch,
    switching_equivalent,
)
from sigdom.families import family_cases

MAX_SWEEP_N = 60


def all_instances(max_n, igraph_step_cap=5):
    """Every valid (n, j, k) with n <= max_n: all Petersen steps, then the
    I-graph steps up to the cap."""
    ns = range(3, max_n + 1)
    steps = range(2, igraph_step_cap + 1)
    return [*family_cases(ns, [1], range(1, max_n)), *family_cases(ns, steps, steps)]


def report(num, label, failures, elapsed=None, cap=None):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s"
        timing += f" < {cap:.0f}s cap]" if cap is not None else "]"
    print(f"\nacceptance criterion {num} ({label}): {status}{timing}")
    for f in failures[:5]:
        print(f"  violation: {f}")
    assert not failures
    if cap is not None:
        assert elapsed < cap


def test_criterion_1_construction_sizes():
    started = time.perf_counter()
    failures = []
    for n, j, k, want in [(17, 1, 2, 25), (15, 1, 2, 22), (16, 1, 6, 22)]:
        r = construct_family(n, j, k)
        if r.claimed_size != want or len(r.dds) != want:
            failures.append((n, k, r.claimed_size, want))
    report(1, "construction sizes", failures, time.perf_counter() - started, 1.0)


def test_criterion_2_universality_sweep():
    started = time.perf_counter()
    failures = []
    for n, j, k in all_instances(MAX_SWEEP_N):
        fam = igraph(n, j, k)
        r = construct_family(n, j, k)
        for seed in range(100):
            sig = random_signature(fam.graph, seed=seed)
            verdict = is_signed_dds(sig, r.dds)
            if not verdict.ok:
                failures.append((n, j, k, seed, verdict.failure_kind))
                break
        if r.cut_forest_expected and not is_forest(cut_subgraph(fam.graph, r.dds)):
            failures.append((n, j, k, "cut not a forest"))
    report(2, "universality sweep", failures, time.perf_counter() - started, 120.0)


def test_criterion_3_solver_sandwich():
    started = time.perf_counter()
    failures = []
    for n, j, k in all_instances(12):
        fam = igraph(n, j, k)
        r = construct_family(n, j, k)
        low = cubic_lower_bound(fam.graph)
        sigs = [random_signature(fam.graph, seed=s) for s in range(20)]
        for s, res in zip(sigs, min_signed_dds_many(fam.graph, sigs)):
            if res.limits_hit or not (low <= res.value <= r.claimed_size):
                failures.append((n, j, k, res.value, low, r.claimed_size))
                break
            if not is_signed_dds(s, res.witness).ok:
                failures.append((n, j, k, "witness rejected"))
                break
    report(3, "exact-solver sandwich", failures, time.perf_counter() - started, 600.0)


def test_criterion_4_tight_cases():
    failures = []
    for n in (4, 6, 8, 10, 12):
        tight = construct_pn1_tight(n)
        sig = all_positive(petersen(n, 1).graph)
        got = min_signed_dds(sig, max_vertices=24).value
        if got != n or not is_signed_dds(sig, tight.dds).ok:
            failures.append(("P", n, 1, got))
    k4 = all_positive(Graph(4, helpers.K4_EDGES))
    if min_signed_dds(k4).value != 2:
        failures.append(("K4", min_signed_dds(k4).value))
    for m in (1, 2, 3):
        got = min_signed_dds(all_positive(FamilyInfo("K4U", (m,)).graph)).value
        if got != 2 * m:
            failures.append(("K4U", m, got))
    report(4, "tight cases", failures)


def test_criterion_5_half_size_structure():
    failures = []
    boards = [petersen(4, 1).graph, Graph(4, helpers.K4_EDGES),
              petersen(6, 1).graph, petersen(3, 1).graph]
    for g in boards:
        half = g.n // 2
        cut_of = lambda d: {e for e in g.edges if (e[0] in d) != (e[1] in d)}
        for cand in combinations(range(g.n), half):
            d = frozenset(cand)
            rep = analyze_half_dds(g, d)
            if rep.is_dds != is_k_tuple_dominating(g, d).ok:
                failures.append((g.n, sorted(d), "is_dds disagrees"))
            if not rep.is_dds:
                continue
            if rep.cut_degrees != (2,) * g.n:
                failures.append((g.n, sorted(d), rep.cut_degrees))
            seen = set()
            for cyc in rep.decomposition:
                for i in range(len(cyc)):
                    e = tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)])))
                    if e in seen:
                        failures.append((g.n, sorted(d), "edge reused"))
                    seen.add(e)
            if seen != cut_of(d):
                failures.append((g.n, sorted(d), "decomposition misses cut"))
    # the outer square of the cube: 1-regular cut, coverage fails
    rep = analyze_half_dds(petersen(4, 1).graph, {0, 1, 2, 3})
    if rep.is_dds or rep.cut_degrees != (1,) * 8:
        failures.append(("counterexample", rep.is_dds, rep.cut_degrees))
    report(5, "half-size structure", failures)


def test_criterion_6_switching_invariance():
    failures = []
    rng = Random(20260816)
    graphs = [petersen(4, 1).graph, petersen(5, 2).graph, Graph(4, helpers.K4_EDGES)]
    for trial in range(50):
        g = graphs[trial % len(graphs)]
        sig = random_signature(g, seed=trial)
        members = {v for v in range(g.n) if rng.random() < 0.5}
        switched = switch(sig, members)
        a = min_signed_dds(sig).value
        b = min_signed_dds(switched).value
        if a != b:
            failures.append((trial, g.n, sorted(members), a, b))
    report(6, "switching invariance", failures)


def test_criterion_7_balance_machinery():
    failures = []
    for name, n, edges in helpers.CORPUS:
        g = Graph(n, edges)
        sigs = [random_signature(g, seed=s) for s in range(20)]
        negs = [helpers.brute_negative_cycles(n, edges, s.signs) for s in sigs]
        for s, neg in zip(sigs, negs):
            if is_balanced(s).balanced != (not neg):
                failures.append((name, "balance routes disagree"))
        for s1, s2, neg1, neg2 in zip(sigs, sigs[1:], negs, negs[1:]):
            if switching_equivalent(s1, s2) != (neg1 == neg2):
                failures.append((name, "equivalence mismatch"))
        # a pair that is switching equivalent by construction
        s0 = sigs[0]
        if not switching_equivalent(s0, switch(s0, set(range(0, n, 2)))):
            failures.append((name, "switched copy not equivalent"))
    report(7, "balance machinery", failures)


def test_criterion_8_desk_scale_scope():
    # the general-n statements are exercised through the property suites and
    # the n <= 60 sweep above; nothing here measures beyond that scale
    failures = []
    if MAX_SWEEP_N > 60:
        failures.append(("sweep exceeds desk scale", MAX_SWEEP_N))
    if any(n > 60 for n, _, _ in all_instances(MAX_SWEEP_N)):
        failures.append("instance beyond n=60")
    report(8, "desk-scale scope", failures)
    print("  larger n is covered by the size-formula and universality "
          "property tests, not by measurement")
