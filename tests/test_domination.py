import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from sigdom import (
    Budget,
    Graph,
    InfeasibleError,
    NotCubicError,
    SignedGraph,
    SizeLimitExceededError,
    SolveResult,
    WrongCardinalityError,
    all_positive,
    analyze_half_dds,
    cubic_lower_bound,
    cycle_sign,
    domination_multiplicity,
    is_k_tuple_dominating,
    is_signed_dds,
    k4_union,
    min_k_tuple_dominating,
    min_signed_dds,
    min_signed_dds_many,
    petersen,
    random_signature,
)

CUBE = Graph(8, helpers.petersen_edges(4, 1))
PETERSEN = Graph(10, helpers.petersen_edges(5, 2))
W7 = Graph(7, helpers.W7_EDGES)


def w7_signed():
    signs = {tuple(sorted(e)): 1 for e in helpers.W7_EDGES}
    signs[(0, 1)] = -1
    return SignedGraph(W7, signs)


# ------------------------------------------------------------ verification


@given(helpers.graphs(), st.data())
def test_multiplicity_matches_oracle(data, pick):
    n, edges = data
    g = Graph(n, edges)
    members = set(pick.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
    adj = helpers.closed_neighborhoods(n, edges)
    for v in range(n):
        assert domination_multiplicity(g, members, v) == len(adj[v] & members)


@given(helpers.graphs(min_n=2), st.data())
def test_k_tuple_verdict_matches_oracle(data, pick):
    n, edges = data
    g = Graph(n, edges)
    members = set(pick.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
    adj = helpers.closed_neighborhoods(n, edges)
    verdict = is_k_tuple_dominating(g, members, k=2)
    failing = [v for v in range(n) if len(adj[v] & members) < 2]
    assert verdict.ok == (not failing)
    if failing:
        assert verdict.failure_kind == "coverage"
        assert verdict.failure_vertex == min(failing)
        assert verdict.failure_multiplicity == len(adj[min(failing)] & members)


def test_signed_dds_verdict_fields():
    s = w7_signed()
    good = is_signed_dds(s, {2, 4, 5, 6})
    assert good.ok and good.failure_kind == "none"
    cov = is_signed_dds(s, {2, 4})
    assert not cov.ok and cov.failure_kind == "coverage"
    bal = is_signed_dds(s, {0, 2, 4, 5, 6})
    assert not bal.ok and bal.failure_kind == "unbalanced_cut"
    assert bal.witness_cycle is not None
    assert cycle_sign(s, bal.witness_cycle) == -1
    # the witness lives inside the cut: it alternates across the boundary
    d = {0, 2, 4, 5, 6}
    for a, b in zip(bal.witness_cycle, bal.witness_cycle[1:]):
        assert (a in d) != (b in d)


def test_both_rim_cycles_negative_rejects_quarter_set():
    # D = {u0, v0, u2, v2} cuts exactly the two rim 4-cycles of the cube;
    # one negative edge on each makes the verdict an unbalanced cut
    signs = {e: 1 for e in CUBE.edges}
    signs[(0, 1)] = -1
    signs[(4, 5)] = -1
    s = SignedGraph(CUBE, signs)
    d = {0, 4, 2, 6}
    assert is_signed_dds(all_positive(CUBE), d).ok
    verdict = is_signed_dds(s, d)
    assert not verdict.ok
    assert verdict.failure_kind == "unbalanced_cut"
    assert len(verdict.witness_cycle) == 4
    assert cycle_sign(s, verdict.witness_cycle) == -1


def test_any_signature_of_cube_lands_in_narrow_band():
    # every one of the 2^12 signatures has its minimum between 4 and 6
    values = set()
    for start in range(0, 1 << 12, 512):
        sigs = []
        for m in range(start, start + 512):
            signs = {
                e: -1 if (m >> i) & 1 else 1 for i, e in enumerate(CUBE.edges)
            }
            sigs.append(SignedGraph(CUBE, signs))
        for r in min_signed_dds_many(CUBE, sigs):
            values.add(r.value)
    assert values == {4, 5, 6}


def test_cut_balance_condition_is_not_monotone():
    # enlarging a working set can break it, so the cut condition is not
    # monotone under taking supersets
    s = w7_signed()
    assert is_signed_dds(s, {2, 4, 5, 6}).ok
    assert not is_signed_dds(s, {0, 2, 4, 5, 6}).ok


def test_coverage_is_monotone_on_w7():
    s = w7_signed()
    base = {2, 4, 5, 6}
    for extra in range(7):
        verdict = is_signed_dds(s, base | {extra})
        assert verdict.failure_kind != "coverage"


@given(helpers.signed_edge_data(min_n=2, max_n=7), st.data())
def test_signed_dds_verdict_matches_oracle(data, pick):
    n, edges, signs = data
    s = SignedGraph(Graph(n, edges), signs)
    members = set(pick.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
    adj = helpers.closed_neighborhoods(n, edges)
    ok = all(len(adj[v] & members) >= 2 for v in range(n)) and helpers.brute_cut_balanced(
        n, edges, signs, members
    )
    assert is_signed_dds(s, members).ok == ok


# ----------------------------------------------------------- lower bounds


def test_cubic_lower_bound_values():
    assert cubic_lower_bound(CUBE) == 4
    assert cubic_lower_bound(PETERSEN) == 5
    assert cubic_lower_bound(petersen(17, 2).graph) == 17
    with pytest.raises(NotCubicError):
        cubic_lower_bound(Graph(3, [(0, 1)]))


# ------------------------------------------------------ half-size analysis


def test_half_dds_tight_p61():
    fam = petersen(6, 1)
    report = analyze_half_dds(fam.graph, {0, 2, 4, 6, 8, 10})
    assert report.is_dds
    assert report.cut_degrees == (2,) * 12
    assert sorted(len(c) for c in report.decomposition.cycles) == [6, 6]


def test_half_dds_counterexample_outer_square():
    # the outer square of the cube: cut is only 1-regular and coverage fails
    report = analyze_half_dds(CUBE, {0, 1, 2, 3})
    assert not report.is_dds
    assert report.cut_degrees == (1,) * 8
    assert report.decomposition is None


def test_half_dds_guards():
    with pytest.raises(WrongCardinalityError):
        analyze_half_dds(CUBE, {0, 1, 2})
    with pytest.raises(NotCubicError):
        analyze_half_dds(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), {0, 1})


@settings(max_examples=40)
@given(st.sampled_from([(4, 1), (3, 1), (5, 2), (6, 1)]), st.data())
def test_half_dds_structure_property(params, pick):
    n, k = params
    g = petersen(n, k).graph
    members = frozenset(pick.draw(st.permutations(range(2 * n)))[:n])
    report = analyze_half_dds(g, members)
    if report.is_dds:
        assert report.cut_degrees == (2,) * (2 * n)
        assert set(report.decomposition.edges()) == {
            e for e in g.edges if (e[0] in members) != (e[1] in members)
        }


# ----------------------------------------------------------- exact solver


def test_min_k_tuple_frozen_values():
    # frozen against an independent subset enumeration
    assert min_k_tuple_dominating(CUBE).value == 4
    assert min_k_tuple_dominating(PETERSEN).value == 6
    assert min_k_tuple_dominating(PETERSEN, k=1).value == 3
    assert min_k_tuple_dominating(k4_union(2)).value == 4
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert min_k_tuple_dominating(c5).value == 4
    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert min_k_tuple_dominating(path4).value == 4


def test_min_k_tuple_witness_is_lex_smallest():
    r = min_k_tuple_dominating(PETERSEN)
    assert sorted(r.witness) == [0, 1, 2, 3, 6, 7]
    assert is_k_tuple_dominating(PETERSEN, r.witness).ok


@settings(max_examples=60)
@given(helpers.graphs(min_n=1, max_n=7), st.integers(1, 2))
def test_min_k_tuple_matches_oracle(data, k):
    n, edges = data
    g = Graph(n, edges)
    expected = helpers.brute_min_k_tuple(n, edges, k)
    if expected is None:
        with pytest.raises(InfeasibleError):
            min_k_tuple_dominating(g, k=k)
        return
    r = min_k_tuple_dominating(g, k=k)
    assert r.value == expected[0]
    assert r.witness == frozenset(expected[1])
    assert not r.limits_hit


def test_min_signed_frozen_values():
    for signs_patch, want in [({}, 4), ({(0, 1): -1}, 4)]:
        signs = {e: 1 for e in CUBE.edges}
        signs.update(signs_patch)
        r = min_signed_dds(SignedGraph(CUBE, signs))
        assert r.value == want
        assert sorted(r.witness) == [0, 1, 6, 7]
    signs = {e: 1 for e in PETERSEN.edges}
    signs[(0, 5)] = -1
    r = min_signed_dds(SignedGraph(PETERSEN, signs))
    assert r.value == 6
    assert sorted(r.witness) == [0, 1, 2, 4, 5, 6]


@settings(max_examples=60)
@given(helpers.signed_edge_data(min_n=2, max_n=7))
def test_min_signed_matches_oracle(data):
    n, edges, signs = data
    s = SignedGraph(Graph(n, edges), signs)
    expected = helpers.brute_min_signed_dds(n, edges, signs)
    if expected is None:
        with pytest.raises(InfeasibleError):
            min_signed_dds(s)
        return
    r = min_signed_dds(s)
    assert r.value == expected[0]
    assert r.witness == frozenset(expected[1])
    assert is_signed_dds(s, r.witness).ok


@settings(max_examples=30)
@given(helpers.graphs(min_n=2, max_n=7), st.data())
def test_batch_solver_matches_individual_calls(data, pick):
    n, edges = data
    g = Graph(n, edges)
    adj = helpers.closed_neighborhoods(n, edges)
    if any(len(adj[v]) < 2 for v in range(n)):
        return
    sigs = [
        SignedGraph(g, {e: pick.draw(st.sampled_from((1, -1))) for e in edges})
        for _ in range(3)
    ]
    batch = min_signed_dds_many(g, sigs)
    for s, r in zip(sigs, batch):
        solo = min_signed_dds(s)
        assert r.value == solo.value
        assert r.witness == solo.witness


def test_batch_of_one_equals_single_solve_field_for_field():
    g = petersen(8, 3).graph
    outcomes = set()
    for seed in range(6):
        s = random_signature(g, seed=seed)
        for budget in (None, Budget(max_nodes=200)):
            solo = min_signed_dds(s, budget=budget)
            assert min_signed_dds_many(g, [s], budget=budget) == [solo]
            outcomes.add(solo.limits_hit)
    assert outcomes == {False, True}  # the budget both resolved and cut off solves


def test_budget_exhausted_batch_marks_every_unresolved_signature():
    g = petersen(8, 3).graph
    sigs = [random_signature(g, seed=seed) for seed in range(6)]
    budget = Budget(max_nodes=800)
    full = min_signed_dds_many(g, sigs)
    batch = min_signed_dds_many(g, sigs, budget=budget)
    assert batch == [min_signed_dds(s, budget=budget) for s in sigs]
    cut_off = [r for r, f in zip(batch, full) if f.nodes_explored > 800]
    assert 0 < len(cut_off) < len(sigs)
    for r, f in zip(batch, full):
        if f.nodes_explored <= 800:
            assert r == f
    spent = cut_off[0].nodes_explored
    assert spent > 800
    assert all(r == SolveResult(None, None, spent, True) for r in cut_off)


def test_batch_solver_rejects_foreign_signature():
    other = all_positive(Graph(8, helpers.petersen_edges(4, 1)[:-1]))
    with pytest.raises(ValueError):
        min_signed_dds_many(CUBE, [all_positive(CUBE), other])


# ------------------------------------------------------------ guard rails


def test_infeasible_isolated_vertex():
    with pytest.raises(InfeasibleError):
        min_k_tuple_dominating(Graph(1, []), k=2)
    with pytest.raises(InfeasibleError):
        min_signed_dds(all_positive(Graph(3, [(0, 1)])))


def test_vertex_cap():
    big = petersen(13, 1).graph
    with pytest.raises(SizeLimitExceededError):
        min_k_tuple_dominating(big)
    assert min_k_tuple_dominating(big, max_vertices=26).value is not None


def test_search_depth_ceiling():
    # the coverage search recurses once per vertex, so a long cycle must be
    # refused up front rather than overflow Python's recursion limit
    n = 1800
    cycle = all_positive(Graph(n, [(i, (i + 1) % n) for i in range(n)]))
    with pytest.raises(SizeLimitExceededError):
        min_signed_dds(cycle, max_vertices=2000)
    with pytest.raises(SizeLimitExceededError):
        min_k_tuple_dominating(cycle.graph, max_vertices=2000)


def test_budget_node_limit():
    r = min_k_tuple_dominating(PETERSEN, budget=Budget(max_nodes=1))
    assert r.limits_hit
    assert r.value is None and r.witness is None
    assert r.nodes_explored >= 1


def test_budget_time_limit():
    r = min_signed_dds(all_positive(PETERSEN), budget=Budget(max_seconds=0.0))
    assert r.limits_hit
    assert r.value is None


def test_budget_generous_enough_is_invisible():
    r = min_k_tuple_dominating(CUBE, budget=Budget(max_nodes=10**7, max_seconds=60))
    assert not r.limits_hit
    assert r.value == 4


def test_solver_rejects_bad_k():
    with pytest.raises(ValueError):
        min_k_tuple_dominating(CUBE, k=0)


def test_result_serialization():
    r = min_k_tuple_dominating(CUBE)
    d = r.to_dict()
    assert d["value"] == 4
    assert d["witness"] == sorted(r.witness)
    assert d["limits_hit"] is False
    v = is_signed_dds(w7_signed(), {0, 2, 4, 5, 6}).to_dict()
    assert v["ok"] is False
    assert v["failure_kind"] == "unbalanced_cut"
