import gc
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from sigdom import (
    Budget,
    DdsVerdict,
    FamilyInfo,
    Graph,
    InfeasibleError,
    NotCubicError,
    SignedGraph,
    SizeLimitExceededError,
    SolveResult,
    WrongCardinalityError,
    all_positive,
    analyze_half_dds,
    construct_family,
    cubic_lower_bound,
    cut_subgraph,
    cycle_sign,
    igraph,
    is_balanced,
    is_forest,
    is_k_tuple_dominating,
    is_signed_dds,
    min_k_tuple_dominating,
    min_signed_dds,
    min_signed_dds_many,
    petersen,
    random_signature,
)
from sigdom.domination import _cut_balanced, _cut_is_forest
from sigdom.families import family_cases

CUBE = Graph(8, helpers.petersen_edges(4, 1))
PETERSEN = Graph(10, helpers.petersen_edges(5, 2))
W7 = Graph(7, helpers.W7_EDGES)
# u0, u2, v0, v2: the cube's cut is both rim 4-cycles
CUBE_RIMS = frozenset({0, 2, 4, 6})
# the even vertices of the 512-cycle cut every one of its edges
CYCLE_512 = Graph(512, [(v, v + 1) for v in range(511)] + [(0, 511)])


def w7_signed():
    signs = {tuple(sorted(e)): 1 for e in helpers.W7_EDGES}
    signs[(0, 1)] = -1
    return SignedGraph(W7, signs)


# ------------------------------------------------------------ verification


@given(helpers.graphs(min_n=2), st.data())
def test_k_tuple_verdict_matches_oracle(data, pick):
    n, edges = data
    g = Graph(n, edges)
    members = set(pick.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
    adj = helpers.closed_neighborhoods(n, edges)
    for k in (1, 2, 3):
        verdict = is_k_tuple_dominating(g, members, k)
        failing = [v for v in range(n) if len(adj[v] & members) < k]
        assert verdict.ok == (not failing)
        if failing:
            assert verdict.failure_kind == "coverage"
            assert verdict.failure_vertex == min(failing)
            assert verdict.failure_multiplicity == len(adj[min(failing)] & members)


def test_k_tuple_verdict_edge_cases():
    for k in (1, 2, 3):
        assert is_k_tuple_dominating(Graph(0), [], k).ok
        assert is_signed_dds(all_positive(Graph(0)), [], k).ok
    # vertex 2 is isolated, so nothing but itself can cover it
    g = Graph(3, [(0, 1)])
    assert is_k_tuple_dominating(g, [0, 1, 2], 1).ok
    assert is_k_tuple_dominating(g, [0, 1], 1) == DdsVerdict(False, "coverage", 2, 0)
    assert is_k_tuple_dominating(g, [0, 1, 2], 2) == DdsVerdict(False, "coverage", 2, 1)
    # a repeated member counts once: N[0] holds one member, not two
    edge = Graph(2, [(0, 1)])
    cov = DdsVerdict(False, "coverage", 0, 1)
    assert is_k_tuple_dominating(edge, [0, 0], 2) == cov
    assert is_signed_dds(all_positive(edge), [0, 0, 0], 2) == cov
    assert is_k_tuple_dominating(edge, [1, 0, 1, 0], 2).ok
    with pytest.raises(ValueError, match=r"^k must be positive, got 0$"):
        is_k_tuple_dominating(edge, [0, 1], 0)
    with pytest.raises(ValueError, match=r"^k must be positive, got 0$"):
        is_signed_dds(all_positive(edge), [0, 1], 0)


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


def _orderings(members):
    # the same members as a sorted list, a reversed list, a set and a generator
    ordered = sorted(members)
    return [ordered, ordered[::-1], set(ordered), (v for v in ordered)]


def test_signed_dds_ignores_member_order():
    s = w7_signed()
    for d in ({2, 4, 5, 6}, {2, 4}, {0, 2, 4, 5, 6}):
        verdicts = [is_signed_dds(s, m) for m in _orderings(d)]
        assert verdicts == [verdicts[0]] * 4
    # the last set's cut is unbalanced, so its witness cycle was compared too
    assert verdicts[0].witness_cycle is not None


@settings(max_examples=200)
@given(helpers.signed_edge_data(min_n=3, max_n=8), st.data())
def test_signed_dds_ignores_member_order_drawn(data, pick):
    n, edges, signs = data
    s = SignedGraph(Graph(n, edges), signs)
    drawn = set(pick.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
    # with every undominated vertex added, k = 1 always reaches the cut check
    adj = helpers.closed_neighborhoods(n, edges)
    members = [*drawn, *(v for v in range(n) if not adj[v] & drawn)]
    shuffled = pick.draw(st.permutations(members))
    for k in (1, 2):
        first = is_signed_dds(s, shuffled, k)
        assert all(is_signed_dds(s, m, k) == first for m in _orderings(members))


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
    assert verdict.witness_cycle == _cut_subgraph_certificate(s, d).witness_cycle


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


def _cut_subgraph_certificate(s, members):
    cut = cut_subgraph(s.graph, members)
    return is_balanced(SignedGraph(cut, {e: s.signs[e] for e in cut.edges}))


@settings(max_examples=200)
@given(helpers.signed_edge_data(min_n=3, max_n=8), st.data())
def test_unbalanced_cut_witness_matches_cut_subgraph_route(data, pick):
    n, edges, signs = data
    s = SignedGraph(Graph(n, edges), signs)
    drawn = set(pick.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)))
    # add every vertex the drawn set leaves undominated, so k = 1 coverage
    # passes and each example reaches the cut check
    adj = helpers.closed_neighborhoods(n, edges)
    members = frozenset(drawn | {v for v in range(n) if not adj[v] & drawn})
    verdict = is_signed_dds(s, members, 1)
    cert = _cut_subgraph_certificate(s, members)
    assert verdict.ok == cert.balanced
    assert verdict.witness_cycle == cert.witness_cycle
    if verdict.ok:
        return
    assert verdict.failure_kind == "unbalanced_cut"
    cycle = verdict.witness_cycle
    cut_edges = set(helpers.brute_cut_edges(edges, members))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (min(a, b), max(a, b)) in cut_edges
    assert helpers.brute_cycle_sign(cycle, signs) == -1


# every P(n, k) and I(n, j, k) (j, k <= 5) with n <= 60, so |V| reaches 120
DESK_CASES = [
    *family_cases(range(3, 61), (1,), range(1, 30)),
    *family_cases(range(5, 61), range(2, 6), range(2, 6)),
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(DESK_CASES),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.01, 0.05, 0.5]),
    st.sampled_from([0.1, 0.3, 0.5, 0.7]),
)
def test_signed_dds_matches_cut_subgraph_route_at_desk_scale(njk, seed, p_neg, density):
    # p_neg = 0 leaves every cut balanced and p_neg = 0.5 almost none, so
    # both verdicts occur; adding the undominated vertices makes k = 1
    # coverage pass, so every example reaches the cut check
    g = igraph(*njk).graph
    s = random_signature(g, seed, p_neg)
    rng = random.Random(seed)
    drawn = {v for v in range(g.n) if rng.random() < density}
    members = frozenset(drawn | {v for v in range(g.n) if drawn.isdisjoint((v, *g.adj[v]))})
    verdict = is_signed_dds(s, members, 1)
    cert = _cut_subgraph_certificate(s, members)
    assert verdict.ok == cert.balanced
    assert verdict.witness_cycle == cert.witness_cycle


@pytest.mark.parametrize("negative", [None, (0, 511), (255, 256)])
def test_long_cut_cycle(negative):
    # the even vertices of a 512-cycle: every edge is a cut edge, so the
    # union-find joins one tree along the whole cycle before it closes
    g = CYCLE_512
    s = SignedGraph(g, {e: -1 if e == negative else 1 for e in g.edges})
    verdict = is_signed_dds(s, range(0, 512, 2), 1)
    cert = _cut_subgraph_certificate(s, range(0, 512, 2))
    assert verdict.ok == cert.balanced == (negative is None)
    assert verdict.witness_cycle == cert.witness_cycle
    assert verdict.witness_cycle == (None if negative is None else tuple(range(512)))


def _assert_cut_routes_agree(g, members):
    d = frozenset(members)
    assert _cut_is_forest(g, d) == is_forest(cut_subgraph(g, d))


@settings(max_examples=200)
@given(helpers.signed_edge_data(min_n=1, max_n=8), st.data())
def test_cut_is_forest_matches_cut_subgraph_route(data, pick):
    n, edges, _ = data
    members = pick.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    _assert_cut_routes_agree(Graph(n, edges), members)


def test_cut_is_forest_matches_cut_subgraph_route_on_constructions():
    for njk in DESK_CASES:
        _assert_cut_routes_agree(igraph(*njk).graph, construct_family(*njk).dds)
    _assert_cut_routes_agree(CUBE, CUBE_RIMS)
    _assert_cut_routes_agree(CYCLE_512, range(0, 512, 2))
    assert not _cut_is_forest(CUBE, CUBE_RIMS)
    assert not _cut_is_forest(CYCLE_512, frozenset(range(0, 512, 2)))


class _SignRead(Exception):
    pass


class _UnreadableSigns(dict):
    def __getitem__(self, e):
        raise _SignRead(e)


def test_forest_cut_is_accepted_without_reading_a_sign():
    for seed, njk in enumerate(DESK_CASES):
        g = igraph(*njk).graph
        s = SignedGraph._trusted(g, _UnreadableSigns(random_signature(g, seed).signs))
        assert is_signed_dds(s, construct_family(*njk).dds).ok
    # a cyclic cut falls back to the signs: the cube's two verdicts there are
    # checked by test_both_rim_cycles_negative_rejects_quarter_set
    with pytest.raises(_SignRead):
        is_signed_dds(SignedGraph._trusted(CUBE, _UnreadableSigns(all_positive(CUBE).signs)), CUBE_RIMS)


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
    assert sorted(len(c) for c in report.decomposition) == [6, 6]


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
        assert {
            (a, b) if a < b else (b, a)
            for cyc in report.decomposition
            for a, b in zip(cyc, cyc[1:] + cyc[:1])
        } == {
            e for e in g.edges if (e[0] in members) != (e[1] in members)
        }


# ----------------------------------------------------------- exact solver


def test_min_k_tuple_frozen_values():
    # frozen against an independent subset enumeration
    assert min_k_tuple_dominating(CUBE).value == 4
    assert min_k_tuple_dominating(PETERSEN).value == 6
    assert min_k_tuple_dominating(PETERSEN, k=1).value == 3
    # search nodes are algorithmic work: a refactor of the search keeps them
    assert min_k_tuple_dominating(PETERSEN).nodes_explored == 88
    assert min_k_tuple_dominating(PETERSEN, k=1).nodes_explored == 25
    r = min_k_tuple_dominating(PETERSEN, k=3)
    assert (r.value, sorted(r.witness), r.nodes_explored) == (9, list(range(9)), 63)
    r = min_k_tuple_dominating(CUBE, k=3)
    assert (r.value, sorted(r.witness), r.nodes_explored) == (6, [0, 1, 2, 4, 6, 7], 12)
    # irregular graphs: the reach rule starts each N[w] from its own |N[w]|
    fan = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    r = min_k_tuple_dominating(fan)
    assert (r.value, sorted(r.witness), r.nodes_explored) == (4, [0, 1, 3, 4], 20)
    r = min_k_tuple_dominating(fan, k=1)
    assert (r.value, sorted(r.witness), r.nodes_explored) == (1, [0], 2)
    wheel = Graph(7, [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)])
    r = min_k_tuple_dominating(wheel)
    assert (r.value, sorted(r.witness), r.nodes_explored) == (3, [0, 1, 4], 19)
    r = min_k_tuple_dominating(wheel, k=3)
    assert (r.value, sorted(r.witness), r.nodes_explored) == (5, [0, 1, 2, 4, 5], 38)
    assert min_k_tuple_dominating(FamilyInfo("K4U", (2,)).graph).value == 4
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert min_k_tuple_dominating(c5).value == 4
    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert min_k_tuple_dominating(path4).value == 4


def test_min_k_tuple_witness_is_lex_smallest():
    r = min_k_tuple_dominating(PETERSEN)
    assert sorted(r.witness) == [0, 1, 2, 3, 6, 7]
    assert is_k_tuple_dominating(PETERSEN, r.witness).ok


@settings(max_examples=60)
@given(helpers.graphs(min_n=1, max_n=7), st.integers(1, 3))
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
    r = min_signed_dds(random_signature(petersen(12, 2).graph, seed=7))
    assert (r.value, r.nodes_explored) == (14, 37946)
    g = petersen(8, 3).graph
    batch = min_signed_dds_many(g, [random_signature(g, seed=seed) for seed in range(6)])
    assert [b.nodes_explored for b in batch] == [793, 160, 160, 902, 793, 1236]


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


def test_wide_batch_equals_solo_solves_field_for_field():
    # 130 signatures carry the acceptor's bit vectors past 64 and 128 bits
    g = petersen(8, 3).graph
    rand = [random_signature(g, seed=seed) for seed in range(125)]
    plus, minus = all_positive(g), SignedGraph(g, {e: -1 for e in g.edges})
    sigs = rand[:63] + [plus, minus] + rand[63:] + [rand[0], rand[70], plus]
    assert len(sigs) == 130
    outcomes = set()
    for budget in (None, Budget(max_nodes=800)):
        batch = min_signed_dds_many(g, sigs, budget=budget)
        assert batch == [min_signed_dds(s, budget=budget) for s in sigs]
        # a cut is bipartite, so all-negative balances wherever all-positive does
        assert batch[63] == batch[64]
        outcomes |= {r.limits_hit for r in batch}
    assert outcomes == {False, True}


@settings(max_examples=60)
@given(helpers.graphs(min_n=1, max_n=12), st.integers(1, 3), st.integers(1, 5), st.data())
def test_node_budget_of_the_full_count_is_exact(data, k, count, pick):
    # with N the unbudgeted node count, max_nodes=N changes nothing, and
    # max_nodes=N-1 stops at node N: the answers found before it stand
    n, edges = data
    g = Graph(n, edges)
    if any(len(nbrs) + 1 < k for nbrs in g.adj):
        return
    sigs = [
        SignedGraph(g, {e: pick.draw(st.sampled_from((1, -1))) for e in edges})
        for _ in range(count)
    ]
    for solve in (
        lambda budget: [min_k_tuple_dominating(g, k, budget)],
        lambda budget: min_signed_dds_many(g, sigs, k, budget),
    ):
        full = solve(None)
        spent = max(r.nodes_explored for r in full)
        assert solve(Budget(max_nodes=spent)) == full
        cut = SolveResult(None, None, spent, True)
        assert solve(Budget(max_nodes=spent - 1)) == [
            r if r.nodes_explored < spent else cut for r in full
        ]


def _budget_graphs():
    named = [("P(5,2)", petersen(5, 2).graph), ("P(7,2)", petersen(7, 2).graph),
             ("K4U(2)", FamilyInfo("K4U", (2,)).graph)]
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        named.append((f"random-{seed}", Graph(n, rng.sample(pairs, rng.randint(n, len(pairs))))))
    return [pytest.param(g, id=name) for name, g in named]


@pytest.mark.parametrize("g", _budget_graphs())
def test_every_node_budget_is_exact(g):
    # for every budget b up to one past the unbudgeted count N, the answers
    # found within b nodes stand and the rest stop at node b + 1
    rng = random.Random(0)
    sigs = [SignedGraph(g, {e: rng.choice((1, -1)) for e in g.edges}) for _ in range(3)]
    for k in range(1, 4):
        if any(len(nbrs) + 1 < k for nbrs in g.adj):
            continue
        for solve in (
            lambda budget: [min_k_tuple_dominating(g, k, budget)],
            lambda budget: min_signed_dds_many(g, sigs, k, budget),
        ):
            full = solve(None)
            spent = max(r.nodes_explored for r in full)
            for b in range(spent + 2):
                assert solve(Budget(max_nodes=b)) == [
                    r if r.nodes_explored <= b else SolveResult(None, None, b + 1, True)
                    for r in full
                ], (k, b)


@settings(max_examples=200)
@given(helpers.signed_edge_data(min_n=0, max_n=10), st.integers(1, 3))
def test_search_matches_the_reference_node_for_node(data, k):
    n, edges, signs = data
    s = SignedGraph(Graph(n, edges), signs)
    for solve, accept in (
        (lambda: min_k_tuple_dominating(s.graph, k), lambda members: True),
        (lambda: min_signed_dds(s, k), lambda members: helpers.bfs_cut_balanced(n, edges, signs, members)),
    ):
        expected = helpers.reference_search(n, edges, k, accept)
        if expected is None:
            with pytest.raises(InfeasibleError):
                solve()
            continue
        r = solve()
        assert (r.value, tuple(sorted(r.witness)), r.nodes_explored) == expected
        assert not r.limits_hit


@given(helpers.graphs(min_n=1, max_n=8), st.integers(1, 70), st.data())
def test_batch_acceptor_matches_bfs_balance_of_each_cut(data, count, pick):
    n, edges = data
    g = Graph(n, edges)
    sigs = [
        SignedGraph(g, {e: pick.draw(st.sampled_from((1, -1))) for e in edges})
        for _ in range(count)
    ]
    accept = _cut_balanced(g, sigs)
    for _ in range(3):
        mask = pick.draw(st.integers(0, (1 << n) - 1))
        pending = pick.draw(st.integers(0, (1 << count) - 1))
        accepted = accept(mask, pending)
        assert accepted & ~pending == 0
        cut = cut_subgraph(g, [v for v in range(n) if mask >> v & 1])
        for i, s in enumerate(sigs):
            if pending >> i & 1:
                balanced = is_balanced(SignedGraph(cut, {e: s.signs[e] for e in cut.edges}))
                assert bool(accepted >> i & 1) == balanced.balanced


def test_batch_solver_count_edges():
    assert min_signed_dds_many(PETERSEN, []) == []
    empty = Graph(0)
    assert min_signed_dds_many(empty, [all_positive(empty)] * 3) == [
        SolveResult(0, frozenset(), 0, False)
    ] * 3
    # an empty batch still gets every check of its input
    refusals = [
        (PETERSEN, {"k": 0}, ValueError, "k must be positive, got 0"),
        (PETERSEN, {"max_vertices": -1}, ValueError, "max_vertices must be >= 0, got -1"),
        (petersen(13, 1).graph, {}, SizeLimitExceededError,
         "26 vertices exceeds the solver cap of 24"),
        (Graph(1), {"k": 2}, InfeasibleError, "vertex 0 has closed neighborhood smaller than k=2"),
    ]
    for graph, kwargs, error, message in refusals:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            min_signed_dds_many(graph, [], **kwargs)


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


@pytest.mark.parametrize("graph", [PETERSEN, Graph(0)])
def test_negative_vertex_cap_is_refused(graph):
    # the cap is at fault, not the graph, whatever the graph's size
    solvers = [
        lambda cap: min_k_tuple_dominating(graph, max_vertices=cap),
        lambda cap: min_signed_dds(all_positive(graph), max_vertices=cap),
        lambda cap: min_signed_dds_many(graph, [all_positive(graph)], max_vertices=cap)[0],
    ]
    for solve in solvers:
        with pytest.raises(ValueError, match=r"^max_vertices must be >= 0, got -1$"):
            solve(-1)
        assert solve(graph.n).value is not None


def test_search_depth_ceiling():
    # the coverage search recurses once per included vertex, so a long cycle must be
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


def test_solves_leave_no_cyclic_garbage():
    # the search's recursive closure must not outlive the solve in a reference cycle
    sig = random_signature(petersen(7, 2).graph, seed=3)
    solves = [
        lambda: min_signed_dds(sig),
        lambda: min_signed_dds(sig, budget=Budget(max_nodes=5)),
        lambda: min_k_tuple_dominating(sig.graph),
        lambda: min_k_tuple_dominating(sig.graph, budget=Budget(max_nodes=5)),
    ]
    gc.collect()
    gc.disable()
    try:
        for solve in solves:
            result = solve()
            assert gc.collect() == 0, result
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "fields",
    [
        {"max_nodes": -1},
        {"max_seconds": -1.0},
        {"max_seconds": float("nan")},
        # a non-number, or a max_nodes that is no int: NaN nodes would never stop the search
        {"max_nodes": "5"},
        {"max_seconds": "1"},
        {"max_nodes": 5.5},
        {"max_nodes": float("nan")},
    ],
)
def test_budget_rejects_negative_or_nan_limits(fields):
    with pytest.raises(ValueError):
        Budget(**fields)


def test_budget_generous_enough_is_invisible():
    r = min_k_tuple_dominating(CUBE, budget=Budget(max_nodes=10**7, max_seconds=60))
    assert not r.limits_hit
    assert r.value == 4


def test_solver_rejects_bad_k():
    with pytest.raises(ValueError):
        min_k_tuple_dominating(CUBE, k=0)
