import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from sigdom import (
    CycleDecomposition,
    Graph,
    NotEvenGraphError,
    SizeLimitExceededError,
    canonical_cycle,
    cut_subgraph,
    cycle_decomposition,
    edge_cut,
    enumerate_cycles,
    is_even,
    is_forest,
    vertex_subset,
)

CUBE = helpers.petersen_edges(4, 1)


# ------------------------------------------------------------ construction


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1),)


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(-1, 0)])


def test_rejects_negative_vertex_count():
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_equality_and_hash():
    a = Graph(4, [(0, 1), (2, 3)])
    b = Graph(4, [(2, 3), (1, 0)])
    c = Graph(5, [(0, 1), (2, 3)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_cube_closed_neighborhoods():
    # frozen from an independent adjacency computation
    expected = {
        0: {0, 1, 3, 4}, 1: {0, 1, 2, 5}, 2: {1, 2, 3, 6}, 3: {0, 2, 3, 7},
        4: {0, 4, 5, 7}, 5: {1, 4, 5, 6}, 6: {2, 5, 6, 7}, 7: {3, 4, 6, 7},
    }
    g = Graph(8, CUBE)
    for v, want in expected.items():
        assert g.closed_neighborhood(v) == frozenset(want)
    assert g.is_cubic
    assert g.is_regular(3)


@given(helpers.graphs())
def test_degrees_match_adjacency(data):
    n, edges = data
    g = Graph(n, edges)
    adj = helpers.closed_neighborhoods(n, edges)
    for v in range(n):
        assert g.degree(v) == len(adj[v]) - 1
        assert g.closed_neighborhood(v) == frozenset(adj[v])
    assert sum(g.degrees()) == 2 * len(edges)


@given(helpers.graphs(max_n=12), st.data())
def test_adjacency_lists_are_ascending(data, pick):
    # BFS certificates and cycle walks scan g.adj[v] and rely on this order
    n, edges = data
    shuffled = pick.draw(st.permutations(edges))
    flips = pick.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    g = Graph(n, [(b, a) if f else (a, b) for (a, b), f in zip(shuffled, flips)])
    adj = helpers.closed_neighborhoods(n, edges)
    for v in range(n):
        assert list(g.adj[v]) == sorted(adj[v] - {v})


def test_vertex_subset_validation():
    g = Graph(4, [(0, 1)])
    assert vertex_subset(g, [2, 0]) == frozenset({0, 2})
    with pytest.raises(ValueError):
        vertex_subset(g, [4])
    with pytest.raises(ValueError):
        vertex_subset(g, [-1])


# ------------------------------------------------------------------- cuts


@given(helpers.graphs(min_n=1, max_n=8), st.data())
def test_edge_cut_membership(data, pick):
    n, edges = data
    g = Graph(n, edges)
    members = frozenset(
        pick.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    )
    cut = edge_cut(g, members)
    assert cut.left == members
    assert set(cut.edges) == set(helpers.brute_cut_edges(g.edges, members))
    for a, b in cut.edges:
        assert (a in members) != (b in members)


def test_cut_subgraph_keeps_vertex_space():
    g = Graph(8, CUBE)
    sub = cut_subgraph(g, frozenset({0, 1, 2, 3}))
    assert sub.n == 8
    assert all(e in g.edges for e in sub.edges)
    # the outer square of the cube cuts exactly the four spokes
    assert sub.edges == ((0, 4), (1, 5), (2, 6), (3, 7))


# ------------------------------------------------------- even / forest


def test_is_even_fixed_cases():
    assert is_even(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_even(Graph(3, [(0, 1)]))
    assert is_even(Graph(2, []))


def test_is_forest_fixed_cases():
    assert is_forest(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert is_forest(Graph(3, []))
    assert not is_forest(Graph(3, [(0, 1), (1, 2), (0, 2)]))


@given(helpers.even_graphs())
def test_even_graph_strategy_is_even(data):
    n, edges = data
    assert is_even(Graph(n, edges))


@given(helpers.graphs())
def test_forest_iff_no_cycles(data):
    n, edges = data
    g = Graph(n, edges)
    assert is_forest(g) == (not helpers.brute_cycles(n, edges))


# ---------------------------------------------------- cycle decomposition


@given(helpers.even_graphs())
def test_cycle_decomposition_properties(data):
    n, edges = data
    g = Graph(n, edges)
    dec = cycle_decomposition(g)
    assert isinstance(dec, CycleDecomposition)
    seen = set()
    for cyc in dec.cycles:
        assert len(cyc) >= 3
        assert len(set(cyc)) == len(cyc)
        for i in range(len(cyc)):
            e = tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)])))
            assert e in g.edges
            assert e not in seen
            seen.add(e)
    assert seen == set(g.edges)
    assert set(dec.edges()) == set(g.edges)


def test_cycle_decomposition_rejects_odd_degree():
    with pytest.raises(NotEvenGraphError):
        cycle_decomposition(Graph(2, [(0, 1)]))


def test_cycle_decomposition_two_triangles_sharing_vertex():
    g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    dec = cycle_decomposition(g)
    assert sorted(len(c) for c in dec.cycles) == [3, 3]


# --------------------------------------------------------- canonical form


def test_canonical_cycle_fixed():
    assert canonical_cycle((2, 0, 1)) == (0, 1, 2)
    assert canonical_cycle((3, 2, 1, 0)) == (0, 1, 2, 3)


@given(st.lists(st.integers(0, 30), min_size=3, max_size=9, unique=True), st.data())
def test_canonical_cycle_invariance(verts, pick):
    cyc = tuple(verts)
    rot = pick.draw(st.integers(0, len(cyc) - 1))
    rotated = cyc[rot:] + cyc[:rot]
    if pick.draw(st.booleans()):
        rotated = tuple(reversed(rotated))
    assert canonical_cycle(rotated) == canonical_cycle(cyc)
    canon = canonical_cycle(cyc)
    assert canon[0] == min(cyc)
    assert canon[1] < canon[-1]


# ------------------------------------------------------ cycle enumeration


def test_k4_has_seven_cycles():
    # frozen: 4 triangles + 3 quadrilaterals, enumerated independently
    got = enumerate_cycles(Graph(4, helpers.K4_EDGES))
    assert set(got) == {
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3),
    }


@settings(max_examples=60)
@given(helpers.graphs(max_n=7))
def test_enumerate_cycles_matches_oracle(data):
    n, edges = data
    got = enumerate_cycles(Graph(n, edges))
    assert set(got) == helpers.brute_cycles(n, edges)
    assert len(got) == len(set(got))


def test_enumerate_cycles_size_guard():
    big = Graph(70, [(i, (i + 1) % 70) for i in range(70)])
    with pytest.raises(SizeLimitExceededError):
        enumerate_cycles(big)
    assert len(enumerate_cycles(big, max_edges=70)) == 1
