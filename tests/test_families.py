from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from sigdom import (
    FamilyInfo,
    Graph,
    InvalidParametersError,
    cycle_decomposition,
    igraph,
    index_to_label,
    inner_blocks,
    label_to_index,
    petersen,
)
from sigdom.families import MAX_VERTICES


def valid_pnk():
    return st.tuples(st.integers(3, 20), st.integers(1, 9)).filter(
        lambda t: 2 * t[1] < t[0]
    )


def valid_injk():
    return st.tuples(
        st.integers(3, 20), st.integers(1, 9), st.integers(1, 9)
    ).filter(lambda t: t[1] <= t[2] and 2 * t[2] < t[0])


# ------------------------------------------------------------- structure


def rims(fam):
    """(outer rim cycles, spokes, inner rim cycles) of a u/v-labelled family graph.

    Edges with both ends below n form the outer rim, edges with both ends
    at n or above the inner rim, and the rest are spokes.  Each rim is
    2-regular on its n vertices, so its cycle decomposition is exactly its
    cycles, each starting at its smallest vertex.
    """
    n, g = fam.n, fam.graph
    outer = Graph(g.n, [e for e in g.edges if e[1] < n])
    inner = Graph(g.n, [e for e in g.edges if e[0] >= n])
    assert outer.degrees() == (2,) * n + (0,) * n
    assert inner.degrees() == (0,) * n + (2,) * n
    spokes = tuple(e for e in g.edges if e[0] < n <= e[1])
    return cycle_decomposition(outer), spokes, cycle_decomposition(inner)


def test_cube_is_p41():
    fam = petersen(4, 1)
    assert fam.graph == Graph(8, helpers.petersen_edges(4, 1))
    outer, spokes, inner = rims(fam)
    assert spokes == ((0, 4), (1, 5), (2, 6), (3, 7))
    assert outer == ((0, 1, 2, 3),)
    assert inner == ((4, 5, 6, 7),)


def test_petersen_graph_is_p52():
    fam = petersen(5, 2)
    assert fam.graph == Graph(10, helpers.petersen_edges(5, 2))
    assert rims(fam)[2] == ((5, 7, 9, 6, 8),)


@given(valid_pnk())
def test_petersen_is_cubic_with_3n_edges(params):
    n, k = params
    fam = petersen(n, k)
    assert fam.graph.n == 2 * n
    assert len(fam.graph.edges) == 3 * n
    assert fam.graph.is_cubic
    assert fam.graph == igraph(n, 1, k).graph


@given(valid_pnk())
def test_inner_cycle_structure(params):
    n, k = params
    fam = petersen(n, k)
    d = gcd(n, k)
    inner = rims(fam)[2]
    assert len(inner) == d
    assert all(len(c) == n // d for c in inner)
    covered = {v for c in inner for v in c}
    assert covered == set(range(n, 2 * n))
    for cyc in inner:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert b in fam.graph.adj[a]


@given(valid_injk())
def test_igraph_layer_swap_isomorphism(params):
    n, j, k = params
    a = igraph(n, j, k)
    # swapping the two rims must yield outer step k, inner step j
    flip = lambda i: i + n if i < n else i - n
    remapped = {tuple(sorted((flip(x), flip(y)))) for x, y in a.graph.edges}
    swapped = set()
    for i in range(n):
        swapped.add(tuple(sorted((i, (i + k) % n))))
        swapped.add((i, n + i))
        swapped.add(tuple(sorted((n + i, n + (i + j) % n))))
    assert remapped == swapped


@given(valid_injk())
def test_igraph_rims_use_their_own_steps(params):
    n, j, k = params
    fam = igraph(n, j, k)
    assert fam.njk == (n, j, k)
    outer, spokes, inner = rims(fam)
    assert len(outer) == gcd(n, j)
    assert len(inner) == gcd(n, k)
    assert spokes == tuple((i, n + i) for i in range(n))


# -------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "n,k",
    [(2, 1), (4, 2), (5, 3), (3, 0), (6, 3), (0, 1)],
)
def test_petersen_rejects_bad_params(n, k):
    with pytest.raises(InvalidParametersError):
        petersen(n, k)


@pytest.mark.parametrize(
    "n,j,k",
    [(6, 0, 2), (6, 3, 2), (6, 2, 3), (6, 1, 3), (4, 2, 2)],
)
def test_igraph_rejects_bad_params(n, j, k):
    with pytest.raises(InvalidParametersError):
        igraph(n, j, k)


def test_igraph_accepts_equal_steps():
    fam = igraph(7, 2, 2)
    assert fam.graph.is_cubic
    # equal steps: the inner rim is the outer rim moved across the spokes
    outer, _, inner = rims(fam)
    assert inner == tuple(tuple(v + 7 for v in c) for c in outer)


# ----------------------------------------------------------------- labels


def test_label_round_trip_fixed():
    assert label_to_index("u0", 5) == 0
    assert label_to_index("v0", 5) == 5
    assert label_to_index("v4", 5) == 9
    assert index_to_label(9, 5) == "v4"


@given(st.integers(1, 50), st.data())
def test_label_round_trip(n, pick):
    idx = pick.draw(st.integers(0, 2 * n - 1))
    assert label_to_index(index_to_label(idx, n), n) == idx


def test_label_errors():
    with pytest.raises(ValueError):
        label_to_index("w3", 5)
    with pytest.raises(ValueError):
        label_to_index("u5", 5)
    with pytest.raises(ValueError):
        label_to_index("u-1", 5)
    with pytest.raises(ValueError):
        label_to_index("u1\n", 5)
    with pytest.raises(ValueError, match=r"^index 10 out of range for n=5$"):
        index_to_label(10, 5)


def test_family_graph_accessors():
    fam = petersen(5, 2)
    assert fam == FamilyInfo("P", (5, 2)) and hash(fam) == hash(FamilyInfo("P", (5, 2)))
    assert (fam.n, fam.njk, fam.vertices) == (5, (5, 1, 2), 10)
    assert "graph" not in vars(fam)  # built on first access, then kept
    assert fam.graph is fam.graph
    u2, v2 = label_to_index("u2", fam.n), label_to_index("v2", fam.n)
    assert (u2, v2) == (2, 7) and v2 in fam.graph.adj[u2]
    assert index_to_label(7, fam.n) == "v2"


# --------------------------------------------------------------- k4 union


@given(st.integers(1, 5))
def test_k4_union_structure(m):
    g = FamilyInfo("K4U", (m,)).graph
    assert g.n == 4 * m
    assert len(g.edges) == 6 * m
    assert g.is_cubic
    for c in range(m):
        base = 4 * c
        for a in range(4):
            for b in range(a + 1, 4):
                assert base + b in g.adj[base + a]


def test_k4_union_rejects_nonpositive():
    with pytest.raises(InvalidParametersError):
        FamilyInfo("K4U", (0,)).graph


# ---------------------------------------------------------- vertex ceiling


@pytest.mark.parametrize(
    "kind,params,vertices",
    [("P", (50_001, 1), 100_002), ("I", (50_001, 2, 3), 100_002), ("K4U", (25_001,), 100_004)],
)
def test_family_above_the_vertex_ceiling_is_refused(kind, params, vertices):
    # the smallest family of each kind above the ceiling, refused from its vertex count
    header = " ".join(("family", kind, *map(str, params)))
    with pytest.raises(InvalidParametersError) as exc:
        FamilyInfo(kind, params)
    assert str(exc.value) == (
        f"{header} has {vertices} vertices, above the {MAX_VERTICES}-vertex ceiling"
    )


def test_family_parameters_are_checked_before_the_ceiling():
    with pytest.raises(InvalidParametersError, match="needs 1 <= k and 2k < n"):
        petersen(10**9, 10**9)
    with pytest.raises(InvalidParametersError, match="ceiling"):
        igraph(10**30, 2, 3)


def test_family_at_the_vertex_ceiling_is_accepted_without_a_build():
    for fam in (petersen(50_000, 2), igraph(50_000, 2, 3), FamilyInfo("K4U", (25_000,))):
        assert fam.vertices == MAX_VERTICES == 100_000
        assert "graph" not in vars(fam)


# ------------------------------------------------------------ inner blocks


def test_inner_blocks_p17_2():
    blocks = inner_blocks(17, 2)
    assert len(blocks) == 9  # ceil(17/2)
    assert blocks[0] == frozenset({17, 18})
    assert blocks[1] == frozenset({19, 20})
    assert blocks[8] == frozenset({33})  # the short tail block


@given(valid_pnk().filter(lambda t: t[1] >= 2 and gcd(t[0], t[1]) == 1))
def test_inner_blocks_partition(params):
    n, k = params
    blocks = inner_blocks(n, k)
    assert len(blocks) == -(-n // k)
    union = set()
    total = 0
    for b in blocks:
        assert 1 <= len(b) <= k
        total += len(b)
        union |= b
    assert total == n
    assert union == set(range(n, 2 * n))
    # all but possibly the last block have k vertices
    assert all(len(b) == k for b in blocks[:-1])


def test_inner_blocks_rejects_shared_factor():
    with pytest.raises(InvalidParametersError):
        inner_blocks(16, 6)
    with pytest.raises(InvalidParametersError):
        inner_blocks(10, 1)
