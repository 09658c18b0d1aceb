import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from sigdom import (
    Graph,
    NotACycleError,
    SignedGraph,
    UnderlyingGraphMismatchError,
    all_positive,
    cycle_sign,
    is_balanced,
    random_signature,
    switch,
    switching_equivalent,
)

K4 = Graph(4, helpers.K4_EDGES)


def k4_one_negative():
    signs = {e: 1 for e in K4.edges}
    signs[(0, 1)] = -1
    return SignedGraph(K4, signs)


# ------------------------------------------------------------ construction


def test_signature_must_cover_edges_exactly():
    with pytest.raises(ValueError):
        SignedGraph(K4, {(0, 1): 1})
    with pytest.raises(ValueError):
        signs = {e: 1 for e in K4.edges}
        signs[(0, 1)] = 0
        SignedGraph(K4, signs)
    with pytest.raises(ValueError):
        signs = {e: 1 for e in K4.edges}
        signs[(1, 0)] = -1  # same edge, other orientation, other sign
        SignedGraph(K4, signs)
    with pytest.raises(ValueError):
        SignedGraph(Graph(4, [(0, 1)]), {(0, 1): 1, (2, 3): 1})  # extra edge


@given(helpers.graphs(max_n=8), st.integers(0, 2**32 - 1), st.data())
def test_library_built_signatures_pass_validation(data, seed, pick):
    # random_signature, switch and all_positive skip SignedGraph's checks;
    # re-validating their tables must give back the same signed graph
    n, edges = data
    g = Graph(n, edges)
    members = pick.draw(st.lists(st.integers(0, n - 1), max_size=n))
    rnd = random_signature(g, seed, 0.5)
    for s in (rnd, all_positive(g), switch(rnd, members)):
        assert SignedGraph(s.graph, s.signs) == s
    for s in (rnd, all_positive(g)):
        assert tuple(s.signs) == s.graph.edges


def test_equality_hash_and_repr():
    a, b = k4_one_negative(), k4_one_negative()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != all_positive(K4)
    assert (all_positive(K4) == K4) is False  # __eq__ defers to the other operand
    assert repr(all_positive(K4)) == "SignedGraph(n=4, m=6, negatives=0)"


def test_reversed_orientation_with_same_sign_is_fine():
    signs = {e: 1 for e in K4.edges}
    signs[(1, 0)] = 1
    s = SignedGraph(K4, signs)
    assert s.sign(0, 1) == 1
    assert s.sign(1, 0) == 1


def test_sign_of_non_edge_raises():
    s = all_positive(Graph(3, [(0, 1)]))
    with pytest.raises(NotACycleError):
        s.sign(0, 2)


def test_negative_edges_listing():
    s = k4_one_negative()
    assert s.negative_edges() == ((0, 1),)
    assert all_positive(K4).negative_edges() == ()


# -------------------------------------------------------------- cycle sign


def test_cycle_sign_needs_three_vertices():
    with pytest.raises(NotACycleError):
        cycle_sign(all_positive(K4), (0, 1))


@given(helpers.signed_edge_data(min_n=3, max_n=7))
def test_cycle_sign_matches_oracle(data):
    n, edges, signs = data
    s = SignedGraph(Graph(n, edges), signs)
    for cyc in helpers.brute_cycles(n, edges):
        assert cycle_sign(s, cyc) == helpers.brute_cycle_sign(cyc, signs)


# ----------------------------------------------------------------- balance


@given(helpers.signed_edge_data())
def test_is_balanced_agrees_with_cycle_enumeration(data):
    n, edges, signs = data
    s = SignedGraph(Graph(n, edges), signs)
    cert = is_balanced(s)
    assert cert.balanced == helpers.brute_is_balanced(n, edges, signs)


@given(helpers.signed_edge_data())
def test_balance_certificate_checks_out(data):
    n, edges, signs = data
    s = SignedGraph(Graph(n, edges), signs)
    cert = is_balanced(s)
    if cert.balanced:
        mu = cert.marking
        assert cert.witness_cycle is None
        assert mu is not None and len(mu) == n
        assert all(m in (1, -1) for m in mu)
        for a, b in edges:
            assert signs[(a, b)] == mu[a] * mu[b]
    else:
        cyc = cert.witness_cycle
        assert cert.marking is None
        assert cyc is not None
        assert cyc in helpers.brute_cycles(n, edges)
        assert helpers.brute_cycle_sign(cyc, signs) == -1


@given(helpers.graphs())
def test_all_positive_is_balanced(data):
    n, edges = data
    cert = is_balanced(all_positive(Graph(n, edges)))
    assert cert.balanced
    assert cert.marking == (1,) * n


def test_component_roots_marked_positive():
    g = Graph(4, [(0, 1), (2, 3)])
    s = SignedGraph(g, {(0, 1): -1, (2, 3): -1})
    cert = is_balanced(s)
    assert cert.balanced
    assert cert.marking == (1, -1, 1, -1)


# --------------------------------------------------------------- switching


@given(helpers.signed_edge_data(), st.data())
def test_switch_flips_exactly_the_cut(data, pick):
    n, edges, signs = data
    s = SignedGraph(Graph(n, edges), signs)
    members = set(pick.draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True)))
    members &= set(range(n))
    sw = switch(s, members)
    for a, b in edges:
        flipped = (a in members) != (b in members)
        assert sw.signs[(a, b)] == (-signs[(a, b)] if flipped else signs[(a, b)])
    back = switch(sw, members)
    assert back == s


@given(helpers.signed_edge_data(), st.data())
def test_switching_preserves_cycle_signs(data, pick):
    n, edges, signs = data
    s = SignedGraph(Graph(n, edges), signs)
    members = set(pick.draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True)))
    members &= set(range(n))
    sw = switch(s, members)
    before = helpers.brute_negative_cycles(n, edges, signs)
    assert helpers.brute_negative_cycles(n, edges, sw.signs) == before
    assert is_balanced(sw).balanced == is_balanced(s).balanced
    assert switching_equivalent(s, sw)


def test_switch_claw_center():
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    sw = switch(all_positive(claw), {0})
    assert sw.negative_edges() == claw.edges


def test_switching_equivalent_negative_case():
    s = all_positive(K4)
    assert not switching_equivalent(s, k4_one_negative())


def test_switching_equivalent_rejects_different_graphs():
    with pytest.raises(UnderlyingGraphMismatchError):
        switching_equivalent(all_positive(K4), all_positive(Graph(4, [(0, 1)])))


@given(helpers.signed_edge_data(min_n=3, max_n=7), st.data())
def test_switching_equivalent_iff_same_negative_cycles(data, pick):
    n, edges, signs = data
    g = Graph(n, edges)
    other = {e: pick.draw(st.sampled_from((1, -1))) for e in edges}
    s1 = SignedGraph(g, signs)
    s2 = SignedGraph(g, other)
    same_cycles = helpers.brute_negative_cycles(
        n, edges, signs
    ) == helpers.brute_negative_cycles(n, edges, other)
    assert switching_equivalent(s1, s2) == same_cycles


# --------------------------------------------------------------- randomness


def test_random_signature_deterministic():
    g = Graph(8, helpers.petersen_edges(4, 1))
    a = random_signature(g, seed=7)
    b = random_signature(g, seed=7)
    c = random_signature(g, seed=8)
    assert a == b
    assert a != c


def test_random_signature_extremes():
    g = K4
    assert random_signature(g, seed=0, p_neg=0.0) == all_positive(g)
    allneg = random_signature(g, seed=0, p_neg=1.0)
    assert allneg.negative_edges() == g.edges


def test_random_signature_rejects_negative_seed():
    g = Graph(18, helpers.petersen_edges(9, 2))
    assert random.Random(-3).random() == random.Random(3).random()  # why it is refused
    with pytest.raises(ValueError, match="seed"):
        random_signature(g, seed=-3)


def test_random_signature_rejects_bad_probability():
    with pytest.raises(ValueError):
        random_signature(K4, seed=0, p_neg=1.5)


# ---------------------------------------------------------- cycle listing


def test_c5_one_negative_cycle_set():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    signs = {e: 1 for e in c5.edges}
    signs[(2, 3)] = -1
    assert helpers.brute_negative_cycles(5, c5.edges, signs) == {(0, 1, 2, 3, 4)}


def test_k4_one_negative_cycle_set():
    # frozen independently: the four cycles through the edge (0, 1)
    got = helpers.brute_negative_cycles(4, K4.edges, k4_one_negative().signs)
    assert got == {(0, 1, 2), (0, 1, 3), (0, 1, 2, 3), (0, 1, 3, 2)}
