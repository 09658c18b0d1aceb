from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdom import (
    InvalidParametersError,
    all_positive,
    construct_family,
    construct_pn1_tight,
    cut_subgraph,
    cycle_decomposition,
    igraph,
    index_to_label,
    is_forest,
    is_signed_dds,
    min_signed_dds,
    petersen,
    random_signature,
)
from sigdom.families import family_cases


def check_universal(n, j, k, result, seeds=range(12)):
    """The set must work no matter how the edges are signed."""
    fam = igraph(n, j, k)
    assert len(result.dds) == result.claimed_size
    for seed in seeds:
        sig = random_signature(fam.graph, seed=seed)
        verdict = is_signed_dds(sig, result.dds)
        assert verdict.ok, (n, j, k, seed, verdict.failure_kind)
    if result.cut_forest_expected:
        assert is_forest(cut_subgraph(fam.graph, result.dds))


# ------------------------------------------------------------------- k = 1


def test_pn1_odd_membership():
    fam = petersen(5, 1)
    r = construct_family(5, 1, 1)
    labels = {index_to_label(i, fam.n) for i in r.dds}
    assert labels == {"u0", "v0", "u2", "v2", "u3", "u4"}
    assert r.claimed_size == 6
    assert r.case_tag == "P_odd_1"


def test_pn1_even_membership():
    fam = petersen(6, 1)
    r = construct_family(6, 1, 1)
    labels = {index_to_label(i, fam.n) for i in r.dds}
    assert labels == {"u0", "v0", "u2", "v2", "u4", "v4", "u5", "v5"}
    assert r.claimed_size == 8
    assert r.case_tag == "P_even_1"


def test_pn1_smallest_even_membership():
    fam = petersen(4, 1)
    r = construct_family(4, 1, 1)
    assert {index_to_label(i, fam.n) for i in r.dds} == {"u0", "v0", "u2", "v2", "u3", "v3"}
    assert r.claimed_size == 6


def test_pn1_triangle_prism_membership():
    fam = petersen(3, 1)
    r = construct_family(3, 1, 1)
    assert {index_to_label(i, fam.n) for i in r.dds} == {"u0", "v0", "u1", "u2"}
    assert r.claimed_size == 4


@given(st.integers(3, 40))
def test_pn1_size_formula(n):
    r = construct_family(n, 1, 1)
    assert r.claimed_size == 2 * (n // 2 + 1)
    assert r.cut_forest_expected


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 24))
def test_pn1_universal(n):
    check_universal(n, 1, 1, construct_family(n, 1, 1))


def test_pn1_tight_even():
    r = construct_pn1_tight(6)
    assert r.claimed_size == 6
    assert r.case_tag == "P_even_1_tight"
    assert not r.cut_forest_expected
    assert is_signed_dds(all_positive(petersen(6, 1).graph), r.dds).ok
    # the cut here is a pair of disjoint cycles, not a forest
    cut = cut_subgraph(petersen(6, 1).graph, r.dds)
    assert not is_forest(cut)
    assert sorted(len(c) for c in cycle_decomposition(cut)) == [6, 6]


def test_pn1_tight_matches_exact_minimum():
    for n in (4, 6, 8):
        r = construct_pn1_tight(n)
        assert min_signed_dds(all_positive(petersen(n, 1).graph)).value == n == r.claimed_size


def test_pn1_tight_smallest_membership():
    fam = petersen(4, 1)
    r = construct_pn1_tight(4)
    assert {index_to_label(i, fam.n) for i in r.dds} == {"u0", "v0", "u2", "v2"}


def test_pn1_tight_rejects_odd():
    with pytest.raises(InvalidParametersError):
        construct_pn1_tight(5)


# --------------------------------------------------------------- gcd = 1


def test_gcd1_p17_2_membership():
    fam = petersen(17, 2)
    r = construct_family(17, 1, 2)
    inner = {index_to_label(i, fam.n) for i in r.dds if i >= 17}
    assert all(i in r.dds for i in range(17))  # whole outer rim
    assert inner == {"v2", "v3", "v6", "v7", "v10", "v11", "v14", "v15"}
    assert r.claimed_size == 25  # n + mk with m = 4
    assert r.case_tag == "gcd1_odd"


def test_gcd1_p15_2_membership():
    fam = petersen(15, 2)
    r = construct_family(15, 1, 2)
    inner = {index_to_label(i, fam.n) for i in r.dds if i >= 15}
    assert all(i in r.dds for i in range(15))
    assert inner == {"v2", "v3", "v6", "v7", "v10", "v11", "v14"}
    assert r.claimed_size == 22  # 2n - mk with m = 4
    assert r.case_tag == "gcd1_even"


@given(
    st.tuples(st.integers(5, 40), st.integers(2, 8)).filter(
        lambda t: 2 * t[1] < t[0] and gcd(t[0], t[1]) == 1
    )
)
def test_gcd1_size_formula(params):
    n, k = params
    r = construct_family(n, 1, k)
    t = -(-n // k)
    m = t // 2
    if t % 2:
        assert r.case_tag == "gcd1_odd"
        assert r.claimed_size == n + m * k
    else:
        assert r.case_tag == "gcd1_even"
        assert r.claimed_size == 2 * n - m * k
    assert r.cut_forest_expected


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(5, 26), st.integers(2, 6)).filter(
        lambda t: 2 * t[1] < t[0] and gcd(t[0], t[1]) == 1
    )
)
def test_gcd1_universal(params):
    n, k = params
    check_universal(n, 1, k, construct_family(n, 1, k))


# -------------------------------------------------------------- gcd = d


def test_gcd_d_p16_6_membership():
    fam = petersen(16, 6)
    r = construct_family(16, 1, 6)
    assert r.claimed_size == 22  # n + d * ceil(n / (3d)) = 16 + 2 * 3
    assert r.case_tag == "gcd_d"
    assert all(i in r.dds for i in range(16))
    # every third vertex along each of the two inner 8-cycles
    inner = {index_to_label(i, fam.n) for i in r.dds if i >= 16}
    assert inner == {"v0", "v2", "v4", "v1", "v3", "v5"}


@given(
    st.tuples(st.integers(5, 40), st.integers(2, 10)).filter(
        lambda t: 2 * t[1] < t[0] and gcd(t[0], t[1]) >= 2
    )
)
def test_gcd_d_size_formula(params):
    n, k = params
    d = gcd(n, k)
    r = construct_family(n, 1, k)
    assert r.case_tag == "gcd_d"
    assert r.claimed_size == n + d * (-(-n // (3 * d)))
    inner = sorted(i for i in r.dds if i >= n)
    assert len(inner) == d * (-(-n // (3 * d)))


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(5, 26), st.integers(2, 8)).filter(
        lambda t: 2 * t[1] < t[0] and gcd(t[0], t[1]) >= 2
    )
)
def test_gcd_d_universal(params):
    n, k = params
    check_universal(n, 1, k, construct_family(n, 1, k))


# --------------------------------------------------------------- I-graphs


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(5, 24), st.integers(2, 5), st.integers(2, 5)).filter(
        lambda t: t[1] <= t[2] and 2 * t[2] < t[0]
    )
)
def test_igraph_construction_universal(params):
    n, j, k = params
    r = construct_family(n, j, k)
    assert r.case_tag in ("igraph_gcd1", "igraph_gcd_d")
    assert r.case_tag == ("igraph_gcd1" if gcd(n, k) == 1 else "igraph_gcd_d")
    check_universal(n, j, k, r)


def test_igraph_construction_size_matches_petersen_case():
    # the inner-rim pattern does not care about the outer step
    assert construct_family(11, 2, 3).claimed_size == construct_family(11, 1, 3).claimed_size
    assert construct_family(12, 2, 3).claimed_size == construct_family(12, 1, 3).claimed_size


# ------------------------------------------------------------------ bounds


def test_upper_bound_k1():
    assert construct_family(7, 1, 1).claimed_size == 8
    assert construct_family(8, 1, 1).claimed_size == 10


def test_upper_bound_gcd1_carries_relaxation():
    # gcd(n, k) = 1 < k: the construction also meets the uniform 3n/2 bound
    for n, size in ((17, 25), (15, 22)):
        b = construct_family(n, 1, 2).claimed_size
        assert b == size
        assert 2 * b <= 3 * n


def test_upper_bound_gcd_d():
    assert construct_family(16, 1, 6).claimed_size == 22


@given(
    st.tuples(st.integers(3, 40), st.integers(1, 6), st.integers(1, 6)).filter(
        lambda t: t[1] <= t[2] and 2 * t[2] < t[0] and (t[1] == 1 or t[2] >= 2)
    )
)
def test_upper_bound_matches_construction(params):
    # the closed-form bound is the size of the set actually built
    n, j, k = params
    result = construct_family(n, j, k)
    assert len(result.dds) == result.claimed_size


@given(
    st.tuples(st.integers(5, 60), st.integers(2, 10)).filter(
        lambda t: 2 * t[1] < t[0] and gcd(t[0], t[1]) == 1
    )
)
def test_gcd1_bound_within_three_halves(params):
    n, k = params
    assert 2 * construct_family(n, 1, k).claimed_size <= 3 * n


# ------------------------------------------------------------------- sweep


def test_sweep_cases_deterministic_and_valid():
    # every P(n, k) with k <= 6, then every I(n, j, k) with 2 <= j <= k <= 5
    ns, steps = range(3, 13), range(2, 6)

    def cases():
        return [*family_cases(ns, (1,), range(1, 7)), *family_cases(ns, steps, steps)]

    first = cases()
    assert first == cases()
    assert (3, 1, 1) in first
    assert (12, 1, 5) in first
    assert (12, 2, 2) in first
    for n, j, k in first:
        fam = igraph(n, j, k)  # must not raise
        assert fam.graph.is_cubic


def test_sweep_cases_k_caps():
    ns = range(3, 31)
    cases = {*family_cases(ns, (1,), range(1, 5)), *family_cases(ns, range(2, 4), range(2, 4))}
    assert all(k <= 4 for n, j, k in cases if j == 1)
    assert all(j <= 3 and k <= 3 for n, j, k in cases if j >= 2)


def test_construct_family_dispatch():
    assert construct_family(9, 1, 1).case_tag == "P_odd_1"
    assert construct_family(17, 1, 2).case_tag == "gcd1_odd"
    assert construct_family(16, 1, 6).case_tag == "gcd_d"
    assert construct_family(11, 2, 3).case_tag == "igraph_gcd1"
    assert construct_family(12, 3, 3).case_tag == "igraph_gcd_d"


def test_parameter_rule_agrees_everywhere():
    def accepts(func, *params):
        try:
            func(*params)
        except InvalidParametersError:
            return False
        return True

    seen = set()
    for n in range(15):
        for j in range(-1, 8):
            for k in range(-1, 8):
                funcs = [igraph, construct_family]
                verdicts = {accepts(f, n, j, k) for f in funcs}
                if j == 1:
                    verdicts.add(accepts(petersen, n, k))
                assert len(verdicts) == 1, (n, j, k)
                seen |= verdicts
    assert seen == {False, True}
