"""Closed-form double dominating sets for the rim-and-spoke families.

`construct_family` is the entry point: it returns the set together with its
claimed size and a case tag.  Except for the tight even case, the cut
[D : V-D] of each set is a forest, so the set double dominates under *every*
signature, and its size bounds the signed double domination number from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .families import InvalidParametersError, inner_blocks, validate_params


@dataclass(frozen=True)
class ConstructionResult:
    dds: frozenset[int]
    claimed_size: int
    case_tag: str
    cut_forest_expected: bool


def _even_pairs(n: int) -> set[int]:
    """Every even u/v pair of P(n, 1): {u_2i, v_2i} for 0 <= i < n // 2."""
    return {w for i in range(n // 2) for w in (2 * i, n + 2 * i)}


def _pn1(n: int) -> tuple[set[int], int, str]:
    """Size 2(floor(n/2)+1) set for P(n, 1): every even u/v pair plus a tail pair.

    Odd n = 2m+1 >= 3 finishes with {u_{2m-1}, u_{2m}}; even n = 2m with
    {u_{2m-1}, v_{2m-1}}.  Both leave the cut a disjoint union of paths.
    """
    m = n // 2
    members = _even_pairs(n)
    if n % 2:
        members.update((2 * m - 1, 2 * m))
        tag = "P_odd_1"
    else:
        members.update((2 * m - 1, n + 2 * m - 1))
        tag = "P_even_1"
    return members, 2 * m + 2, tag


def construct_pn1_tight(n: int) -> ConstructionResult:
    """The half-order set {u_even, v_even} for even P(n, 1).

    Its cut is both rims, so unlike the other constructions this one is
    signature-specific: it is a signed DDS only under signatures whose rim
    cycles are positive, such as the all-positive one.
    """
    if n < 4 or n % 2:
        raise InvalidParametersError(f"the tight case needs even n >= 4, got n={n}")
    return ConstructionResult(frozenset(_even_pairs(n)), n, "P_even_1_tight", False)


def _gcd1(n: int, k: int) -> tuple[set[int], int, str]:
    """All outer vertices plus every second inner block, for gcd(n, k) = 1 < k, 2k < n.

    With t = ceil(n/k) blocks the selected blocks are V_2, V_4, ..., V_{2*(t//2)};
    the size is n + (t//2)*k for odd t and 2n - (t//2)*k for even t.
    """
    blocks = inner_blocks(n, k)
    t = len(blocks)
    m = t // 2
    members = set(range(n))
    for bi in range(1, 2 * m, 2):
        members |= blocks[bi]
    if t % 2:
        return members, n + m * k, "gcd1_odd"
    return members, 2 * n - m * k, "gcd1_even"


def _gcd_d(n: int, k: int, d: int) -> tuple[set[int], int, str]:
    """All outer vertices plus every third vertex along each inner cycle.

    For d = gcd(n, k) >= 2 and 2k < n the inner rim splits into d cycles of
    length n/d; picking ceil(n/(3d)) vertices spaced three steps apart on each
    cycle yields size n + d*ceil(n/(3d)).
    """
    cnt = -(-n // (3 * d))
    members = set(range(n))
    for r in range(d):
        for t in range(cnt):
            members.add(n + (r + 3 * t * k) % n)
    return members, n + d * cnt, "gcd_d"


def construct_family(n: int, j: int, k: int) -> ConstructionResult:
    """The paper's construction for I(n, j, k); P(n, k) is I(n, 1, k).

    The inner-rim selections of P(n, k) double dominate I(n, j, k) for any
    j, tagged `igraph_gcd1` or `igraph_gcd_d` when j >= 2.  The outer step
    never matters: outer vertices are all selected, and a cut cycle would
    have to live on the inner rim, where two adjacent unselected vertices
    always break it.
    """
    validate_params(n, j, k)
    d = gcd(n, k)
    if k == 1:  # so j == 1 too
        members, size, tag = _pn1(n)
    else:
        members, size, tag = _gcd1(n, k) if d == 1 else _gcd_d(n, k, d)
    if j > 1:
        tag = "igraph_gcd1" if d == 1 else "igraph_gcd_d"
    assert len(members) == size
    return ConstructionResult(frozenset(members), size, tag, True)
