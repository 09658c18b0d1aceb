"""Generators for the cubic rim-and-spoke families and small helpers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Callable, Iterator, Sequence

from .graph import Edge, Graph


# the most vertices a graph built from outside input may have; at about 0.5 KB
# per vertex a family this large builds in under a second and about 60 MB
MAX_VERTICES = 100_000


class InvalidParametersError(ValueError):
    """Family parameters outside the validity range."""


def label_to_index(label: str, n: int) -> int:
    if not (label[:1] in ("u", "v") and label[1:].isdecimal()):
        raise ValueError(f"bad vertex label {label!r} (expected u<i> or v<i>)")
    i = int(label[1:])
    if i >= n:
        raise ValueError(f"label {label!r} out of range for n={n}")
    return i if label[0] == "u" else n + i


def index_to_label(index: int, n: int) -> str:
    if not (0 <= index < 2 * n):
        raise ValueError(f"index {index} out of range for n={n}")
    return f"u{index}" if index < n else f"v{index - n}"


def _valid(n: int, j: int, k: int) -> bool:
    # 2j < n follows from j <= k and 2k < n
    return 1 <= j <= k and 2 * k < n


def validate_params(n: int, j: int, k: int) -> None:
    """Raise InvalidParametersError unless (n, j, k) names a family graph.

    I(n, j, k) needs 1 <= j <= k, 2j < n and 2k < n; P(n, k) is I(n, 1, k).
    """
    if _valid(n, j, k):
        return
    if j == 1:
        raise InvalidParametersError(f"P(n,k) needs 1 <= k and 2k < n, got n={n} k={k}")
    raise InvalidParametersError(
        f"I(n,j,k) needs 1 <= j <= k, 2j < n, 2k < n, got n={n} j={j} k={k}"
    )


def family_cases(
    ns: Sequence[int], js: Sequence[int], ks: Sequence[int]
) -> Iterator[tuple[int, int, int]]:
    """Every valid (n, j, k) with n in ns, j in js and k in ks, n outermost."""
    for n in ns:
        for j in js:
            for k in ks:
                if _valid(n, j, k):
                    yield (n, j, k)


def _igraph_edges(n: int, j: int, k: int) -> list[Edge]:
    # outer rim, spoke and inner rim edge of each i
    return [e for i in range(n) for e in ((i, (i + j) % n), (i, n + i), (n + i, n + (i + k) % n))]


def _k4_union_edges(m: int) -> list[Edge]:
    # component c is the complete graph on 4c..4c+3
    return [(4 * c + a, 4 * c + b) for c in range(m) for a in range(4) for b in range(a + 1, 4)]


# kind -> (parameter count, vertices per unit of the first parameter,
#          params -> (n, j, k) for the u/v-labelled kinds, else None)
_FAMILIES: dict[str, tuple[int, int, Callable[..., tuple[int, int, int]] | None]] = {
    "P": (2, 2, lambda n, k: (n, 1, k)),
    "I": (3, 2, lambda n, j, k: (n, j, k)),
    "K4U": (1, 4, None),
}


@dataclass(frozen=True)
class FamilyInfo:
    """A family named by kind and parameters; construction refuses one that names no graph."""

    kind: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _FAMILIES:
            raise InvalidParametersError(f"unknown family {self.kind!r}")
        arity = _FAMILIES[self.kind][0]
        if len(self.params) != arity:
            raise InvalidParametersError(
                f"family {self.kind} expects {arity} parameter{'s' * (arity != 1)}, "
                f"got {len(self.params)}"
            )
        if self.njk is not None:
            validate_params(*self.njk)
        elif self.params[0] < 1:
            raise InvalidParametersError(f"need at least one component, got m={self.params[0]}")
        if self.vertices > MAX_VERTICES:
            raise InvalidParametersError(
                f"{self.header()[2:]} has {self.vertices} vertices, "
                f"above the {MAX_VERTICES}-vertex ceiling"
            )

    @cached_property
    def njk(self) -> tuple[int, int, int] | None:
        """(n, j, k) of the rim-and-spoke graph; None for families without u/v labels."""
        to_njk = _FAMILIES[self.kind][2]
        return None if to_njk is None else to_njk(*self.params)

    @property
    def n(self) -> int | None:
        """Rim length for label resolution; None for families without u/v labels."""
        return None if self.njk is None else self.njk[0]

    @property
    def vertices(self) -> int:
        return _FAMILIES[self.kind][1] * self.params[0]

    @cached_property
    def graph(self) -> Graph:
        """The family graph, built on first access; u_i is index i and v_i is n+i."""
        edges = _k4_union_edges(*self.params) if self.njk is None else _igraph_edges(*self.njk)
        return Graph(self.vertices, edges)

    def header(self) -> str:
        return "# family " + " ".join((self.kind, *map(str, self.params)))


def igraph(n: int, j: int, k: int) -> FamilyInfo:
    """I(n, j, k): outer rim at step j, inner rim at step k, plus the n spokes.

    Requires 1 <= j <= k, 2j < n, and 2k < n so that the rims are simple
    cycles and the graph is cubic on 2n vertices.
    """
    return FamilyInfo("I", (n, j, k))


def petersen(n: int, k: int) -> FamilyInfo:
    """P(n, k) = I(n, 1, k): one outer n-cycle, inner rim at step k."""
    return FamilyInfo("P", (n, k))


def inner_blocks(n: int, k: int) -> tuple[frozenset[int], ...]:
    """Partition of the inner vertices into ceil(n/k) consecutive index blocks.

    Blocks 1..t-1 have size k; the last block keeps the remaining
    n - (t-1)k indices.  Only defined for gcd(n, k) = 1 with k >= 2, where
    the inner rim is a single cycle.  Members are graph indices (n + i).
    """
    if k < 2 or k >= n or gcd(n, k) != 1:
        raise InvalidParametersError(
            f"blocks need 2 <= k < n with gcd(n,k) = 1, got n={n} k={k}"
        )
    t = -(-n // k)
    return tuple(
        frozenset(range(n + i * k, n + min((i + 1) * k, n))) for i in range(t)
    )
