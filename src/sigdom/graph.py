"""Undirected simple graphs: edge cuts, even graphs, cycle machinery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class NotEvenGraphError(ValueError):
    """A cycle decomposition was requested for a graph with an odd-degree vertex."""


class SizeLimitExceededError(RuntimeError):
    """An exhaustive operation was applied above its configured size guard."""


Edge = tuple[int, int]


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Edges are stored canonically as sorted (min, max) pairs; scanning them in
    that order leaves every adjacency list sorted, so every traversal in this
    package is deterministic.
    Duplicate input edges collapse silently; self-loops and out-of-range
    endpoints are rejected.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canonical: set[Edge] = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
            canonical.add((a, b) if a < b else (b, a))
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(canonical))
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.adj)

    def has_edge(self, a: int, b: int) -> bool:
        if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
            return False
        return b in self.adj[a]

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        """N[v]: the vertex v together with its neighbors."""
        self._check_vertex(v)
        return frozenset((v, *self.adj[v]))

    def is_regular(self, d: int) -> bool:
        return all(len(x) == d for x in self.adj)

    @property
    def is_cubic(self) -> bool:
        return self.is_regular(3)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def vertex_subset(g: Graph, members: Iterable[int]) -> frozenset[int]:
    """Normalize an iterable of vertex indices, rejecting out-of-range members."""
    s = frozenset(members)
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    return s


@dataclass(frozen=True)
class EdgeCut:
    """The edges with exactly one endpoint in `left`."""

    left: frozenset[int]
    edges: tuple[Edge, ...]


def edge_cut(g: Graph, members: Iterable[int]) -> EdgeCut:
    x = vertex_subset(g, members)
    cut = tuple(e for e in g.edges if (e[0] in x) != (e[1] in x))
    return EdgeCut(x, cut)


def cut_subgraph(g: Graph, members: Iterable[int]) -> Graph:
    """Subgraph holding only the cut edges of `members`, on the same vertex set.

    Vertices are never renumbered; vertices untouched by the cut stay as
    isolated vertices.
    """
    return Graph(g.n, edge_cut(g, members).edges)


def is_even(g: Graph) -> bool:
    """True when every vertex has even degree."""
    return all(len(x) % 2 == 0 for x in g.adj)


def is_forest(g: Graph) -> bool:
    """True when the graph is acyclic."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


@dataclass(frozen=True)
class CycleDecomposition:
    """Simple cycles (vertex sequences, length >= 3) partitioning the edge set."""

    cycles: tuple[tuple[int, ...], ...]

    def edges(self) -> list[Edge]:
        out: list[Edge] = []
        for cyc in self.cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                out.append((a, b) if a < b else (b, a))
        return out


def cycle_decomposition(g: Graph) -> CycleDecomposition:
    """Split an even graph into edge-disjoint simple cycles.

    Greedy walk: start from the smallest vertex with unused edges, always
    step along the smallest-index unused neighbor, and peel off a cycle as
    soon as the walk revisits a vertex currently on the walk.  The walk
    stack never holds a repeated vertex, so every peeled cycle is simple,
    and the tie-breaking makes the output byte-for-byte deterministic.
    """
    if not is_even(g):
        bad = next(v for v in range(g.n) if len(g.adj[v]) % 2)
        raise NotEvenGraphError(f"vertex {bad} has odd degree {len(g.adj[bad])}")
    unused = set(g.edges)
    cycles: list[tuple[int, ...]] = []

    def smallest_unused(v: int) -> int | None:
        for w in g.adj[v]:
            if ((v, w) if v < w else (w, v)) in unused:
                return w
        return None

    for start in range(g.n):
        while smallest_unused(start) is not None:
            stack = [start]
            pos = {start: 0}
            while stack:
                v = stack[-1]
                w = smallest_unused(v)
                if w is None:
                    # all incident edges consumed; only the start can be left
                    assert len(stack) == 1
                    break
                unused.remove((v, w) if v < w else (w, v))
                j = pos.get(w)
                if j is None:
                    pos[w] = len(stack)
                    stack.append(w)
                else:
                    cycles.append(tuple(stack[j:]))
                    for x in stack[j + 1 :]:
                        del pos[x]
                    del stack[j + 1 :]
    return CycleDecomposition(tuple(cycles))


def canonical_cycle(cycle: Iterable[int]) -> tuple[int, ...]:
    """Rotate/reflect a cycle sequence: smallest vertex first, smaller neighbor second."""
    cyc = tuple(cycle)
    if len(cyc) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    i = cyc.index(min(cyc))
    fwd = cyc[i:] + cyc[:i]
    rev = (fwd[0],) + tuple(reversed(fwd[1:]))
    return fwd if fwd[1] < rev[1] else rev


def enumerate_cycles(g: Graph, max_edges: int = 64) -> tuple[tuple[int, ...], ...]:
    """All simple cycles, one canonical representative per rotation/reflection class.

    Exponential in general; guarded by `max_edges`.
    """
    if len(g.edges) > max_edges:
        raise SizeLimitExceededError(
            f"{len(g.edges)} edges exceeds the limit of {max_edges}"
        )
    out: list[tuple[int, ...]] = []
    path: list[int] = []
    on_path = [False] * g.n

    def extend(v: int, s: int) -> None:
        path.append(v)
        on_path[v] = True
        for w in g.adj[v]:
            if w == s:
                if len(path) >= 3 and path[1] < path[-1]:
                    out.append(tuple(path))
            elif w > s and not on_path[w]:
                extend(w, s)
        path.pop()
        on_path[v] = False

    for s in range(g.n):
        extend(s, s)
    return tuple(out)
