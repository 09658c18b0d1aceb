"""Edge signatures, balance certificates, and switching."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .graph import Edge, Graph, canonical_cycle, vertex_subset


class NotACycleError(ValueError):
    """The given vertex sequence does not close into a cycle of the graph."""


class UnderlyingGraphMismatchError(ValueError):
    """Two signed graphs on different underlying graphs were compared."""


class SignedGraph:
    """A graph together with a total +1/-1 assignment on its edges.

    The signature is stored as a dict keyed by canonical (min, max) edges;
    it must cover every edge exactly.
    """

    def __init__(self, graph: Graph, signs: Mapping[tuple[int, int], int]) -> None:
        table: dict[Edge, int] = {}
        for (a, b), s in signs.items():
            if s not in (1, -1):
                raise ValueError(f"sign for edge ({a}, {b}) must be +1 or -1, got {s}")
            e = (a, b) if a < b else (b, a)
            if table.get(e, s) != s:
                raise ValueError(f"conflicting signs for edge {e}")
            table[e] = s
        missing = set(graph.edges) - set(table)
        extra = set(table) - set(graph.edges)
        if missing or extra:
            raise ValueError(
                f"signature must cover the edge set exactly "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        self.graph = graph
        self.signs = table

    @classmethod
    def _trusted(cls, graph: Graph, table: dict[Edge, int]) -> SignedGraph:
        # skips __init__'s checks: only for tables built from graph.edges (here)
        # or checked as they were read (fileio._read), so canonical, total and +1/-1
        s = cls.__new__(cls)
        s.graph = graph
        s.signs = table
        return s

    def sign(self, a: int, b: int) -> int:
        e = (a, b) if a < b else (b, a)
        try:
            return self.signs[e]
        except KeyError:
            raise NotACycleError(f"({a}, {b}) is not an edge") from None

    def negative_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.graph.edges if self.signs[e] < 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self.graph == other.graph and self.signs == other.signs

    def __hash__(self) -> int:
        return hash((self.graph, tuple(sorted(self.signs.items()))))

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.graph.n}, m={len(self.signs)}, negatives={len(self.negative_edges())})"


def all_positive(graph: Graph) -> SignedGraph:
    """The signature assigning +1 to every edge."""
    return SignedGraph._trusted(graph, {e: 1 for e in graph.edges})


@dataclass(frozen=True)
class BalanceCertificate:
    """Either a consistent vertex marking or a negative cycle.

    When balanced, `marking[v]` is the +1/-1 mark of vertex v, with each
    connected component's smallest vertex marked +1, and every edge (u, w)
    satisfies sign(u, w) = marking[u] * marking[w].  When unbalanced,
    `witness_cycle` is a cycle whose sign product is -1.
    """

    balanced: bool
    marking: tuple[int, ...] | None = None
    witness_cycle: tuple[int, ...] | None = None


def cycle_sign(s: SignedGraph, cycle: Iterable[int]) -> int:
    """Product of edge signs along a closed vertex sequence."""
    seq = list(cycle)
    if len(seq) < 3:
        raise NotACycleError("a cycle needs at least 3 vertices")
    prod = 1
    for a, b in zip(seq, seq[1:] + seq[:1]):
        prod *= s.sign(a, b)
    return prod


def is_balanced(s: SignedGraph) -> BalanceCertificate:
    """Decide balance by BFS marking; a conflicting edge closes a negative cycle.

    Runs in O(V + E).  Roots are the smallest unvisited vertices and
    adjacency is scanned in sorted order, so certificates are deterministic.
    """
    n, adj, signs = s.graph.n, s.graph.adj, s.signs
    mark = [0] * n
    parent = [-1] * n
    depth = [0] * n
    for root in range(n):
        if mark[root]:
            continue
        mark[root] = 1
        # a list walked while it grows visits in deque order without popleft
        queue = [root]
        for u in queue:
            mu = mark[u]
            for w in adj[u]:
                expected = mu * signs[(u, w) if u < w else (w, u)]
                if mark[w] == 0:
                    mark[w] = expected
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)
                elif mark[w] != expected:
                    return BalanceCertificate(
                        False, None, _conflict_cycle(parent, depth, u, w)
                    )
    return BalanceCertificate(True, tuple(mark), None)


def _conflict_cycle(
    parent: list[int], depth: list[int], u: int, w: int
) -> tuple[int, ...]:
    # tree path u -> lca -> w, closed by the conflicting non-tree edge (w, u).
    # The BFS meets a conflict from the end it visits first, never deeper than
    # the other, so depth[w] is depth[u] or depth[u] + 1 and only w can climb.
    pu, pw = [u], [w]
    a, b = u, w
    while depth[b] > depth[a]:
        b = parent[b]
        pw.append(b)
    while a != b:
        a = parent[a]
        pu.append(a)
        b = parent[b]
        pw.append(b)
    return canonical_cycle(pu + pw[:-1][::-1])


def switch(s: SignedGraph, members: Iterable[int]) -> SignedGraph:
    """Negate exactly the edges with one endpoint in `members`."""
    x = vertex_subset(s.graph, members)
    flipped = {
        e: (-v if (e[0] in x) != (e[1] in x) else v) for e, v in s.signs.items()
    }
    return SignedGraph._trusted(s.graph, flipped)


def switching_equivalent(s1: SignedGraph, s2: SignedGraph) -> bool:
    """True when some switching carries s1 to s2.

    Works on the product signature: s1 and s2 are switching equivalent
    exactly when the edgewise product s1*s2 is balanced, which the marking
    test decides in polynomial time.
    """
    if s1.graph != s2.graph:
        raise UnderlyingGraphMismatchError(
            "switching equivalence needs identical underlying graphs"
        )
    product = SignedGraph._trusted(
        s1.graph, {e: s1.signs[e] * s2.signs[e] for e in s1.graph.edges}
    )
    return is_balanced(product).balanced


def random_signature(graph: Graph, seed: int, p_neg: float = 0.5) -> SignedGraph:
    """Seeded random signature; each edge is negative with probability p_neg.

    Uses the Mersenne Twister (`random.Random`) with one `random()` draw per
    edge in canonical edge order, so a (graph, seed, p_neg) triple fixes the
    output on every platform.  A negative seed is refused, since
    `random.Random(-s)` seeds exactly like `random.Random(s)`.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= p_neg <= 1.0:
        raise ValueError(f"p_neg must lie in [0, 1], got {p_neg}")
    rng = random.Random(seed)
    return SignedGraph._trusted(
        graph, {e: (-1 if rng.random() < p_neg else 1) for e in graph.edges}
    )
