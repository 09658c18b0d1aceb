"""Double domination: verifiers, structure reports, and exact minimum solvers.

A set D double dominates when every closed neighborhood contains at least
two members of D.  The signed variant additionally requires the signature
restricted to the cut [D : V-D] to be balanced.  Coverage is monotone under
adding vertices; the cut-balance condition is not (growing D reshapes the
cut and can create negative cycles), so the solvers cannot simply grow a
greedy set and instead search subsets by ascending cardinality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graph import (
    CycleDecomposition,
    Graph,
    SizeLimitExceededError,
    cut_subgraph,
    cycle_decomposition,
    vertex_subset,
)
from .signed import SignedGraph, UnderlyingGraphMismatchError, _bfs_balance


class NotCubicError(ValueError):
    """An operation specific to 3-regular graphs was applied elsewhere."""


class WrongCardinalityError(ValueError):
    """The analyzed set does not have the required size."""


class InfeasibleError(ValueError):
    """No set of any size can k-cover the graph (some closed neighborhood is too small)."""


@dataclass(frozen=True)
class DdsVerdict:
    """Outcome of a domination check.

    `failure_kind` is one of "none", "coverage" (with the smallest failing
    vertex and its multiplicity), or "unbalanced_cut" (with a negative cycle
    lying inside the cut).
    """

    ok: bool
    failure_kind: str = "none"
    failure_vertex: int | None = None
    failure_multiplicity: int | None = None
    witness_cycle: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failure_kind": self.failure_kind,
            "failure_vertex": self.failure_vertex,
            "failure_multiplicity": self.failure_multiplicity,
            "witness_cycle": list(self.witness_cycle) if self.witness_cycle else None,
        }


@dataclass(frozen=True)
class Budget:
    """Limits for a solver run; `None` means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {self.max_nodes}")
        # written so that NaN, which compares false, is refused too
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise ValueError(f"max_seconds must be >= 0, got {self.max_seconds}")


@dataclass(frozen=True)
class SolveResult:
    """Exact solver outcome.

    When `limits_hit` is false, `value` is the true minimum and `witness`
    is the lexicographically smallest minimum set (compared as sorted index
    sequences).  When the budget runs out before any witness is proven,
    `value` and `witness` are None and `limits_hit` is true; the result is
    flagged, never silently truncated.
    """

    value: int | None
    witness: frozenset[int] | None
    nodes_explored: int
    limits_hit: bool

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": sorted(self.witness) if self.witness is not None else None,
            "nodes_explored": self.nodes_explored,
            "limits_hit": self.limits_hit,
        }


def domination_multiplicity(g: Graph, members: Iterable[int], v: int) -> int:
    """|N[v] ∩ D| for the closed neighborhood of v."""
    d = vertex_subset(g, members)
    g._check_vertex(v)
    return (v in d) + sum(1 for w in g.adj[v] if w in d)


def is_k_tuple_dominating(g: Graph, members: Iterable[int], k: int = 2) -> DdsVerdict:
    """Check |N[v] ∩ D| >= k for every vertex; reports the smallest failing vertex."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    d = vertex_subset(g, members)
    for v in range(g.n):
        mult = (v in d) + sum(1 for w in g.adj[v] if w in d)
        if mult < k:
            return DdsVerdict(False, "coverage", v, mult)
    return DdsVerdict(True)


def is_signed_dds(s: SignedGraph, members: Iterable[int], k: int = 2) -> DdsVerdict:
    """Signed double domination check: coverage first, then balance of the cut.

    The second condition restricts the signature to the cut [D : V-D] (same
    vertex index space) and requires it to be balanced.  The balance BFS
    runs on the graph's own sorted adjacency with non-cut neighbours
    skipped, so its certificate equals the one for the cut subgraph.
    """
    g = s.graph
    d = vertex_subset(g, members)
    verdict = is_k_tuple_dominating(g, d, k)
    if not verdict.ok:
        return verdict
    cut_adj = [
        [w for w in nbrs if w not in d] if u in d else [w for w in nbrs if w in d]
        for u, nbrs in enumerate(g.adj)
    ]
    cert = _bfs_balance(g.n, cut_adj, s.signs)
    if cert.balanced:
        return DdsVerdict(True)
    return DdsVerdict(False, "unbalanced_cut", witness_cycle=cert.witness_cycle)


def cubic_lower_bound(g: Graph) -> int:
    """|V|/2, the floor for double domination on 3-regular graphs."""
    if not g.is_cubic:
        raise NotCubicError("the half-order bound only applies to cubic graphs")
    return g.n // 2


@dataclass(frozen=True)
class HalfDdsReport:
    """What a half-order set does to a cubic graph.

    If the set double dominates, its cut is 2-regular and `decomposition`
    carries the cycle decomposition certifying it.  Otherwise only the cut
    degree profile is reported.
    """

    is_dds: bool
    cut_degrees: tuple[int, ...]
    decomposition: CycleDecomposition | None


def analyze_half_dds(g: Graph, members: Iterable[int]) -> HalfDdsReport:
    if not g.is_cubic:
        raise NotCubicError("half-order analysis needs a cubic graph")
    d = vertex_subset(g, members)
    if 2 * len(d) != g.n:
        raise WrongCardinalityError(f"expected |D| = {g.n // 2}, got {len(d)}")
    verdict = is_k_tuple_dominating(g, d, 2)
    cut = cut_subgraph(g, d)
    degs = cut.degrees()
    if not verdict.ok:
        return HalfDdsReport(False, degs, None)
    assert all(x == 2 for x in degs), "half-order DDS must induce a 2-regular cut"
    return HalfDdsReport(True, degs, cycle_decomposition(cut))


class _OutOfBudget(Exception):
    pass


# rec in _solve recurses once per vertex, so a graph this large must be
# refused before the search starts: well above it Python's recursion limit
# (1000 by default) turns the search into a RecursionError traceback.
_MAX_SEARCH_VERTICES = 512


def _solve(
    graph: Graph,
    accept: Callable[[int, int], int],
    count: int,
    k: int,
    budget: Budget | None,
    max_vertices: int,
) -> list[SolveResult]:
    """The one exact search behind every solver.

    Sizes ascend from max(k, ceil(k*n / max|N[v]|)), since every member
    covers at most that many closed neighborhoods.  At each size a DFS
    streams the subsets whose closed neighborhoods are all k-covered.
    Vertices are decided in index order with the include branch first, so
    candidates come out in lexicographic order of their sorted index
    sequences.  State: `mult[v]` and `reach[v]` count the members of N[v]
    included and not yet excluded, and `deficit` sums max(0, k - mult[v]).
    The reach rule prunes an exclusion that leaves some reach[v] < k, so
    reach >= k holds at every node; the deficit rule prunes a branch whose
    deficit exceeds what the remaining picks could cover.

    One search serves `count` acceptance tests: `accept(mask, pending)`
    gets each coverage-passing mask and the bitmask of the tests still
    unanswered, and returns the bits of those that accept it.  A test's
    answer is the first mask it accepts, the lexicographically smallest at
    the smallest feasible size; its `nodes_explored` is the node count at
    that moment, which equals the count of a search run for it alone.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = graph.n
    if n > max_vertices:
        raise SizeLimitExceededError(f"{n} vertices exceeds the solver cap of {max_vertices}")
    if n > _MAX_SEARCH_VERTICES:
        raise SizeLimitExceededError(
            f"{n} vertices exceeds the search's recursion-depth ceiling "
            f"of {_MAX_SEARCH_VERTICES}"
        )
    cn = tuple((v, *graph.adj[v]) for v in range(n))
    for v, c in enumerate(cn):
        if len(c) < k:
            raise InfeasibleError(f"vertex {v} has closed neighborhood smaller than k={k}")
    if n == 0:
        return [SolveResult(0, frozenset(), 0, False)] * count
    cn_max = max(len(c) for c in cn)
    rest_mask = [(((1 << n) - 1) >> i) << i for i in range(n + 1)]
    max_nodes = budget.max_nodes if budget else None
    deadline = None
    if budget and budget.max_seconds is not None:
        deadline = time.monotonic() + budget.max_seconds
    results: list[SolveResult | None] = [None] * count
    pending = (1 << count) - 1  # bit i: test i has no answer yet
    nodes = 0

    def emit(mask: int) -> bool:
        nonlocal pending
        accepted = accept(mask, pending)
        if accepted:
            pending ^= accepted
            result = SolveResult(size, frozenset(v for v in range(n) if mask >> v & 1), nodes, False)
            results[:] = [result if accepted >> i & 1 else r for i, r in enumerate(results)]
        return not pending

    def rec(i: int, chosen: int, mask: int) -> bool:
        nonlocal nodes, deficit
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise _OutOfBudget
        if deadline is not None and (nodes & 2047) == 0 and time.monotonic() > deadline:
            raise _OutOfBudget
        if chosen == size:
            return deficit == 0 and emit(mask)
        if size - chosen == n - i:
            # forced all-include tail; reach >= k everywhere, so it covers
            return emit(mask | rest_mask[i])
        if deficit > (size - chosen) * cn_max:
            return False
        # include vertex i; reach is unchanged
        for w in cn[i]:
            m = mult[w]
            mult[w] = m + 1
            if m < k:
                deficit -= 1
        found = rec(i + 1, chosen + 1, mask | (1 << i))
        for w in cn[i]:
            m = mult[w] - 1
            mult[w] = m
            if m < k:
                deficit += 1
        if found:
            return True
        # exclude vertex i (guard above ensures enough vertices remain)
        ok = True
        for w in cn[i]:
            r = reach[w] - 1
            reach[w] = r
            if r < k:
                ok = False
        found = ok and rec(i + 1, chosen, mask)
        for w in cn[i]:
            reach[w] += 1
        return found

    # rec undoes its changes on every return, and _OutOfBudget ends the
    # search, so each size starts from this state
    mult = [0] * n
    reach = [len(c) for c in cn]
    deficit = n * k
    try:
        for size in range(max(k, -(-k * n // cn_max)), n + 1):
            if not pending:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise _OutOfBudget
            if rec(0, 0, 0):
                break
    except _OutOfBudget:
        pass
    unresolved = SolveResult(None, None, nodes, True)
    return [unresolved if r is None else r for r in results]


def min_k_tuple_dominating(
    graph: Graph,
    k: int = 2,
    budget: Budget | None = None,
    max_vertices: int = 24,
) -> SolveResult:
    """Exact minimum k-tuple dominating set by cardinality-ascending search.

    The search starts at max(k, ceil(k*n / (maxdeg+1))), which on cubic
    graphs with k=2 is the half-order bound |V|/2.  The witness is the
    lexicographically smallest minimum set.
    """
    return _solve(graph, lambda mask, pending: pending, 1, k, budget, max_vertices)[0]


def _cut_balanced(graph: Graph, signatures: Sequence[SignedGraph]) -> Callable[[int, int], int]:
    # one parity union-find over a mask's cut serves every signature: parities
    # are bit vectors over them, and `neg` holds those where the edge is negative
    n = graph.n
    negs = dict.fromkeys(graph.edges, 0)
    for i, s in enumerate(signatures):
        for e, sign in s.signs.items():
            if sign < 0:
                negs[e] |= 1 << i
    edata = [(a, b, 1 << a, 1 << b, negs[a, b]) for a, b in graph.edges]

    def accept(mask: int, pending: int) -> int:
        parent = list(range(n))
        parity = [0] * n
        bad = 0  # signatures with a negative cut cycle
        for a, b, abit, bbit, neg in edata:
            if ((mask & abit) != 0) == ((mask & bbit) != 0):
                continue
            x, px = a, 0
            while parent[x] != x:
                px ^= parity[x]
                x = parent[x]
            y, py = b, 0
            while parent[y] != y:
                py ^= parity[y]
                y = parent[y]
            if x == y:
                bad |= px ^ py ^ neg
                if bad & pending == pending:
                    return 0
            else:
                parent[x] = y
                parity[x] = px ^ py ^ neg
        return pending & ~bad

    return accept


def min_signed_dds(
    s: SignedGraph,
    k: int = 2,
    budget: Budget | None = None,
    max_vertices: int = 24,
) -> SolveResult:
    """Exact minimum signed double dominating set.

    Candidates passing coverage are filtered by balance of their cut; the
    first survivor at the smallest feasible cardinality wins, so the witness
    is the lexicographically smallest minimum set.  `nodes_explored` counts
    subset-search nodes (balance checks are not counted).
    """
    return min_signed_dds_many(s.graph, [s], k, budget, max_vertices)[0]


def min_signed_dds_many(
    graph: Graph,
    signatures: Sequence[SignedGraph],
    k: int = 2,
    budget: Budget | None = None,
    max_vertices: int = 24,
) -> list[SolveResult]:
    """Solve min_signed_dds for many signatures of one graph in a single search.

    Coverage does not depend on signs, so the subset search is shared, and
    each candidate gets one cut check for all unsolved signatures: a
    union-find whose parities are bit vectors over them.  The results equal
    the individual min_signed_dds results field for field.
    """
    for s in signatures:
        if s.graph != graph:
            raise UnderlyingGraphMismatchError("all signatures must live on the given graph")
    return _solve(graph, _cut_balanced(graph, signatures), len(signatures), k, budget, max_vertices)
