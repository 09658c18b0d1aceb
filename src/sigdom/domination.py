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
from functools import partial
from typing import Callable, Iterable, Sequence

from .graph import (
    CycleDecomposition,
    Graph,
    SizeLimitExceededError,
    cut_subgraph,
    cycle_decomposition,
    vertex_subset,
)
from .signed import SignedGraph, UnderlyingGraphMismatchError, is_balanced


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

    The second condition restricts the signature to the cut subgraph of D
    (same vertex index space) and requires it to be balanced.
    """
    verdict = is_k_tuple_dominating(s.graph, members, k)
    if not verdict.ok:
        return verdict
    cut = cut_subgraph(s.graph, members)
    cert = is_balanced(SignedGraph(cut, {e: s.signs[e] for e in cut.edges}))
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


# _CoverSearch.rec recurses once per vertex, so a graph this large must be
# refused before the search starts: well above it Python's recursion limit
# (1000 by default) turns the search into a RecursionError traceback.
_MAX_SEARCH_VERTICES = 512


class _CoverSearch:
    """DFS over fixed-size subsets whose closed neighborhoods are all k-covered.

    Vertices are decided in index order with the include branch first, so
    candidates stream out in lexicographic order of their sorted index
    sequences.  Pruning: a branch dies as soon as some vertex can no longer
    reach multiplicity k with the undecided vertices that remain, and when
    the total coverage deficit exceeds what the remaining picks could fix.
    """

    def __init__(self, graph: Graph, k: int, budget: Budget | None) -> None:
        n = graph.n
        self.graph = graph
        self.k = k
        self.n = n
        self.cn = tuple((v, *graph.adj[v]) for v in range(n))
        self.cn_max = max((len(c) for c in self.cn), default=1)
        self.rest_mask = [(((1 << n) - 1) >> i) << i for i in range(n + 1)]
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        deadline = None
        if budget and budget.max_seconds is not None:
            deadline = time.monotonic() + budget.max_seconds
        self.deadline = deadline

    def run(self, size: int, emit: Callable[[int], bool]) -> bool:
        """Emit coverage-passing masks of the given size until emit() accepts one."""
        n, k = self.n, self.k
        if size > n:
            return False
        cn = self.cn
        cn_max = self.cn_max
        rest_mask = self.rest_mask
        mult = [0] * n
        pend = [len(c) for c in cn]
        deficient = n  # vertices with mult < k (k >= 1 so all start short)
        deficit = n * k  # total multiplicity still missing
        max_nodes = self.max_nodes
        deadline = self.deadline
        if deadline is not None and time.monotonic() > deadline:
            raise _OutOfBudget

        def rec(i: int, chosen: int, mask: int) -> bool:
            nonlocal deficient, deficit
            self.nodes += 1
            if max_nodes is not None and self.nodes > max_nodes:
                raise _OutOfBudget
            if deadline is not None and (self.nodes & 2047) == 0 and time.monotonic() > deadline:
                raise _OutOfBudget
            if chosen == size:
                return deficient == 0 and emit(mask)
            if size - chosen == n - i:
                # forced all-include tail; mult+pend >= k held, so it covers
                return emit(mask | rest_mask[i])
            if deficit > (size - chosen) * cn_max:
                return False
            # include vertex i
            for w in cn[i]:
                pend[w] -= 1
                m = mult[w]
                mult[w] = m + 1
                if m < k:
                    deficit -= 1
                    if m + 1 == k:
                        deficient -= 1
            found = rec(i + 1, chosen + 1, mask | (1 << i))
            for w in cn[i]:
                pend[w] += 1
                m = mult[w] - 1
                mult[w] = m
                if m < k:
                    deficit += 1
                    if m + 1 == k:
                        deficient += 1
            if found:
                return True
            # exclude vertex i (guard above ensures enough vertices remain)
            ok = True
            for w in cn[i]:
                pend[w] -= 1
                if mult[w] + pend[w] < k:
                    ok = False
            found = ok and rec(i + 1, chosen, mask)
            for w in cn[i]:
                pend[w] += 1
            return found

        return rec(0, 0, 0)


def _prepare(graph: Graph, k: int, budget: Budget | None, max_vertices: int) -> _CoverSearch:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if graph.n > max_vertices:
        raise SizeLimitExceededError(
            f"{graph.n} vertices exceeds the solver cap of {max_vertices}"
        )
    if graph.n > _MAX_SEARCH_VERTICES:
        raise SizeLimitExceededError(
            f"{graph.n} vertices exceeds the search's recursion-depth ceiling "
            f"of {_MAX_SEARCH_VERTICES}"
        )
    for v in range(graph.n):
        if graph.degree(v) + 1 < k:
            raise InfeasibleError(
                f"vertex {v} has closed neighborhood smaller than k={k}"
            )
    return _CoverSearch(graph, k, budget)


def _coverage_lower_bound(graph: Graph, k: int) -> int:
    # every member covers at most max|N[w]| closed neighborhoods
    if graph.n == 0:
        return 0
    cn_max = max(graph.degree(v) for v in range(graph.n)) + 1
    return max(k, -(-k * graph.n // cn_max))


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def _solve(
    graph: Graph,
    acceptors: Sequence[Callable[[int], bool]],
    k: int,
    budget: Budget | None,
    max_vertices: int,
) -> list[SolveResult]:
    """The one cardinality-ascending driver behind every exact solver.

    Coverage does not depend on the acceptance test, so one subset search
    is shared: each coverage-passing mask is offered to every acceptor that
    has not yet accepted one, in index order.  An acceptor's answer is the
    first mask it accepts, which is the lexicographically smallest at the
    smallest feasible size; its `nodes_explored` is the shared counter at
    that moment, which equals the count of a search run for it alone.
    """
    search = _prepare(graph, k, budget, max_vertices)
    if graph.n == 0:
        return [SolveResult(0, frozenset(), 0, False)] * len(acceptors)
    results: list[SolveResult | None] = [None] * len(acceptors)
    unresolved = set(range(len(acceptors)))

    def emit(mask: int) -> bool:
        for idx in sorted(unresolved):
            if acceptors[idx](mask):
                results[idx] = SolveResult(size, _mask_to_set(mask), search.nodes, False)
                unresolved.discard(idx)
        return not unresolved

    try:
        for size in range(_coverage_lower_bound(graph, k), graph.n + 1):
            if not unresolved or search.run(size, emit):
                break
    except _OutOfBudget:
        pass
    for idx in unresolved:
        results[idx] = SolveResult(None, None, search.nodes, True)
    return results  # type: ignore[return-value]


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
    return _solve(graph, [lambda mask: True], k, budget, max_vertices)[0]


def _edge_data(s: SignedGraph) -> list[tuple[int, int, int, int, int]]:
    return [
        (a, b, 1 << a, 1 << b, 0 if s.signs[(a, b)] > 0 else 1)
        for (a, b) in s.graph.edges
    ]


def _cut_balanced(n: int, edata: list[tuple[int, int, int, int, int]], mask: int) -> bool:
    # union-find with parity over the cut edges only
    parent = list(range(n))
    parity = [0] * n
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
            if px ^ py != neg:
                return False
        else:
            parent[x] = y
            parity[x] = px ^ py ^ neg
    return True


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

    Coverage does not depend on signs, so the subset search is shared and
    each candidate is tested against every still-unsolved signature.  The
    values and witnesses equal the individual min_signed_dds results;
    `nodes_explored` reports the shared counter at resolution time.
    """
    for s in signatures:
        if s.graph != graph:
            raise UnderlyingGraphMismatchError("all signatures must live on the given graph")
    acceptors = [partial(_cut_balanced, graph.n, _edge_data(s)) for s in signatures]
    return _solve(graph, acceptors, k, budget, max_vertices)
