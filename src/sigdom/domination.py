"""Double domination: verifiers, structure reports, and exact minimum solvers.

A set D double dominates when every closed neighborhood contains at least
two members of D.  The signed variant additionally requires the signature
restricted to the cut [D : V-D] to be balanced.  Coverage is monotone under
adding vertices; the cut-balance condition is not (growing D reshapes the
cut and can create negative cycles), so the solvers cannot simply grow a
greedy set and instead search subsets by ascending cardinality.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .graph import (
    Graph,
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


class SizeLimitExceededError(ValueError):
    """The graph is above the search's vertex cap or its recursion-depth ceiling."""


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


@dataclass(frozen=True)
class Budget:
    """Limits for a solver run; `None` means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        # the type test comes first, so a non-number is refused before it is
        # compared; `not x >= 0` refuses NaN, which compares false
        nodes, seconds = self.max_nodes, self.max_seconds
        if nodes is not None and not (isinstance(nodes, int) and nodes >= 0):
            raise ValueError(f"max_nodes must be an int >= 0, got {nodes!r}")
        if seconds is not None and not (isinstance(seconds, (int, float)) and seconds >= 0):
            raise ValueError(f"max_seconds must be a number >= 0, got {seconds!r}")


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


def is_k_tuple_dominating(g: Graph, members: Iterable[int], k: int = 2) -> DdsVerdict:
    """Check |N[v] ∩ D| >= k for every vertex; reports the smallest failing vertex."""
    return _k_cover(g, vertex_subset(g, members), k)


def _k_cover(g: Graph, d: frozenset[int], k: int) -> DdsVerdict:
    # each member u adds one to every vertex of N[u], so cnt[v] = |N[v] ∩ D|;
    # d must be a set, or a repeated member would count twice
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    cnt = [0] * g.n
    adj = g.adj
    for u in d:
        cnt[u] += 1
        for w in adj[u]:
            cnt[w] += 1
    if min(cnt, default=k) >= k:
        return DdsVerdict(True)
    v = next(v for v, c in enumerate(cnt) if c < k)
    return DdsVerdict(False, "coverage", v, cnt[v])


def is_signed_dds(s: SignedGraph, members: Iterable[int], k: int = 2) -> DdsVerdict:
    """Signed double domination check: coverage first, then balance of the cut.

    The second condition restricts the signature to the cut [D : V-D] (same
    vertex index space) and requires it to be balanced.  Balance is a
    condition on cycles only, so a cut that is a forest is balanced under
    every signature (Harary 1953): it is accepted first, with no sign read.
    Otherwise a parity union-find over D's cut edges decides it; a balanced
    cut returns at once, with no certificate built.  A rejected cut is
    certified by that definition: `is_balanced` on the cut subgraph and its
    signs gives the negative cycle.
    """
    g = s.graph
    d = vertex_subset(g, members)
    verdict = _k_cover(g, d, k)
    if not verdict.ok:
        return verdict
    if _cut_is_forest(g, d) or _cut_consistent(s, d):
        return DdsVerdict(True)
    cut = cut_subgraph(g, d)
    cert = is_balanced(SignedGraph(cut, {e: s.signs[e] for e in cut.edges}))
    assert not cert.balanced, "union-find and BFS disagree on the cut"
    return DdsVerdict(False, "unbalanced_cut", witness_cycle=cert.witness_cycle)


def _cut_is_forest(g: Graph, d: frozenset[int]) -> bool:
    # _cut_consistent's walk with no parities and no signs: a union-find over
    # the cut edges of d that returns at the first one closing a cycle
    adj = g.adj
    root = list(range(g.n))
    for u in d:
        for w in adj[u]:
            if w in d:
                continue
            b = w
            while root[b] != b:
                root[b] = root[root[b]]  # path halving
                b = root[b]
            if b == u:
                return False
            root[b] = u
    return True


def _cut_consistent(s: SignedGraph, d: frozenset[int]) -> bool:
    # parity union-find over the cut edges of d, each read once from d's side:
    # odd[v] is 1 when v's mark differs from root[v]'s, and a negative edge
    # needs its ends' marks to differ.  A tree only ever hangs under the
    # member being walked, so each member is still a singleton root when its
    # turn comes and needs no find of its own.  A decision for one signature,
    # with no per-graph set-up; _cut_balanced is the search's batch kernel
    # over every signature at once.
    adj, signs = s.graph.adj, s.signs
    root = list(range(s.graph.n))
    odd = [0] * s.graph.n
    for u in d:
        for w in adj[u]:
            if w in d:
                continue
            b, pb = w, 0
            while root[b] != b:
                # path halving keeps the trees shallow on long cuts
                p = root[b]
                odd[b] ^= odd[p]
                root[b] = root[p]
                pb ^= odd[b]
                b = root[b]
            neg = signs[(u, w) if u < w else (w, u)] < 0
            if b == u:
                if pb != neg:
                    return False
            else:
                root[b] = u
                odd[b] = pb ^ neg
    return True


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
    decomposition: tuple[tuple[int, ...], ...] | None


def analyze_half_dds(g: Graph, members: Iterable[int]) -> HalfDdsReport:
    half = cubic_lower_bound(g)
    d = vertex_subset(g, members)
    if len(d) != half:  # cubic graphs have even order
        raise WrongCardinalityError(f"expected |D| = {half}, got {len(d)}")
    verdict = _k_cover(g, d, 2)
    cut = cut_subgraph(g, d)
    degs = cut.degrees()
    if not verdict.ok:
        return HalfDdsReport(False, degs, None)
    assert all(x == 2 for x in degs), "half-order DDS must induce a 2-regular cut"
    return HalfDdsReport(True, degs, cycle_decomposition(cut))


class _Stop(Exception):
    """Ends the search; its one argument is the node count to report."""


# rec in _solve recurses once per included vertex, and a size level can
# include up to n - 1 of them, so a graph this large must be refused before
# the search starts: well above it Python's recursion limit (1000 by
# default) turns the search into a RecursionError traceback.  The ceiling
# also bounds the set-up: on a cubic graph with k = 2, `steps` holds about
# 5n bits per vertex (rep, drop and rest), 5n^2/8 bytes in all, which is
# 160 KB at n = 512 but about 6.25 GB at families.MAX_VERTICES (100,000).
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
    sequences.  Coverage is k bit-sliced levels in one int: bits t*n..t*n+n-1
    of `cover` hold the vertices covered more than t times, so including
    vertex i is one carry chain over N[i]'s mask and the deficit, the sum of
    max(0, k - |N[v] ∩ D|), is k*n - popcount(cover).  The reach rule prunes
    an exclusion that leaves some N[w] with fewer than k members included or
    undecided.  It is bit-sliced too: bits t*n..t*n+n-1 of `tight` hold the
    vertices w whose reach, |N[w]| less its members excluded so far, is at
    most k+t.  Excluding i is pruned exactly when N[i]'s mask meets level 0;
    otherwise it moves N[i] down one level.  The deficit rule prunes a
    branch whose deficit exceeds what the remaining picks could cover.

    A node is counted when its parent generates it: the root of each size,
    every include child, and every exclude child the reach rule keeps (an
    include child pruned by the deficit rule still counts).  A parent counts
    and tests its children, and a call walks its line of exclude children in
    a loop, so only an include costs a call.  Along a line, the exclude child
    of vertex i-1 and the include child of vertex i are counted in one step
    of two; an exclude child that is a forced tail (every vertex left must
    be included) is counted alone.  The budget is checked at each step of
    two, before each acceptance test and at the start of each size, not
    where a root or a call's first include child is counted.  So the count
    can pass `max_nodes` by at most one path of includes before the search
    stops, no answer is taken past it, and a search stopped by `max_nodes`
    reports the first node past it, max_nodes + 1, as though it had stopped
    there.

    One search serves `count` acceptance tests: `accept(mask, pending)`
    gets each coverage-passing mask and the bitmask of the tests still
    unanswered, and returns the bits of those that accept it.  A test's
    answer is the first mask it accepts, the lexicographically smallest at
    the smallest feasible size; its `nodes_explored` is the node count at
    that moment, which equals the count of a search run for it alone.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if max_vertices < 0:
        raise ValueError(f"max_vertices must be >= 0, got {max_vertices}")
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
    if n == 0 or not count:
        return [SolveResult(0, frozenset(), 0, False)] * count
    cn_max = max(len(c) for c in cn)
    full = (1 << n) - 1
    nbr = [sum(1 << w for w in c) for c in cn]
    # each w starts on reach levels |N[w]|-k up to cn_max-k; that top level
    # holds every vertex and never changes, so an exclusion fills the one below
    tight = sum(1 << t * n + w for w, c in enumerate(cn) for t in range(len(c) - k, cn_max - k + 1))
    # per vertex i: its bit, N[i] in each cover level, N[i], N[i] in each reach
    # level below the top, the vertices after i, and the picks left that must
    # take them all
    steps = [
        (1 << i, sum(nbr[i] << t * n for t in range(k)), nbr[i],
         sum(nbr[i] << t * n for t in range(cn_max - k)), full >> (i + 1) << (i + 1), n - i - 1)
        for i in range(n)
    ]
    # the deficit rule: with r picks to go, an include must leave at least
    # least[r] bits set, since the r - 1 picks after it add at most cn_max each
    least = [k * n - (r - 1) * cn_max for r in range(n + 1)]
    budget = budget or Budget()
    max_nodes = math.inf if budget.max_nodes is None else budget.max_nodes
    deadline = math.inf if budget.max_seconds is None else time.monotonic() + budget.max_seconds
    check_at = min(max_nodes, 2047)
    results: list[SolveResult | None] = [None] * count
    pending = (1 << count) - 1  # bit i: test i has no answer yet
    nodes = 0

    def tick(nodes: int) -> None:
        # at each size and past check_at: the node budget, and every 2048 nodes the clock
        nonlocal check_at
        if nodes > max_nodes:
            # checks may lag the count by one path of includes: report the first
            # node past the budget
            raise _Stop(max_nodes + 1)
        if time.monotonic() > deadline:
            raise _Stop(nodes)
        check_at = min(max_nodes, nodes | 2047)

    def emit(mask: int, nodes: int) -> None:
        nonlocal pending
        if nodes > check_at:  # no answer from past the budget
            tick(nodes)
        accepted = accept(mask, pending)
        if accepted:
            pending ^= accepted
            result = SolveResult(size, frozenset(v for v in range(n) if mask >> v & 1), nodes, False)
            results[:] = [result if accepted >> i & 1 else r for i, r in enumerate(results)]
            if not pending:  # every answer is recorded
                raise _Stop(nodes)

    def rec(i: int, left: int, mask: int, cover: int, tight: int, nodes: int) -> int:
        # counts and tests both children of a node at vertex i with `left` picks
        # to go, then walks on down the exclude child's line; returns the count
        need = least[left]
        # the carry source: cover does not change along the line
        up = cover << n | full
        nodes += 1  # include vertex i; the parent's tests rule out a forced tail
        while True:
            bit, rep, nb, drop, rest, tail = steps[i]
            # the carry chain: level t+1 gains level t's vertices in N[i], level 0 all of N[i]
            grown = cover | up & rep
            # with no picks left, the deficit rule is the leaf test: every bit set
            if grown.bit_count() >= need:
                if left == 1:
                    emit(mask | bit, nodes)
                else:
                    nodes = rec(i + 1, left - 1, mask | bit, grown, tight, nodes)
            # the reach rule: excluding i leaves some N[w] short iff w has reach <= k
            if nb & tight:
                return nodes
            # the exclude child keeps the parent's picks and deficit: no leaf and
            # no deficit prune, so it is counted with no test
            if left == tail:  # forced all-include tail; the reach rule makes it cover
                emit(mask | rest, nodes + 1)
                return nodes + 1
            # excluding i moves N[i] down one reach level
            tight |= tight >> n & drop
            i += 1
            nodes += 2  # exclude vertex i - 1, then include vertex i
            if nodes > check_at:
                tick(nodes)

    try:
        for size in range(max(k, -(-k * n // cn_max)), n + 1):
            tick(nodes)
            nodes += 1  # the root: a forced tail at size n, else it has children
            if size == n:
                emit(full, nodes)
            else:
                nodes = rec(0, size, 0, 0, tight, nodes)
    except _Stop as stop:
        (nodes,) = stop.args
    finally:
        del rec  # rec's cell holds rec: drop the cycle so the search state dies here
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
        bit = 1 << i
        for e, sign in s.signs.items():
            if sign < 0:
                negs[e] |= bit
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
