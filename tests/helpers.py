"""Shared test utilities: brute-force oracles and hypothesis strategies.

The oracles here work on plain (n, edge list, sign dict) data and do not
call into the package, so a bug in the library cannot hide inside its own
test harness.
"""
from __future__ import annotations

from itertools import combinations

from hypothesis import strategies as st


# ---------------------------------------------------------------- oracles


def brute_cycles(n, edges):
    """Every simple cycle, as a canonical vertex tuple (min first, smaller
    second element picks the direction)."""
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    found = set()

    def walk(start, path, seen):
        u = path[-1]
        for w in adj[u]:
            if w == start and len(path) >= 3:
                c = tuple(path)
                i = c.index(min(c))
                c = c[i:] + c[:i]
                r = (c[0],) + tuple(reversed(c[1:]))
                found.add(min(c, r))
            elif w not in seen and w > start:
                walk(start, path + [w], seen | {w})

    for s in range(n):
        walk(s, [s], {s})
    return found


def brute_cycle_sign(cycle, signs):
    s = 1
    for i in range(len(cycle)):
        e = tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
        if signs[e] < 0:
            s = -s
    return s


def brute_negative_cycles(n, edges, signs):
    return {c for c in brute_cycles(n, edges) if brute_cycle_sign(c, signs) < 0}


def brute_is_balanced(n, edges, signs):
    return not brute_negative_cycles(n, edges, signs)


def brute_cut_edges(edges, members):
    return [e for e in edges if (e[0] in members) != (e[1] in members)]


def brute_cut_balanced(n, edges, signs, members):
    cut = brute_cut_edges(edges, members)
    return brute_is_balanced(n, cut, signs)


def closed_neighborhoods(n, edges):
    adj = {v: {v} for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def brute_min_k_tuple(n, edges, k):
    """(value, lexicographically first witness), or None if infeasible."""
    adj = closed_neighborhoods(n, edges)
    if any(len(adj[v]) < k for v in range(n)):
        return None
    for size in range(k, n + 1):
        for cand in combinations(range(n), size):
            chosen = set(cand)
            if all(len(adj[v] & chosen) >= k for v in range(n)):
                return size, cand
    return None


def bfs_cut_balanced(n, edges, signs, members):
    """Balance of the cut [members : V - members] by BFS two-colouring:
    a negative edge joins two colours, a positive edge one.  Unlike
    brute_cut_balanced it enumerates no cycles, so dense graphs on ten
    vertices stay cheap."""
    adj = {v: [] for v in range(n)}
    for a, b in brute_cut_edges(edges, members):
        adj[a].append((b, signs[a, b] < 0))
        adj[b].append((a, signs[a, b] < 0))
    colour = {}
    for start in range(n):
        if start in colour:
            continue
        colour[start] = False
        queue = [start]
        for u in queue:
            for w, flip in adj[u]:
                if w not in colour:
                    colour[w] = colour[u] != flip
                    queue.append(w)
                elif colour[w] != (colour[u] != flip):
                    return False
    return True


def reference_search(n, edges, k, accept):
    """(value, witness, nodes_explored) of the exact search, or None if infeasible.

    Restates the search that the solvers share, on plain sets with one
    recursion per child.  Sizes ascend from max(k, ceil(k*n / max|N[v]|)).
    At each size, vertices are decided in index order, include child first,
    and a node is counted when its parent makes it; the root of each size is
    counted too.  An include child is always counted; it lives on when the
    deficit, the sum of max(0, k - |N[v] ∩ D|), can still be met by the picks
    after it, each covering at most max|N[v]| (the deficit rule, written
    with `least`).  An exclude child is counted only when every N[w] keeps
    at least k members included or undecided (the reach rule).  An exclude
    child whose picks must take every vertex after it is a forced tail: a
    candidate with no children, and so is the root at size n.  `accept`
    gets each candidate's member set in that order; the first it accepts is
    the answer, with the node count at that moment.
    """
    nbhd = closed_neighborhoods(n, edges)
    if any(len(nbhd[v]) < k for v in range(n)):
        return None
    if n == 0:
        return 0, (), 0
    cn_max = max(len(c) for c in nbhd.values())
    nodes = 0
    found = []

    def covered(chosen):
        return sum(min(k, len(nbhd[v] & chosen)) for v in range(n))

    def candidate(chosen):
        # the leaf test and the reach rule leave only covering candidates
        assert covered(chosen) == k * n
        if not accept(chosen):
            return False
        found.append((len(chosen), tuple(sorted(chosen)), nodes))
        return True

    def node(i, picks, chosen, dropped):
        # vertex i is undecided, picks > 0 members are still to choose, and
        # fewer than the n - i vertices left, so the node has two children
        return include(i, picks, chosen | {i}, dropped) or exclude(i, picks, chosen, dropped | {i})

    def include(i, picks, chosen, dropped):
        nonlocal nodes
        nodes += 1
        least = k * n - (picks - 1) * cn_max
        if covered(chosen) < least:
            return False
        if picks == 1:
            return candidate(chosen)
        return node(i + 1, picks - 1, chosen, dropped)

    def exclude(i, picks, chosen, dropped):
        nonlocal nodes
        if any(len(nbhd[w] - dropped) < k for w in range(n)):
            return False
        nodes += 1
        if picks == n - i - 1:
            return candidate(chosen | set(range(i + 1, n)))
        return node(i + 1, picks, chosen, dropped)

    for size in range(max(k, -(-k * n // cn_max)), n + 1):
        nodes += 1
        if candidate(set(range(n))) if size == n else node(0, size, set(), set()):
            return found[0]
    raise AssertionError("the whole vertex set is always a candidate")


def brute_min_signed_dds(n, edges, signs, k=2):
    adj = closed_neighborhoods(n, edges)
    if any(len(adj[v]) < k for v in range(n)):
        return None
    for size in range(k, n + 1):
        for cand in combinations(range(n), size):
            chosen = set(cand)
            if all(len(adj[v] & chosen) >= k for v in range(n)) and brute_cut_balanced(
                n, edges, signs, chosen
            ):
                return size, cand
    return None


# ---------------------------------------------------------------- corpus

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def petersen_edges(n, k):
    out = set()
    for i in range(n):
        out.add(tuple(sorted((i, (i + 1) % n))))
        out.add((i, n + i))
        out.add(tuple(sorted((n + i, n + (i + k) % n))))
    return sorted(out)


# 7 vertices; with sign(0,1) = -1 the cut-balance condition is not monotone:
# {2,4,5,6} works but adding vertex 0 breaks it.
W7_EDGES = [
    (0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 6),
    (2, 3), (2, 4), (3, 6), (4, 5), (5, 6),
]

# (name, n, edges) with n <= 8 throughout; used wherever a fixed small
# corpus is wanted.
CORPUS = [
    ("K1", 1, []),
    ("K2", 2, [(0, 1)]),
    ("path4", 4, [(0, 1), (1, 2), (2, 3)]),
    ("claw", 4, [(0, 1), (0, 2), (0, 3)]),
    ("C5", 5, [(i, (i + 1) % 5) for i in range(4)] + [(0, 4)]),
    ("K4", 4, K4_EDGES),
    ("prism", 6, petersen_edges(3, 1)),
    ("cube", 8, petersen_edges(4, 1)),
    ("W7", 7, W7_EDGES),
    ("K4U2", 8, K4_EDGES + [(a + 4, b + 4) for a, b in K4_EDGES]),
]


# ------------------------------------------------------------- strategies


@st.composite
def graphs(draw, min_n=1, max_n=8):
    """(n, sorted edge list) with arbitrary edge subsets."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n < 2:
        return n, []
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return n, sorted(edges)


@st.composite
def signed_edge_data(draw, min_n=1, max_n=8):
    """(n, edges, {edge: +1/-1})."""
    n, edges = draw(graphs(min_n=min_n, max_n=max_n))
    signs = {e: draw(st.sampled_from((1, -1))) for e in edges}
    return n, edges, signs


@st.composite
def even_graphs(draw, max_n=9):
    """(n, edges) where every degree is even: an XOR of simple cycles."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    picked = set()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        length = draw(st.integers(min_value=3, max_value=n))
        verts = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        for i in range(length):
            e = tuple(sorted((verts[i], verts[(i + 1) % length])))
            picked.symmetric_difference_update({e})
    return n, sorted(picked)
