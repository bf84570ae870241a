"""Graph families for exhaustive sweeps: enumeration up to isomorphism.

Isomorphism classes are deduplicated by an exact canonical form: the
lexicographically least sequence of lower-triangle adjacency rows over
all vertex orderings consistent with an iterated color refinement.
The refinement starts uniform and repeatedly splits classes by the
multiset of neighbor colors, ranking classes by their invariant
signatures; restricting the minimization to refinement-consistent
orderings changes which labeled representative is canonical but not
which graphs collide, because the refinement partition and its class
order are isomorphism-invariant.  Twin vertices (identical
neighborhoods apart from each other) generate identical subtrees and
are explored once, which keeps the near-symmetric worst cases
(empty and complete graphs) polynomial.

Families are generated level by level: a child adds vertex n-1 to an
(n-1)-vertex parent with some neighborhood N (independent only, for
the triangle-free family), and a child is canonicalized only if its
new vertex has maximum degree, that is no old vertex v has
deg_parent(v) + [v in N] > |N|.  No class is lost: delete a vertex of
maximum degree from any member G; what is left is isomorphic to a
parent, and adding the vertex back with its image neighborhood
(independent when G is triangle-free) is a child that passes the test
and is isomorphic to G.  Canonical forms are sorted, so each level's
representatives and their order do not depend on which children are
tried.  Graphs with independence number at most 2 are exactly the
complements of triangle-free graphs.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from .errors import SizeCapError
from .graphs import Graph, bits, complement, mask_of

ENUM_ALPHA2_CAP = 9
ENUM_ALL_CAP = 8


def _refine_colors(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    colors = [0] * n
    classes = 1
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in bits(adj[v]))))
            for v in range(n)
        ]
        ranking = {s: r for r, s in enumerate(sorted(set(signatures)))}
        fresh = [ranking[signatures[v]] for v in range(n)]
        count = len(set(fresh))
        if count == classes:
            return tuple(fresh)
        colors, classes = fresh, count


def _twins(adj: tuple[int, ...], v: int, w: int) -> bool:
    return adj[v] & ~(1 << w) == adj[w] & ~(1 << v)


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Canonical lower-triangle rows; equal iff graphs are isomorphic."""
    n, adj = g.n, g.adj
    if n == 0:
        return ()
    colors = _refine_colors(n, adj)
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(colors[v], []).append(v)
    slot_class = [c for c in sorted(members) for _ in members[c]]

    best: list[int] | None = None
    placed: list[int] = []
    rows: list[int] = []
    placed_mask = 0

    def descend(p: int, equal_prefix: bool):
        nonlocal best, placed_mask
        if p == n:
            if best is None or rows < best:
                best = rows.copy()
            return
        candidates = []
        for v in members[slot_class[p]]:
            if placed_mask >> v & 1:
                continue
            row = 0
            for q in range(p):
                if adj[v] >> placed[q] & 1:
                    row |= 1 << q
            candidates.append((row, v))
        candidates.sort()
        explored: list[tuple[int, int]] = []
        for row, v in candidates:
            if best is not None and equal_prefix and row > best[p]:
                break
            if any(row == r2 and _twins(adj, v, w) for r2, w in explored):
                continue
            explored.append((row, v))
            child_equal = equal_prefix and (best is None or row == best[p])
            placed.append(v)
            placed_mask |= 1 << v
            rows.append(row)
            descend(p + 1, child_equal)
            rows.pop()
            placed_mask &= ~(1 << v)
            placed.pop()

    descend(0, True)
    assert best is not None
    return tuple(best)


def graph_from_canonical_form(form: tuple[int, ...]) -> Graph:
    n = len(form)
    adj = [0] * n
    for p, row in enumerate(form):
        for q in bits(row):
            adj[p] |= 1 << q
            adj[q] |= 1 << p
    return Graph(n, tuple(adj))


def _extend(parent: Graph, neighborhood: int) -> Graph:
    adj = list(parent.adj)
    for v in bits(neighborhood):
        adj[v] |= 1 << parent.n
    adj.append(neighborhood)
    return Graph(parent.n + 1, tuple(adj))


def _next_level(parents: tuple[Graph, ...], independent_only: bool) -> tuple[Graph, ...]:
    """Canonical representatives, sorted, of the children of `parents`
    whose new vertex has maximum degree."""
    seen: set[tuple[int, ...]] = set()
    for parent in parents:
        degrees = [row.bit_count() for row in parent.adj]
        top = max(degrees)
        top_mask = mask_of(v for v, d in enumerate(degrees) if d == top)
        for neighborhood in range(1 << parent.n):
            # Skip when an old vertex v ends above |N| at degree
            # degrees[v] + [v in N]: a top-degree vertex does when
            # |N| < top, or when |N| == top and N holds it.
            size = neighborhood.bit_count()
            if size < top or (size == top and neighborhood & top_mask):
                continue
            if independent_only and any(parent.adj[v] & neighborhood for v in bits(neighborhood)):
                continue
            seen.add(canonical_form(_extend(parent, neighborhood)))
    return tuple(graph_from_canonical_form(form) for form in sorted(seen))


@lru_cache(maxsize=None)
def _level(n: int, independent_only: bool) -> tuple[Graph, ...]:
    """Sorted class representatives on n vertices: triangle-free graphs
    when independent_only, else all graphs."""
    if n == 1:
        return (Graph.empty(1),)
    return _next_level(_level(n - 1, independent_only), independent_only)


def enumerate_triangle_free(n: int):
    """One representative per isomorphism class of triangle-free graphs."""
    if not 1 <= n <= ENUM_ALPHA2_CAP:
        raise SizeCapError(
            f"triangle-free enumeration capped at n={ENUM_ALPHA2_CAP}; "
            "use sample_alpha_le2 for larger sizes"
        )
    yield from _level(n, True)


def enumerate_alpha_le2(n: int):
    """One representative per isomorphism class with alpha <= 2."""
    if not 1 <= n <= ENUM_ALPHA2_CAP:
        raise SizeCapError(
            f"alpha<=2 enumeration capped at n={ENUM_ALPHA2_CAP}; "
            "use sample_alpha_le2 for larger sizes"
        )
    for g in _level(n, True):
        yield complement(g)


def enumerate_graphs(n: int):
    """One representative per isomorphism class of all graphs, n <= 8."""
    if not 1 <= n <= ENUM_ALL_CAP:
        raise SizeCapError(f"exhaustive enumeration capped at n={ENUM_ALL_CAP}")
    yield from _level(n, False)


def sample_alpha_le2(n: int, count: int, seed: int):
    """Seeded random alpha<=2 graphs: complements of maximal triangle-free.

    Edges are inserted in random order, each kept unless it closes a
    triangle; the complement of the resulting maximal triangle-free
    graph has independence number at most 2.  Identical seeds give the
    identical stream.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    all_pairs = list(combinations(range(n), 2))
    for _ in range(count):
        order = all_pairs.copy()
        rng.shuffle(order)
        adj = [0] * n
        for u, v in order:
            if not adj[u] & adj[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield complement(Graph(n, tuple(adj)))
