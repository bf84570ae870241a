"""Graph families for exhaustive sweeps: enumeration up to isomorphism.

Isomorphism classes are deduplicated by an exact canonical form: the
lexicographically least sequence of lower-triangle adjacency rows over
all vertex orderings consistent with an iterated color refinement.
The refinement splits classes by the multiset of neighbor colors,
ranking classes by their invariant signatures; restricting the
minimization to refinement-consistent orderings changes which labeled
representative is canonical but not which graphs collide, because the
refinement partition and its class order are isomorphism-invariant.
The refinement starts from the degree ranking, which is exactly what
one round from uniform colors yields, and stops once every class is a
single vertex, since a further round cannot split a singleton and
ranks the same classes in the same order; the colors it returns are
therefore those of refining from uniform colors until stable.  Twin
vertices (identical neighborhoods apart from each other) generate
identical subtrees and are explored once, which keeps the
near-symmetric worst cases (empty and complete graphs) polynomial.

Families are generated level by level: a child adds vertex n-1 to an
(n-1)-vertex parent with some neighborhood N, and a child is
canonicalized only if it passes three rules.  Each keeps at least one
member of every class.  The neighborhoods are not filtered out of all
2^(n-1) subsets but grown one parent vertex w at a time, in ascending
order: N takes w only if the twin rule allows it and, for the
triangle-free family, N holds no neighbor of w, so N stays independent.

- Degree: the new vertex has maximum degree, that is no old vertex v
  has deg_parent(v) + [v in N] > |N|.
- f-maximality: with f(v) = (deg v, sorted neighbor degrees), no old
  vertex of the new vertex's degree has a larger f.  Delete an
  f-maximal vertex from any member G; what is left is isomorphic to a
  parent, and adding the vertex back with its image neighborhood
  (independent when G is triangle-free) is a child isomorphic to G
  whose new vertex is f-maximal, so it passes both rules.
- Twins: N holds a vertex w of the parent only with every twin v < w.
  Being twins is an equivalence, and each class holds only true twins
  or only false twins, since no vertex has both kinds; so any
  permutation within a class is an automorphism of the parent.  It
  maps N to the N' that meets every class in an initial segment, and
  extends to an isomorphism of the children that fixes the new vertex.
  N' has the same size, is independent when N is, and the degree and
  f tests depend only on the child up to such an isomorphism, so N'
  passes whatever N passes.

Canonical forms are sorted, so each level's representatives and their
order do not depend on which children are tried.  Graphs with
independence number at most 2 are exactly the complements of
triangle-free graphs.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from .errors import SizeCapError, UnsupportedSizeError
from .graphs import MAX_VERTICES, Graph, are_twins, bits, complement, earlier_twins, mask_of

ENUM_ALPHA2_CAP = 10
ENUM_ALL_CAP = 8
_SAMPLE_HINT = "; use sample_alpha_le2 for larger sizes"  # sample_alpha_le2 covers alpha <= 2 only


def _refine_colors(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    neighbors = [list(bits(row)) for row in adj]
    # One round from uniform colors ranks vertices by degree.
    ranking = {d: r for r, d in enumerate(sorted({len(ns) for ns in neighbors}))}
    colors = [ranking[len(ns)] for ns in neighbors]
    classes = len(ranking)
    while 1 < classes < n:
        signatures = [
            (colors[v], tuple(sorted([colors[w] for w in neighbors[v]])))
            for v in range(n)
        ]
        ranking = {s: r for r, s in enumerate(sorted(set(signatures)))}
        colors = [ranking[s] for s in signatures]
        if len(ranking) == classes:
            break
        classes = len(ranking)
    return tuple(colors)


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Canonical lower-triangle rows; equal iff graphs are isomorphic."""
    n, adj = g.n, g.adj
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
            if any(row == r2 and are_twins(adj, v, w) for r2, w in explored):
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


def _outranked(g: Graph) -> bool:
    """Whether a vertex of g with the degree of the last vertex has a
    larger sorted tuple of neighbor degrees."""
    degrees = [row.bit_count() for row in g.adj]

    def profile(v: int) -> list[int]:
        return sorted([degrees[w] for w in bits(g.adj[v])])

    new = g.n - 1
    mine = profile(new)
    return any(degrees[v] == degrees[new] and profile(v) > mine for v in range(new))


def _children(parent: Graph, independent_only: bool):
    """The children of `parent` that pass the degree, twin and
    f-maximality rules, by ascending neighborhood.

    The neighborhoods are grown one vertex w at a time: N takes w only
    if it holds every earlier twin of w and, when independent_only, no
    neighbor of w.  The sets that gain w are appended after those that
    do not, so the list stays in ascending order."""
    n, adj = parent.n, parent.adj
    neighborhoods = [0]
    for w, twins in enumerate(earlier_twins(adj)):
        blocked = adj[w] if independent_only else 0
        neighborhoods += [s | 1 << w for s in neighborhoods if s & twins == twins and not s & blocked]
    degrees = [row.bit_count() for row in adj]
    top = max(degrees)
    top_mask = mask_of(v for v, d in enumerate(degrees) if d == top)
    for neighborhood in neighborhoods:
        # Skip when an old vertex v ends above |N| at degree
        # degrees[v] + [v in N]: a top-degree vertex does when
        # |N| < top, or when |N| == top and N holds it.
        size = neighborhood.bit_count()
        if size < top or (size == top and neighborhood & top_mask):
            continue
        child = Graph(n + 1, (*[row | (neighborhood >> v & 1) << n for v, row in enumerate(adj)], neighborhood))
        if not _outranked(child):
            yield child


@lru_cache(maxsize=None)
def _level(n: int, independent_only: bool) -> tuple[Graph, ...]:
    """Sorted class representatives on n vertices: triangle-free graphs
    when independent_only, else all graphs."""
    if n == 1:
        return (Graph.empty(1),)
    parents = _level(n - 1, independent_only)
    seen = {canonical_form(child) for parent in parents for child in _children(parent, independent_only)}
    return tuple(graph_from_canonical_form(form) for form in sorted(seen))


def _check_size(family: str, n: int, cap: int, hint: str = "") -> None:
    """Raise SizeCapError unless 1 <= n <= cap."""
    if n < 1:
        raise SizeCapError(f"{family} enumeration needs at least one vertex, got n={n}")
    if n > cap:
        raise SizeCapError(f"{family} enumeration capped at n={cap}{hint}")


def enumerate_triangle_free(n: int):
    """One representative per isomorphism class of triangle-free graphs."""
    _check_size("triangle-free", n, ENUM_ALPHA2_CAP, _SAMPLE_HINT)
    yield from _level(n, True)


def enumerate_alpha_le2(n: int):
    """One representative per isomorphism class with alpha <= 2."""
    _check_size("alpha<=2", n, ENUM_ALPHA2_CAP, _SAMPLE_HINT)
    for g in _level(n, True):
        yield complement(g)


def enumerate_graphs(n: int):
    """One representative per isomorphism class of all graphs, n <= 8."""
    _check_size("exhaustive", n, ENUM_ALL_CAP)
    yield from _level(n, False)


def sample_alpha_le2(n: int, count: int, seed: int):
    """Seeded random alpha<=2 graphs: complements of maximal triangle-free.

    Edges are inserted in random order, each kept unless it closes a
    triangle; the complement of the resulting maximal triangle-free
    graph has independence number at most 2.  Identical seeds give the
    identical stream.
    """
    if n < 1:
        raise ValueError(f"alpha<=2 sampling needs at least one vertex, got n={n}")
    if n > MAX_VERTICES:
        raise UnsupportedSizeError(f"alpha<=2 sampling supports at most {MAX_VERTICES} vertices, got n={n}")
    if count < 1:
        raise ValueError(f"need at least one sample, got count={count}")
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
