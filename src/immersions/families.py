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

A round's signature of v is one int, c(v) * B**k minus the sum of
B**(k-1-c(w)) over the neighbors w of v, with B = n + 1 and k the
number of classes.  It orders vertices as the pair (c(v), sorted
neighbor colors) would.  Below c(v) * B**k the subtracted number is a
base-B numeral whose digits, lowest color first, count v's neighbors
of each color; each count is below B, so the numeral is below B**k and
colors never interleave.  Within one class every vertex has the same
degree (the classes refine the degree ranking), and of two sorted
tuples of one length, the smaller is the one with more of the lowest
color whose counts differ, so the larger numeral.  Negating the
numeral reverses its order, so the ranks, and the colors, are those of
the tuples.  When every class is a twin class, as when the coloring is
discrete, the orderings differ only by twin swaps and give the same
rows, which are read off the ordering by (color, vertex).

The search also returns automorphisms of the canonical graph C.  Every
leaf whose rows equal the final best is an isomorphism from C to the
searched graph, so leaf k against the first such leaf, position p to
the position of the same vertex, is an automorphism sigma_k.  Every
isomorphism is consistent with the refined colors, and the twin skip
leaves out only subtrees that are a twin swap of a subtree explored, so
Aut(C) = T . {id, sigma_k}, with T the group of swaps within twin
classes of C.  The skip places a vertex only after its earlier twins,
so every leaf lists each twin class in ascending order, and sigma_k
maps each twin class of C onto one in ascending order.  A leaf is
kept only if its rows equal the best of the whole search: under a
prefix below an older best no leaf is pruned, and such a leaf can be
worse than the best found after it.

Families are generated level by level: a child adds vertex n-1 to an
(n-1)-vertex parent with some neighborhood N, and a child is
canonicalized only if it passes four rules.  Each keeps at least one
member of every class.  The neighborhoods are not filtered out of all
2^(n-1) subsets but grown one parent vertex w at a time, in ascending
order: N takes w only if the twin rule allows it and, for the
triangle-free family, N holds no neighbor of w, so N stays independent.
A child's neighbor lists are its parent's with n-1 appended for each
vertex of N, and it is refined once: the refinement decides the
top-class rule, and its colors feed the canonical search.  A child is
just rows, lists and colors, its rows built once the refinement keeps
it; a checked Graph is built per class, from its canonical form.  The
rows need no check: the parent is a valid Graph, N lies in 0..n-2,
row n-1 is N and row v gains bit n-1 exactly when v is in N.

- Degree: the new vertex has maximum degree, that is no old vertex v
  has deg_parent(v) + [v in N] > |N|.
- Top class: the new vertex stays in the highest color class.  After
  the degree round that class holds the vertices of maximum degree, so
  the degree rule covers it; each later round is checked, and the
  child is dropped at the first round its new vertex leaves, as it
  cannot come back: every round ranks by the previous color first.
  After the round past the degrees the top class holds the vertices
  of maximum degree with the largest sorted neighbor degrees, so this
  rule implies the f-rule (no vertex of the new vertex's degree has
  larger sorted neighbor degrees), and the later rounds cut more.
  Delete a vertex of the top class of the refined colors from any
  member G; what is left is isomorphic to a parent, and adding the
  vertex back with its image neighborhood (independent when G is
  triangle-free) is a child isomorphic to G.  The refined colors are
  isomorphism-invariant, so in that child the new vertex is in the top
  class and has maximum degree, and it passes both rules.
- Twins: N holds a vertex w of the parent only with every twin v < w.
  Being twins is an equivalence, and each class holds only true twins
  or only false twins, since no vertex has both kinds; so any
  permutation within a class is an automorphism of the parent.  It
  maps N to the N' that meets every class in an initial segment, and
  extends to an isomorphism of the children that fixes the new vertex.
  N' has the same size, is independent when N is, and the degree and
  top-class tests depend only on the child up to an isomorphism that
  fixes the new vertex, which keeps its color, so N' passes whatever N
  passes.
- Orbits: N is dropped, before it is refined, when some automorphism
  sigma_k of the parent, kept from the parent's own canonical search,
  maps it to a smaller set.  The twin rule leaves the twin-least sets,
  those that meet each twin class in an initial segment, and each
  T-orbit holds one, twin-least(S).  T is normal in Aut(parent) =
  T . {id, sigma_k}, since an automorphism maps twins to twins, so the
  twin-least sets of the orbit of N are N and the
  twin-least(sigma_k(N)).  A sigma_k maps initial segments of twin
  classes to initial segments, so twin-least(sigma_k(N)) = sigma_k(N),
  and of the orbit's twin-least sets only the least passes.  Each
  automorphism extends to an isomorphism of the children that fixes
  the new vertex and keeps independence, so the degree and top-class
  verdicts hold on the whole orbit, and the least member passes
  wherever N does.

Canonical forms are sorted, so each level's representatives and their
order do not depend on which children are tried.  Each is kept with the
automorphisms of the first search that found it; any search that finds
C gives automorphisms for which the equation above holds.  Graphs with
independence number at most 2 are exactly the complements of
triangle-free graphs.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from .errors import SizeCapError, UnsupportedSizeError
from .graphs import MAX_VERTICES, Graph, _mirror_lower, _require_int, _require_type, bits, complement, earlier_twins, mask_of

ENUM_ALPHA2_CAP = 10
ENUM_ALL_CAP = 8
_SAMPLE_HINT = "; use sample_alpha_le2 for larger sizes"  # sample_alpha_le2 covers alpha <= 2 only


def _neighbor_lists(adj: tuple[int, ...]) -> list[list[int]]:
    return [list(bits(row)) for row in adj]


def _refine_colors(neighbors: list[list[int]], watched: int | None = None) -> list[int] | None:
    """The refined colors of the graph with these neighbor lists, or
    None as soon as vertex `watched`, which must have maximum degree,
    leaves the highest color class."""
    n = len(neighbors)
    # One round from uniform colors ranks vertices by degree.
    degrees = [len(ns) for ns in neighbors]
    ranking = {d: r for r, d in enumerate(sorted(set(degrees)))}
    colors = [ranking[d] for d in degrees]
    classes = len(ranking)
    base = n + 1
    while 1 < classes < n:
        # Color times base**classes, less the base-`base` number whose
        # digits count the neighbors of each color, lowest color first.
        shift = base**classes
        weights = [base ** (classes - 1 - c) for c in colors]
        signatures = [colors[v] * shift - sum([weights[w] for w in ns]) for v, ns in enumerate(neighbors)]
        if watched is not None and signatures[watched] != max(signatures):
            return None
        ranking = {s: r for r, s in enumerate(sorted(set(signatures)))}
        colors = [ranking[s] for s in signatures]
        if len(ranking) == classes:
            break
        classes = len(ranking)
    return colors


def _search(
    adj: tuple[int, ...], neighbors: list[list[int]], colors: list[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The least rows over the vertex orders that list colors in
    ascending order, and automorphisms sigma_k of the graph those rows
    describe, such that its automorphism group is T . {id, sigma_k},
    with T its twin swaps."""
    n = len(adj)
    members: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        members[c].append(v)
    if all(adj[v] & ~(1 << vs[0]) == adj[vs[0]] & ~(1 << v) for vs in members for v in vs[1:]):
        # Every class is a twin class (each member a twin of the first),
        # as when the coloring is discrete: the orders differ by twin
        # swaps, so give the same rows, read off the order by (color, vertex).
        position = [0] * n
        for p, v in enumerate([v for vs in members for v in vs]):
            position[v] = p
        rows = [0] * n
        for v, ns in enumerate(neighbors):
            p = position[v]
            for w in ns:
                if position[w] < p:
                    rows[p] |= 1 << position[w]
        return tuple(rows), ()
    slot_class = [c for c, vs in enumerate(members) for _ in vs]
    twins = earlier_twins(adj)

    best: list[int] | None = None
    rows = []
    order: list[int] = []
    leaves: list[list[int]] = []  # the orders whose rows are best
    # Each unplaced vertex's row over the positions placed so far.
    row_of = [0] * n
    unplaced = (1 << n) - 1

    def descend(p: int, equal_prefix: bool):
        nonlocal best, leaves, unplaced
        if p == n:
            # Compare with best itself: a leaf under a prefix below an
            # older best is not pruned, and can be worse than the new one.
            if best is None or rows < best:
                best = rows.copy()
                leaves = [order.copy()]
            elif rows == best:
                leaves.append(order.copy())
            return
        candidates = sorted([(row_of[v], v) for v in members[slot_class[p]] if unplaced >> v & 1])
        bit = 1 << p
        explored = 0  # tried at this slot; a later twin has the same row, and its subtree is their swap
        for row, v in candidates:
            if best is not None and equal_prefix and row > best[p]:
                break
            if twins[v] & explored:
                continue
            explored |= 1 << v
            child_equal = equal_prefix and (best is None or row == best[p])
            unplaced ^= 1 << v
            later = adj[v] & unplaced
            mask = later
            while mask:
                low = mask & -mask
                row_of[low.bit_length() - 1] |= bit
                mask ^= low
            rows.append(row)
            order.append(v)
            descend(p + 1, child_equal)
            order.pop()
            rows.pop()
            mask = later
            while mask:
                low = mask & -mask
                row_of[low.bit_length() - 1] ^= bit
                mask ^= low
            unplaced |= 1 << v

    descend(0, True)
    assert best is not None
    # Position p of the first best order and position sigma(p) of another
    # hold the same vertex; both orders give the best rows, so sigma is an
    # automorphism of the graph they describe.
    first, *others = leaves
    automorphisms = []
    for other in others:
        position = [0] * n
        for p, v in enumerate(other):
            position[v] = p
        automorphisms.append(tuple([position[v] for v in first]))
    return tuple(best), tuple(automorphisms)


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Canonical lower-triangle rows; equal iff graphs are isomorphic."""
    _require_type(g, Graph, "g")
    neighbors = _neighbor_lists(g.adj)
    return _search(g.adj, neighbors, _refine_colors(neighbors))[0]


def graph_from_canonical_form(form: tuple[int, ...]) -> Graph:
    """The graph whose lower-triangle rows are form, as canonical_form
    returns them: row v holds only vertices below v, so no two forms
    build one graph."""
    if not isinstance(form, tuple):
        raise ValueError(f"form needs a tuple of rows, not the {type(form).__name__} {form!r}")
    for v, row in enumerate(form):
        _require_int(row, f"form row {v}")
        if row >> v:  # a bit at v or above, or a negative row
            raise ValueError(f"form row {v} needs vertices below {v} only, not the int {row}")
    if len(form) > MAX_VERTICES:
        raise UnsupportedSizeError(f"vertex count {len(form)} outside 0..{MAX_VERTICES}")
    return Graph(len(form), _mirror_lower(form))


def _children(parent: Graph, independent_only: bool, automorphisms: tuple[tuple[int, ...], ...]):
    """(rows, neighbor lists, colors) for each child of `parent` that
    passes the degree, twin, orbit and top-class rules, by ascending
    neighborhood; `automorphisms` are those the parent's canonical
    search returned.

    The neighborhoods grow one vertex w at a time, as the module says,
    each set that gains w after those that do not, so they stay ascending."""
    n, adj = parent.n, parent.adj
    neighborhoods = [0]
    for w, twins in enumerate(earlier_twins(adj)):
        blocked = adj[w] if independent_only else 0
        neighborhoods += [s | 1 << w for s in neighborhoods if s & twins == twins and not s & blocked]
    neighbors = _neighbor_lists(adj)
    degrees = [len(ns) for ns in neighbors]
    top = max(degrees)
    top_mask = mask_of(v for v, d in enumerate(degrees) if d == top)
    for neighborhood in neighborhoods:
        # Skip when an old vertex v ends above |N| at degree
        # degrees[v] + [v in N]: a top-degree vertex does when
        # |N| < top, or when |N| == top and N holds it.
        size = neighborhood.bit_count()
        if size < top or (size == top and neighborhood & top_mask):
            continue
        if automorphisms and _orbit_has_less(neighborhood, automorphisms):
            continue
        lists = neighbors.copy()
        new: list[int] = []
        mask = neighborhood
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            lists[v] = neighbors[v] + [n]
            new.append(v)
            mask ^= low
        lists.append(new)
        colors = _refine_colors(lists, n)
        if colors is not None:
            yield (*[row | (neighborhood >> v & 1) << n for v, row in enumerate(adj)], neighborhood), lists, colors


def _orbit_has_less(neighborhood: int, automorphisms: tuple[tuple[int, ...], ...]) -> bool:
    """Whether some automorphism maps `neighborhood` to a smaller set."""
    for sigma in automorphisms:
        image = 0
        mask = neighborhood
        while mask:
            low = mask & -mask
            image |= 1 << sigma[low.bit_length() - 1]
            mask ^= low
        if image < neighborhood:
            return True
    return False


@lru_cache(maxsize=None)
def _level(n: int, independent_only: bool) -> tuple[tuple[Graph, ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """Sorted class representatives on n vertices, triangle-free graphs
    when independent_only, else all graphs; and beside them, the
    automorphisms each one's canonical search returned."""
    if n == 1:
        return (Graph.empty(1),), ((),)
    found: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
    # Most classes repeat another's automorphisms (at n = 8, 12,346
    # classes have 175 distinct ones), so each is stored once.
    shared: dict[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] = {}
    for parent, automorphisms in zip(*_level(n - 1, independent_only)):
        for rows, lists, colors in _children(parent, independent_only, automorphisms):
            form, form_automorphisms = _search(rows, lists, colors)
            if form not in found:
                found[form] = shared.setdefault(form_automorphisms, form_automorphisms)
    forms = sorted(found)
    # Each form is _search's, canonical by construction: no need for graph_from_canonical_form's checks.
    return tuple(Graph(len(form), _mirror_lower(form)) for form in forms), tuple(found[form] for form in forms)


def _check_size(family: str, n: int, cap: int, hint: str = "") -> None:
    """Raise ValueError unless n is an int, SizeCapError unless 1 <= n <= cap."""
    _require_int(n, f"{family} enumeration size n")
    if n < 1:
        raise SizeCapError(f"{family} enumeration needs at least one vertex, got n={n}")
    if n > cap:
        raise SizeCapError(f"{family} enumeration capped at n={cap}{hint}")


def enumerate_triangle_free(n: int):
    """One representative per isomorphism class of triangle-free graphs."""
    _check_size("triangle-free", n, ENUM_ALPHA2_CAP, _SAMPLE_HINT)
    yield from _level(n, True)[0]


def enumerate_alpha_le2(n: int):
    """One representative per isomorphism class with alpha <= 2."""
    _check_size("alpha<=2", n, ENUM_ALPHA2_CAP, _SAMPLE_HINT)
    for g in _level(n, True)[0]:
        yield complement(g)


def enumerate_graphs(n: int):
    """One representative per isomorphism class of all graphs, n <= 8."""
    _check_size("exhaustive", n, ENUM_ALL_CAP)
    yield from _level(n, False)[0]


def sample_alpha_le2(n: int, count: int, seed: int):
    """Seeded random alpha<=2 graphs: complements of maximal triangle-free.

    Edges are inserted in random order, each kept unless it closes a
    triangle; the complement of the resulting maximal triangle-free
    graph has independence number at most 2.  Identical seeds give the
    identical stream.
    """
    _require_int(n, "alpha<=2 sampling size n")
    _require_int(count, "alpha<=2 sampling count")
    _require_int(seed, "alpha<=2 sampling seed")
    if n < 1:
        raise ValueError(f"alpha<=2 sampling needs at least one vertex, got n={n}")
    if n > MAX_VERTICES:
        raise UnsupportedSizeError(f"alpha<=2 sampling supports at most {MAX_VERTICES} vertices, got n={n}")
    if count < 1:
        raise ValueError(f"alpha<=2 sampling needs at least one sample, got count={count}")
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
