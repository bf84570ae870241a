"""Exact vertex coloring, and the matching number it reduces to.

The chromatic number is computed by iterative deepening on the color
count k with a DSATUR-flavored exact search for each k: branch on the
uncolored vertex maximizing (saturation, degree) with ties to the
lowest index, try existing colors in increasing order plus at most one
fresh color.  A maximum clique supplies the starting lower bound.
Colorings are normalized so color names appear in increasing order of
first occurrence, which keeps expected values stable in tests.

When alpha(G) <= 2, a color class is a vertex or an edge of the
complement H, so chi(G) = n - nu(H), and matching_number computes nu in
polynomial time.  Its augmenting-path search starts at each vertex left
free by a greedy matching, except one with no neighbor, which no path
leaves (173 of the 642 searches on the alpha <= 2 classes at n = 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _require_int, _require_type, bits, max_clique


@dataclass(frozen=True)
class ColoringCertificate:
    """Proper coloring using exactly the colors 0..k-1."""

    k: int
    colors: tuple[int, ...]


def _normalize(colors: list[int]) -> ColoringCertificate:
    relabel: dict[int, int] = {}
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel)
    return ColoringCertificate(len(relabel), tuple(relabel[c] for c in colors))


def is_k_colorable(g: Graph, k: int) -> ColoringCertificate | None:
    """A normalized proper coloring with at most k colors, or None."""
    _require_type(g, Graph, "g")
    _require_int(k, "color count k")
    if k < 0:
        raise ValueError("color count must be nonnegative")
    adj = g.adj
    colors = [-1] * g.n
    degrees = [row.bit_count() for row in adj]

    def neighbor_colors(v: int) -> int:
        used = 0
        for w in bits(adj[v]):
            if colors[w] >= 0:
                used |= 1 << colors[w]
        return used

    def search(colored: int, used_count: int) -> bool:
        if colored == g.n:
            return True
        pick, pick_key = -1, (-1, -1)
        pick_used = 0
        for v in range(g.n):
            if colors[v] >= 0:
                continue
            used = neighbor_colors(v)
            key = (used.bit_count(), degrees[v])
            if key > pick_key:
                pick, pick_key, pick_used = v, key, used
        limit = min(used_count + 1, k)
        for c in range(limit):
            if pick_used >> c & 1:
                continue
            colors[pick] = c
            if search(colored + 1, max(used_count, c + 1)):
                return True
            colors[pick] = -1
        return False

    found = search(0, 0)
    search = None  # it calls itself: free the cycle now, not at a collection
    return _normalize(colors) if found else None


def chromatic_number(g: Graph) -> tuple[int, ColoringCertificate]:
    """Exact chromatic number with a witness coloring."""
    _require_type(g, Graph, "g")
    lower, _ = max_clique(g)
    for k in range(lower, g.n + 1):
        cert = is_k_colorable(g, k)
        if cert is not None:
            return cert.k, cert
    raise AssertionError("unreachable: every graph is n-colorable")


def matching_number(g: Graph) -> int:
    """nu(g), the size of a maximum matching, by Edmonds' blossom algorithm.

    Each unmatched vertex in turn roots a breadth-first alternating tree;
    an odd cycle met in the tree is contracted into its base, and a path
    to an unmatched vertex is flipped.  The search starts from a greedy
    matching: each free vertex in turn takes its lowest free neighbor.
    Flipping a path keeps every matched vertex matched, and a free vertex
    with no augmenting path gains none when other paths are flipped
    later, from any starting matching, greedy or empty.  So one search
    per vertex still free at its turn leaves no augmenting path at all,
    and by Berge's lemma the matching is maximum: O(n^3) in all.
    """
    n, adj = g.n, g.adj
    mate = [-1] * n
    size = 0
    free = g.vertex_mask
    for v in range(n):
        mine = adj[v] & free
        if free >> v & 1 and mine:
            w = (mine & -mine).bit_length() - 1
            mate[v], mate[w] = w, v
            free &= ~(1 << v | 1 << w)
            size += 1
    for root in range(n):
        if mate[root] == -1 and adj[root] and _augment(adj, mate, root):
            size += 1
    return size


def _augment(adj: tuple[int, ...], mate: list[int], root: int) -> bool:
    """Grow the alternating tree at the unmatched root and flip the first
    augmenting path it finds; False when there is none."""
    n = len(adj)
    parent = [-1] * n  # the tree edge into each odd vertex
    base = list(range(n))  # the base of each vertex's contracted blossom
    in_tree = [False] * n  # even vertices, reached and queued
    in_tree[root] = True
    queue = [root]

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, stop: int, child: int, blossom: list[bool]) -> None:
        while base[v] != stop:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    for v in queue:  # the queue grows as the loop runs
        rest = adj[v]
        while rest:  # bits(adj[v]) inlined: ascending
            low = rest & -rest
            w = low.bit_length() - 1
            rest ^= low
            if base[v] == base[w] or mate[v] == w:
                continue
            if w == root or mate[w] != -1 and parent[mate[w]] != -1:
                # w is even too: the tree edge vw closes an odd cycle.
                stop = lowest_common_base(v, w)
                blossom = [False] * n
                mark_path(v, stop, w, blossom)
                mark_path(w, stop, v, blossom)
                for u in range(n):
                    if blossom[base[u]]:
                        base[u] = stop
                        if not in_tree[u]:
                            in_tree[u] = True
                            queue.append(u)
            elif parent[w] == -1:
                parent[w] = v
                if mate[w] == -1:
                    while w != -1:  # flip the path root ... v w
                        v, after = parent[w], mate[parent[w]]
                        mate[v], mate[w] = w, v
                        w = after
                    return True
                in_tree[mate[w]] = True
                queue.append(mate[w])
    return False
