"""Exact vertex coloring, criticality, and join-partition detection.

The chromatic number is computed by iterative deepening on the color
count k with a DSATUR-flavored exact search for each k: branch on the
uncolored vertex maximizing (saturation, degree) with ties to the
lowest index, try existing colors in increasing order plus at most one
fresh color.  A maximum clique supplies the starting lower bound.
Colorings are normalized so color names appear in increasing order of
first occurrence, which keeps expected values stable in tests.

A join partition (two nonempty sides with every cross pair adjacent)
exists iff the complement is disconnected; the finder returns the
complement component containing vertex 0 as the first side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInputError
from .graphs import Graph, bits, induced_subgraph, max_clique


@dataclass(frozen=True)
class ColoringCertificate:
    """Proper coloring using exactly the colors 0..k-1."""

    k: int
    colors: tuple[int, ...]


@dataclass(frozen=True)
class JoinPartition:
    """Vertex bipartition (x1, x2) with every cross pair adjacent."""

    x1: int
    x2: int


def _normalize(colors: list[int]) -> ColoringCertificate:
    relabel: dict[int, int] = {}
    for c in colors:
        if c not in relabel:
            relabel[c] = len(relabel)
    return ColoringCertificate(len(relabel), tuple(relabel[c] for c in colors))


def is_k_colorable(g: Graph, k: int) -> ColoringCertificate | None:
    """A normalized proper coloring with at most k colors, or None."""
    if k < 0:
        raise ValueError("color count must be nonnegative")
    adj = g.adj
    colors = [-1] * g.n
    degrees = [g.degree(v) for v in range(g.n)]

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

    if not search(0, 0):
        return None
    return _normalize(colors)


def chromatic_number(g: Graph) -> tuple[int, ColoringCertificate]:
    """Exact chromatic number with a witness coloring."""
    lower, _ = max_clique(g)
    for k in range(lower, g.n + 1):
        cert = is_k_colorable(g, k)
        if cert is not None:
            return cert.k, cert
    raise AssertionError("unreachable: every graph is n-colorable")


def is_vertex_critical(g: Graph, k: int) -> bool:
    """True iff chi(g) = k and chi(g - v) <= k - 1 for every vertex v."""
    if chromatic_number(g)[0] != k:
        return False
    for v in range(g.n):
        sub, _ = induced_subgraph(g, g.vertex_mask & ~(1 << v))
        if is_k_colorable(sub, k - 1) is None:
            return False
    return True


def find_join_partition(g: Graph) -> JoinPartition | None:
    """Complement-component split, or None when the complement is connected."""
    if g.n < 2:
        raise DegenerateInputError("join partition needs at least 2 vertices")
    full = g.vertex_mask
    component = 1
    frontier = 1
    while frontier:
        grown = component
        for v in bits(frontier):
            grown |= full & ~g.adj[v] & ~(1 << v)
        frontier = grown & ~component
        component = grown
    if component == full:
        return None
    return JoinPartition(component, full & ~component)
