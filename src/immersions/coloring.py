"""Exact vertex coloring.

The chromatic number is computed by iterative deepening on the color
count k with a DSATUR-flavored exact search for each k: branch on the
uncolored vertex maximizing (saturation, degree) with ties to the
lowest index, try existing colors in increasing order plus at most one
fresh color.  A maximum clique supplies the starting lower bound.
Colorings are normalized so color names appear in increasing order of
first occurrence, which keeps expected values stable in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bits, max_clique


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
