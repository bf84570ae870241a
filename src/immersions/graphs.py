"""Bitset graphs, the graph6 codec, and exact elementary invariants.

Vertices are dense integers 0..n-1 and every vertex set is an int used
as a bitset (bit v set iff vertex v is in the set).  Adjacency is a
tuple of n such bitsets, one per vertex, kept symmetric and loop-free.
This representation caps n at 62, which matches the single-size-byte
graph6 form and is far beyond what the exponential searches downstream
can digest anyway.

The exact solvers here (maximum clique, and the independence number as
the clique number of the complement) are branch-and-bound with a greedy
coloring upper bound, deterministic for reproducible reports.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cached_property

from .errors import Graph6Error, UnsupportedSizeError

MAX_VERTICES = 62


def bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    """Bitset of an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _is_int(value) -> bool:
    """Integer check for outside input: bool is an int subclass but never a vertex, size or count."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise UnsupportedSizeError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for n={self.n}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has neighbors outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(self.adj):
            while row:  # bits(row) inlined: this loop runs for every graph built
                low = row & -row
                w = low.bit_length() - 1
                if not self.adj[w] >> v & 1:
                    raise ValueError(f"asymmetric edge {v}-{w}")
                row ^= low

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> Graph:
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self):
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 word (single size byte form, n <= 62)."""
    # ASCII whitespace only: a bare strip() would also drop U+00A0, U+0085, 0x1C-0x1F.
    text = line.strip(string.whitespace)
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise Graph6Error("empty graph6 word")
    for offset, char in enumerate(text):
        if not 63 <= ord(char) <= 126:
            raise Graph6Error(f"character {char!r} (code {ord(char)}) out of range 63..126 at offset {offset}")
    data = text.encode("ascii")
    if data[0] == 126:
        raise UnsupportedSizeError("multi-byte graph6 size (n > 62) not supported")
    n = data[0] - 63
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 < need:
        raise Graph6Error(f"word ends at offset {len(data)}, expected {need} data bytes")
    if len(data) - 1 > need:
        raise Graph6Error(f"trailing garbage at offset {1 + need}")
    values = [byte - 63 for byte in data[1:]]
    adj = [0] * n
    position = 0
    # Upper triangle column by column, six bits per byte, high bit first.
    for v in range(1, n):
        for u in range(v):
            if values[position // 6] >> (5 - position % 6) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            position += 1
    padding = (1 << (6 * need - position)) - 1
    if values and values[-1] & padding:
        raise Graph6Error(f"nonzero padding bits in the byte at offset {need}")
    return Graph(n, tuple(adj))


def encode_graph6(g: Graph) -> str:
    """Encode to the canonical single-size-byte graph6 word."""
    out = [g.n + 63]
    value, filled = 0, 0
    for v in range(1, g.n):
        for u in range(v):
            value = value << 1 | (g.adj[u] >> v & 1)
            filled += 1
            if filled == 6:
                out.append(value + 63)
                value, filled = 0, 0
    if filled:
        out.append((value << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


def are_twins(adj: tuple[int, ...], v: int, w: int) -> bool:
    """Whether v and w have the same neighbors apart from each other.

    Twins are true (adjacent) or false (not); either way swapping them
    is an automorphism.
    """
    return adj[v] & ~(1 << w) == adj[w] & ~(1 << v)


def earlier_twins(adj: tuple[int, ...]) -> list[int]:
    """For each vertex w, the bitset of its twins v < w."""
    return [mask_of(v for v in range(w) if are_twins(adj, v, w)) for w in range(len(adj))]


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return Graph(g.n, tuple(full ^ g.adj[v] ^ (1 << v) for v in range(g.n)))


def non_neighborhood(g: Graph, x: int) -> int:
    """Bitset of vertices distinct from and nonadjacent to x."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} outside 0..{g.n - 1}")
    return g.vertex_mask & ~g.adj[x] & ~(1 << x)


def is_clique(g: Graph, s: int) -> bool:
    for v in bits(s):
        rest = s & ~(1 << v)
        if g.adj[v] & rest != rest:
            return False
    return True


def max_clique(g: Graph) -> tuple[int, int]:
    """Exact maximum clique: (size, witness bitset).

    Branch and bound in the style of Tomita: candidates are greedily
    colored in increasing vertex order and explored from the highest
    color class down, so |clique| + color is an upper bound.  The
    search is deterministic, preferring low-index vertices in the
    coloring.
    """
    adj = g.adj
    best_size = 0
    best_mask = 0

    def expand(r_mask: int, r_size: int, cand: int):
        nonlocal best_size, best_mask
        if not cand:
            if r_size > best_size:
                best_size, best_mask = r_size, r_mask
            return
        order: list[tuple[int, int]] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order.append((v, color))
                rest ^= low
                avail &= ~adj[v] & ~low
        for v, color in reversed(order):
            if r_size + color <= best_size:
                return
            expand(r_mask | 1 << v, r_size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, 0, g.vertex_mask)
    return best_size, best_mask


def max_independent_set(g: Graph) -> int:
    """Witness bitset of a maximum independent set."""
    return max_clique(complement(g))[1]


def independence_number(g: Graph) -> int:
    return max_clique(complement(g))[0]
