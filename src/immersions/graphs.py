"""Bitset graphs, the graph6 codec, and exact elementary invariants.

Vertices are dense integers 0..n-1 and every vertex set is an int used
as a bitset (bit v set iff vertex v is in the set).  Adjacency is a
tuple of n such bitsets, one per vertex, kept symmetric and loop-free.
This representation caps n at 62, which matches the single-size-byte
graph6 form and is far beyond what the exponential searches downstream
can digest anyway.

A graph is also a square bit matrix, and one packed transpose serves
three jobs: checking a Graph, graph6 decoding (lower-triangle rows OR
their transpose) and rebuilding a graph from its canonical rows.  The
rows go side by side into one int, each in a lane of 8, 16, 32 or 64
bits, the narrowest that holds n bits, and log2(lane) masked swaps of
blocks transpose it (Warren, Hacker's Delight, section 7-3).  So one
packed pass decides type, range, loops and symmetry: packing fails on a
row that is not an int (a bool packs as 0 or 1) and overflows on a row
below 0 or wider than its lane, a loop is a bit on the lane's diagonal,
and a bit at a column n..width-1 fails the compare with the transpose,
which moves it into a row past n, where no row has bits.  Only a
rejected Graph is walked row by row, to name its first fault.

parse_graph6 accepts exactly one word per graph, the one encode_graph6
writes, so it keeps the word it read on the Graph it returns and
encode_graph6 returns that word.  The word is an attribute outside the
dataclass fields, set as _unchecked sets the fields; every other Graph
reads the class default None, which adds no per-instance storage, and
is encoded from its rows.

The exact solvers here (maximum clique, and the independence number as
the clique number of the complement) are branch-and-bound with a greedy
coloring upper bound, deterministic for reproducible reports.  Each
search node keeps its coloring as two flat lists, the vertices in
coloring order and the color of each, and a branch with no candidate
left is scored where it is met, with no call.  The loops a sweep row
runs walk a bitset inline (while m: low = m & -m), not through bits,
which costs a generator step per bit.
"""

from __future__ import annotations

import binascii
import re
import string
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import Graph6Error, UnsupportedSizeError

MAX_VERTICES = 62


def _swap_rounds(width: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) for each round of a width x width transpose, the
    entry of row r, column c at bit r * width + c.  Round j's mask holds
    the entries with bit j clear in r and set in c; each trades places
    with row r + j, column c - j, which sits shift bits higher."""
    rounds = []
    j = width >> 1
    while j:
        columns = sum(1 << c for c in range(width) if c & j)
        rows = sum(1 << r * width for r in range(width) if not r & j)
        rounds.append((j * (width - 1), rows * columns))
        j >>= 1
    return tuple(rounds)


class _Lane(NamedTuple):
    width: int  # bits
    code: str  # the unsigned array typecode of that many bits
    rounds: tuple[tuple[int, int], ...]  # _swap_rounds(width)
    diagonal: int  # the entries of row v, column v, packed


# Typecodes are picked by itemsize, since the C type behind each one
# varies by platform.
_LANE_CODES = {8 * array(code).itemsize: code for code in "BHILQ"}
_LANE_OF_WIDTH = {
    w: _Lane(w, _LANE_CODES[w], _swap_rounds(w), sum(1 << v * (w + 1) for v in range(w))) for w in (8, 16, 32, 64)
}
# The narrowest lane that holds n bits, by n.
_LANES = [_LANE_OF_WIDTH[max(8, 1 << (n - 1).bit_length())] for n in range(MAX_VERTICES + 1)]


def _pack(rows, lane: _Lane) -> int:
    """The rows side by side, row v in bits v * width ... (v + 1) * width - 1."""
    packed = array(lane.code, rows)
    if sys.byteorder == "big":
        packed.byteswap()
    return int.from_bytes(packed, "little")


def _unpack(packed: int, n: int, lane: _Lane) -> tuple[int, ...]:
    """The n rows _pack put side by side."""
    rows = array(lane.code, packed.to_bytes(n * lane.width // 8, "little"))
    if sys.byteorder == "big":
        rows.byteswap()
    return tuple(rows)


def _transpose_packed(packed: int, lane: _Lane) -> int:
    """The transpose of packed rows: one masked swap per round."""
    for shift, mask in lane.rounds:
        swap = (packed ^ packed >> shift) & mask
        packed ^= swap | swap << shift
    return packed


def _mirror_lower(rows) -> tuple[int, ...]:
    """The symmetric rows whose lower triangle is rows (row v inside 0..2^v - 1)."""
    lane = _LANES[len(rows)]
    packed = _pack(rows, lane)
    return _unpack(packed | _transpose_packed(packed, lane), len(rows), lane)


def bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    try:  # no work per step: it only turns a non-int mask's TypeError into a ValueError
        if mask < 0:  # its walk would never end
            raise ValueError(f"mask needs a nonnegative int, not the {type(mask).__name__} {mask!r}")
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
    except TypeError:
        raise ValueError(f"mask needs an int, not the {type(mask).__name__} {mask!r}") from None


def mask_of(vertices) -> int:
    """Bitset of an iterable of vertex indices."""
    m = 0
    try:  # as in bits, no work per vertex
        for v in vertices:
            m |= 1 << v
    except TypeError:
        raise ValueError(f"vertices need an iterable of ints, not the {type(vertices).__name__} {vertices!r}") from None
    except ValueError:  # a negative shift count
        raise ValueError(
            f"vertices need an iterable of nonnegative ints, not the {type(vertices).__name__} {vertices!r}"
        ) from None
    return m


def _is_int(value) -> bool:
    """Integer check for outside input: bool is an int subclass but never a vertex, size or count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, what: str) -> None:
    if not _is_int(value):
        raise ValueError(f"{what} needs an int, not the {type(value).__name__} {value!r}")


def _require_vertex(value, n: int, what: str) -> None:
    _require_int(value, what)
    if not 0 <= value < n:
        raise ValueError(f"vertex {value} outside 0..{n - 1}")


def _require_type(value, kind: type, what: str) -> None:
    """A public entry point's check of an argument it reads attributes of,
    so a wrong type fails before any work rather than partway through."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{what} needs {article} {kind.__name__}, not the {type(value).__name__} {value!r}")


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    adj: tuple[int, ...]
    # The word parse_graph6 read, kept for encode_graph6.  Not a field, so
    # never compared, hashed or shown; every other Graph reads this default.
    _graph6 = None

    def __post_init__(self):
        n, adj = self.n, self.adj
        _require_int(n, "vertex count n")
        if not isinstance(adj, tuple):
            raise ValueError(f"adjacency needs a tuple of rows, not a {type(adj).__name__}")
        if not 0 <= n <= MAX_VERTICES:
            raise UnsupportedSizeError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for n={n}")
        lane = _LANES[n]
        try:
            packed = _pack(adj, lane)
        except (OverflowError, TypeError):  # a row below 0, wider than its lane or not an int
            pass
        else:
            mirror = _transpose_packed(packed, lane)
            if packed == mirror and not packed & lane.diagonal:
                return
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if not isinstance(row, int):
                raise ValueError(f"adjacency row {v} needs an int, not the {type(row).__name__} {row!r}")
            if row & ~full:
                raise ValueError(f"vertex {v} has neighbors outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        # Every row packed; the lowest unmirrored bit is the first edge in row order.
        unmirrored = packed & ~mirror
        v, w = divmod((unmirrored & -unmirrored).bit_length() - 1, lane.width)
        raise ValueError(f"asymmetric edge {v}-{w}")

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...]) -> Graph:
        """A Graph from rows valid by construction (symmetric, loop-free
        and inside 0..n-1), made without the check __post_init__ runs."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)  # as the frozen dataclass's own __init__ does
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def empty(cls, n: int) -> Graph:
        _require_int(n, "vertex count n")
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> Graph:
        _require_int(n, "vertex count n")
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        _require_int(n, "vertex count n")
        adj = [0] * n
        try:
            edges = iter(edges)
        except TypeError:
            raise ValueError(
                f"edges need an iterable of vertex pairs, not the {type(edges).__name__} {edges!r}"
            ) from None
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):  # not iterable, or not of length 2
                raise ValueError(f"edges need vertex pairs, not the {type(edge).__name__} {edge!r}") from None
            _require_int(u, "an edge end")
            _require_int(v, "an edge end")
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
        _require_vertex(u, self.n, "vertex u")
        _require_vertex(v, self.n, "vertex v")
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        _require_vertex(v, self.n, "vertex v")
        return self.adj[v].bit_count()

    def edges(self):
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)


# graph6 writes the upper triangle column by column, six bits to a
# character of code 63 + value, high bit first: base64 with another
# alphabet.  Read from its low end after each byte's bits are reversed,
# the bit stream holds the edge u < v at bit v(v-1)/2 + u, so lower row
# v is the next v bits.
_BASE64 = (string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/").encode("ascii")
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_OUT_OF_RANGE = re.compile("[^?-~]")  # codes 63..126
_REVERSED_BITS = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 word (single size byte form, n <= 62)."""
    _require_type(line, str, "line")
    # ASCII whitespace only: a bare strip() would also drop U+00A0, U+0085, 0x1C-0x1F.
    text = line.strip(string.whitespace)
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise Graph6Error("empty graph6 word")
    bad = _OUT_OF_RANGE.search(text)
    if bad:
        char = bad.group()
        raise Graph6Error(f"character {char!r} (code {ord(char)}) out of range 63..126 at offset {bad.start()}")
    data = text.encode("ascii")
    if data[0] == 126:
        raise UnsupportedSizeError("multi-byte graph6 size (n > 62) not supported")
    n = data[0] - 63
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 < need:
        raise Graph6Error(f"word ends at offset {len(data)}, expected {need} data bytes")
    if len(data) - 1 > need:
        raise Graph6Error(f"trailing garbage at offset {1 + need}")
    # Whole base64 quanta of zero groups; the padding test below sees them.
    quanta = data[1:].translate(_TO_BASE64) + b"A" * (-need % 4)
    stream = int.from_bytes(binascii.a2b_base64(quanta).translate(_REVERSED_BITS), "little")
    if stream >> (n * (n - 1) // 2):
        raise Graph6Error(f"nonzero padding bits in the byte at offset {need}")
    lower = []
    for v in range(n):
        lower.append(stream & ((1 << v) - 1))
        stream >>= v
    g = Graph._unchecked(n, _mirror_lower(lower))
    # The checks above leave one word per graph, the one encode_graph6 writes.
    object.__setattr__(g, "_graph6", text)
    return g


def encode_graph6(g: Graph) -> str:
    """Encode to the canonical single-size-byte graph6 word; a parsed
    graph returns the word it was read from."""
    _require_type(g, Graph, "g")
    if g._graph6 is not None:
        return g._graph6
    stream = 0
    for v in range(g.n - 1, 0, -1):
        stream = stream << v | (g.adj[v] & ((1 << v) - 1))
    groups = (g.n * (g.n - 1) // 2 + 5) // 6
    data = stream.to_bytes(-(-groups // 4) * 3, "little").translate(_REVERSED_BITS)  # whole base64 quanta
    word = binascii.b2a_base64(data, newline=False)[:groups].translate(_FROM_BASE64)
    return chr(g.n + 63) + word.decode("ascii")


def earlier_twins(adj: tuple[int, ...]) -> list[int]:
    """For each vertex w, the bitset of its twins v < w: the vertices
    with w's neighbors apart from each other.  Twins are true (adjacent)
    or false (not); either way swapping them is an automorphism.

    Non-adjacent twins have equal open neighborhoods, adjacent ones
    equal closed neighborhoods, so one dict pass groups the vertices by
    both.  An open neighborhood N(v) never equals a closed one N(w) + w:
    w in N(v) would put v in N(w), so in N(v), a loop.
    """
    seen: dict[int, int] = {}  # neighborhood -> the vertices so far that have it
    twins = []
    for w, row in enumerate(adj):
        bit = 1 << w
        closed = row | bit
        twins.append(seen.get(row, 0) | seen.get(closed, 0))
        seen[row] = seen.get(row, 0) | bit
        seen[closed] = seen.get(closed, 0) | bit
    return twins


def complement(g: Graph) -> Graph:
    _require_type(g, Graph, "g")
    full = g.vertex_mask
    return Graph._unchecked(g.n, tuple(full ^ g.adj[v] ^ (1 << v) for v in range(g.n)))


def non_neighborhood(g: Graph, x: int) -> int:
    """Bitset of vertices distinct from and nonadjacent to x."""
    _require_type(g, Graph, "g")
    _require_vertex(x, g.n, "vertex x")
    return g.vertex_mask & ~g.adj[x] & ~(1 << x)


def is_clique(g: Graph, s: int) -> bool:
    _require_type(g, Graph, "g")
    _require_int(s, "vertex set s")
    if s < 0:
        raise ValueError(f"vertex set s needs a nonnegative int, not the int {s!r}")
    if s >> g.n:
        raise ValueError(f"vertex set s needs vertices inside 0..{g.n - 1}, not the int {s!r}")
    return _is_clique(g.adj, s)


def _is_clique(adj: tuple[int, ...], s: int) -> bool:
    """is_clique on a vertex set known to lie inside the graph, unchecked."""
    m = s
    while m:
        low = m & -m
        rest = s ^ low
        if adj[low.bit_length() - 1] & rest != rest:
            return False
        m ^= low
    return True


def max_clique(g: Graph) -> tuple[int, int]:
    """Exact maximum clique: (size, witness bitset).

    Branch and bound in the style of Tomita: candidates are greedily
    colored in increasing vertex order and explored from the highest
    color class down, so |clique| + color is an upper bound.  The
    search is deterministic, preferring low-index vertices in the
    coloring.
    """
    _require_type(g, Graph, "g")
    adj = g.adj
    best_size = 0
    best_mask = 0

    def expand(r_mask: int, r_size: int, cand: int):
        nonlocal best_size, best_mask
        order: list[int] = []  # cand in coloring order
        colors: list[int] = []  # the color of each
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order.append(v)
                colors.append(color)
                rest ^= low
                avail &= ~adj[v] & ~low
        k = len(order)
        while k:  # highest color first
            k -= 1
            if r_size + colors[k] <= best_size:
                return
            v = order[k]
            low = 1 << v
            inner = cand & adj[v]
            if inner:
                expand(r_mask | low, r_size + 1, inner)
            elif r_size >= best_size:  # a leaf, taken without the call
                best_size, best_mask = r_size + 1, r_mask | low
            cand ^= low

    expand(0, 0, g.vertex_mask)
    expand = None  # it calls itself: free the cycle now, not at a collection
    return best_size, best_mask


def max_independent_set(g: Graph) -> int:
    """Witness bitset of a maximum independent set."""
    return max_clique(complement(g))[1]


def independence_number(g: Graph) -> int:
    return max_clique(complement(g))[0]
