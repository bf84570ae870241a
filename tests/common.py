"""Test graphs and helpers shared by several test modules."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from immersions import (
    DegenerateInputError,
    Graph,
    bits,
    chromatic_number,
    complement,
    is_k_colorable,
    mask_of,
)


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def petersen_complement() -> Graph:
    return complement(petersen())


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """One rng draw per vertex pair, in lexicographic pair order."""
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def third_target(n: int) -> int:
    """ceil(n/3), the terminal count the builder guarantees."""
    return -(-n // 3)


# Criterion 6 (Gallai: a k-critical graph on at most 2k-2 vertices is a
# join) is checked only by the tests, so its helpers live here.


def induced_subgraph(g: Graph, s: int) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by the bitset s, plus the old->new index map."""
    if s & ~g.vertex_mask:
        raise ValueError("vertex set not contained in the graph")
    old = list(bits(s))
    relabel = {v: i for i, v in enumerate(old)}
    adj = tuple(mask_of(relabel[w] for w in bits(g.adj[v] & s)) for v in old)
    return Graph(len(old), adj), relabel


def is_vertex_critical(g: Graph, k: int) -> bool:
    """True iff chi(g) = k and chi(g - v) <= k - 1 for every vertex v."""
    if chromatic_number(g)[0] != k:
        return False
    for v in range(g.n):
        sub, _ = induced_subgraph(g, g.vertex_mask & ~(1 << v))
        if is_k_colorable(sub, k - 1) is None:
            return False
    return True


@dataclass(frozen=True)
class JoinPartition:
    """Vertex bipartition (x1, x2) with every cross pair adjacent."""

    x1: int
    x2: int


def find_join_partition(g: Graph) -> JoinPartition | None:
    """The complement component of vertex 0 as x1 and the rest as x2, or
    None when the complement is connected (a join split exists iff it is not).
    """
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
