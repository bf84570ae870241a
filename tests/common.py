"""Test graphs and helpers shared by several test modules."""

from __future__ import annotations

import itertools
import random

from immersions import Graph, complement


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
