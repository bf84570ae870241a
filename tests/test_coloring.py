"""coloring: exact chromatic number, criticality, join partitions."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest

import oracles
from immersions import (
    ColoringCertificate,
    DegenerateInputError,
    Graph,
    bits,
    chromatic_number,
    complement,
    enumerate_alpha_le2,
    is_k_colorable,
    sample_alpha_le2,
)
from immersions.coloring import matching_number
from common import cycle, find_join_partition, induced_subgraph, is_vertex_critical, petersen, random_graph


def assert_proper(g: Graph, cert):
    assert len(cert.colors) == g.n
    for u, v in g.edges():
        assert cert.colors[u] != cert.colors[v]
    used = set(cert.colors)
    assert used == set(range(cert.k)) or (g.n == 0 and cert.k == 0)


class TestKColorable:
    def test_k4_needs_four(self):
        assert is_k_colorable(Graph.complete(4), 3) is None
        cert = is_k_colorable(Graph.complete(4), 4)
        assert cert is not None and cert.k == 4

    def test_c5_three_colorable(self):
        cert = is_k_colorable(cycle(5), 3)
        assert cert is not None
        assert_proper(cycle(5), cert)

    def test_bipartite_two_colorable(self):
        rng = random.Random(7)
        for _ in range(40):
            left = rng.randint(1, 4)
            right = rng.randint(1, 4)
            edges = [
                (a, left + b)
                for a in range(left)
                for b in range(right)
                if rng.random() < 0.6
            ]
            g = Graph.from_edges(left + right, edges)
            cert = is_k_colorable(g, 2)
            assert cert is not None
            assert_proper(g, cert)

    def test_zero_colors(self):
        assert is_k_colorable(Graph.empty(1), 0) is None
        assert is_k_colorable(Graph.empty(0), 0) is not None
        assert is_k_colorable(Graph.empty(0), 2) == ColoringCertificate(0, ())
        with pytest.raises(ValueError):
            is_k_colorable(Graph.empty(1), -1)

    def test_normalization_first_occurrences_ascend(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(1, 8)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            cert = is_k_colorable(g, n)
            assert cert is not None
            seen: list[int] = []
            for c in cert.colors:
                if c not in seen:
                    seen.append(c)
            assert seen == sorted(seen)


class TestChromaticNumber:
    def test_known_values(self):
        for n in range(1, 7):
            assert chromatic_number(Graph.complete(n))[0] == n
        assert chromatic_number(cycle(5))[0] == 3
        assert chromatic_number(petersen())[0] == 3
        assert chromatic_number(Graph.empty(0))[0] == 0
        assert chromatic_number(Graph.empty(5))[0] == 1

    def test_witness_proper_and_tight(self):
        rng = random.Random(9)
        for _ in range(80):
            n = rng.randint(0, 8)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            chi, cert = chromatic_number(g)
            assert chi == cert.k
            assert_proper(g, cert)

    def test_matches_brute_force_exhaustively(self, all_graphs_by_n):
        for n in range(1, 8):
            for g in all_graphs_by_n[n]:
                assert chromatic_number(g)[0] == oracles.brute_chromatic(g)


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """g with vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestMatching:
    def test_matches_brute_force_exhaustively(self, all_graphs_by_n):
        for n in range(1, 8):
            for g in all_graphs_by_n[n]:
                assert matching_number(g) == oracles.brute_matching_number(g), sorted(g.edges())

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 12), rng.random())
            assert matching_number(g) == oracles.brute_matching_number(g), sorted(g.edges())

    def test_matches_networkx(self, all_graphs_by_n):
        """Against networkx's maximum-cardinality matching: every graph with
        n <= 7, and seeded graphs with n <= 16, where the greedy start
        leaves the blossom search real work."""
        graphs = [g for n in range(1, 8) for g in all_graphs_by_n[n]]
        rng = random.Random(43)
        graphs += [random_graph(rng, rng.randint(0, 16), rng.random()) for _ in range(300)]
        for g in graphs:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            assert matching_number(g) == len(nx.max_weight_matching(h, maxcardinality=True)), sorted(g.edges())

    @pytest.mark.parametrize("g,nu", [
        (cycle(5), 2),
        (cycle(7), 3),
        (petersen(), 5),
        (Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]), 3),
    ], ids=["C5", "C7", "Petersen", "two triangles and a bridge"])
    def test_blossoms(self, g, nu):
        """Odd cycles the search must contract, under 50 relabelings each."""
        rng = random.Random(42)
        for _ in range(50):
            perm = rng.sample(range(g.n), g.n)
            assert matching_number(relabeled(g, perm)) == nu, perm

    def test_chi_of_alpha_le2_is_n_minus_nu_of_the_complement(self):
        """A color class of an alpha <= 2 graph is a vertex or an edge of
        its complement: every class with n <= 9, and seeded samples."""
        graphs = [g for n in range(1, 10) for g in enumerate_alpha_le2(n)]
        graphs += [g for n in (12, 16, 20) for g in sample_alpha_le2(n, 20, seed=7)]
        for g in graphs:
            assert g.n - matching_number(complement(g)) == chromatic_number(g)[0], sorted(g.edges())


class TestVertexCritical:
    def test_complete_graphs_critical(self):
        assert is_vertex_critical(Graph.complete(4), 4)
        assert not is_vertex_critical(Graph.complete(4), 3)
        assert is_vertex_critical(Graph.empty(0), 0)

    def test_odd_cycle_critical(self):
        assert is_vertex_critical(cycle(5), 3)

    def test_even_cycle_not_critical(self):
        assert not is_vertex_critical(cycle(6), 2)

    def test_matches_definition(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(2, 7)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            k = chromatic_number(g)[0]
            expected = all(
                chromatic_number(induced_subgraph(g, g.vertex_mask & ~(1 << v))[0])[0] < k
                for v in range(n)
            )
            assert is_vertex_critical(g, k) == expected


class TestJoinPartition:
    def test_k2(self):
        jp = find_join_partition(Graph.complete(2))
        assert jp is not None
        assert jp.x1 == 0b01 and jp.x2 == 0b10

    def test_c5_has_none(self):
        assert find_join_partition(cycle(5)) is None

    def test_k33_parts_are_complement_components(self):
        g = Graph.from_edges(6, [(a, 3 + b) for a in range(3) for b in range(3)])
        jp = find_join_partition(g)
        assert jp is not None
        assert jp.x1 == 0b000111 and jp.x2 == 0b111000

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            find_join_partition(Graph.empty(1))

    def test_partition_is_join_and_chi_additive(self):
        rng = random.Random(22)
        for _ in range(60):
            n = rng.randint(2, 8)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
            g = Graph.from_edges(n, edges)
            jp = find_join_partition(g)
            comp = complement(g)
            if jp is None:
                # complement connected: vertex 0 reaches everyone
                seen = 1
                frontier = [0]
                while frontier:
                    v = frontier.pop()
                    for w in bits(comp.adj[v] & ~seen):
                        seen |= 1 << w
                        frontier.append(w)
                assert seen == g.vertex_mask
                continue
            assert jp.x1 and jp.x2
            assert jp.x1 & jp.x2 == 0
            assert jp.x1 | jp.x2 == g.vertex_mask
            assert jp.x1 & 1  # vertex 0 lands in X1
            for a in bits(jp.x1):
                assert g.adj[a] & jp.x2 == jp.x2
            chi = chromatic_number(g)[0]
            chi1 = chromatic_number(induced_subgraph(g, jp.x1)[0])[0]
            chi2 = chromatic_number(induced_subgraph(g, jp.x2)[0])[0]
            assert chi == chi1 + chi2
