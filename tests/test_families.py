"""families: canonical forms, exhaustive enumeration, seeded sampling."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

import immersions.families as families
import oracles
from immersions import (
    Graph,
    SizeCapError,
    bits,
    canonical_form,
    encode_graph6,
    enumerate_alpha_le2,
    enumerate_graphs,
    enumerate_triangle_free,
    graph_from_canonical_form,
    independence_number,
    sample_alpha_le2,
)
from immersions.graphs import are_twins
from common import random_graph


def permuted(g: Graph, perm: list[int]) -> Graph:
    adj = [0] * g.n
    for v in range(g.n):
        for w in bits(g.adj[v]):
            adj[perm[v]] |= 1 << perm[w]
    return Graph(g.n, tuple(adj))


def has_triangle(g: Graph) -> bool:
    return any(g.adj[u] & g.adj[v] for u, v in g.edges())


# (enumerate_level, largest_n, independent_only) for the exhaustive
# child checks: all graphs to n = 6 and triangle-free graphs to n = 7.
UNFILTERED = [(enumerate_graphs, 6, False), (enumerate_triangle_free, 7, True)]

# sha256 of canonical_form over every unfiltered child, as written by
# the refinement that starts from uniform colours (see test below).
CANONICAL_PIN = "30deaf3a6fd319034e2668cb7321971f9547c26ec7481021ba6bf6c45131ec7f"


def unfiltered_children(enumerate_level, largest_n: int, independent_only: bool):
    """(parent, neighborhood, child) for every child of every parent on
    at most largest_n vertices, with no degree or symmetry test."""
    for n in range(2, largest_n + 1):
        for parent in enumerate_level(n - 1):
            for neighborhood in range(1 << parent.n):
                if independent_only and any(parent.adj[v] & neighborhood for v in bits(neighborhood)):
                    continue
                adj = [row | (neighborhood >> v & 1) << parent.n for v, row in enumerate(parent.adj)]
                yield parent, neighborhood, Graph(n, (*adj, neighborhood))


class TestCanonicalForm:
    def test_empty_and_tiny(self):
        assert canonical_form(Graph.empty(0)) == ()
        assert canonical_form(Graph.empty(1)) == (0,)
        assert canonical_form(Graph.complete(3)) == (0, 1, 3)

    def test_relabel_invariance(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randrange(1, 10)
            g = random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(permuted(g, perm))

    def test_round_trip_is_fixed_point(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 9))
            form = canonical_form(g)
            rebuilt = graph_from_canonical_form(form)
            assert rebuilt.n == g.n
            assert canonical_form(rebuilt) == form

    def test_pinned_on_every_child(self):
        """The exact tuple, not only the partition, on every unfiltered child."""
        text = "\n".join(
            ",".join(map(str, canonical_form(child)))
            for args in UNFILTERED
            for _, _, child in unfiltered_children(*args)
        )
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == CANONICAL_PIN

    def test_agrees_with_brute_partition(self, all_graphs_small):
        """Distinct enumerated classes stay distinct under the brute form."""
        for n in range(1, 7):
            level = all_graphs_small[n]
            brute = {oracles.brute_canonical(g) for g in level}
            assert len(brute) == len(level)


class TestEnumeration:
    def test_triangle_free_counts(self):
        for n in range(1, 9):
            level = list(enumerate_triangle_free(n))
            assert len(level) == oracles.TRIANGLE_FREE_COUNTS[n]
            assert all(not has_triangle(g) for g in level)

    def test_alpha2_complements(self, alpha2_by_n):
        for n in range(1, 9):
            level = alpha2_by_n[n]
            assert len(level) == oracles.TRIANGLE_FREE_COUNTS[n]
            assert all(g.n == n for g in level)
            assert all(independence_number(g) <= 2 for g in level)

    def test_all_graph_counts(self, all_graphs_by_n):
        for n in range(1, 9):
            assert len(all_graphs_by_n[n]) == oracles.ALL_GRAPH_COUNTS[n]

    def test_counts_match_networkx_atlas(self):
        for n in range(1, 8):
            assert oracles.ALL_GRAPH_COUNTS[n] == oracles.nx_graph_atlas_counts(n)

    def test_deterministic_order(self):
        first = [encode_graph6(g) for g in enumerate_alpha_le2(5)]
        second = [encode_graph6(g) for g in enumerate_alpha_le2(5)]
        assert first == second

    @pytest.mark.parametrize("enumerate_level,largest_n,independent_only", UNFILTERED)
    def test_matches_unfiltered_children(self, enumerate_level, largest_n, independent_only):
        """Every child of every parent, no degree test, gives the same level."""
        forms: dict[int, set] = {}
        for _, _, child in unfiltered_children(enumerate_level, largest_n, independent_only):
            forms.setdefault(child.n, set()).add(canonical_form(child))
        for n, level_forms in forms.items():
            assert [canonical_form(g) for g in enumerate_level(n)] == sorted(level_forms)

    @pytest.mark.parametrize("enumerate_level,largest_n,independent_only", UNFILTERED)
    def test_twin_rule_skips_only_isomorphic_children(self, enumerate_level, largest_n, independent_only):
        """A child skipped only by the twin rule is isomorphic to a child
        the same parent keeps."""
        kept: dict[Graph, set] = {}
        skipped = 0
        for parent, neighborhood, child in unfiltered_children(enumerate_level, largest_n, independent_only):
            if parent not in kept:
                kept[parent] = {canonical_form(c) for c in families._children(parent, independent_only)}
            twin_pairs = [
                (1 << v, 1 << w)
                for v, w in combinations(range(parent.n), 2)
                if are_twins(parent.adj, v, w)
            ]
            if (
                max(row.bit_count() for row in child.adj) == neighborhood.bit_count()
                and not families._outranked(child)
                and any(neighborhood & w and not neighborhood & v for v, w in twin_pairs)
            ):
                skipped += 1
                assert canonical_form(child) in kept[parent], (parent, neighborhood)
        assert skipped > 0

    @pytest.mark.parametrize("enumerate_level,largest_n,independent_only", UNFILTERED)
    def test_f_rule_skips_only_isomorphic_children(self, enumerate_level, largest_n, independent_only):
        """A child whose new vertex has maximum degree but is outranked
        is isomorphic to a child kept at the same level (whose new
        vertex is f-maximal, so it comes from another parent)."""
        level: dict[int, set] = {}
        skipped = 0
        for _, neighborhood, child in unfiltered_children(enumerate_level, largest_n, independent_only):
            if child.n not in level:
                level[child.n] = {canonical_form(g) for g in enumerate_level(child.n)}
            if (
                max(row.bit_count() for row in child.adj) == neighborhood.bit_count()
                and families._outranked(child)
            ):
                skipped += 1
                assert canonical_form(child) in level[child.n], (child, neighborhood)
        assert skipped > 0

    # enumerate_graphs(7) took 3131 calls with the degree rule alone;
    # canonicalizing every child takes 11,290.
    @pytest.mark.parametrize(
        "enumerate_level,n,expected", [(enumerate_graphs, 7, 1672), (enumerate_triangle_free, 9, 3356)]
    )
    def test_canonical_form_calls_from_cold(self, monkeypatch, enumerate_level, n, expected):
        calls = 0

        def counted(g):
            nonlocal calls
            calls += 1
            return canonical_form(g)

        monkeypatch.setattr(families, "canonical_form", counted)
        families._level.cache_clear()
        list(enumerate_level(n))
        assert calls == expected

    def test_size_caps(self):
        with pytest.raises(SizeCapError):
            list(enumerate_triangle_free(11))
        with pytest.raises(SizeCapError):
            list(enumerate_alpha_le2(0))
        with pytest.raises(SizeCapError):
            list(enumerate_graphs(9))


class TestSampler:
    def test_deterministic_stream(self):
        first = [encode_graph6(g) for g in sample_alpha_le2(10, 20, seed=42)]
        second = [encode_graph6(g) for g in sample_alpha_le2(10, 20, seed=42)]
        assert first == second
        assert len(first) == 20

    def test_samples_satisfy_precondition(self):
        for g in sample_alpha_le2(12, 100, seed=3):
            assert g.n == 12
            assert independence_number(g) <= 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            list(sample_alpha_le2(0, 1, seed=0))

    @pytest.mark.parametrize("count", [0, -3])
    def test_rejects_count_below_one(self, count):
        with pytest.raises(ValueError, match="count"):
            list(sample_alpha_le2(5, count, seed=0))
