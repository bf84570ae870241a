"""constructive: the ceil(n/3) builder and its extension step."""

from __future__ import annotations

import hashlib
import itertools
import re

import pytest

import oracles
from immersions import (
    DegenerateInputError,
    Graph,
    ImmersionCertificate,
    IndependencePreconditionError,
    PreconditionError,
    STRONG_ODD,
    build_third_immersion,
    certificate_to_json,
    clique_certificate,
    complement,
    encode_graph6,
    enumerate_alpha_le2,
    extension_step,
    find_clique_immersion,
    is_clique,
    mask_of,
    max_clique,
    max_clique_immersion,
    non_neighborhood,
    parse_graph6,
    sample_alpha_le2,
    verify_certificate,
)
from immersions import construct as construct_module
from immersions.immersion import _clique_order, _extends, _SearchIndex
from common import cycle, petersen_complement, third_target


# sha256 of the certificate JSON and trace lines of build_third_immersion
# over builder_corpus(), as written by the builder that relabelled each
# recursive certificate from an induced subgraph.
BUILDER_PIN = "8e7b89e0fc8e6cc5f03ef17c542f69d0f4dfa6ff1470400302eeaac4c37a10a6"


def builder_corpus():
    """Every alpha <= 2 graph with n <= 9, then 40 seeded samples for
    each n = 10..15: 2,719 graphs."""
    for n in range(1, 10):
        yield from enumerate_alpha_le2(n)
    for n in range(10, 16):
        yield from sample_alpha_le2(n, 40, seed=n)


def cocktail_party(k: int) -> Graph:
    """Complement of a perfect matching on 2k vertices."""
    matching = Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    return complement(matching)


class TestBuildThird:
    def check(self, g: Graph) -> ImmersionCertificate:
        cert = build_third_immersion(g)
        report = verify_certificate(g, cert, STRONG_ODD)
        assert report.accepted, report.violations
        assert cert.t >= third_target(g.n)
        return cert

    def test_complete_graphs(self):
        cert = self.check(Graph.complete(6))
        assert cert.terminals == (0, 1)  # lowest-lex pair on the complete branch
        assert cert.paths == {(0, 1): (0, 1)}
        assert self.check(Graph.complete(9)).t == 3
        assert self.check(Graph.complete(1)).t == 1

    def test_c5_low_degree_branch(self):
        trace: list[str] = []
        cert = build_third_immersion(cycle(5), trace)
        assert cert.t == 2
        assert verify_certificate(cycle(5), cert, STRONG_ODD).accepted
        assert trace == ["n=5 branch=low-degree x=0 t=2"]

    def test_trace_names_input_vertices(self):
        trace: list[str] = []
        build_third_immersion(parse_graph6("E~vg"), trace)
        assert trace == [
            "n=2 branch=complete t=1",
            "n=4 branch=extend pair=(3,5) t=2",
            "n=6 branch=extend pair=(2,4) t=3",
        ]

    @pytest.mark.parametrize("trace", ["x", (), {}], ids=["str", "tuple", "dict"])
    def test_trace_not_a_list_is_refused_before_any_work(self, trace, monkeypatch):
        """A str trace once raised a bare AttributeError at the first
        branch; now the builder refuses it before it starts."""
        for name in ("max_independent_set", "_build"):  # any work would fail otherwise
            monkeypatch.setattr(construct_module, name, None)
        message = f"trace needs a list, not the {type(trace).__name__} {trace!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_third_immersion(cycle(5), trace)

    def test_petersen_complement(self):
        cert = self.check(petersen_complement())
        assert cert.t >= 4
        assert find_clique_immersion(petersen_complement(), 4, STRONG_ODD) is not None

    def test_cocktail_party_recursion_shape(self):
        g = cocktail_party(5)
        trace: list[str] = []
        cert = build_third_immersion(g, trace)
        assert verify_certificate(g, cert, STRONG_ODD).accepted
        assert cert.t >= 4
        sizes = [int(re.search(r"n=(\d+)", line).group(1)) for line in trace]
        assert sizes == sorted(sizes)
        assert all(b - a == 2 for a, b in zip(sizes, sizes[1:]))
        assert len(trace) <= -(-g.n // 2)

    def test_every_alpha2_graph_up_to_7(self, alpha2_by_n):
        for n in range(1, 8):
            for g in alpha2_by_n[n]:
                self.check(g)

    def test_random_alpha2_graphs_up_to_15(self):
        built = 0
        for n in range(10, 16):
            for g in sample_alpha_le2(n, 84, seed=n):
                self.check(g)
                built += 1
        assert built >= 500

    def test_pinned_certificates_and_traces(self):
        """The exact certificate and trace, not only their validity."""
        lines: list[str] = []
        built = 0
        for g in builder_corpus():
            trace: list[str] = []
            lines.append(certificate_to_json(build_third_immersion(g, trace), STRONG_ODD))
            lines.extend(trace)
            built += 1
        assert built == 2719
        assert hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest() == BUILDER_PIN

    def test_alpha3_rejected_with_witness(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        message = r"independence number exceeds 2: vertices \(1, 3, 5\) are pairwise nonadjacent"
        with pytest.raises(IndependencePreconditionError, match=f"^{message}$") as exc:
            build_third_immersion(g)
        a, b, c = exc.value.witness
        assert (a, b, c) == (1, 3, 5)
        assert not g.has_edge(a, b) and not g.has_edge(a, c) and not g.has_edge(b, c)

    def test_empty_graph_degenerate(self):
        with pytest.raises(DegenerateInputError):
            build_third_immersion(Graph.empty(0))

    def test_low_degree_claim_restated(self, alpha2_by_n):
        """alpha <= 2 and d(x) <= floor(2n/3) - 1 force a big clique at x."""
        for n in range(1, 9):
            for g in alpha2_by_n[n]:
                cap = 2 * n // 3 - 1
                for x in range(n):
                    if g.degree(x) <= cap:
                        close = non_neighborhood(g, x)
                        assert is_clique(g, close)
                        assert close.bit_count() >= third_target(n)

    def test_extension_claim_restated(self, alpha2_by_n):
        """alpha <= 2 and no vertex of degree <= floor(2n/3) - 1 give every
        independent pair at least ceil((n-2)/3) + 1 common neighbours."""
        graphs = pairs = tight = 0
        for n in range(2, 9):
            for g in alpha2_by_n[n]:
                if min(g.degree(x) for x in range(n)) <= 2 * n // 3 - 1:
                    continue
                graphs += 1
                for u in range(n):
                    for v in range(u + 1, n):
                        if not g.has_edge(u, v):
                            common = (g.adj[u] & g.adj[v]).bit_count()
                            assert common >= third_target(n - 2) + 1
                            pairs += 1
                            tight += common == third_target(n - 2) + 1
        assert (graphs, pairs, tight) == (69, 274, 52)


class TestExtensionStep:
    def test_direct_edges_only(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K4 minus 2-3
        base = clique_certificate([0, 1])
        cert = extension_step(g, 3, 2, base)
        assert cert is not None
        assert cert.terminals == (0, 1, 2)
        assert all(len(path) == 2 for path in cert.paths.values())
        assert verify_certificate(g, cert, STRONG_ODD).accepted

    def test_detour_path_built(self):
        g = Graph.from_edges(5, [(0, 3), (1, 3), (1, 4)])
        base = ImmersionCertificate((0,), {})
        cert = extension_step(g, 3, 4, base)
        assert cert is not None
        assert cert.terminals == (0, 4)
        assert cert.paths == {(0, 1): (0, 3, 1, 4)}

    def test_mixed_direct_and_detour_counts(self):
        g = Graph.from_edges(5, [(0, 1), (1, 4), (0, 3), (2, 3), (2, 4)])
        base = clique_certificate([0, 1])
        cert = extension_step(g, 3, 4, base)
        assert cert is not None
        assert cert.terminals == (0, 1, 4)
        lengths = sorted(len(p) - 1 for p in cert.paths.values())
        # base edge 0-1, one direct edge 1-4, one detour 0-3-2-4
        assert lengths == [1, 1, 3]
        adjacent_count = sum(1 for t in (0, 1) if g.has_edge(4, t))
        detours = [p for p in cert.paths.values() if len(p) == 4]
        assert len(detours) == 2 - adjacent_count

    def test_unsorted_base_gives_sorted_certificate(self):
        """v lands between old terminals and its detour path is reversed,
        whatever the order of the base's terminals."""
        g = Graph.from_edges(6, [(0, 4), (0, 2), (3, 4), (3, 5), (2, 5)])
        for base in (ImmersionCertificate((4, 0), {(0, 1): (4, 0)}), clique_certificate([0, 4])):
            cert = extension_step(g, 3, 2, base)
            assert cert.terminals == (0, 2, 4)
            assert cert.paths == {(0, 1): (0, 2), (0, 2): (0, 4), (1, 2): (2, 5, 3, 4)}

    def test_pigeonhole_absent(self):
        g = Graph.from_edges(5, [(0, 3), (1, 4)])  # no common neighbor of 3 and 4
        base = ImmersionCertificate((0,), {})
        assert extension_step(g, 3, 4, base) is None

    def test_u_not_adjacent_to_missing_terminal(self):
        g = Graph.from_edges(5, [(1, 3), (1, 4)])
        base = ImmersionCertificate((0,), {})
        assert extension_step(g, 3, 4, base) is None

    def test_adjacent_pair_rejected(self):
        g = Graph.from_edges(4, [(2, 3), (0, 1)])
        with pytest.raises(PreconditionError, match="adjacent"):
            extension_step(g, 2, 3, clique_certificate([0, 1]))

    def test_base_touching_uv_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 0)])
        with pytest.raises(PreconditionError, match="terminals must avoid"):
            extension_step(g, 1, 3, clique_certificate([0, 1]))
        path_through_u = ImmersionCertificate((0, 1), {(0, 1): (0, 2, 1)})
        g2 = Graph.from_edges(4, [(0, 2), (2, 1)])
        with pytest.raises(PreconditionError, match="paths must avoid"):
            extension_step(g2, 2, 3, path_through_u)

    def test_invalid_base_rejected(self):
        g = Graph.from_edges(4, [(0, 2), (1, 2)])  # 0-1 not an edge
        with pytest.raises(PreconditionError, match="rejected"):
            extension_step(g, 2, 3, clique_certificate([0, 1]))

    def test_bad_vertices_rejected(self):
        g = Graph.empty(3)
        with pytest.raises(PreconditionError):
            extension_step(g, 1, 1, ImmersionCertificate((0,), {}))
        with pytest.raises(PreconditionError):
            extension_step(g, 1, 9, ImmersionCertificate((0,), {}))


class TestExtensionLemma:
    def test_lemma_proves_the_order_it_claims(self, all_graphs_by_n, alpha2_by_n):
        """Every graph with n <= 7 and every alpha <= 2 class with n = 8
        or 9 (those with n <= 7 are among the former): wherever the
        lemma's test fires for the maximum clique Q or a swap Q - q + x,
        extension_step builds the K_{|Q|+1} certificate, a search finds
        one, and the climbs' start never passes the strong odd order."""
        graphs = [g for n in range(1, 8) for g in all_graphs_by_n[n]]
        graphs += alpha2_by_n[8] + list(enumerate_alpha_le2(9))
        assert len(graphs) == 3559
        fired_graphs = hits = 0
        for g in graphs:
            omega, clique_mask = max_clique(g)
            fired = False
            for terms in oracles.lemma_cliques(g, clique_mask):
                rest = [w for w in range(g.n) if w not in terms]
                for u, v in itertools.permutations(rest, 2):
                    if g.has_edge(u, v):
                        continue
                    holds = oracles.lemma_holds(g, terms, u, v)
                    assert _extends(g.adj, mask_of(terms), u, v) == holds
                    if not holds:
                        continue
                    cert = extension_step(g, u, v, clique_certificate(terms))
                    assert cert is not None and cert.t == omega + 1
                    assert verify_certificate(g, cert, STRONG_ODD).accepted
                    fired = True
                    hits += 1
            start = _clique_order(_SearchIndex(g))
            assert start == omega + fired
            if fired:
                fired_graphs += 1
                assert find_clique_immersion(g, omega + 1, STRONG_ODD) is not None
            assert start <= max_clique_immersion(g, STRONG_ODD)[0]
        assert (fired_graphs, hits) == (1271, 5797)

    def test_clique_order_matches_the_reference(self, all_graphs_small, alpha2_by_n):
        """On every graph with n <= 6 and every alpha <= 2 class with
        n <= 8, _clique_order is omega, plus 1 when the lemma holds for
        some (Q, v, u).  It returns omega at once when fewer than
        omega + 1 vertices have degree >= omega, and the lemma holds on
        none of those graphs."""
        graphs = [g for n in range(1, 7) for g in all_graphs_small[n]]
        graphs += [g for n in range(1, 9) for g in alpha2_by_n[n]]
        early = 0
        for g in graphs:
            omega, clique_mask = max_clique(g)
            want = oracles.reference_clique_order(g, clique_mask)
            assert _clique_order(_SearchIndex(g)) == want, encode_graph6(g)
            if sum(g.degree(v) >= omega for v in range(g.n)) <= omega:
                early += 1
                assert want == omega, encode_graph6(g)
        assert (len(graphs), early) == (790, 379)
