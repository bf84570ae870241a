"""constructive: the ceil(n/3) builder and its extension step."""

from __future__ import annotations

import re

import pytest

from immersions import (
    DegenerateInputError,
    Graph,
    ImmersionCertificate,
    IndependencePreconditionError,
    PreconditionError,
    STRONG_ODD,
    build_third_immersion,
    clique_certificate,
    complement,
    extension_step,
    find_clique_immersion,
    is_clique,
    non_neighborhood,
    parse_graph6,
    sample_alpha_le2,
    verify_certificate,
)


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_complement() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return complement(Graph.from_edges(10, outer + spokes + inner))


def cocktail_party(k: int) -> Graph:
    """Complement of a perfect matching on 2k vertices."""
    matching = Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    return complement(matching)


def third_target(n: int) -> int:
    return -(-n // 3)


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

    def test_alpha3_rejected_with_witness(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        with pytest.raises(IndependencePreconditionError) as exc:
            build_third_immersion(g)
        a, b, c = exc.value.witness
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
