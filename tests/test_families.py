"""families: canonical forms, exhaustive enumeration, seeded sampling."""

from __future__ import annotations

import gc
import hashlib
import random
import re
from itertools import combinations, permutations, product

import pytest

import immersions.families as families
import oracles
from immersions import (
    Graph,
    SizeCapError,
    UnsupportedSizeError,
    bits,
    canonical_form,
    complement,
    encode_graph6,
    enumerate_alpha_le2,
    enumerate_graphs,
    enumerate_triangle_free,
    graph_from_canonical_form,
    independence_number,
    parse_graph6,
    sample_alpha_le2,
)
from common import cycle, petersen, random_graph


def permuted(g: Graph, perm: list[int]) -> Graph:
    adj = [0] * g.n
    for v in range(g.n):
        for w in bits(g.adj[v]):
            adj[perm[v]] |= 1 << perm[w]
    return Graph(g.n, tuple(adj))


def new_vertex_stays_on_top(child: Graph) -> bool:
    """Whether the last vertex stays in the highest color class."""
    colors = families._refine_colors(families._neighbor_lists(child.adj))
    return colors[-1] == max(colors)


def has_triangle(g: Graph) -> bool:
    return any(g.adj[u] & g.adj[v] for u, v in g.edges())


# (enumerate_level, largest_n, independent_only) for the exhaustive
# child checks: all graphs to n = 6 and triangle-free graphs to n = 7.
UNFILTERED = [(enumerate_graphs, 6, False), (enumerate_triangle_free, 7, True)]

# sha256 of canonical_form over every unfiltered child, as written by
# the refinement that starts from uniform colours (see test below).
CANONICAL_PIN = "30deaf3a6fd319034e2668cb7321971f9547c26ec7481021ba6bf6c45131ec7f"


def child_of(parent: Graph, neighborhood: int) -> Graph:
    """The parent with a new last vertex adjacent to `neighborhood`."""
    adj = [row | (neighborhood >> v & 1) << parent.n for v, row in enumerate(parent.adj)]
    return Graph(parent.n + 1, (*adj, neighborhood))


def unfiltered_children(enumerate_level, largest_n: int, independent_only: bool):
    """(parent, neighborhood, child) for every child of every parent on
    at most largest_n vertices, with no degree or symmetry test."""
    for n in range(2, largest_n + 1):
        for parent in enumerate_level(n - 1):
            for neighborhood in range(1 << parent.n):
                if independent_only and any(parent.adj[v] & neighborhood for v in bits(neighborhood)):
                    continue
                yield parent, neighborhood, child_of(parent, neighborhood)


def stored_automorphisms(parent: Graph, independent_only: bool) -> tuple[tuple[int, ...], ...]:
    """The automorphisms the level keeps beside `parent`."""
    return dict(zip(*families._level(parent.n, independent_only)))[parent]


def kept_children(parent: Graph, independent_only: bool):
    """(child, lists, colors) for each child `_children` keeps, its rows
    checked by Graph and equal to those child_of builds for its
    neighborhood."""
    automorphisms = stored_automorphisms(parent, independent_only)
    for rows, lists, colors in families._children(parent, independent_only, automorphisms):
        child = Graph(len(rows), rows)
        assert child == child_of(parent, rows[-1]), (parent, rows)
        yield child, lists, colors


def twin_classes(g: Graph) -> list[list[int]]:
    """The classes of mutual twins, each ascending, by least member."""
    classes: list[list[int]] = []
    for w in range(g.n):
        for members in classes:
            if oracles._twins(g.adj, members[0], w):
                members.append(w)
                break
        else:
            classes.append([w])
    return classes


def twin_least(g: Graph, s: int) -> int:
    """The set meeting each twin class of g in an initial segment as
    large as s meets it."""
    least = 0
    for members in twin_classes(g):
        least |= sum(1 << v for v in members[: sum(s >> v & 1 for v in members)])
    return least


def image(sigma: tuple[int, ...], s: int) -> int:
    return sum(1 << sigma[v] for v in bits(s))


def is_automorphism(g: Graph, sigma: tuple[int, ...]) -> bool:
    return all(image(sigma, g.adj[v]) == g.adj[sigma[v]] for v in range(g.n))


def keeps_twin_order(g: Graph, sigma: tuple[int, ...]) -> bool:
    """Whether sigma maps each twin class of g onto one in ascending
    order, so maps twin-least sets to twin-least sets."""
    classes = twin_classes(g)
    return all(sorted(sigma[v] for v in members) in classes for members in classes) and all(
        sigma[v] < sigma[w] for members in classes for v, w in zip(members, members[1:])
    )


def generated_group(g: Graph, automorphisms) -> set[tuple[int, ...]]:
    """{tau o sigma : sigma in automorphisms or the identity, tau a
    permutation within g's twin classes}."""
    classes = twin_classes(g)
    swaps = []
    for arrangement in product(*[permutations(members) for members in classes]):
        tau = [0] * g.n
        for members, images in zip(classes, arrangement):
            for v, w in zip(members, images):
                tau[v] = w
        swaps.append(tau)
    return {tuple(tau[p] for p in sigma) for sigma in [tuple(range(g.n)), *automorphisms] for tau in swaps}


def searched(g: Graph):
    """(form, automorphisms) of the canonical search on g."""
    lists = families._neighbor_lists(g.adj)
    return families._search(g.adj, lists, families._refine_colors(lists))


def cube() -> Graph:
    """Q3: vertices are 3-bit words, adjacent when they differ in one bit."""
    return Graph.from_edges(8, [(v, v ^ 1 << i) for v in range(8) for i in range(3) if v < v ^ 1 << i])


def complete_multipartite(*sizes: int) -> Graph:
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return Graph.from_edges(len(part), [(u, v) for u, v in combinations(range(len(part)), 2) if part[u] != part[v]])


def doubled(g: Graph, adjacent: bool) -> Graph:
    """Each vertex v of g split into twins 2v and 2v + 1, true twins when adjacent."""
    edges = [(2 * u + i, 2 * v + j) for u, v in g.edges() for i in (0, 1) for j in (0, 1)]
    return Graph.from_edges(2 * g.n, edges + [(2 * v, 2 * v + 1) for v in range(g.n) if adjacent])


def paley13() -> Graph:
    """Adjacent when the difference is a nonzero square mod 13."""
    squares = {x * x % 13 for x in range(1, 13)}
    return Graph.from_edges(13, [(u, v) for u, v in combinations(range(13), 2) if (v - u) % 13 in squares])


def checked_form(g: Graph) -> tuple[int, ...]:
    """canonical_form(g), once its colors and rows equal the reference's."""
    colors = families._refine_colors(families._neighbor_lists(g.adj))
    assert tuple(colors) == oracles.reference_refine_colors(g.n, g.adj), g
    form = canonical_form(g)
    assert form == oracles.reference_canonical_form(g), g
    return form


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

    def test_form_past_the_size_cap_refused(self):
        """63 empty rows once failed with a bare IndexError."""
        with pytest.raises(UnsupportedSizeError, match=r"^vertex count 63 outside 0\.\.62$"):
            graph_from_canonical_form((0,) * 63)
        assert graph_from_canonical_form((0,) * 62) == Graph.empty(62)

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


class TestNoReferenceCycles:
    @pytest.mark.parametrize("call", [
        lambda: canonical_form(parse_graph6("I~~phnGqG")),
        lambda: families._level.__wrapped__(7, True),
        lambda: families._level.__wrapped__(6, False),
    ], ids=["canonical_form", "level-7-alpha2", "level-6-all"])
    def test_a_search_leaves_nothing_for_the_collector(self, call):
        """The canonical search frees its recursive closure when it
        returns, not left as a cycle for the collector, which once found
        28 objects after this canonical_form, 1,506 after the alpha <= 2
        level at n = 7 and 1,722 after the level of all graphs at n = 6,
        each from the level below it kept."""
        families._level(6, True)
        families._level(5, False)
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSearchMatchesReference:
    """Colors and forms equal those of the refinement by sorted tuples
    and the descent that rebuilt every row (oracles.reference_*)."""

    @pytest.mark.parametrize("enumerate_level,largest_n,independent_only", UNFILTERED)
    def test_every_unfiltered_child(self, enumerate_level, largest_n, independent_only):
        for _, _, child in unfiltered_children(enumerate_level, largest_n, independent_only):
            checked_form(child)

    @pytest.mark.parametrize("enumerate_level,largest_n,independent_only", UNFILTERED)
    def test_inherited_lists_of_kept_children(self, enumerate_level, largest_n, independent_only):
        """The generator's own lists, colors and search, child by child."""
        for n in range(1, largest_n):
            for parent in enumerate_level(n):
                for child, lists, colors in kept_children(parent, independent_only):
                    assert lists == families._neighbor_lists(child.adj)
                    assert tuple(colors) == oracles.reference_refine_colors(child.n, child.adj)
                    assert families._search(child.adj, lists, colors)[0] == oracles.reference_canonical_form(child)

    def test_sampled_alpha2_graphs(self):
        for n in range(11, 21):
            for g in sample_alpha_le2(n, 30, seed=n):
                checked_form(g)

    def test_random_graphs(self):
        rng = random.Random(20)
        for _ in range(300):
            checked_form(random_graph(rng, rng.randrange(1, 21), rng.choice((0.2, 0.5, 0.8))))

    @pytest.mark.parametrize(
        "g",
        [cycle(n) for n in range(3, 13)]
        + [petersen(), cube(), complete_multipartite(4, 4), paley13()]
        + [doubled(h, adjacent) for h in (complete_multipartite(1, 2, 3), cycle(5)) for adjacent in (False, True)],
        ids=[f"C{n}" for n in range(3, 13)]
        + ["petersen", "Q3", "K44", "paley13", "K123-false-twins", "K123-true-twins", "C5-false-twins", "C5-true-twins"],
    )
    def test_symmetric_graphs_relabeled(self, g):
        """Where the descent branches most: vertex-transitive graphs and
        their complements, and graphs whose every vertex has a twin, in
        twin classes of unequal size for K_{1,2,3}, each under 20 seeded
        relabelings."""
        rng = random.Random(g.n)
        for h in (g, complement(g)):
            form = canonical_form(h)
            for _ in range(20):
                perm = list(range(h.n))
                rng.shuffle(perm)
                assert checked_form(permuted(h, perm)) == form


class TestSearchAutomorphisms:
    """Composed after the automorphisms a search returns, or the
    identity, the twin swaps give the whole automorphism group of its
    canonical graph."""

    def test_every_graph_to_six_vertices(self, all_graphs_small):
        rng = random.Random(6)
        for n in range(1, 7):
            for g in all_graphs_small[n]:
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, permuted(g, perm)):
                    form, automorphisms = searched(h)
                    canonical = graph_from_canonical_form(form)
                    brute = {sigma for sigma in permutations(range(n)) if is_automorphism(canonical, sigma)}
                    assert generated_group(canonical, automorphisms) == brute, h
                    assert all(keeps_twin_order(canonical, sigma) for sigma in automorphisms), h

    @pytest.mark.parametrize(
        "g,order",
        [(petersen(), 120), (cube(), 48), (cycle(12), 24), (complete_multipartite(4, 4), 1152), (paley13(), 78)],
        ids=["petersen", "Q3", "C12", "K44", "paley13"],
    )
    def test_group_order_of_symmetric_graphs(self, g, order):
        rng = random.Random(g.n)
        perm = list(range(g.n))
        rng.shuffle(perm)
        form, automorphisms = searched(permuted(g, perm))
        canonical = graph_from_canonical_form(form)
        group = generated_group(canonical, automorphisms)
        assert len(group) == order
        assert all(is_automorphism(canonical, sigma) for sigma in group)
        assert all(keeps_twin_order(canonical, sigma) for sigma in automorphisms)

    def test_a_twin_class_coloring_returns_no_automorphism(self):
        """Every color class of K_{1,2,3} is a twin class."""
        form, automorphisms = searched(complete_multipartite(1, 2, 3))
        assert automorphisms == ()
        assert form == oracles.reference_canonical_form(complete_multipartite(1, 2, 3))


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
                kept[parent] = {canonical_form(c) for c, _, _ in kept_children(parent, independent_only)}
            twin_pairs = [
                (1 << v, 1 << w)
                for v, w in combinations(range(parent.n), 2)
                if oracles._twins(parent.adj, v, w)
            ]
            if (
                max(row.bit_count() for row in child.adj) == neighborhood.bit_count()
                and new_vertex_stays_on_top(child)
                and any(neighborhood & w and not neighborhood & v for v, w in twin_pairs)
            ):
                skipped += 1
                assert canonical_form(child) in kept[parent], (parent, neighborhood)
        assert skipped > 0

    @pytest.mark.parametrize("enumerate_level,largest_n,independent_only", UNFILTERED)
    def test_orbit_rule_skips_only_isomorphic_children(self, enumerate_level, largest_n, independent_only):
        """A child that passes the degree, twin and top-class rules is
        kept exactly when no stored automorphism of its parent maps its
        neighborhood to one whose twin-least form is smaller, and one
        skipped so is isomorphic to a child the same parent keeps."""
        kept: dict[Graph, dict[int, tuple]] = {}
        skipped = 0
        for parent, neighborhood, child in unfiltered_children(enumerate_level, largest_n, independent_only):
            if parent not in kept:
                kept[parent] = {c.adj[-1]: canonical_form(c) for c, _, _ in kept_children(parent, independent_only)}
            if not (
                max(row.bit_count() for row in child.adj) == neighborhood.bit_count()
                and new_vertex_stays_on_top(child)
                and twin_least(parent, neighborhood) == neighborhood
            ):
                continue
            automorphisms = stored_automorphisms(parent, independent_only)
            orbit_skipped = any(twin_least(parent, image(sigma, neighborhood)) < neighborhood for sigma in automorphisms)
            assert (neighborhood in kept[parent]) != orbit_skipped, (parent, neighborhood)
            if orbit_skipped:
                skipped += 1
                assert canonical_form(child) in kept[parent].values(), (parent, neighborhood)
        assert skipped > 0

    # The f-rule (oracles.f_outranked), which kept a child unless an old
    # vertex of the new vertex's degree had larger sorted neighbor
    # degrees, skips only children the top-class rule skips; the rounds
    # after the first past the degrees skip these few more (2 and 3 of
    # the children that also pass the twin rule).
    @pytest.mark.parametrize(
        "enumerate_level,largest_n,independent_only,beyond_f_rule",
        [(*args, extra) for args, extra in zip(UNFILTERED, (7, 5))],
    )
    def test_top_class_rule_skips_only_isomorphic_children(
        self, enumerate_level, largest_n, independent_only, beyond_f_rule
    ):
        """A child whose new vertex has maximum degree but leaves the top
        color class is isomorphic to a child kept at the same level
        (whose new vertex stays on top, so it comes from another parent)."""
        level: dict[int, set] = {}
        skipped = f_skipped = 0
        for _, neighborhood, child in unfiltered_children(enumerate_level, largest_n, independent_only):
            if child.n not in level:
                level[child.n] = {canonical_form(g) for g in enumerate_level(child.n)}
            if max(row.bit_count() for row in child.adj) != neighborhood.bit_count():
                continue
            outranked = oracles.f_outranked(child)
            if not new_vertex_stays_on_top(child):
                skipped += 1
                f_skipped += outranked
                assert canonical_form(child) in level[child.n], (child, neighborhood)
            else:
                assert not outranked, (child, neighborhood)
        assert skipped - f_skipped == beyond_f_rule

    # enumerate_graphs(7) took 3131 calls with the degree rule alone;
    # canonicalizing every child takes 11,290.  With the f-rule in place
    # of the top-class rule, canonical_form ran on 1672 and 3356 children,
    # and before the orbit rule on 1612 and 3195.  One search per class
    # would be 1252 and 2479.
    @pytest.mark.parametrize(
        "enumerate_level,n,expected", [(enumerate_graphs, 7, 1253), (enumerate_triangle_free, 9, 2480)]
    )
    def test_canonical_searches_from_cold(self, monkeypatch, enumerate_level, n, expected):
        calls = 0
        search = families._search

        def counted(*args):
            nonlocal calls
            calls += 1
            return search(*args)

        monkeypatch.setattr(families, "_search", counted)
        families._level.cache_clear()
        list(enumerate_level(n))
        assert calls == expected

    # Before candidate children were kept as bare rows, a Graph was
    # built for each child that passed the degree rule: 488 and 411.
    @pytest.mark.parametrize(
        "enumerate_level,counts,n,expected",
        [
            (enumerate_graphs, oracles.ALL_GRAPH_COUNTS, 6, 208),
            (enumerate_triangle_free, oracles.TRIANGLE_FREE_COUNTS, 7, 172),
        ],
    )
    def test_one_graph_per_class_from_cold(self, monkeypatch, enumerate_level, counts, n, expected):
        """Levels 1..n build one checked Graph per class and none per child."""
        calls = 0
        check = Graph.__post_init__

        def counted(g):
            nonlocal calls
            calls += 1
            check(g)

        monkeypatch.setattr(Graph, "__post_init__", counted)
        families._level.cache_clear()
        list(enumerate_level(n))
        assert calls == expected == sum(counts[m] for m in range(1, n + 1))

    @pytest.mark.parametrize(
        "enumerate_level,family",
        [(enumerate_graphs, "exhaustive"), (enumerate_triangle_free, "triangle-free"), (enumerate_alpha_le2, "alpha<=2")],
    )
    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_rejects_size_not_an_int(self, enumerate_level, family, n):
        before = families._level.cache_info()
        message = f"{family} enumeration size n needs an int, not the {type(n).__name__} {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            list(enumerate_level(n))
        assert families._level.cache_info() == before

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

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_rejects_size_or_count_not_an_int(self, value):
        before = families._level.cache_info()
        kind = f"not the {type(value).__name__} {value!r}"
        with pytest.raises(ValueError, match=re.escape(f"alpha<=2 sampling size n needs an int, {kind}")):
            list(sample_alpha_le2(value, 1, seed=0))
        with pytest.raises(ValueError, match=re.escape(f"alpha<=2 sampling count needs an int, {kind}")):
            list(sample_alpha_le2(5, value, seed=0))
        assert families._level.cache_info() == before

    @pytest.mark.parametrize("seed", [None, 2.5, True, "3"])
    def test_rejects_a_seed_not_an_int(self, seed):
        """A seed of None would draw a fresh stream each call."""
        kind = f"not the {type(seed).__name__} {seed!r}"
        with pytest.raises(ValueError, match=re.escape(f"alpha<=2 sampling seed needs an int, {kind}")):
            list(sample_alpha_le2(5, 1, seed=seed))

    @pytest.mark.parametrize("count", [0, -3])
    def test_rejects_count_below_one(self, count):
        message = f"alpha<=2 sampling needs at least one sample, got count={count}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            list(sample_alpha_le2(5, count, seed=0))
