"""graph_core: representation, graph6 codec, elementary invariants."""

from __future__ import annotations

import itertools
import random
import re
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from immersions import (
    PLAIN,
    Graph,
    Graph6Error,
    UnsupportedSizeError,
    bits,
    build_third_immersion,
    canonical_form,
    chromatic_number,
    clique_certificate,
    complement,
    encode_graph6,
    enumerate_alpha_le2,
    extension_step,
    find_clique_immersion,
    graph_from_canonical_form,
    independence_number,
    is_clique,
    is_k_colorable,
    mask_of,
    max_clique,
    max_independent_set,
    non_neighborhood,
    parse_graph6,
    run_batch,
)
from immersions.graphs import _LANES, _mirror_lower, _pack, _transpose_packed, _unpack, earlier_twins
from common import induced_subgraph, random_graph


def graph_strategy(max_n: int = 8):
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph.from_edges(n, [e for e, keep in zip(pairs, picks) if keep])

    return st.composite(lambda draw: build(draw))()


class TestGraphType:
    def test_construction_validates_symmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))  # 0 -> 1 edge missing its mirror

    def test_asymmetry_names_the_first_edge_in_row_order(self):
        """Rows 1 and 3 list 2 and 0 with no mirror; row 1 comes first."""
        with pytest.raises(ValueError, match="^asymmetric edge 1-2$"):
            Graph(4, (0b0000, 0b0100, 0b0000, 0b0001))

    def test_construction_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(1, (1,))
        with pytest.raises(ValueError, match="loop at vertex 1"):
            Graph.from_edges(3, [(1, 1)])

    def test_construction_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Graph(2, (4, 0))
        with pytest.raises(ValueError, match=r"edge 0-3 outside 0\.\.2"):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match=r"edge -1-0 outside 0\.\.2"):
            Graph.from_edges(3, [(-1, 0)])
        with pytest.raises(ValueError, match="adjacency has 2 rows for n=3"):
            Graph(3, (0, 0))

    def test_construction_rejects_a_list_of_rows(self):
        """A list would compare unequal to the tuple, fail to hash and stay mutable."""
        with pytest.raises(ValueError, match="^adjacency needs a tuple of rows, not a list$"):
            Graph(3, [2, 5, 2])

    @pytest.mark.parametrize("n", [True, 2.0, "2", None])
    def test_construction_rejects_a_size_not_an_int(self, n):
        kind = f"not the {type(n).__name__} {n!r}"
        with pytest.raises(ValueError, match=re.escape(f"vertex count n needs an int, {kind}")):
            Graph(n, (0, 0))

    @pytest.mark.parametrize("n, build", [
        (-1, Graph.complete),
        (10**6, Graph.empty),
        (10**6, lambda n: Graph.from_edges(n, [])),
        (10**4, Graph.complete),
    ], ids=["complete(-1)", "empty(10**6)", "from_edges(10**6)", "complete(10**4)"])
    def test_constructors_refuse_a_size_past_the_cap_before_building(self, n, build):
        """Each constructor checks n's range before it builds a row: these
        once allocated 8 MB (empty) and 16 MB (from_edges) before the
        Graph check refused them, and complete(-1) failed with a bare
        "negative shift count"."""
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedSizeError, match=rf"^vertex count {n} outside 0\.\.62$"):
                build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    # Every int input the package checks with one helper: each entry
    # maps a value to a call and names the value in its message.
    INT_INPUTS = {
        "Graph n": (lambda x: Graph(x, (0, 0)), "vertex count n"),
        "Graph.empty n": (lambda x: Graph.empty(x), "vertex count n"),
        "Graph.complete n": (lambda x: Graph.complete(x), "vertex count n"),
        "Graph.from_edges n": (lambda x: Graph.from_edges(x, []), "vertex count n"),
        "Graph.from_edges end": (lambda x: Graph.from_edges(3, [(0, x)]), "an edge end"),
        "find_clique_immersion t": (lambda x: find_clique_immersion(Graph.complete(3), x, PLAIN), "clique order t"),
        "is_k_colorable k": (lambda x: is_k_colorable(Graph.complete(3), x), "color count k"),
        "extension_step u": (lambda x: extension_step(Graph.empty(3), x, 1, clique_certificate([2])), "vertex u"),
        "run_batch workers": (lambda x: run_batch([Graph.complete(3)], ("main",), workers=x), "workers"),
        "non_neighborhood x": (lambda x: non_neighborhood(Graph.complete(4), x), "vertex x"),
        "clique_certificate terminal": (lambda x: clique_certificate([0, x]), "a terminal"),
        "is_clique s": (lambda x: is_clique(Graph.complete(3), x), "vertex set s"),
    }

    @pytest.mark.parametrize("value", [True, 2.0, 2.5])
    @pytest.mark.parametrize("entry", INT_INPUTS)
    def test_int_inputs_refuse_a_bool_or_float(self, entry, value, capsys):
        call, what = self.INT_INPUTS[entry]
        try:
            code = call(value)
        except ValueError as exc:
            message = str(exc)
        else:  # run_batch reports an input problem and exits 2
            assert code == 2
            message = capsys.readouterr().err.removeprefix("error: ").removesuffix("\n")
        assert message == f"{what} needs an int, not the {type(value).__name__} {value!r}"

    # Every argument that a public entry point outside immersion and
    # checks reads attributes of, the bit-set arguments of is_clique,
    # bits, mask_of and clique_certificate, the rows of a Graph or a
    # canonical form and the edges of Graph.from_edges: each entry passes
    # one of the wrong type, a negative mask or vertex, a mask with a
    # vertex past the graph, a repeated vertex, or a form row with a bit
    # on or above the diagonal.
    TYPE_INPUTS = {
        "Graph float row": (lambda: Graph(2, (1.0, 0)), "adjacency row 0 needs an int, not the float 1.0"),
        "Graph str row": (lambda: Graph(2, ("a", 0)), "adjacency row 0 needs an int, not the str 'a'"),
        "Graph None row": (lambda: Graph(2, (None, 0)), "adjacency row 0 needs an int, not the NoneType None"),
        "Graph.from_edges int": (
            lambda: Graph.from_edges(3, 5), "edges need an iterable of vertex pairs, not the int 5"
        ),
        "Graph.from_edges triple": (
            lambda: Graph.from_edges(3, [(0, 1, 2)]), "edges need vertex pairs, not the tuple (0, 1, 2)"
        ),
        "Graph.from_edges int edge": (lambda: Graph.from_edges(3, [5]), "edges need vertex pairs, not the int 5"),
        "graph_from_canonical_form str": (
            lambda: graph_from_canonical_form("ab"), "form needs a tuple of rows, not the str 'ab'"
        ),
        "graph_from_canonical_form str row": (
            lambda: graph_from_canonical_form((0, "a")), "form row 1 needs an int, not the str 'a'"
        ),
        "graph_from_canonical_form bit above": (
            lambda: graph_from_canonical_form((0, 4, 0)), "form row 1 needs vertices below 1 only, not the int 4"
        ),
        "graph_from_canonical_form loop": (
            lambda: graph_from_canonical_form((1,)), "form row 0 needs vertices below 0 only, not the int 1"
        ),
        "graph_from_canonical_form negative": (
            lambda: graph_from_canonical_form((0, -1)), "form row 1 needs vertices below 1 only, not the int -1"
        ),
        "parse_graph6 None": (lambda: parse_graph6(None), "line needs a str, not the NoneType None"),
        "parse_graph6 bytes": (lambda: parse_graph6(b"Dhc"), "line needs a str, not the bytes b'Dhc'"),
        "chromatic_number g": (lambda: chromatic_number("Dhc"), "g needs a Graph, not the str 'Dhc'"),
        "is_k_colorable g": (lambda: is_k_colorable("Dhc", 3), "g needs a Graph, not the str 'Dhc'"),
        "build_third_immersion g": (lambda: build_third_immersion("Dhc"), "g needs a Graph, not the str 'Dhc'"),
        "extension_step g": (
            lambda: extension_step("Dhc", 0, 2, clique_certificate([1])), "g needs a Graph, not the str 'Dhc'"
        ),
        "extension_step base": (
            lambda: extension_step(Graph.empty(3), 0, 2, None),
            "base needs an ImmersionCertificate, not the NoneType None",
        ),
        "max_clique g": (lambda: max_clique("Dhc"), "g needs a Graph, not the str 'Dhc'"),
        "independence_number g": (lambda: independence_number("Dhc"), "g needs a Graph, not the str 'Dhc'"),
        "max_independent_set g": (lambda: max_independent_set("Dhc"), "g needs a Graph, not the str 'Dhc'"),
        "complement g": (lambda: complement("Dhc"), "g needs a Graph, not the str 'Dhc'"),
        "encode_graph6 g": (lambda: encode_graph6("Dhc"), "g needs a Graph, not the str 'Dhc'"),
        "is_clique g": (lambda: is_clique("Dhc", 0b11), "g needs a Graph, not the str 'Dhc'"),
        "is_clique s": (lambda: is_clique(Graph.complete(3), "ab"), "vertex set s needs an int, not the str 'ab'"),
        "is_clique s negative": (
            lambda: is_clique(Graph.complete(3), -1), "vertex set s needs a nonnegative int, not the int -1"
        ),
        "is_clique s past n": (
            lambda: is_clique(Graph.complete(3), 8), "vertex set s needs vertices inside 0..2, not the int 8"
        ),
        "is_clique s past every lane": (
            lambda: is_clique(Graph.complete(3), 1 << 70),
            f"vertex set s needs vertices inside 0..2, not the int {1 << 70}",
        ),
        "bits mask": (lambda: list(bits("ab")), "mask needs an int, not the str 'ab'"),
        "bits negative": (lambda: list(bits(-1)), "mask needs a nonnegative int, not the int -1"),
        "mask_of str": (lambda: mask_of("ab"), "vertices need an iterable of ints, not the str 'ab'"),
        "mask_of int": (lambda: mask_of(5), "vertices need an iterable of ints, not the int 5"),
        "mask_of negative": (
            lambda: mask_of([0, -1]), "vertices need an iterable of nonnegative ints, not the list [0, -1]"
        ),
        "clique_certificate int": (lambda: clique_certificate(5), "vertices need an iterable of ints, not the int 5"),
        "clique_certificate negative": (
            lambda: clique_certificate([-1, 0]), "vertices need nonnegative ints, not the list [-1, 0]"
        ),
        "clique_certificate repeated": (
            lambda: clique_certificate([0, 0]), "vertices need distinct ints, not the list [0, 0]"
        ),
        "non_neighborhood g": (lambda: non_neighborhood("Dhc", 0), "g needs a Graph, not the str 'Dhc'"),
        "canonical_form g": (lambda: canonical_form("Dhc"), "g needs a Graph, not the str 'Dhc'"),
    }

    @pytest.mark.parametrize("entry", TYPE_INPUTS)
    def test_entry_points_refuse_an_argument_of_another_type(self, entry):
        """Each once failed with a bare AttributeError or TypeError; on -1,
        bits never ended, is_clique said False and mask_of failed with a
        bare "negative shift count".  is_clique failed on a vertex past n
        with a bare IndexError, and clique_certificate made a certificate
        with the terminal -1 from [-1, 0] and the loop (0, 0) from [0, 0].
        A Graph row that is not an int, from_edges on an int or a triple,
        and graph_from_canonical_form on a str raised a bare TypeError;
        the form (0, 4, 0) built the graph of (0, 0, 2)."""
        call, message = self.TYPE_INPUTS[entry]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
            call()
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("call,message", [
        (lambda g: g.degree(-1), "vertex -1 outside 0..2"),
        (lambda g: g.degree(3), "vertex 3 outside 0..2"),
        (lambda g: g.degree(True), "vertex v needs an int, not the bool True"),
        (lambda g: g.has_edge(-1, 1), "vertex -1 outside 0..2"),
        (lambda g: g.has_edge(0, 99), "vertex 99 outside 0..2"),
        (lambda g: g.has_edge(True, 1), "vertex u needs an int, not the bool True"),
        (lambda g: non_neighborhood(g, 3), "vertex 3 outside 0..2"),
    ], ids=["degree -1", "degree 3", "degree True", "has_edge -1", "has_edge 99", "has_edge True", "non_neighborhood 3"])
    def test_vertex_accessors_refuse_a_vertex_outside_the_graph(self, call, message):
        """On the path 0-1-2, degree(-1) once gave vertex 2's degree,
        degree(True) vertex 1's and degree(3) a bare IndexError;
        has_edge(-1, 1) read the edge 2-1, and has_edge(0, 99) said False."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
            call(Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert type(caught.value) is ValueError

    def test_from_edges_and_accessors(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.degree(1) == 2
        assert g.edge_count == 2
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_complete_and_empty(self):
        assert Graph.complete(4).edge_count == 6
        assert Graph.empty(4).edge_count == 0

    def test_vertex_mask(self):
        assert Graph.empty(3).vertex_mask == 0b111

    def test_bits_and_mask_helpers(self):
        assert list(bits(0b1011)) == [0, 1, 3]
        assert mask_of([0, 1, 3]) == 0b1011


class TestGraph6:
    def test_single_vertex_word(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.edge_count == 0
        assert encode_graph6(g) == "@"

    def test_k3_word(self):
        g = parse_graph6("Bw")
        assert g.n == 3 and g.edge_count == 3
        assert encode_graph6(Graph.complete(3)) == "Bw"

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<Bw").n == 3

    def test_rejects_byte_below_range(self):
        with pytest.raises(Graph6Error, match="offset 1"):
            parse_graph6("B" + chr(62))

    def test_rejects_byte_above_range(self):
        with pytest.raises(Graph6Error, match="offset"):
            parse_graph6("B" + chr(127))

    @pytest.mark.parametrize("word,offset", [("Dh\u00e9", 2), ("\u00e9", 0), ("B\u2603", 1)])
    def test_rejects_non_ascii_character(self, word, offset):
        """A non-ASCII character is not read as '?', an all-zero byte."""
        with pytest.raises(Graph6Error, match=f"at offset {offset}$"):
            parse_graph6(word)

    @pytest.mark.parametrize("word", ["Dhc\u00a0", "Dhc\u0085", "\x1cDhc"])
    def test_rejects_non_ascii_whitespace_around_word(self, word):
        """Only ASCII whitespace is skipped; str.strip() would also drop these."""
        with pytest.raises(Graph6Error, match="out of range"):
            parse_graph6(word)

    @pytest.mark.parametrize("word", [" Dhc\r\n", "Dhc\t"])
    def test_ascii_whitespace_around_word_skipped(self, word):
        assert parse_graph6(word) == parse_graph6("Dhc")

    def test_rejects_wrong_length(self):
        with pytest.raises(Graph6Error):
            parse_graph6("Bww")
        with pytest.raises(Graph6Error):
            parse_graph6("B")

    def test_rejects_nonzero_padding(self):
        assert parse_graph6("A_").edge_count == 1
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("A@")  # would decode to the same graph as "A?"
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("Bx")

    def test_rejects_empty(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_rejects_large_size_byte(self):
        with pytest.raises(UnsupportedSizeError):
            parse_graph6(chr(126) + "??")

    def test_encode_rejects_oversize(self):
        with pytest.raises(UnsupportedSizeError):
            encode_graph6(Graph.empty(63))

    def test_matches_reference_codec_small(self):
        rng = random.Random(4)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 12))
            word = encode_graph6(g)
            assert word == oracles.nx_encode(g)
            back = oracles.nx_decode(word)
            assert back.n == g.n and back.adj == g.adj

    def test_round_trip_large_sample(self):
        rng = random.Random(10)
        for _ in range(10_000):
            g = random_graph(rng, rng.randint(0, 62), rng.random())
            h = parse_graph6(encode_graph6(g))
            assert h.n == g.n and h.adj == g.adj


def graph_error(n: int, adj) -> str | None:
    """The message Graph(n, adj) raises, or None when it accepts."""
    try:
        Graph(n, tuple(adj))
    except ValueError as exc:
        return str(exc)
    return None


def graph6_outcome(decode, word: str):
    """decode(word)'s rows, or the type and message of what it raised."""
    try:
        return decode(word).adj
    except (Graph6Error, UnsupportedSizeError) as exc:
        return type(exc).__name__, str(exc)


class TestTranspose:
    LANE_EDGES = (0, 1, 7, 8, 9, 16, 17, 32, 33, 62)

    @pytest.mark.parametrize("n", LANE_EDGES)
    def test_matches_the_per_bit_transpose(self, n):
        """Random, full and single-entry matrices at each lane's edges."""
        rng = random.Random(n)
        full = (1 << n) - 1
        matrices = [[rng.getrandbits(n) for _ in range(n)] for _ in range(20)]
        matrices.append([full] * n)
        matrices += [[1 << (n - 1 - v) if v == row else 0 for v in range(n)] for row in range(n)]
        lane = _LANES[n]
        for rows in matrices:
            transposed = _unpack(_transpose_packed(_pack(rows, lane), lane), n, lane)
            assert transposed == oracles.reference_transpose(rows), (n, rows)

    @pytest.mark.parametrize("n", LANE_EDGES)
    def test_mirror_of_a_lower_triangle(self, n):
        rng = random.Random(100 + n)
        for _ in range(20):
            lower = [rng.getrandbits(v) for v in range(n)]
            mirror = oracles.reference_transpose(lower)
            assert _mirror_lower(lower) == tuple(a | b for a, b in zip(lower, mirror))

    def test_each_lane_typecode_is_exactly_its_width(self):
        """Typecodes are picked by itemsize, never by an assumed C size."""
        for n, (width, code, rounds, diagonal) in enumerate(_LANES):
            assert n <= width and array(code).itemsize * 8 == width
            assert width == 8 or n > width // 2
            assert len(rounds) == width.bit_length() - 1
            assert diagonal == sum(1 << bit for bit in range(width * width) if bit // width == bit % width)


class TestMatchesPerBitReference:
    """The word-level graph check, codec and twin table against the
    per-bit code they replaced (oracles.reference_*)."""

    def test_graph_check(self):
        """2,000 seeded graphs with n <= 62 are accepted, and each with one
        flipped bit gets the same verdict and message as the per-bit check."""
        rng = random.Random(23)
        rejected = 0
        for _ in range(2000):
            n = rng.randint(1, 62)
            g = random_graph(rng, n, rng.random())
            assert graph_error(n, g.adj) is None
            adj = list(g.adj)
            adj[rng.randrange(n)] ^= 1 << rng.randrange(n)
            want = oracles.reference_graph_error(n, adj)
            assert graph_error(n, adj) == want, (n, adj)
            rejected += want is not None
        assert rejected > 1900

        # At each lane's edges, rows the packing overflows (below 0, at or
        # past 2^width) and rows with a bit at a column n..width-1 of the lane.
        for n in TestTranspose.LANE_EDGES[1:]:
            width = _LANES[n].width
            bad_rows = [-1, -(1 << n), -(1 << 70), 1 << width, (1 << width) - 1, 3 << width, 1 << 70]
            bad_rows += [1 << column for column in range(n, width)]
            for bad in bad_rows:
                g = random_graph(rng, n, rng.random())
                v = rng.randrange(n)
                for row in (bad, g.adj[v] ^ bad):
                    adj = list(g.adj)
                    adj[v] = row
                    want = oracles.reference_graph_error(n, adj)
                    assert want is not None and graph_error(n, adj) == want, (n, adj)

    def test_codec_round_trip(self):
        rng = random.Random(24)
        for _ in range(300):
            g = random_graph(rng, rng.randint(0, 62), rng.random())
            word = encode_graph6(g)
            assert word == oracles.reference_encode_graph6(g)
            assert parse_graph6(word).adj == oracles.reference_parse_graph6(word).adj == g.adj

    def test_parsed_graphs_and_complements_equal_checked_ones(self, all_graphs_by_n):
        """parse_graph6 and complement build their graphs without the
        check: every graph6 word with n <= 8 and 300 seeded words with
        n <= 62, each parsed and complemented, equals the checked Graph of
        its own rows and the per-bit decoder's graph or its complement."""
        graphs = [Graph.empty(0)] + [g for n in range(1, 9) for g in all_graphs_by_n[n]]
        rng = random.Random(37)
        graphs += [random_graph(rng, rng.randint(0, 62), rng.random()) for _ in range(300)]
        for word in map(encode_graph6, graphs):
            want = oracles.reference_parse_graph6(word)
            missing = [(u, v) for u, v in itertools.combinations(range(want.n), 2) if not want.has_edge(u, v)]
            for got, expected in ((parse_graph6(word), want),
                                  (complement(parse_graph6(word)), Graph.from_edges(want.n, missing))):
                checked = Graph(got.n, got.adj)
                assert got == checked == expected, word
                assert hash(got) == hash(checked) and got.edge_count == expected.edge_count, word

    @pytest.mark.parametrize("word", [
        "", " \t", ">>graph6<<", "B" + chr(62), "B" + chr(127), "Dh\u00e9", "\u00e9", "B\u2603",
        "Dhc\u00a0", "\x1cDhc", "Bww", "B", "A@", "Bx", chr(126) + "??", "}" + "~" * 315 + "@",
        "}" + "~" * 315 + "_", "}" + "~" * 314, "}" + "~" * 316, "Dhc ", "?", "@?",
    ])
    def test_codec_errors(self, word):
        """Every rejection path of parse_graph6, with its message, and a
        few accepted edge cases."""
        assert graph6_outcome(parse_graph6, word) == graph6_outcome(oracles.reference_parse_graph6, word)

    def test_earlier_twins(self, all_graphs_by_n):
        """Every graph with n <= 7, and seeded graphs with n <= 20 at
        edge densities that make twins common."""
        graphs = [g for n in range(1, 8) for g in all_graphs_by_n[n]]
        rng = random.Random(25)
        graphs += [random_graph(rng, rng.randint(0, 20), rng.choice((0.1, 0.5, 0.9))) for _ in range(500)]
        with_twins = 0
        for g in graphs:
            twins = earlier_twins(g.adj)
            assert twins == oracles.reference_earlier_twins(g.adj), sorted(g.edges())
            with_twins += any(twins)
        assert with_twins > 500


class TestElementaryOps:
    def test_complement_involution_and_k3(self):
        g = Graph.complete(3)
        assert complement(g).edge_count == 0
        rng = random.Random(11)
        for _ in range(50):
            h = random_graph(rng, rng.randint(0, 10))
            assert complement(complement(h)).adj == h.adj

    def test_complement_c5_self(self):
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert oracles.are_isomorphic(complement(c5), c5)

    def test_non_neighborhood(self):
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert non_neighborhood(c5, 0) == mask_of([2, 3])
        assert non_neighborhood(Graph.complete(4), 2) == 0
        assert non_neighborhood(Graph.empty(4), 0) == mask_of([1, 2, 3])
        with pytest.raises(ValueError):
            non_neighborhood(c5, 5)

    def test_induced_subgraph(self):
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        sub, relabel = induced_subgraph(c5, mask_of([0, 1, 2]))
        assert sub.n == 3 and sorted(sub.edges()) == [(0, 1), (1, 2)]
        assert relabel == {0: 0, 1: 1, 2: 2}
        sub2, relabel2 = induced_subgraph(c5, mask_of([1, 3, 4]))
        assert sub2.n == 3
        assert relabel2 == {1: 0, 3: 1, 4: 2}
        assert sorted(sub2.edges()) == [(1, 2)]  # host edge 3-4 survives

    def test_induced_full_set_is_identity(self):
        g = Graph.from_edges(4, [(0, 2), (1, 3)])
        sub, relabel = induced_subgraph(g, g.vertex_mask)
        assert sub.adj == g.adj and relabel == {v: v for v in range(4)}

    def test_is_clique(self):
        k4 = Graph.complete(4)
        assert is_clique(k4, k4.vertex_mask)
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert not is_clique(c5, mask_of([0, 2]))
        assert is_clique(c5, 1 << 3)
        assert is_clique(c5, 0)

    def test_independence_known_values(self):
        assert independence_number(Graph.complete(6)) == 1
        assert independence_number(Graph.empty(6)) == 6
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert independence_number(c5) == 2

    def test_independence_matches_brute_force(self):
        rng = random.Random(12)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            assert independence_number(g) == oracles.brute_independence(g)

    def test_max_clique_witness_is_clique_of_stated_size(self):
        rng = random.Random(13)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 9), rng.random())
            size, witness = max_clique(g)
            assert witness.bit_count() == size
            assert is_clique(g, witness)
            assert size == oracles.brute_independence(complement(g))

    def test_max_independent_set_witness(self):
        rng = random.Random(14)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            witness = max_independent_set(g)
            assert witness.bit_count() == independence_number(g)
            for a, b in itertools.combinations(bits(witness), 2):
                assert not g.has_edge(a, b)

    def test_alpha_le2_iff_complement_triangle_free(self, all_graphs_by_n):
        for n in range(1, 8):
            for g in all_graphs_by_n[n]:
                comp = complement(g)
                has_triangle = any(
                    comp.has_edge(a, b) and comp.has_edge(b, c) and comp.has_edge(a, c)
                    for a, b, c in itertools.combinations(range(n), 3)
                )
                assert (independence_number(g) <= 2) == (not has_triangle)

    def test_max_clique_matches_the_reference(self, all_graphs_by_n, alpha2_by_n):
        """(size, witness) as the search with (vertex, color) tuples gave
        it, on every graph with n <= 7, every alpha <= 2 class with n = 8
        or 9 and the complement of each: _clique_order, max_independent_set,
        the builder's alpha > 2 triple and `immersions alpha` read the witness."""
        graphs = [Graph.empty(0)] + [g for n in range(1, 8) for g in all_graphs_by_n[n]]
        graphs += alpha2_by_n[8] + list(enumerate_alpha_le2(9))
        assert len(graphs) == 3560
        for g in graphs:
            for h in (g, complement(g)):
                assert max_clique(h) == oracles.reference_max_clique(h)

    def test_alpha_is_complement_clique_number_exhaustively(self, all_graphs_by_n):
        for n in range(1, 9):
            for g in all_graphs_by_n[n]:
                alpha = independence_number(g)
                assert alpha == max_clique(complement(g))[0]
                assert alpha == oracles.brute_independence(g)


@given(graph_strategy(max_n=10))
@settings(max_examples=150, deadline=None)
def test_property_codec_round_trip(g):
    h = parse_graph6(encode_graph6(g))
    assert h.n == g.n and h.adj == g.adj


@given(graph_strategy(max_n=8))
@settings(max_examples=100, deadline=None)
def test_property_complement_involution(g):
    assert complement(complement(g)).adj == g.adj


@given(graph_strategy(max_n=7))
@settings(max_examples=80, deadline=None)
def test_property_alpha_equals_clique_of_complement(g):
    assert independence_number(g) == max_clique(complement(g))[0]
