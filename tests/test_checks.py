"""the check table and the batch harness: bounds, reports, serialization."""

from __future__ import annotations

import concurrent.futures.process
import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import immersions
import oracles
from immersions import (
    CHECK_NAMES,
    PLAIN,
    STRONG_ODD,
    CheckOutcome,
    Graph,
    certificate_to_json,
    chromatic_number,
    complement,
    encode_graph6,
    enumerate_alpha_le2,
    evaluate_graph,
    max_clique,
    max_clique_immersion,
    parse_graph6,
    run_batch,
)
from immersions import checks as checks_module
from immersions import construct as construct_module
from immersions import graphs as graphs_module
from immersions import immersion as immersion_module
from immersions.cli import main as cli_main
from common import cycle, petersen_complement


def force_holds(monkeypatch, name: str, holds) -> None:
    """Swap the holds function of one check table entry for this test."""
    check = dataclasses.replace(checks_module.CHECKS[name], holds=holds)
    monkeypatch.setitem(checks_module.CHECKS, name, check)


def _decide_calls(monkeypatch, graphs) -> int:
    """_decide calls while evaluate_graph runs every check on graphs: the
    climbs' and a quarantined row's own."""
    calls = 0
    decide = immersion_module._decide

    def counted(index, t, flags):
        nonlocal calls
        calls += 1
        return decide(index, t, flags)

    monkeypatch.setattr(immersion_module, "_decide", counted)
    monkeypatch.setattr(checks_module, "_decide", counted)
    for g in graphs:
        evaluate_graph(g, ("main", "appendix", "vergara"))
    return calls


class TestSingleCheckers:
    def test_main_on_k5(self):
        report = evaluate_graph(Graph.complete(5), ("main",))
        outcome = report.bounds["main"]
        assert (report.alpha, report.chi, report.t_max_strong_odd) == (1, 5, 5)
        assert outcome.bound_value == 8
        assert outcome.status == "true"

    def test_main_on_c5(self):
        report = evaluate_graph(cycle(5), ("main",))
        assert report.chi == 3 and report.t_max_strong_odd == 3
        assert report.bounds["main"].bound_value == 5
        assert report.bounds["main"].status == "true"

    def test_main_on_petersen_complement(self):
        report = evaluate_graph(petersen_complement(), ("main",))
        assert report.chi == 5
        assert report.t_max_strong_odd >= 4
        assert report.bounds["main"].status == "true"

    def test_appendix_on_k9(self):
        report = evaluate_graph(Graph.complete(9), ("appendix",))
        assert report.bounds["appendix"].bound_value == 3
        assert report.bounds["appendix"].status == "true"

    def test_vergara_on_complete_graphs(self):
        for n in range(1, 7):
            report = evaluate_graph(Graph.complete(n), ("vergara",))
            assert report.t_max_plain == n
            assert report.bounds["vergara"].bound_value == 2 * n + 1
            assert report.bounds["vergara"].status == "true"

    def test_alpha3_on_c7(self):
        report = evaluate_graph(cycle(7), ("alpha3",))
        assert report.alpha == 3 and report.chi == 3
        outcome = report.bounds["alpha3"]
        assert outcome.bound_value >= 8
        assert outcome.status == "true"

    def test_alpha3_out_of_regime_is_not_failure(self):
        report = evaluate_graph(Graph.empty(3), ("alpha3",))
        outcome = report.bounds["alpha3"]
        assert outcome.status == "out-of-regime"
        assert outcome.bound_value == 4  # t is 1 on any nonempty edgeless graph

    def test_alpha_preconditions(self):
        e3 = Graph.empty(3)
        for name in ("main", "appendix", "vergara"):
            assert evaluate_graph(e3, (name,)).bounds[name].status == "inapplicable"
        k3 = evaluate_graph(Graph.complete(3), ("alpha3",))
        assert k3.bounds["alpha3"].status == "inapplicable"

    def test_wrappers_match_evaluate_graph(self, all_graphs_small):
        """A one-check row carries the same outcome as the full row."""
        graphs = [Graph.empty(0)] + [g for n in range(1, 7) for g in all_graphs_small[n]]
        for g in graphs:
            row = evaluate_graph(g, CHECK_NAMES)
            for name in CHECK_NAMES:
                one = evaluate_graph(g, (name,))
                assert one.bounds[name] == row.bounds[name], (row.graph6, name)

    def test_check_outcome_is_a_frozen_named_pair(self):
        outcome = CheckOutcome(5, "true")
        assert repr(outcome) == "CheckOutcome(bound_value=5, status='true')"
        assert outcome == (5, "true") and outcome._fields == ("bound_value", "status")
        with pytest.raises(AttributeError):
            outcome.status = "false"

    def test_empty_graph_follows_the_sweep_row(self):
        empty = Graph.empty(0)
        assert evaluate_graph(empty, ("main",)).bounds["main"] == CheckOutcome(0, "true")
        assert evaluate_graph(empty, ("vergara",)).bounds["vergara"] == CheckOutcome(1, "true")
        for name in ("appendix", "alpha3"):
            assert evaluate_graph(empty, (name,)).bounds[name].status == "inapplicable"


class TestEvaluateGraph:
    def test_row_consistency(self, all_graphs_small):
        for g in all_graphs_small[4] + all_graphs_small[5]:
            report = evaluate_graph(g, CHECK_NAMES)
            assert report.t_max_strong_odd <= report.t_max_plain
            main = report.bounds["main"]
            assert main.bound_value == (3 * report.t_max_strong_odd + 1) // 2
            assert (main.status == "inapplicable") == (report.alpha > 2)
            vergara = report.bounds["vergara"]
            assert vergara.bound_value == 2 * report.t_max_plain + 1
            alpha3 = report.bounds["alpha3"]
            if report.alpha != 3:
                assert alpha3.status == "inapplicable"
            elif report.t_max_strong_odd < 2:
                assert alpha3.status == "out-of-regime"
            else:
                assert alpha3.status in ("true", "false")
            for stage in ("alpha", "chi", "t_max_plain", "t_max_strong_odd"):
                assert stage in report.runtime_ms

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            evaluate_graph(Graph.complete(2), ("main", "bogus"))
        with pytest.raises(ValueError, match="not the str 'main'"):
            evaluate_graph(Graph.complete(3), "main")

    def test_no_check_rejected(self):
        """evaluate_graph once returned a row with no outcomes on (), which
        run_batch refused with the same message."""
        for checks in ((), []):
            with pytest.raises(ValueError, match="^at least one check is required$"):
                evaluate_graph(Graph.complete(3), checks)

    def test_find_clique_immersion_calls(self, monkeypatch, alpha2_by_n):
        """Orders searched over the 410 alpha <= 2 rows at n = 8, counted
        at _decide, which a climb calls for each order and
        find_clique_immersion for its one."""
        calls = _decide_calls(monkeypatch, alpha2_by_n[8])
        # 2152 when plain search climbed from omega instead of from the
        # strong odd order; 1529 when strong odd search also searched
        # K_omega, which a clique proves, before climbing.  Counted at
        # find_clique_immersion while each climb step also routed its
        # certificate.  1119 while strong odd search also decided the
        # K_{omega+1} that the extension lemma proves on 144 rows.
        assert calls == 975

    def test_quarantine_decide_calls(self, monkeypatch, alpha2_by_n):
        """With main and vergara forced false, every one of the 582 alpha <= 2
        classes with n <= 8 is quarantined.  A witness is routed from the set
        its climb decided, and costs one _decide on top of the climbs only
        when that climb made no step."""
        force_holds(monkeypatch, "main", lambda g, row, bound: False)
        force_holds(monkeypatch, "vergara", lambda g, row, bound: False)
        graphs = [g for n in range(1, 9) for g in alpha2_by_n[n]]
        assert len(graphs) == 582
        # 3675 while a quarantined row climbed both orders again through
        # max_clique_immersion for its witnesses; 2509 while it decided
        # both orders again through find_clique_immersion.
        assert _decide_calls(monkeypatch, graphs) == 2313

    def test_verify_calls(self, monkeypatch, alpha2_by_n):
        """The builder's certificates are verified once each over the same
        410 rows: each extension step's enlarged one, in an assert, and
        the appendix check's final one."""
        calls = 0
        verify = immersion_module.verify_certificate

        def counted(g, cert, flags):
            nonlocal calls
            calls += 1
            return verify(g, cert, flags)

        monkeypatch.setattr(construct_module, "verify_certificate", counted)
        monkeypatch.setattr(checks_module, "verify_certificate", counted)
        for g in alpha2_by_n[8]:
            evaluate_graph(g, ("main", "appendix", "vergara"))
        # 492 while each extension step also verified its base, which the
        # step before had just built and verified.
        assert calls == 451

    def test_solve_calls(self, alpha2_by_n, count_solve_calls):
        """The work inside those searches: calls of the nested solve and
        route in find_clique_immersion over the same 410 rows."""

        def sweep():
            for g in alpha2_by_n[8]:
                evaluate_graph(g, ("main", "appendix", "vergara"))

        calls = count_solve_calls(sweep)
        # 20887 when strong flags closed every terminal by a branch of their
        # own and the floors' walks could pass back through a pair's ends;
        # 17896 before the edge-class count and the decision pass; 8920
        # while every climb step also solved its set in lex order; 4793
        # while strong odd search decided the K_{omega+1} that the
        # extension lemma proves; 3015 before the tight-terminal bound;
        # 2467 while the decision pass also routed the adjacent pairs.
        assert calls["solve"] == 541
        # 12270 while route recursed into every free neighbor of a path's
        # end and tested the last edge to b in the callee; 10063 while
        # strong odd search decided the lemma's K_{omega+1}; 7883 while
        # route closed a path's last two edges in a branch of its own,
        # without a call for the last edge; 8912 before the tight-terminal
        # bound; 4597 while the decision pass also routed the adjacent
        # pairs.
        assert calls["route"] == 1810

    def test_quarantined_plain_witness_is_max_clique_immersion(self, monkeypatch, alpha2_by_n):
        """A quarantined row carries the orders and the witnesses that
        max_clique_immersion gives, whether or not each climb steps: plain
        past the strong odd order, strong odd past the clique number."""
        force_holds(monkeypatch, "vergara", lambda g, row, bound: False)
        above = level = odd_above = odd_level = 0
        for g in (g for n in range(1, 8) for g in alpha2_by_n[n]):
            payload = evaluate_graph(g, ("vergara",)).quarantine
            for flags, kind in ((PLAIN, "plain"), (STRONG_ODD, "strong_odd")):
                t, cert = max_clique_immersion(g, flags)
                assert payload[f"t_max_{kind}"] == t, (payload["graph6"], kind)
                expected = json.loads(certificate_to_json(cert, flags))
                assert payload[f"certificate_{kind}"] == expected, (payload["graph6"], kind)
            if payload["t_max_plain"] > payload["t_max_strong_odd"]:
                above += 1
            else:
                level += 1
            if payload["t_max_strong_odd"] > max_clique(g)[0]:
                odd_above += 1
            else:
                odd_level += 1
        assert above and level and odd_above and odd_level

    def test_quarantined_coloring_is_chromatic_numbers(self, monkeypatch, alpha2_by_n):
        """A row's chi comes from a matching, and a quarantined row's
        coloring from chromatic_number, with as many colors."""
        force_holds(monkeypatch, "vergara", lambda g, row, bound: False)
        for g in (g for n in range(1, 8) for g in alpha2_by_n[n]):
            report = evaluate_graph(g, ("vergara",))
            coloring = report.quarantine["coloring"]
            assert coloring == list(chromatic_number(g)[1].colors), report.graph6
            assert len(set(coloring)) == report.chi == report.quarantine["chi"], report.graph6

    def test_quarantine_refuses_a_coloring_that_disagrees_with_chi(self, monkeypatch):
        force_holds(monkeypatch, "vergara", lambda g, row, bound: False)
        monkeypatch.setattr(checks_module, "matching_number", lambda h: 0)
        with pytest.raises(AssertionError, match="3 colors, the row's chi is 5"):
            evaluate_graph(cycle(5), ("vergara",))

    def test_alpha_from_the_triangle_test(self, all_graphs_by_n):
        """A row's alpha, the clique number of the complement searched for
        only when the complement has a triangle, is the brute alpha of
        the empty graph and of every graph with n <= 7; every value 0-2
        comes from the shortcut and a larger one from the search."""
        graphs = [Graph.empty(0)] + [g for n in range(1, 8) for g in all_graphs_by_n[n]]
        alphas = set()
        for g in graphs:
            alpha = checks_module._clique_number(complement(g))
            assert alpha == oracles.brute_independence(g), encode_graph6(g)
            alphas.add(alpha)
        assert alphas == set(range(8))

    def test_alpha_is_computed_once(self, monkeypatch, alpha2_by_n):
        """An alpha <= 2 row runs max_clique once, on the graph for omega:
        its complement has no triangle, so alpha needs no clique search,
        and the appendix check proves no alpha <= 2 again with
        max_independent_set."""
        counts = {"max_clique": 0, "max_independent_set": 0}
        for name in counts:
            original = getattr(graphs_module, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            for module in (graphs_module, checks_module, construct_module, immersion_module):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        rows = [g for n in range(1, 9) for g in alpha2_by_n[n]]
        for g in rows:
            evaluate_graph(g, ("main", "appendix", "vergara"))
        # 2 * len(rows) while alpha came from a clique search on the complement.
        assert counts == {"max_clique": len(rows), "max_independent_set": 0}

    def test_appendix_builds_the_builder_certificate(self, monkeypatch, alpha2_by_n):
        """On every alpha <= 2 class with n <= 8, the appendix check
        builds the certificate that build_third_immersion returns."""
        build = checks_module._build
        built = []

        def recorded(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(checks_module, "_build", recorded)
        for g in (g for n in range(1, 9) for g in alpha2_by_n[n]):
            report = evaluate_graph(g, ("appendix",))
            assert report.bounds["appendix"].status == "true", report.graph6
            assert built.pop() == construct_module.build_third_immersion(g), report.graph6


_PASS_GRAPHS = "pass a graph6 file path or Graph objects"


class TestRunBatch:
    def test_single_word_csv(self, tmp_path, capsys):
        code = run_batch([Graph.complete(3)], ("main",))
        out = capsys.readouterr().out
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "graph6,n,alpha,chi,t_max_plain,t_max_strong_odd,main_bound,main_holds"
        assert lines[1] == "Bw,3,1,3,3,3,5,true"
        assert lines[2] == ""

    def test_csv_matches_the_csv_module(self, all_graphs_small, monkeypatch):
        """_csv_bytes joins the fields itself.  The csv module writes the
        same bytes on rows with every status, under every subset of the
        checks in table order and the whole table reversed, and with no row."""
        rows = [evaluate_graph(g, CHECK_NAMES) for n in range(1, 6) for g in all_graphs_small[n]]
        force_holds(monkeypatch, "vergara", lambda g, row, bound: False)
        force_holds(monkeypatch, "alpha3", lambda g, row, bound: False)
        rows += [evaluate_graph(g, CHECK_NAMES) for g in all_graphs_small[4]]
        statuses = {outcome.status for row in rows for outcome in row.bounds.values()}
        assert statuses == {"true", "false", "out-of-regime", "inapplicable"}
        subsets = [checks for k in range(1, 5) for checks in itertools.combinations(CHECK_NAMES, k)]
        for checks in subsets + [CHECK_NAMES[::-1]]:
            for part in (rows, []):
                assert checks_module._csv_bytes(part, checks) == oracles.reference_csv_bytes(part, checks)

    def test_empty_input_file(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("")
        code = run_batch(str(path), ("main", "vergara"))
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\r\n") == 1 and out.startswith("graph6,")

    def test_input_file_with_header(self, tmp_path, capsys):
        path = tmp_path / "words.g6"
        path.write_text(">>graph6<<\nBw\nDhc\n")
        code = run_batch(str(path), ("main",))
        out = capsys.readouterr().out
        assert code == 0
        rows = [line for line in out.split("\r\n") if line][1:]
        assert [r.split(",")[0] for r in rows] == ["Bw", "Dhc"]

    @pytest.mark.parametrize("data,line", [
        (b">>graph6<<\n\nDhc\nD\n", 4),
        (b"Dhc\nD\xc3\xa9\n", 2),  # a non-ASCII byte, as UTF-8 writes it
        (b"Dhc\nDhc\xa0\n", 2),  # a trailing no-break space is not whitespace to skip
    ])
    def test_bad_word_names_its_line(self, tmp_path, capsys, data, line):
        path = tmp_path / "words.g6"
        path.write_bytes(data)
        assert run_batch(str(path), ("main",)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}, line {line}: ")

    def test_generator_spec_row_count(self, tmp_path):
        target = tmp_path / "a5.csv"
        code = run_batch(enumerate_alpha_le2(5), ("main", "appendix", "vergara"), out=str(target))
        assert code == 0
        lines = [l for l in target.read_bytes().decode("ascii").split("\r\n") if l]
        assert len(lines) == 1 + 14
        holds = [line.split(",")[7] for line in lines[1:]]
        assert set(holds) == {"true"}

    def test_error_exit_codes(self, tmp_path, capsys):
        bad_word = tmp_path / "bad.g6"
        bad_word.write_text("=\n")
        assert run_batch(str(bad_word), ("main",)) == 2
        assert run_batch(str(tmp_path / "missing.g6"), ("main",)) == 2
        assert run_batch([Graph.complete(2)], ("nope",)) == 2
        assert run_batch([Graph.complete(2)], ()) == 2
        assert run_batch([Graph.complete(2)], ("main",), fmt="yaml") == 2
        assert run_batch([Graph.complete(2)], ("main", "main")) == 2
        assert run_batch([Graph.complete(3)], "main") == 2
        assert run_batch([Graph.complete(3)], None) == 2
        assert run_batch([Graph.complete(3)], [["main"]]) == 2  # an unhashable name
        assert run_batch([Graph.complete(3)], ("main",), workers="2") == 2
        assert run_batch([Graph.complete(3)], ("main",), workers=2.5) == 2
        assert run_batch([Graph.complete(3)], ("main",), workers=True) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.count("error:") == 12
        assert "check 'main' named twice" in err
        assert "at least one check is required" in err
        assert "checks must be a sequence of check names, not the str 'main'" in err
        assert "checks must be a sequence of check names, not the NoneType None" in err
        assert "unknown check ['main']" in err
        assert "workers needs an int, not the str '2'" in err
        assert "workers needs an int, not the float 2.5" in err
        assert "workers needs an int, not the bool True" in err

    def test_enumeration_size_not_an_int_exits_2(self, capsys):
        assert run_batch(enumerate_alpha_le2(2.5), ("main",)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha<=2 enumeration size n needs an int, not the float 2.5\n"

    def test_str_source_is_always_a_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "alpha2:n=3").write_text("Bw\n")
        assert run_batch("alpha2:n=3", ("main",)) == 0
        rows = [line for line in capsys.readouterr().out.split("\r\n") if line][1:]
        assert [row.split(",")[0] for row in rows] == ["Bw"]

    def test_path_source_reads_like_its_str(self, tmp_path, capsys):
        path = tmp_path / "words.g6"
        path.write_text(">>graph6<<\nBw\nDhc\n")
        assert run_batch(str(path), ("main", "vergara")) == 0
        as_str = capsys.readouterr().out
        assert run_batch(path, ("main", "vergara")) == 0
        assert capsys.readouterr().out == as_str

    @pytest.mark.parametrize("where", ["missing/r.csv", ".", 5])
    def test_unwritable_out_exits_before_any_row(self, tmp_path, capsys, monkeypatch, where):
        calls = 0

        def counted(g, checks):
            nonlocal calls
            calls += 1
            return evaluate_graph(g, checks)

        monkeypatch.setattr(checks_module, "evaluate_graph", counted)
        out = str(tmp_path / where) if isinstance(where, str) else where
        assert run_batch([Graph.complete(3)], ("main",), out=out) == 2
        assert calls == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:") and str(out) in captured.err
        assert run_batch([Graph.complete(3)], ("main",), out=str(tmp_path / "r.csv")) == 0
        assert calls == 1

    @pytest.mark.parametrize("source,workers,message", [
        (["Dhc"], 1, "source item 0 (from 0) is a str, not a Graph; " + _PASS_GRAPHS),
        ([Graph.complete(3), None], 1, "source item 1 (from 0) is a NoneType, not a Graph; " + _PASS_GRAPHS),
        ([Graph.complete(3)], 0, "workers must be at least 1, got 0"),
        ([Graph.complete(3)], -3, "workers must be at least 1, got -3"),
        (5, 1, "source needs a graph6 file path or an iterable of graphs, not the int 5"),
        (None, 1, "source needs a graph6 file path or an iterable of graphs, not the NoneType None"),
    ])
    def test_bad_batch_input_exits_before_any_row(self, capsys, monkeypatch, source, workers, message):
        calls = 0

        def counted(g, checks):
            nonlocal calls
            calls += 1
            return evaluate_graph(g, checks)

        monkeypatch.setattr(checks_module, "evaluate_graph", counted)
        assert run_batch(source, ("main",), workers=workers) == 2
        assert calls == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_pool_never_exceeds_rows(self, capsys, monkeypatch):
        """The pool is sized by the row count; a fake pool maps in process."""
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", InProcessPool)
        graphs = [Graph.complete(3), cycle(5), parse_graph6("Dhc")]
        assert run_batch(graphs, ("main",), workers=64) == 0
        pooled = capsys.readouterr().out
        assert run_batch(graphs, ("main",), workers=2) == 0
        assert capsys.readouterr().out == pooled
        assert sizes == [3, 2]

    def test_json_format(self, capsys):
        code = run_batch([Graph.complete(4)], ("main", "alpha3"), fmt="json")
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["checks"] == ["main", "alpha3"]
        row = payload["rows"][0]
        assert row["graph6"] == "C~" and row["chi"] == 4
        assert row["checks"]["main"]["status"] == "true"
        assert row["checks"]["alpha3"]["status"] == "inapplicable"
        assert "runtime" not in json.dumps(payload)

    def test_quarantine_on_forced_failure(self, tmp_path, monkeypatch):
        force_holds(monkeypatch, "vergara", lambda g, row, bound: False)
        target = tmp_path / "sweep.csv"
        code = run_batch([Graph.complete(3)], ("vergara",), out=str(target))
        assert code == 1
        assert b"false" in target.read_bytes()
        quarantine = json.loads((tmp_path / "sweep.csv.quarantine.json").read_text())
        entry = quarantine["violations"][0]
        assert entry["graph6"] == "Bw"
        assert entry["failed_checks"] == ["vergara"]
        assert entry["chi"] == 3 and len(entry["coloring"]) == 3
        assert entry["certificate_plain"]["t"] == 3
        assert entry["certificate_strong_odd"]["flags"] == {"strong": True, "odd": True}

    def test_quarantine_payloads_pinned(self, tmp_path, monkeypatch, alpha2_by_n):
        """With main and vergara forced false, every one of the 582 alpha <= 2
        classes with n <= 8 is quarantined; the quarantine file, each row's
        coloring and both witness certificates, is pinned byte for byte."""
        force_holds(monkeypatch, "main", lambda g, row, bound: False)
        force_holds(monkeypatch, "vergara", lambda g, row, bound: False)
        graphs = [g for n in range(1, 9) for g in alpha2_by_n[n]]
        target = tmp_path / "sweep.csv"
        assert run_batch(graphs, ("main", "appendix", "vergara"), out=str(target)) == 1
        blob = (tmp_path / "sweep.csv.quarantine.json").read_bytes()
        assert len(json.loads(blob)["violations"]) == 582
        digest = hashlib.sha256(blob).hexdigest()
        assert digest == "2d8f6a65fa9cc82b1305ca3d60a683d69356939644d8e09cc46d330d19ad8bb5"

    def test_clean_run_removes_stale_quarantine(self, tmp_path, monkeypatch):
        target = tmp_path / "sweep.csv"
        quarantine = tmp_path / "sweep.csv.quarantine.json"
        with monkeypatch.context() as patch:
            force_holds(patch, "vergara", lambda g, row, bound: False)
            assert run_batch([Graph.complete(3)], ("vergara",), out=str(target)) == 1
        assert quarantine.exists()
        assert run_batch([Graph.complete(3)], ("vergara",), out=str(target)) == 0
        assert not quarantine.exists()
        assert b"true" in target.read_bytes()

    def test_quarantine_to_stderr_without_out(self, capsys, monkeypatch):
        force_holds(monkeypatch, "main", lambda g, row, bound: False)
        code = run_batch([Graph.complete(3)], ("main",))
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["violations"][0]["failed_checks"] == ["main"]

    def test_appendix_failure_exits_1_without_quarantine(self, tmp_path, monkeypatch):
        force_holds(monkeypatch, "appendix", lambda g, row, bound: False)
        target = tmp_path / "sweep.csv"
        code = run_batch([Graph.complete(3)], ("appendix",), out=str(target))
        assert code == 1
        assert not (tmp_path / "sweep.csv.quarantine.json").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_row_names_its_word(self, tmp_path, capsys, monkeypatch, workers):
        def holds(g, row, bound):
            return 1 // 0 if row.n == 4 else row.n <= bound

        force_holds(monkeypatch, "vergara", holds)
        path = tmp_path / "words.g6"
        path.write_text("Bw\nC~\nDhc\n")
        args = ["sweep", "--input", str(path), "--checks", "vergara", "--workers", str(workers)]
        assert cli_main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: C~: ")
        assert "ZeroDivisionError" in captured.err

    def test_dead_worker_exits_2(self, tmp_path):
        """A worker killed mid-sweep stops the sweep with exit 2 and no
        report, instead of leaving it waiting for the lost row."""
        script = textwrap.dedent(
            """
            import os, signal, sys
            from immersions import checks
            from immersions.cli import main

            inner = checks.evaluate_graph

            def dying(g, names):
                if g.n == 4:
                    os.kill(os.getpid(), signal.SIGKILL)
                return inner(g, names)

            checks.evaluate_graph = dying
            sys.exit(main(sys.argv[1:]))
            """
        )
        words = tmp_path / "words.g6"
        words.write_text("Bw\nC~\nDhc\n")
        out = tmp_path / "out.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(immersions.__file__).resolve().parent.parent)}
        args = ["sweep", "--input", str(words), "--checks", "main", "--workers", "2", "--out", str(out)]
        result = subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=60, env=env
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ")
        assert not out.exists()

    def test_workers_do_not_change_bytes(self, tmp_path):
        checks = ("main", "vergara")
        single = tmp_path / "w1.csv"
        quad = tmp_path / "w4.csv"
        assert run_batch(enumerate_alpha_le2(6), checks, workers=1, out=str(single)) == 0
        assert run_batch(enumerate_alpha_le2(6), checks, workers=4, out=str(quad)) == 0
        assert single.read_bytes() == quad.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_graph6_file_and_generator_agree(self, tmp_path, workers):
        """A parsed graph's row takes the word it was read from, a
        generated one's its encoding: the n = 7 alpha <= 2 words read
        from a file with a header and whitespace around some words make
        the same report as the generator."""
        words = [encode_graph6(g) for g in enumerate_alpha_le2(7)]
        padded = [f" \t{word}  " if k % 3 == 0 else word for k, word in enumerate(words)]
        source = tmp_path / "in.g6"
        source.write_text(">>graph6<<\n" + "".join(line + "\n" for line in padded))
        checks = ("main", "appendix", "vergara")
        from_file, generated = tmp_path / "file.csv", tmp_path / "generated.csv"
        assert run_batch(str(source), checks, workers=workers, out=str(from_file)) == 0
        assert run_batch(enumerate_alpha_le2(7), checks, workers=workers, out=str(generated)) == 0
        assert from_file.read_bytes() == generated.read_bytes()
        assert from_file.read_bytes().count(b"\r\n") == 1 + len(words) == 1 + 107

    def test_each_word_parsed_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(word):
            calls.append(word)
            return parse_graph6(word)

        monkeypatch.setattr(checks_module, "parse_graph6", counted)
        source = tmp_path / "in.g6"
        source.write_text("Bw\nC~\nDhc\n")
        assert run_batch(str(source), ("main",), out=str(tmp_path / "out.csv")) == 0
        assert calls == ["Bw", "C~", "Dhc"]

    def test_generated_rows_never_parsed(self, tmp_path, monkeypatch):
        calls = []

        def counted(word):
            calls.append(word)
            return parse_graph6(word)

        monkeypatch.setattr(checks_module, "parse_graph6", counted)
        assert run_batch(enumerate_alpha_le2(5), ("main",), out=str(tmp_path / "out.csv")) == 0
        assert calls == []

    def test_generated_rows_encoded_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return encode_graph6(g)

        monkeypatch.setattr(checks_module, "encode_graph6", counted)
        assert run_batch(enumerate_alpha_le2(5), ("main",), out=str(tmp_path / "out.csv")) == 0
        assert len(calls) == 14  # one per row: 14 alpha <= 2 classes at n = 5

    def test_timings_never_serialized(self, capsys):
        run_batch([parse_graph6("Dhc")], ("main",))
        out = capsys.readouterr().out
        assert "runtime" not in out and "ms" not in out
