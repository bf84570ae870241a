"""the check table and the batch harness: bounds, reports, serialization."""

from __future__ import annotations

import dataclasses
import json

import pytest

from immersions import (
    CHECK_NAMES,
    CheckOutcome,
    Graph,
    encode_graph6,
    enumerate_alpha_le2,
    evaluate_graph,
    parse_graph6,
    run_batch,
)
from immersions import checks as checks_module
from immersions.cli import main as cli_main


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def force_holds(monkeypatch, name: str, holds) -> None:
    """Swap the holds function of one check table entry for this test."""
    check = dataclasses.replace(checks_module.CHECKS[name], holds=holds)
    monkeypatch.setitem(checks_module.CHECKS, name, check)


def petersen_complement() -> Graph:
    from immersions import complement

    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return complement(Graph.from_edges(10, outer + spokes + inner))


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


class TestRunBatch:
    def test_single_word_csv(self, tmp_path, capsys):
        code = run_batch([Graph.complete(3)], ("main",))
        out = capsys.readouterr().out
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "graph6,n,alpha,chi,t_max_plain,t_max_strong_odd,main_bound,main_holds"
        assert lines[1] == "Bw,3,1,3,3,3,5,true"
        assert lines[2] == ""

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
        err = capsys.readouterr().err
        assert err.count("error:") == 5

    def test_str_source_is_always_a_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "alpha2:n=3").write_text("Bw\n")
        assert run_batch("alpha2:n=3", ("main",)) == 0
        rows = [line for line in capsys.readouterr().out.split("\r\n") if line][1:]
        assert [row.split(",")[0] for row in rows] == ["Bw"]

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

    def test_workers_do_not_change_bytes(self, tmp_path):
        checks = ("main", "vergara")
        single = tmp_path / "w1.csv"
        quad = tmp_path / "w4.csv"
        assert run_batch(enumerate_alpha_le2(6), checks, workers=1, out=str(single)) == 0
        assert run_batch(enumerate_alpha_le2(6), checks, workers=4, out=str(quad)) == 0
        assert single.read_bytes() == quad.read_bytes()

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
