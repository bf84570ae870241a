"""Acceptance gate: one test per documented criterion, one line each.

Every test prints a single PASS line on success; a failure shows up as
an ordinary red test.  The heavy sweeps carry the slow_acceptance
marker so they can be deselected with -m "not slow_acceptance" during
quick iteration.
"""

from __future__ import annotations

import csv
import random
import time

import pytest

import oracles
from immersions import (
    Graph,
    ImmersionFlags,
    ODD,
    STRONG_ODD,
    build_third_immersion,
    chromatic_number,
    encode_graph6,
    enumerate_alpha_le2,
    evaluate_graph,
    find_clique_immersion,
    find_join_partition,
    independence_number,
    induced_subgraph,
    is_vertex_critical,
    max_clique_immersion,
    run_batch,
    verify_certificate,
)

FLAG_COMBOS = [ImmersionFlags(s, o) for s in (False, True) for o in (False, True)]


def third_target(n: int) -> int:
    return -(-n // 3)


@pytest.fixture(scope="session")
def alpha2_sweep(tmp_path_factory, alpha2_by_n):
    """One 4-worker batch over every alpha<=2 graph with n <= 8.

    Shared by the theorem sweep criterion and the zero-failure
    criterion so the expensive exact searches run once.
    """
    root = tmp_path_factory.mktemp("sweep")
    words = root / "alpha2_n1_8.g6"
    words.write_text(
        "".join(encode_graph6(g) + "\n" for n in range(1, 9) for g in alpha2_by_n[n])
    )
    out = root / "alpha2_n1_8.csv"
    start = time.perf_counter()
    code = run_batch(str(words), ("main", "appendix", "vergara"), workers=4, out=str(out))
    elapsed = time.perf_counter() - start
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return {
        "exit_code": code,
        "elapsed": elapsed,
        "rows": rows,
        "quarantine_exists": (root / "alpha2_n1_8.csv.quarantine.json").exists(),
    }


@pytest.mark.slow_acceptance
def test_criterion_1_builder_exhaustive_to_9():
    """Constructive guarantee on every alpha<=2 graph with n <= 9."""
    start = time.perf_counter()
    total = 0
    for n in range(1, 10):
        count = 0
        for g in enumerate_alpha_le2(n):
            cert = build_third_immersion(g)
            assert verify_certificate(g, cert, STRONG_ODD).accepted
            assert cert.t >= third_target(n)
            count += 1
        assert count == oracles.TRIANGLE_FREE_COUNTS[n]
        total += count
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"PASS: criterion 1 — builder certified t >= ceil(n/3) on all {total} "
        f"alpha<=2 graphs, n <= 9, in {elapsed:.1f}s (budget 300s)"
    )


@pytest.mark.slow_acceptance
def test_criterion_2_main_bound_sweep(alpha2_sweep):
    """chi <= (3t+1) div 2 across the exhaustive n <= 8 family, 4 workers."""
    assert alpha2_sweep["exit_code"] == 0
    rows = alpha2_sweep["rows"]
    assert len(rows) == sum(oracles.TRIANGLE_FREE_COUNTS[n] for n in range(1, 9))
    assert all(row["main_holds"] == "true" for row in rows)
    assert all(int(row["alpha"]) <= 2 for row in rows)
    assert all(
        int(row["chi"]) <= int(row["main_bound"]) for row in rows
    )
    assert alpha2_sweep["elapsed"] < 1800
    print(
        f"PASS: criterion 2 — main chromatic bound holds on all {len(rows)} "
        f"alpha<=2 graphs, n <= 8, swept in {alpha2_sweep['elapsed']:.1f}s "
        "with 4 workers (budget 1800s)"
    )


@pytest.mark.slow_acceptance
def test_criterion_3_search_matches_brute_oracle(all_graphs_small):
    """Exact search agrees with the independent brute oracle everywhere."""
    searches = 0
    witnesses = 0
    for n in range(1, 7):
        for g in all_graphs_small[n]:
            for t in range(1, 7):
                for flags in FLAG_COMBOS:
                    cert = find_clique_immersion(g, t, flags)
                    expected = oracles.brute_immersion_exists(g, t, flags.strong, flags.odd)
                    assert (cert is not None) == expected, (encode_graph6(g), t, flags)
                    searches += 1
                    if cert is not None:
                        assert verify_certificate(g, cert, flags).accepted
                        witnesses += 1
    print(
        f"PASS: criterion 3 — {searches} searches over all graphs n <= 6, "
        f"t <= 6, all four flag settings match the brute oracle "
        f"({witnesses} witnesses verified)"
    )


def test_criterion_4_bipartite_odd_ceiling():
    """Odd immersions in bipartite graphs never exceed order 2."""
    rng = random.Random(20260817)
    checked = 0
    for _ in range(200):
        n = rng.randrange(2, 11)
        sides = [rng.randrange(2) for _ in range(n)]
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if sides[u] != sides[v] and rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        t_odd, cert = max_clique_immersion(g, ODD)
        assert t_odd <= 2
        assert verify_certificate(g, cert, ODD).accepted
        checked += 1
    assert checked == 200
    print(
        "PASS: criterion 4 — 200 seeded random bipartite graphs, n <= 10, "
        "all have odd immersion order at most 2"
    )


def test_criterion_5_landmark_graphs():
    """Named instances hit their exact invariants."""
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert independence_number(c5) == 2
    assert chromatic_number(c5)[0] == 3
    assert max_clique_immersion(c5, STRONG_ODD)[0] == 3

    k33 = Graph.from_edges(6, [(a, 3 + b) for a in range(3) for b in range(3)])
    assert max_clique_immersion(k33, ODD)[0] == 2

    for n in range(1, 9):
        kn = Graph.complete(n)
        assert max_clique_immersion(kn, STRONG_ODD)[0] == n
        assert chromatic_number(kn)[0] == n
    print(
        "PASS: criterion 5 — C5 (alpha 2, chi 3, strong odd order 3), "
        "K_3,3 (odd order 2), K_n (order n = chi) for n <= 8"
    )


@pytest.mark.slow_acceptance
def test_criterion_6_critical_graphs_decompose(all_graphs_by_n):
    """Low-order k-critical graphs split as joins with additive chi."""
    qualifying = 0
    for n in range(1, 9):
        for g in all_graphs_by_n[n]:
            k = chromatic_number(g)[0]
            if n > 2 * k - 2:
                continue
            if not is_vertex_critical(g, k):
                continue
            qualifying += 1
            jp = find_join_partition(g)
            assert jp is not None, encode_graph6(g)
            left, _ = induced_subgraph(g, jp.x1)
            right, _ = induced_subgraph(g, jp.x2)
            assert chromatic_number(left)[0] + chromatic_number(right)[0] == k
    assert qualifying > 0
    print(
        f"PASS: criterion 6 — all {qualifying} k-critical graphs with "
        "n <= 2k-2 (scan of every graph, n <= 8) are joins with additive chi"
    )


@pytest.mark.slow_acceptance
def test_criterion_7_vergara_zero_failures(alpha2_sweep):
    """n <= 2t+1 under plain immersions: no counterexample, no quarantine."""
    rows = alpha2_sweep["rows"]
    assert all(row["vergara_holds"] == "true" for row in rows)
    assert all(int(row["n"]) <= 2 * int(row["t_max_plain"]) + 1 for row in rows)
    assert not alpha2_sweep["quarantine_exists"]
    print(
        f"PASS: criterion 7 — vertex-count bound n <= 2t+1 holds on all "
        f"{len(rows)} alpha<=2 graphs, n <= 8; quarantine stayed empty"
    )


@pytest.mark.slow_acceptance
def test_criterion_8_alpha3_bound(all_graphs_by_n):
    """chi <= 4t for alpha = 3, 5 <= n <= 8, within the t >= 2 regime.

    Soundness shortcut: a single edge is a strong odd immersion of K_2,
    so t >= 2 exactly when the graph has an edge, and any alpha = 3
    graph with n >= 5 must have one (an edgeless graph has alpha = n).
    The bound then follows from chi <= n <= 8 <= 4t, which is asserted
    per graph on exact chi; the alpha3 row of evaluate_graph, with the
    exact t, is cross-run on a deterministic sample.
    """
    population = []
    for n in range(5, 9):
        for g in all_graphs_by_n[n]:
            if independence_number(g) == 3:
                population.append(g)
    assert population

    out_of_regime = 0
    for g in population:
        if g.edge_count == 0:
            out_of_regime += 1
            continue
        assert find_clique_immersion(g, 2, STRONG_ODD) is not None
        chi = chromatic_number(g)[0]
        assert chi <= 8
    assert out_of_regime == 0  # alpha = 3 forces an edge at these sizes

    sample = population[:: max(1, len(population) // 100)]
    for g in sample:
        report = evaluate_graph(g, ("alpha3",))
        outcome = report.bounds["alpha3"]
        assert outcome.status == "true"
        assert report.chi <= 4 * report.t_max_strong_odd
        assert outcome.bound_value == 4 * report.t_max_strong_odd
    print(
        f"PASS: criterion 8 — chi <= 4t holds on all {len(population)} "
        f"alpha=3 graphs, 5 <= n <= 8 ({out_of_regime} out-of-regime; "
        f"exact checker confirmed on {len(sample)} samples)"
    )


def test_criterion_9_sweep_bytes_reproducible(tmp_path):
    """The n = 7 family sweep is byte-identical across runs and workers."""
    outputs = []
    for label, workers in (("a", 1), ("b", 1), ("c", 4)):
        target = tmp_path / f"run_{label}.csv"
        code = run_batch(
            enumerate_alpha_le2(7), ("main", "appendix", "vergara"),
            workers=workers, out=str(target),
        )
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count(b"\r\n") == 1 + oracles.TRIANGLE_FREE_COUNTS[7]
    print(
        "PASS: criterion 9 — n = 7 sweep produced byte-identical CSV across "
        "two runs at 1 worker and one run at 4 workers"
    )


@pytest.mark.slow_acceptance
def test_criterion_10_exhaustive_sweep_n9(tmp_path):
    """Every bound check holds on the whole alpha<=2 family at n = 9."""
    out = tmp_path / "alpha2_n9.csv"
    start = time.perf_counter()
    code = run_batch(
        enumerate_alpha_le2(9), ("main", "appendix", "vergara"), workers=2, out=str(out)
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == oracles.TRIANGLE_FREE_COUNTS[9]
    statuses = [row[f"{name}_holds"] for row in rows for name in ("main", "appendix", "vergara")]
    assert set(statuses) == {"true"}
    print(
        f"PASS: criterion 10 — main, appendix and vergara checks hold on all "
        f"{len(rows)} alpha<=2 graphs at n = 9, swept in {elapsed:.1f}s with 2 workers"
    )
