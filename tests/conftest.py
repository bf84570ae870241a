"""Shared fixtures: enumerated corpora are expensive, so build them once."""

from __future__ import annotations

import sys

import pytest

from immersions import Graph, enumerate_alpha_le2, enumerate_graphs
from immersions import immersion as immersion_module


@pytest.fixture(scope="session")
def alpha2_by_n() -> dict[int, list[Graph]]:
    """Every isomorphism class with independence number <= 2, n = 1..8."""
    return {n: list(enumerate_alpha_le2(n)) for n in range(1, 9)}


@pytest.fixture(scope="session")
def all_graphs_small() -> dict[int, list[Graph]]:
    """Every isomorphism class on up to 6 vertices (cheap, reused widely)."""
    return {n: list(enumerate_graphs(n)) for n in range(1, 7)}


@pytest.fixture(scope="session")
def all_graphs_by_n() -> dict[int, list[Graph]]:
    """Every isomorphism class on up to 8 vertices (heavyweight corpus)."""
    return {n: list(enumerate_graphs(n)) for n in range(1, 9)}


@pytest.fixture
def count_solve_calls():
    """count(run) calls run() and returns how many times the nested solve
    and route of find_clique_immersion were entered meanwhile, by name:
    the search's work, independent of the host's speed."""

    def count(run) -> dict[str, int]:
        calls = {"solve": 0, "route": 0}
        code_file = immersion_module.__file__

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_name in calls and code.co_filename == code_file:
                calls[code.co_name] += 1

        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        return calls

    return count
