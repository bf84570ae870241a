"""Shared fixtures: enumerated corpora are expensive, so build them once."""

from __future__ import annotations

import pytest

from immersions import Graph, enumerate_alpha_le2, enumerate_graphs


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

