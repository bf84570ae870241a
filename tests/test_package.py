"""package surface: the import list and __all__ name the same objects."""

from __future__ import annotations

import types

import immersions


def test_all_matches_public_attributes():
    public = {
        name
        for name, value in vars(immersions).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(immersions.__all__) == len(set(immersions.__all__))
    assert set(immersions.__all__) == public
