"""Golden corpus: exact-search outputs frozen byte for byte.

Each corpus row is [graph6, flags label, t, certificate JSON] as
returned by max_clique_immersion.  The corpus covers every graph with
n <= 7 under all four flag settings and every alpha <= 2 graph at
n = 8 under plain and strong+odd flags.  It was written before the
search gained its pass-through budget and failure memo, so any prune
that changes which certificate is found first, or whether one is
found, shows up here as a row mismatch.

Regenerate only when a search change is meant to alter the output:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

from immersions import (
    ODD,
    PLAIN,
    STRONG,
    STRONG_ODD,
    certificate_to_json,
    encode_graph6,
    enumerate_alpha_le2,
    enumerate_graphs,
    max_clique_immersion,
)

CORPUS = Path(__file__).parent / "data" / "golden_immersions.jsonl.gz"


def corpus_rows():
    cases = [
        (g, flags)
        for n in range(1, 8)
        for g in enumerate_graphs(n)
        for flags in (PLAIN, STRONG, ODD, STRONG_ODD)
    ]
    cases += [(g, flags) for g in enumerate_alpha_le2(8) for flags in (PLAIN, STRONG_ODD)]
    for g, flags in cases:
        t, cert = max_clique_immersion(g, flags)
        yield [encode_graph6(g), flags.label(), t, certificate_to_json(cert, flags)]


def test_golden_corpus_matches():
    with gzip.open(CORPUS, "rt", encoding="ascii") as handle:
        stored = [json.loads(line) for line in handle]
    fresh = list(corpus_rows())
    assert len(fresh) == len(stored)
    for got, want in zip(fresh, stored):
        assert got == want, f"golden row for {want[0]} under {want[1]} changed"


if __name__ == "__main__":
    text = "".join(json.dumps(row) + "\n" for row in corpus_rows())
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_bytes(gzip.compress(text.encode("ascii"), mtime=0))
