"""The exhaustive alpha <= 2 sweep at n = 10, stored and recomputed.

tests/data/sweep_alpha2_n10.csv.gz holds, byte for byte, the report of

    immersions sweep --family alpha2 --n 10 --checks main,appendix,vergara

over all 12,172 classes.  Tier-1 recomputes every 60th row (203 rows)
and compares it with the stored one, checks every stored word against
the per-bit encoder, and acceptance criterion 11
(tests/test_acceptance.py) recomputes the whole report.  Recompute
every row and compare the whole report, or rewrite the file when a
change is meant to alter the rows, with:

    PYTHONPATH=src python3 tests/test_sweep_n10.py --check --workers 2
    PYTHONPATH=src python3 tests/test_sweep_n10.py --workers 2
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import sys
import tempfile
from pathlib import Path

import oracles
from immersions import encode_graph6, enumerate_alpha_le2, evaluate_graph, parse_graph6, run_batch
from immersions.checks import _csv_bytes

STORED = Path(__file__).parent / "data" / "sweep_alpha2_n10.csv.gz"
CHECKS = ("main", "appendix", "vergara")
SHA256 = "ec8563d1d584ff5534fb96dd00c5f21ba387b04d0e113fd604a860c77779dac8"  # of the CSV


def stored_lines() -> list[str]:
    """The stored CSV's lines, header first, each without its CRLF."""
    return gzip.decompress(STORED.read_bytes()).decode("ascii").split("\r\n")[:-1]


def test_stored_report_is_the_pinned_one():
    data = gzip.decompress(STORED.read_bytes())
    assert hashlib.sha256(data).hexdigest() == SHA256
    assert len(stored_lines()) == 1 + 12172


def test_every_60th_row_recomputes():
    header, *rows = stored_lines()
    slice_rows = rows[::60]
    assert len(slice_rows) == 203
    reports = [evaluate_graph(parse_graph6(row.split(",")[0]), CHECKS) for row in slice_rows]
    fresh = _csv_bytes(reports, CHECKS).decode("ascii").split("\r\n")[:-1]
    assert fresh[0] == header
    for got, want in zip(fresh[1:], slice_rows):
        assert got == want, f"row for {want.split(',')[0]} changed"


def test_parsed_words_encode_as_the_reference():
    """encode_graph6 returns a parsed graph's own word: on every stored
    word it equals the per-bit encoder's word for the parsed rows."""
    for row in stored_lines()[1:]:
        word = row.split(",")[0]
        g = parse_graph6(word)
        assert encode_graph6(g) == oracles.reference_encode_graph6(g) == word


def sweep(workers: int) -> tuple[int, bytes]:
    """The sweep command's exit code and full report."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        code = run_batch(enumerate_alpha_le2(10), CHECKS, workers=workers, out=str(out))
        if code == 2:  # an input problem, reported on stderr
            raise SystemExit(2)
        return code, out.read_bytes()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the stored file, write nothing")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    _, data = sweep(args.workers)
    if not args.check:
        STORED.write_bytes(gzip.compress(data, compresslevel=9, mtime=0))
        return 0
    fresh = data.decode("ascii").split("\r\n")[:-1]
    stored = stored_lines()
    changed = [k for k, (got, want) in enumerate(zip(fresh, stored), 1) if got != want]
    if len(fresh) != len(stored):
        print(f"{len(fresh)} lines recomputed, {len(stored)} stored", file=sys.stderr)
    for k in changed[:10]:
        print(f"line {k}: stored {stored[k - 1]!r}, recomputed {fresh[k - 1]!r}", file=sys.stderr)
    if changed or len(fresh) != len(stored):
        return 1
    print(f"all {len(stored) - 1} rows match {STORED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
