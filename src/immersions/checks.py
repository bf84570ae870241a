"""The bound-check table, batch sweeps, and report persistence.

CHECKS is the one table of bound checks, in report column order: when
each applies to a row, its bound as a function of the row, whether the
row meets it (None: outside the check's regime, never a failure), and
whether a false outcome is quarantined.  evaluate_graph computes every
leading column of a row once, so the CSV schema is fixed, then runs the
table.  Timings stay in memory, never serialized, so output is
byte-identical across runs and worker counts.  Each stage is timed from
the clock read that ended the stage before.  A check tuple is walked by
_require_known once, and its runtime_ms keys are then kept under it, so
the rows of a batch, which all pass the tuple run_batch validated, look
them up; only an exact tuple is looked up, and only a valid one is kept.

Both immersion orders come from one ascent, which decides K_{t+1},
K_{t+2}, ... until one fails: the strong odd order from the clique
number, which a clique proves, or from one more when the builder's
extension lemma proves it on a maximum clique (_clique_order), and the
plain order from the strong odd order, since every strong odd
certificate is a plain one.  A climb routes no certificate.  A
quarantined row routes its witnesses on the row's one search index from
the sets its climbs decided, as max_clique_immersion does, so they are
its certificates by construction.

A row's alpha is the clique number of the complement H, and H has no
triangle exactly when alpha <= 2, so the clique search runs only on an
H with a triangle; otherwise alpha is 2 when H has an edge, else 1 (0
on no vertex).  For alpha <= 2, a color class is a vertex or an edge of
H, so chi = n - nu(H), nu being H's matching number; the
exponential coloring search runs only for the chi of alpha >= 3, and
a quarantined row asks chromatic_number for its coloring.

The appendix check runs the builder behind build_third_immersion
directly.  That entry point first proves alpha <= 2 with a maximum
independent set, another complement and clique search, but the check
applies only to rows whose alpha is already computed and at most 2;
verify_certificate still checks every certificate the builder returns.

The CSV report joins its fields with commas and ends each line with
CRLF, as csv.writer would: no field can need quoting, since a graph6
word uses only codes 63..126 and the other fields are ints, status
words and check names.
"""

from __future__ import annotations

import json
import os
import string
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .construct import _build
from .coloring import chromatic_number, matching_number
from .graphs import Graph, _require_int, _require_type, complement, encode_graph6, max_clique, parse_graph6
from .immersion import (
    PLAIN,
    STRONG_ODD,
    _ascend,
    _clique_order,
    _decide,
    _route,
    _SearchIndex,
    certificate_to_json,
    verify_certificate,
)


class CheckOutcome(NamedTuple):
    bound_value: int
    status: str  # true | false | out-of-regime | inapplicable


@dataclass
class CheckReport:
    graph6: str
    n: int
    alpha: int | None = None
    chi: int | None = None
    t_max_plain: int | None = None
    t_max_strong_odd: int | None = None
    bounds: dict[str, CheckOutcome] = field(default_factory=dict)
    runtime_ms: dict[str, float] = field(default_factory=dict)
    quarantine: dict | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class _Check:
    """One row of the check table; see the module docstring."""

    applies: Callable[[CheckReport], bool]
    bound: Callable[[CheckReport], int]
    holds: Callable[[Graph, CheckReport, int], bool | None]
    quarantine: bool = False


def _builder_reaches(g: Graph, row: CheckReport, bound: int) -> bool:
    cert = _build(g, g.vertex_mask, None)  # the check applies only where row.alpha <= 2
    return verify_certificate(g, cert, STRONG_ODD).accepted and cert.t >= bound


CHECKS: dict[str, _Check] = {
    "main": _Check(
        applies=lambda row: row.alpha <= 2,
        bound=lambda row: (3 * row.t_max_strong_odd + 1) // 2,  # ceil(3t/2), the paper's bound
        holds=lambda g, row, bound: row.chi <= bound,
        quarantine=True,
    ),
    "appendix": _Check(
        applies=lambda row: row.alpha <= 2 and row.n > 0,
        bound=lambda row: -(-row.n // 3),  # ceil(n/3) terminals from the builder
        holds=_builder_reaches,
    ),
    "vergara": _Check(
        applies=lambda row: row.alpha <= 2,
        bound=lambda row: 2 * row.t_max_plain + 1,  # Vergara: n <= 2t + 1
        holds=lambda g, row, bound: row.n <= bound,
        quarantine=True,
    ),
    # The alpha = 3 theorem's proof assumes t >= 2; smaller t is out of regime.
    "alpha3": _Check(
        applies=lambda row: row.alpha == 3,
        bound=lambda row: 4 * row.t_max_strong_odd,
        holds=lambda g, row, bound: row.chi <= bound if row.t_max_strong_odd >= 2 else None,
    ),
}
CHECK_NAMES = tuple(CHECKS)


# The runtime_ms keys of a row's stages before its checks, in order.
_STAGES = ("alpha", "chi", "t_max_strong_odd", "t_max_plain")
# A validated check tuple -> the runtime_ms key of every stage of a row
# that runs it.  Only valid tuples enter, so it holds at most the 64
# orderings of nonempty subsets of the table.
_VALIDATED: dict[tuple[str, ...], tuple[str, ...]] = {}


def _require_known(checks) -> tuple[str, ...]:
    """checks as a tuple of known names, at least one, each named once; a
    str is refused."""
    if isinstance(checks, str) or not isinstance(checks, Iterable):
        raise ValueError(
            f"checks must be a sequence of check names, not the {type(checks).__name__} {checks!r}"
        )
    checks = tuple(checks)
    if not checks:
        raise ValueError("at least one check is required")
    for k, name in enumerate(checks):
        if not isinstance(name, str) or name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
        if name in checks[:k]:
            raise ValueError(f"check {name!r} named twice")
    return checks


def evaluate_graph(g: Graph, checks: tuple[str, ...]) -> CheckReport:
    """Full row: every leading column, the requested outcomes, and any quarantine."""
    _require_type(g, Graph, "g")
    stages = None
    if type(checks) is tuple:  # a list is unhashable, and a tuple subclass could compare as anything
        try:
            stages = _VALIDATED.get(checks)
        except TypeError:  # an unhashable name, which _require_known refuses
            pass
    if stages is None:
        checks = _require_known(checks)
        stages = _VALIDATED[checks] = _STAGES + tuple(f"check_{name}" for name in checks)
    report = CheckReport(encode_graph6(g), g.n)
    clock = time.perf_counter
    marks = [clock()]  # one read at each stage boundary
    h = complement(g)
    report.alpha = _clique_number(h)
    marks.append(clock())
    if report.alpha <= 2:
        report.chi = g.n - matching_number(h)  # a color class is a vertex or an edge of h
    else:
        report.chi = chromatic_number(g)[0]
    marks.append(clock())
    index = _SearchIndex(g)
    report.t_max_strong_odd, odd_terms = _ascend(index, _clique_order(index), STRONG_ODD)
    marks.append(clock())
    report.t_max_plain, plain_terms = _ascend(index, report.t_max_strong_odd, PLAIN)
    marks.append(clock())

    for name in checks:
        check = CHECKS[name]
        bound = check.bound(report)
        if not check.applies(report):
            status = "inapplicable"
        else:
            holds = check.holds(g, report, bound)
            status = "out-of-regime" if holds is None else "true" if holds else "false"
        report.bounds[name] = CheckOutcome(bound, status)
        marks.append(clock())
    report.runtime_ms = {stage: (end - start) * 1000 for stage, start, end in zip(stages, marks, marks[1:])}

    failed = [name for name, outcome in report.bounds.items() if outcome.status == "false"]
    if any(CHECKS[name].quarantine for name in failed):
        coloring = chromatic_number(g)[1]
        if coloring.k != report.chi:
            raise AssertionError(f"the witness coloring has {coloring.k} colors, the row's chi is {report.chi}")
        report.quarantine = {**_leading(report), "coloring": list(coloring.colors), "failed_checks": failed}
        for kind, t, terms, flags in (("plain", report.t_max_plain, plain_terms, PLAIN),
                                      ("strong_odd", report.t_max_strong_odd, odd_terms, STRONG_ODD)):
            cert = _route(index, terms or _decide(index, t, flags), flags)
            report.quarantine[f"certificate_{kind}"] = json.loads(certificate_to_json(cert, flags))
    return report


def _clique_number(h: Graph) -> int:
    """max_clique(h)'s size, searched for only when h has a triangle;
    otherwise 2 when h has an edge, else 1, or 0 on no vertex."""
    adj = h.adj
    for u, row in enumerate(adj):
        rest = row >> u  # the edges uv with v > u, each tested once
        while rest:
            low = rest & -rest
            if row & adj[u + low.bit_length() - 1]:  # u and v share a neighbor
                return max_clique(h)[0]
            rest ^= low
    return 2 if any(adj) else min(h.n, 1)


def _worker(task: tuple[Graph, tuple[str, ...]]) -> CheckReport:
    g, checks = task
    try:
        return evaluate_graph(g, checks)
    except Exception as exc:
        raise ValueError(f"{encode_graph6(g)}: evaluating the row failed: {exc!r}") from exc


def _resolve_source(source: str | os.PathLike | Iterable[Graph]) -> Iterable[Graph]:
    """The graphs of a batch source: a str or path-like is always a graph6
    file path, parsed once, a bad word named by its line (from 1, all lines
    counted); anything else is an iterable of graphs, each item checked.
    """
    if not isinstance(source, (str, os.PathLike)):
        try:
            items = iter(source)
        except TypeError:
            raise ValueError(
                f"source needs a graph6 file path or an iterable of graphs, "
                f"not the {type(source).__name__} {source!r}"
            ) from None
        graphs = list(items)
        for index, g in enumerate(graphs):
            if not isinstance(g, Graph):
                raise ValueError(
                    f"source item {index} (from 0) is a {type(g).__name__}, not a Graph; "
                    "pass a graph6 file path or Graph objects"
                )
        return graphs
    graphs = []
    with open(source, "r", encoding="latin-1") as handle:  # any byte decodes; the parser names it
        for number, word in enumerate((line.strip(string.whitespace) for line in handle), 1):
            try:
                if word not in ("", ">>graph6<<"):
                    graphs.append(parse_graph6(word))
            except ValueError as exc:
                raise ValueError(f"{source}, line {number}: {exc}") from exc
    return graphs


# The leading columns of every report, in CSV order.
_COLUMNS = ("graph6", "n", "alpha", "chi", "t_max_plain", "t_max_strong_odd")


def _leading(report: CheckReport) -> dict:
    return {column: getattr(report, column) for column in _COLUMNS}


def _csv_bytes(rows: list[CheckReport], checks: tuple[str, ...]) -> bytes:
    """The CSV report; the module docstring says why no field is quoted."""
    header = list(_COLUMNS)
    for name in checks:
        header += [f"{name}_bound", f"{name}_holds"]
    lines = [",".join(header)]
    for report in rows:
        row = [getattr(report, column) for column in _COLUMNS]
        for name in checks:
            row += report.bounds[name]
        lines.append(",".join(map(str, row)))
    lines.append("")
    return "\r\n".join(lines).encode("ascii")


def _json_bytes(rows: list[CheckReport], checks: tuple[str, ...]) -> bytes:
    payload = {
        "checks": list(checks),
        "rows": [
            {
                **_leading(report),
                "checks": {
                    name: {
                        "bound": report.bounds[name].bound_value,
                        "status": report.bounds[name].status,
                    }
                    for name in checks
                },
            }
            for report in rows
        ],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("ascii")


def run_batch(source, checks, workers: int = 1, out: str | None = None, fmt: str = "csv") -> int:
    """Evaluate every graph, write the report, return the exit code.

    `source` is a graph6 file path, str or path-like, or an iterable of
    graphs, such as `enumerate_alpha_le2(7)`.  Exit 0 when every
    applicable check holds, 1 when any fails, and 2 before any row on an
    input problem, such as a generator's size cap, a source that is
    neither a path nor an iterable, an item that is not a `Graph`,
    `checks` that is not a sequence of names, `workers` that is not an
    int or is < 1, or an `out` that is not a path, is a directory or is
    in a missing one.  A pool never has more processes than rows, and a dying
    worker process exits 2 with no report.  Output is byte-identical for
    a fixed input regardless of worker count: rows keep input order and
    hold no timing data.
    """
    try:
        checks = _require_known(checks)
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")
        _require_int(workers, "workers")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if out is not None:
            if not isinstance(out, (str, os.PathLike)):
                raise ValueError(f"out needs a file path, not the {type(out).__name__} {out!r}")
            if Path(out).is_dir() or not Path(out).parent.is_dir():
                raise ValueError(f"cannot write the report to {out}: not a file in an existing directory")
        tasks = [(g, checks) for g in _resolve_source(source)]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if workers > 1 and len(tasks) > 1:
        # Imported here: the pool machinery costs a serial run 1.5 MB of RSS.
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        try:
            # Under fork, the pool starts all its processes at the first submit.
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(min(workers, len(tasks)), mp_context=fork) as pool:
                rows = list(pool.map(_worker, tasks))
        except BrokenProcessPool as exc:
            print(f"error: a sweep worker died: {exc}", file=sys.stderr)
            return 2
    else:
        rows = [_worker(task) for task in tasks]

    data = _csv_bytes(rows, checks) if fmt == "csv" else _json_bytes(rows, checks)
    if out is None:
        sys.stdout.write(data.decode("ascii"))
    else:
        Path(out).write_bytes(data)

    failures = [report.quarantine for report in rows if report.quarantine is not None]
    if failures:
        blob = json.dumps({"violations": failures}, sort_keys=True, indent=2) + "\n"
        if out is not None:
            Path(f"{out}.quarantine.json").write_text(blob, encoding="ascii")
        else:
            sys.stderr.write(blob)
    elif out is not None:
        Path(f"{out}.quarantine.json").unlink(missing_ok=True)  # no earlier run's violations

    statuses = {outcome.status for report in rows for outcome in report.bounds.values()}
    return 1 if "false" in statuses else 0
