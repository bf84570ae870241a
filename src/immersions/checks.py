"""The bound-check table, batch sweeps, and report persistence.

CHECKS is the one table of bound checks, in report column order: when
each applies to a row, its bound as a function of the row, whether the
row meets it (None: outside the check's regime, never a failure), and
whether a false outcome is quarantined.  evaluate_graph computes every
leading column of a row once, so the CSV schema is fixed, then runs the
table.  Timings stay in memory, never serialized, so output is
byte-identical across runs and worker counts.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import sys
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from .construct import build_third_immersion
from .coloring import ColoringCertificate, chromatic_number
from .graphs import Graph, encode_graph6, independence_number, parse_graph6
from .immersion import (
    PLAIN,
    STRONG_ODD,
    ImmersionCertificate,
    certificate_to_json,
    max_clique_immersion,
    verify_certificate,
)


@dataclass(frozen=True)
class CheckOutcome:
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
    # Not a field, so never compared or serialized: the witnesses of a row
    # that fails a quarantining check.  Other rows do not keep theirs.
    quarantine = None


@dataclass(frozen=True)
class _Check:
    """One row of the check table; see the module docstring."""

    applies: Callable[[CheckReport], bool]
    bound: Callable[[CheckReport], int]
    holds: Callable[[Graph, CheckReport, int], bool | None]
    quarantine: bool = False


def _builder_reaches(g: Graph, row: CheckReport, bound: int) -> bool:
    cert = build_third_immersion(g)
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


def _require_known(checks: tuple[str, ...]) -> None:
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")


def evaluate_graph(g: Graph, checks: tuple[str, ...]) -> CheckReport:
    """Full row: every leading column, the requested outcomes, and any quarantine."""
    _require_known(checks)
    report = CheckReport(encode_graph6(g), g.n)
    empty = (0, ImmersionCertificate(()))
    clock = time.perf_counter
    start = clock()
    report.alpha = independence_number(g)
    report.runtime_ms["alpha"] = (clock() - start) * 1000
    start = clock()
    report.chi, coloring = chromatic_number(g)
    report.runtime_ms["chi"] = (clock() - start) * 1000
    start = clock()
    report.t_max_plain, plain_cert = max_clique_immersion(g, PLAIN) if g.n else empty
    report.runtime_ms["t_max_plain"] = (clock() - start) * 1000
    start = clock()
    report.t_max_strong_odd, odd_cert = max_clique_immersion(g, STRONG_ODD) if g.n else empty
    report.runtime_ms["t_max_strong_odd"] = (clock() - start) * 1000

    for name in checks:
        start = clock()
        check = CHECKS[name]
        bound = check.bound(report)
        if not check.applies(report):
            status = "inapplicable"
        else:
            holds = check.holds(g, report, bound)
            status = "out-of-regime" if holds is None else "true" if holds else "false"
        report.bounds[name] = CheckOutcome(bound, status)
        report.runtime_ms[f"check_{name}"] = (clock() - start) * 1000

    failed = [name for name, outcome in report.bounds.items() if outcome.status == "false"]
    if any(CHECKS[name].quarantine for name in failed):
        report.quarantine = _quarantine_payload(report, failed, coloring, plain_cert, odd_cert)
    return report


def _worker(task: tuple[Graph, tuple[str, ...]]) -> CheckReport:
    g, checks = task
    try:
        return evaluate_graph(g, checks)
    except Exception as exc:
        raise ValueError(f"{encode_graph6(g)}: evaluating the row failed: {exc!r}") from exc


def _resolve_source(source: str | Iterable[Graph]) -> Iterable[Graph]:
    """The graphs of a batch source: a str is always a graph6 file path,
    whose lines are parsed once; anything else is an iterable of graphs,
    kept as given, not re-encoded and re-parsed.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="ascii") as handle:
            lines = [line.strip() for line in handle]
        return [parse_graph6(line) for line in lines if line and line != ">>graph6<<"]
    return source


# The leading columns of every report, in CSV order.
_COLUMNS = ("graph6", "n", "alpha", "chi", "t_max_plain", "t_max_strong_odd")


def _leading(report: CheckReport) -> dict:
    return {column: getattr(report, column) for column in _COLUMNS}


def _csv_bytes(rows: list[CheckReport], checks: tuple[str, ...]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    header = list(_COLUMNS)
    for name in checks:
        header += [f"{name}_bound", f"{name}_holds"]
    writer.writerow(header)
    for report in rows:
        row = list(_leading(report).values())
        for name in checks:
            outcome = report.bounds[name]
            row += [outcome.bound_value, outcome.status]
        writer.writerow(row)
    return buffer.getvalue().encode("ascii")


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


def _quarantine_payload(
    report: CheckReport, failed: list[str], coloring: ColoringCertificate,
    plain_cert: ImmersionCertificate, odd_cert: ImmersionCertificate,
) -> dict:
    return {
        **_leading(report),
        "coloring": list(coloring.colors),
        "failed_checks": failed,
        "certificate_plain": json.loads(certificate_to_json(plain_cert, PLAIN)),
        "certificate_strong_odd": json.loads(certificate_to_json(odd_cert, STRONG_ODD)),
    }


def run_batch(source, checks, workers: int = 1, out: str | None = None, fmt: str = "csv") -> int:
    """Evaluate every graph, write the report, return the exit code.

    `source` is a graph6 file path or an iterable of graphs, such as
    `enumerate_alpha_le2(7)`.  Exit 0 when every applicable check holds,
    1 when any fails, 2 on input problems, among them a generator's size
    cap, raised while the task list is built.  Output is byte-identical
    for a fixed input regardless of worker count: results are collected
    in input order and contain no timing data.
    """
    checks = tuple(checks)
    try:
        if not checks:
            raise ValueError("at least one check is required")
        _require_known(checks)
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")
        tasks = [(g, checks) for g in _resolve_source(source)]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if workers > 1 and len(tasks) > 1:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            rows = list(pool.imap(_worker, tasks, chunksize=1))
    else:
        rows = [_worker(task) for task in tasks]

    data = _csv_bytes(rows, checks) if fmt == "csv" else _json_bytes(rows, checks)
    if out is None:
        sys.stdout.write(data.decode("ascii"))
    else:
        with open(out, "wb") as handle:
            handle.write(data)

    failures = [report.quarantine for report in rows if report.quarantine is not None]
    if failures:
        blob = json.dumps({"violations": failures}, sort_keys=True, indent=2) + "\n"
        if out is not None:
            with open(f"{out}.quarantine.json", "w", encoding="ascii") as handle:
                handle.write(blob)
        else:
            sys.stderr.write(blob)

    any_false = any(
        outcome.status == "false" for report in rows for outcome in report.bounds.values()
    )
    return 1 if any_false else 0
