"""Benchmark of the immersions package: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-alpha2-n8 --seed 0 --seconds 20 --trace 0

Every pass runs in a fresh interpreter, with no worker pool, so level
caches start cold and each pass's peak memory is its own.  With
``--trace 0`` the set-up is also timed in extra fresh interpreters, and
passes repeat until ``--seconds`` have been measured (at least one
pass).  With ``--trace 1`` one untraced and one traced pass run; the
traced pass wraps the package's public functions (see tracer.py) and
writes its spans to ``perfbench/out``.  Every time is scaled to a
reference host speed by a calibration loop interleaved with the code
under test (see steady.py).  The last line of standard
output is one JSON object with the metrics; earlier lines are a
readable summary.  ``--smoke`` shrinks every workload to a fraction of a second.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads
from steady import SteadyClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
TIME_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in tracer.span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units["checks.evaluate_graph.p50_ms"] = "ms"
    units["checks.evaluate_graph.p_hi_ms"] = "ms"
    units["immersion.find_clique_immersion.found_ratio"] = "ratio"
    units["families.classes_per_canonical_call"] = "ratio"
    for module in tracer.MODULES:
        units[f"{module}.share"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------- child


def child_main(args) -> int:
    """One fresh-interpreter set-up and, unless role is setup, one pass."""
    setup, run, check = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.workload]["smoke" if args.smoke else "full"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        with SteadyClock() as clock:
            start = clock.now()
            sys.path.insert(0, str(SRC))
            import immersions

            if Path(immersions.__file__).resolve().parent.parent != SRC:
                raise ImportError(f"immersions imported from {immersions.__file__}, not {SRC}")
            inputs = setup(immersions, size, args.seed, Path(workdir))
            took = clock.now() - start
        result = {"setup_s": took * clock.factor()}
        if args.role == "setup":
            print(json.dumps(result))
            return 0

        clock = SteadyClock()
        spans = tracer.Tracer(clock.now) if args.trace else None
        if spans is not None:
            spans.install()
        try:
            with clock:
                measured = run(immersions, inputs, clock)
        finally:
            if spans is not None:
                spans.remove()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["attempted"], result["failed"] = check(measured.pop("outputs"), size, args.seed)
        factor = clock.factor()
        result["unscaled_wall_s"] = measured["wall_s"]
        result["speed_factor"] = factor
        measured["wall_s"] *= factor
        measured["latencies_ms"] = [ms * factor for ms in measured["latencies_ms"]]
        result.update(measured)
    if spans is not None:
        spans.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result["layers"] = {
            name: {
                "calls": entry["calls"],
                "total_s": entry["total_s"] * factor,
                "self_s": entry["self_s"] * factor,
                "found": entry["found"],
                "busy_ms": [busy * 1000 * factor for busy in entry["busy"]]
                if name == "checks.evaluate_graph"
                else [],
            }
            for name, entry in spans.summary().items()
        }
    print(json.dumps(result))
    return 0


def spawn(args, role: str, trace: int, deadline: float) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--role", role,
    ] + (["--smoke"] if args.smoke else [])
    timeout = max(deadline - time.monotonic(), 1.0)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{role} process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------- parent


def machine_facts(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": args.seed,
        "commit": read_commit(),
    }


def read_commit() -> str:
    """HEAD's commit id from the .git directory, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    setups = [spawn(args, "setup", 0, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    began = time.monotonic()
    while not passes or time.monotonic() - began < args.seconds:
        passes.append(spawn(args, "pass", 0, deadline))
    setups += [p["setup_s"] for p in passes]
    # Time metrics are medians over the passes.  Percentiles are taken
    # within the median pass, so p_hi names the same percentile however
    # many passes ran.
    middle = sorted(passes, key=lambda p: p["wall_s"])[(len(passes) - 1) // 2]
    samples = len(middle["latencies_ms"])
    p_hi = workloads.high_percentile(samples)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    # Per-item latency is reported but not gated: it is the point of
    # certify-sampled, and on the other workloads it swings more with the
    # host's speed than wall_s does.
    notes = {
        "item_p50_ms": workloads.percentile(middle["latencies_ms"], 50),
        "item_p_hi_ms": workloads.percentile(middle["latencies_ms"], p_hi),
        "p_hi_percentile": p_hi,
        "samples_per_pass": samples,
        "passes": len(passes),
        "setup_samples": len(setups),
        "unscaled_wall_s": statistics.median(p["unscaled_wall_s"] for p in passes),
        "speed_factor": statistics.median(p["speed_factor"] for p in passes),
    }
    return values, notes, passes


def per_layer(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    plain = spawn(args, "pass", 0, deadline)
    traced = spawn(args, "pass", 1, deadline)
    layers = traced["layers"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "found": 0, "busy_ms": []}
    values: dict[str, float] = {}
    for name in tracer.span_names():
        entry = layers.get(name, empty)
        for key in ("calls", "total_s", "self_s"):
            values[f"{name}.{key}"] = entry[key]
    evaluate = layers.get("checks.evaluate_graph", empty)["busy_ms"]
    p_hi = workloads.high_percentile(len(evaluate))
    values["checks.evaluate_graph.p50_ms"] = workloads.percentile(evaluate, 50) if evaluate else 0.0
    values["checks.evaluate_graph.p_hi_ms"] = workloads.percentile(evaluate, p_hi) if evaluate else 0.0
    find = layers.get("immersion.find_clique_immersion", empty)
    values["immersion.find_clique_immersion.found_ratio"] = (
        find["found"] / find["calls"] if find["calls"] else 0.0
    )
    emitted = sum(
        layers.get(f"families.{name}", empty)["found"]
        for name in ("enumerate_graphs", "enumerate_alpha_le2")
    )
    canonical = layers.get("families.canonical_form", empty)["calls"]
    values["families.classes_per_canonical_call"] = emitted / canonical if canonical else 0.0
    for module in tracer.MODULES:
        busy = sum(
            entry["self_s"] for name, entry in layers.items() if name.split(".")[0] == module
        )
        values[f"{module}.share"] = busy / traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    notes = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "evaluate_graph_p_hi_percentile": p_hi,
        "evaluate_graph_samples": len(evaluate),
        "spans_file": f"perfbench/out/spans-{args.workload}-seed{args.seed}.jsonl",
    }
    return values, notes, [plain, traced]


def parent_main(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        values, notes, passes = per_layer(args, deadline)
        units = layer_units()
    else:
        values, notes, passes = end_to_end(args, deadline)
        units = END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "size": workloads.SIZES[args.workload]["smoke" if args.smoke else "full"],
        "trace": args.trace,
        "machine": machine_facts(args),
        "fail_ratio": failed / attempted,
        "notes": notes,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload}: {report['why']}")
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    print(f"fail_ratio {report['fail_ratio']} ({failed} of {attempted} items)")
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, metric in report["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    parser.add_argument("--role", choices=("main", "setup", "pass"), default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "main":
        return parent_main(args)
    return child_main(args)


if __name__ == "__main__":
    sys.exit(main())
