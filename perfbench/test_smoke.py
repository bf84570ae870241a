"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads
from steady import SteadyClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE_SEED = workloads.DEFAULT_SEED


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SMOKE_SEED),
        "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def package():
    sys.path.insert(0, str(ROOT / "src"))
    import immersions

    return immersions


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_result_line(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in listed]
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"} and metric["unit"], name
        assert isinstance(metric["value"], (int, float)), name
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark(tmp_path, "certify-sampled", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def smoke_outputs(package, workload: str, tmp_path: Path) -> tuple[dict, dict]:
    setup, run, _ = workloads.WORKLOADS[workload]
    size = workloads.SIZES[workload]["smoke"]
    inputs = setup(package, size, SMOKE_SEED, tmp_path)
    return run(package, inputs, SteadyClock())["outputs"], size


def test_tampered_sweep_fails(package, tmp_path):
    outputs, size = smoke_outputs(package, "sweep-alpha2-n8", tmp_path)
    check = workloads.sweep_check
    assert check(outputs, size, SMOKE_SEED)[1] == 0
    lines = outputs["csv"].split("\r\n")
    lines[3] = lines[3][::-1].replace("eurt", "eslaf", 1)[::-1]
    assert check({**outputs, "csv": "\r\n".join(lines)}, size, SMOKE_SEED)[1] == 1
    assert check({**outputs, "exit_code": 1}, size, SMOKE_SEED)[1] == 1
    assert check({**outputs, "csv": outputs["csv"].replace("\r\n", "\n")}, size, SMOKE_SEED)[1] > 0


def test_tampered_enumeration_fails(package, tmp_path):
    outputs, size = smoke_outputs(package, "enumerate-families", tmp_path)
    check = workloads.enumerate_check
    attempted, failed = check(outputs, size, SMOKE_SEED)
    assert (attempted, failed) == (1 + 2 + 4 + 11 + 34 + 1 + 2 + 3 + 7 + 14 + 38, 0)
    levels = list(outputs["levels"])
    family, n, count, text = levels[4]
    levels[4] = (family, n, count - 1, text)
    assert check({"levels": levels}, size, SMOKE_SEED)[1] == 34
    levels[4] = (family, n, count, "0" * 64)
    assert check({"levels": levels}, size, SMOKE_SEED)[1] == 34


def test_tampered_certificate_fails(package, tmp_path):
    outputs, size = smoke_outputs(package, "certify-sampled", tmp_path)
    check = workloads.certify_check
    assert check(outputs, size, SMOKE_SEED) == (40, 0)
    served = list(outputs["served"])
    kind, word, reply = served[0]
    cert = json.loads(reply["cert"])
    key = next(iter(cert["paths"]))
    cert["paths"][key] = cert["paths"][key][::-1]
    served[0] = (kind, word, {**reply, "cert": json.dumps(cert, sort_keys=True)})
    assert check({"served": served}, size, SMOKE_SEED)[1] == 1
    # Without the digest reference only the verifiers and bounds decide.
    assert check({"served": served}, size, SMOKE_SEED + 1)[1] == 1
    served[0] = (kind, word, {"error": "ValueError()"})
    assert check({"served": served}, size, SMOKE_SEED)[1] == 1


def test_certificate_checker_rejects_shared_edges():
    # K5: a triangle on terminals 0, 1, 2, then two paths through the edge 3-4.
    word = "D~{"
    good = {"t": 3, "terminals": [0, 1, 2], "flags": {"strong": True, "odd": True},
            "paths": {"0,1": [0, 1], "0,2": [0, 2], "1,2": [1, 2]}}
    assert workloads.certificate_ok(word, json.dumps(good))
    shared = dict(good, paths={"0,1": [0, 1], "0,2": [0, 3, 4, 2], "1,2": [1, 3, 4, 2]})
    assert not workloads.certificate_ok(word, json.dumps(shared))


def test_steady_clock_leaves_out_calibration():
    before = signal.getsignal(signal.SIGALRM)
    with SteadyClock() as clock:
        start = clock.now()
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
        measured = clock.now() - start
    # The first and last samples are taken outside the measured stretch.
    inside = clock.paused - clock.samples[0] - clock.samples[-1]
    assert len(clock.samples) >= 6
    assert abs(measured + inside - 0.5) < 0.01
    assert clock.factor() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
