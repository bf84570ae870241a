"""Write the reference outputs the benchmark's checks compare against.

Run once, from the repository root, at a commit whose outputs are the
accepted ones (the references in ref/ were written at the commit that
added the benchmark):

    python3 perfbench/make_reference.py

A later change must not rewrite these files to make its outputs pass:
the sweep CSV and the enumerated words are meant to stay byte-identical.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads
from steady import SteadyClock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import immersions  # noqa: E402


def main() -> int:
    workloads.REF_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for size in workloads.SIZES["sweep-alpha2-n8"].values():
            inputs = workloads.sweep_setup(immersions, size, 0, Path(workdir))
            csv_text = workloads.sweep_run(immersions, inputs, SteadyClock())["outputs"]["csv"]
            (workloads.REF_DIR / f"sweep-alpha2-n{size['n']}.csv").write_bytes(csv_text.encode("ascii"))

    size = workloads.SIZES["enumerate-families"]["full"]
    levels = workloads.enumerate_run(immersions, {"plan": workloads.enumerate_plan(size)}, SteadyClock())
    digests: dict[str, dict[str, str]] = {"all": {}, "alpha2": {}}
    for family, n, _, text in levels["outputs"]["levels"]:
        digests[family][str(n)] = text
    (workloads.REF_DIR / "enumerate-digests.json").write_text(json.dumps(digests, indent=1) + "\n")

    for size in workloads.SIZES["certify-sampled"].values():
        inputs = workloads.certify_setup(immersions, size, workloads.DEFAULT_SEED, None)
        served = workloads.certify_run(immersions, inputs, SteadyClock())["outputs"]["served"]
        replies = [workloads.request_digest(word, reply["cert"]) for _, word, reply in served]
        path = workloads.REF_DIR / workloads.certify_reference_name(size)
        path.write_text(json.dumps(replies, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
