"""The benchmark's workloads: input generation, one timed pass, output checks.

Each workload has three steps.  ``setup`` imports nothing itself; it
receives the imported package, generates the inputs as graph6 words and
is timed as set-up.  ``run`` is the timed pass: the code under test
receives only those words, and every time is read from the clock it is
given (see steady.py).  ``check`` runs after the timed pass and returns
(attempted, failed) for the pass's outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"
DEFAULT_SEED = 0

# Published class counts (OEIS A000088 for all graphs; alpha <= 2 are the
# complements of triangle-free graphs, OEIS A006785), index n - 1.
ALL_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)
ALPHA2_COUNTS = (1, 2, 3, 7, 14, 38, 107, 410, 1897)

SWEEP_CHECKS = ("main", "appendix", "vergara")
SWEEP_ORDER_SEED = 0

WHY = {
    "sweep-alpha2-n8": (
        "the north-star sweep: run_batch over all 410 alpha <= 2 classes at n = 8, "
        "where plain immersion search (t_max_plain) is about 99% of the time"
    ),
    "enumerate-families": (
        "exhaustive enumeration with cold level caches (all graphs to n = 8, "
        "alpha <= 2 to n = 9), where canonical_form does almost all the work "
        "and immersion search does none"
    ),
    "certify-sampled": (
        "single-graph requests on seeded samples: strong odd search at small n, "
        "the ceil(n/3) builder and graph6 decode at n = 62"
    ),
}

SIZES = {
    "sweep-alpha2-n8": {"full": {"n": 8}, "smoke": {"n": 5}},
    "enumerate-families": {
        "full": {"all_max": 8, "alpha2_max": 9},
        "smoke": {"all_max": 5, "alpha2_max": 6},
    },
    "certify-sampled": {
        "full": {"small_n": 10, "small": 200, "large_n": 62, "large": 300},
        "smoke": {"small_n": 7, "small": 20, "large_n": 20, "large": 20},
    },
}

PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def high_percentile(count: int) -> float:
    """Highest listed percentile with at least 10 samples beyond it (else 50)."""
    best = 50
    for p in PERCENTILES:
        if count - math.ceil(p / 100 * count) >= 10:
            best = p
    return best


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_reference(name: str) -> str:
    return (REF_DIR / name).read_bytes().decode("ascii")


# ---------------------------------------------------------------- sweep


def sweep_setup(imm, size: dict, seed: int, workdir: Path) -> dict:
    words = [imm.encode_graph6(g) for g in imm.enumerate_alpha_le2(size["n"])]
    # Enumeration order puts the cheap graphs first and the expensive ones
    # last, so each latency percentile would be timed in one short stretch
    # of the run.  A fixed shuffle spreads every percentile over the whole
    # run; it does not depend on the run's seed.
    random.Random(SWEEP_ORDER_SEED).shuffle(words)
    source = workdir / "sweep.g6"
    source.write_text("".join(word + "\n" for word in words), encoding="ascii")
    return {"source": str(source), "out": str(workdir / "sweep.csv"), "count": len(words)}


def sweep_run(imm, inputs: dict, clock) -> dict:
    # Per-graph latency is taken at the evaluate_graph boundary, the
    # binding run_batch's serial path calls for every row.
    checks = imm.checks
    inner = checks.evaluate_graph
    latencies: list[float] = []

    def timed(*args, **kwargs):
        start = clock.now()
        try:
            return inner(*args, **kwargs)
        finally:
            latencies.append((clock.now() - start) * 1000)

    checks.evaluate_graph = timed
    try:
        start = clock.now()
        code = imm.run_batch(inputs["source"], SWEEP_CHECKS, workers=1, out=inputs["out"])
        wall = clock.now() - start
    finally:
        checks.evaluate_graph = inner
    if len(latencies) != inputs["count"]:
        raise RuntimeError(
            f"evaluate_graph ran {len(latencies)} times for {inputs['count']} graphs"
        )
    csv_text = Path(inputs["out"]).read_bytes().decode("ascii")
    return {
        "wall_s": wall,
        "items": inputs["count"],
        "latencies_ms": latencies,
        "outputs": {"exit_code": code, "csv": csv_text},
    }


def sweep_check(outputs: dict, size: dict, seed: int) -> tuple[int, int]:
    """A row fails when a status is not true or it differs from the reference."""
    reference = load_reference(f"sweep-alpha2-n{size['n']}.csv")
    expected = reference.split("\r\n")[:-1]
    got = outputs["csv"].split("\r\n")
    if got and got[-1] == "":
        got.pop()
    attempted = len(expected) - 1
    failed = 0
    for index in range(1, max(len(expected), len(got))):
        row = got[index] if index < len(got) else None
        if row is None or index >= len(expected) or row != expected[index]:
            failed += 1
            continue
        statuses = row.split(",")[7::2]
        if any(status != "true" for status in statuses):
            failed += 1
    if got[:1] != expected[:1]:
        failed += 1
    if outputs["exit_code"] != 0 or outputs["csv"] != reference:
        failed = max(failed, 1)
    return attempted, min(failed, attempted)


# ------------------------------------------------------------ enumerate


def enumerate_plan(size: dict) -> list[tuple[str, int]]:
    return [("all", n) for n in range(1, size["all_max"] + 1)] + [
        ("alpha2", n) for n in range(1, size["alpha2_max"] + 1)
    ]


def enumerate_setup(imm, size: dict, seed: int, workdir: Path) -> dict:
    return {"plan": enumerate_plan(size)}


def enumerate_run(imm, inputs: dict, clock) -> dict:
    levels = []
    latencies: list[float] = []
    total = 0.0
    for family, n in inputs["plan"]:
        generate = imm.enumerate_graphs if family == "all" else imm.enumerate_alpha_le2
        start = clock.now()
        words = [imm.encode_graph6(g) for g in generate(n)]
        elapsed = clock.now() - start
        total += elapsed
        # A level is produced at once, so each of its classes waits for
        # the whole level: its latency is the level's time.
        latencies += [elapsed * 1000] * len(words)
        levels.append((family, n, words))
    return {
        "wall_s": total,
        "items": len(latencies),
        "latencies_ms": latencies,
        "outputs": {
            "levels": [(family, n, len(words), digest("\n".join(words))) for family, n, words in levels]
        },
    }


def enumerate_check(outputs: dict, size: dict, seed: int) -> tuple[int, int]:
    """A level whose class count or word digest is wrong fails all its classes."""
    reference = json.loads(load_reference("enumerate-digests.json"))
    published = {"all": ALL_COUNTS, "alpha2": ALPHA2_COUNTS}
    got = {(family, n): (count, text) for family, n, count, text in outputs["levels"]}
    attempted = failed = 0
    for family, n in enumerate_plan(size):
        expected = published[family][n - 1]
        attempted += expected
        count, text = got.get((family, n), (0, None))
        if count != expected or text != reference[family][str(n)]:
            failed += max(count, expected)
    return attempted, min(failed, attempted)


# -------------------------------------------------------------- certify


def certify_setup(imm, size: dict, seed: int, workdir: Path) -> dict:
    requests = [
        ("small", imm.encode_graph6(g))
        for g in imm.sample_alpha_le2(size["small_n"], size["small"], seed)
    ] + [
        ("large", imm.encode_graph6(g))
        for g in imm.sample_alpha_le2(size["large_n"], size["large"], seed)
    ]
    random.Random(seed).shuffle(requests)
    return {"requests": requests}


def _serve(imm, kind: str, word: str) -> dict:
    g = imm.parse_graph6(word)
    if kind == "small":
        chi = imm.chromatic_number(g)[0]
        t, cert = imm.max_clique_immersion(g, imm.STRONG_ODD)
    else:
        chi = None
        cert = imm.build_third_immersion(g)
        t = cert.t
    accepted = imm.verify_certificate(g, cert, imm.STRONG_ODD).accepted
    return {"t": t, "chi": chi, "accepted": accepted, "cert": imm.certificate_to_json(cert, imm.STRONG_ODD)}


def certify_run(imm, inputs: dict, clock) -> dict:
    latencies: list[float] = []
    served = []
    begin = clock.now()
    for kind, word in inputs["requests"]:
        start = clock.now()
        try:
            reply = _serve(imm, kind, word)
        except Exception as exc:  # a request that raises is a failed item
            reply = {"error": repr(exc)}
        latencies.append((clock.now() - start) * 1000)
        served.append((kind, word, reply))
    wall = clock.now() - begin
    return {
        "wall_s": wall,
        "items": len(served),
        "latencies_ms": latencies,
        "outputs": {"served": served},
    }


def certify_reference_name(size: dict) -> str:
    return (
        f"certify-seed{DEFAULT_SEED}-n{size['small_n']}x{size['small']}"
        f"-n{size['large_n']}x{size['large']}.json"
    )


def request_digest(word: str, cert_json: str) -> str:
    return digest(word + "\n" + cert_json)[:16]


def certify_check(outputs: dict, size: dict, seed: int) -> tuple[int, int]:
    """A request fails on an error, a rejected certificate or a broken bound.

    Certificates are checked by this file's own verifier as well as the
    program's.  At the default seed every reply must also match the
    digest recorded in ref/ when the benchmark was added.
    """
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(load_reference(certify_reference_name(size)))
    served = outputs["served"]
    failed = 0
    for index, (kind, word, reply) in enumerate(served):
        ok = "error" not in reply and reply["accepted"] and certificate_ok(word, reply["cert"])
        if ok:
            t = json.loads(reply["cert"])["t"]
            n = ord(word[0]) - 63
            if kind == "small":
                ok = t == reply["t"] and reply["chi"] <= (3 * t + 1) // 2
            else:
                ok = t >= -(-n // 3)
        if ok and reference is not None:
            ok = index < len(reference) and reference[index] == request_digest(word, reply["cert"])
        failed += not ok
    return len(served), failed


def decode_graph6(word: str) -> list[set[int]]:
    """Adjacency sets from a single-size-byte graph6 word."""
    data = word.encode("ascii")
    n = data[0] - 63
    adjacency: list[set[int]] = [set() for _ in range(n)]
    stream = [(byte - 63) >> shift & 1 for byte in data[1:] for shift in range(5, -1, -1)]
    position = 0
    for v in range(1, n):
        for u in range(v):
            if stream[position]:
                adjacency[u].add(v)
                adjacency[v].add(u)
            position += 1
    return adjacency


def certificate_ok(word: str, cert_json: str) -> bool:
    """Independent check of a strong odd clique immersion certificate."""
    adjacency = decode_graph6(word)
    n = len(adjacency)
    cert = json.loads(cert_json)
    terminals = cert["terminals"]
    t = len(terminals)
    if cert["flags"] != {"strong": True, "odd": True} or cert["t"] != t or t < 1:
        return False
    if len(set(terminals)) != t or not all(isinstance(v, int) and 0 <= v < n for v in terminals):
        return False
    if set(cert["paths"]) != {f"{i},{j}" for i in range(t) for j in range(i + 1, t)}:
        return False
    used: set[frozenset] = set()
    for key, path in cert["paths"].items():
        i, j = map(int, key.split(","))
        if len(path) < 2 or not all(isinstance(v, int) and 0 <= v < n for v in path):
            return False
        if (path[0], path[-1]) != (terminals[i], terminals[j]) or len(set(path)) != len(path):
            return False
        if (len(path) - 1) % 2 == 0 or set(path[1:-1]) & set(terminals):
            return False
        for a, b in zip(path, path[1:]):
            edge = frozenset((a, b))
            if b not in adjacency[a] or edge in used:
                return False
            used.add(edge)
    return True


WORKLOADS = {
    "sweep-alpha2-n8": (sweep_setup, sweep_run, sweep_check),
    "enumerate-families": (enumerate_setup, enumerate_run, enumerate_check),
    "certify-sampled": (certify_setup, certify_run, certify_check),
}
