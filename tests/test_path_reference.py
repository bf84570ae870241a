"""The path router and the verifier against their references in oracles.

Both came to read adjacency bitmasks: the router extends a path only
over the open neighbors of its end, and with two edges left only over
those that are also neighbors of the far terminal, and the verifier
checks each path in one walk, on one vertex mask and one int of edge
bits.  Their references are the per-edge versions they replaced, so
every certificate and every verifier outcome must stay the same.

The alpha <= 2 classes at n = 9 (1,897) take longer than Tier-1 should
spend on this; compare their certificates under the plain, strong and
strong odd flags, and the odd-only certificates of the 410 classes at
n = 8, and the verifier's outcome on each and on one broken variant of
each, with:

    PYTHONPATH=src python3 tests/test_path_reference.py --n9

Odd-only search at n = 9 is left out: it costs far more than the other
settings there.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import random
import sys
from pathlib import Path

import oracles
from immersions import (
    ODD,
    PLAIN,
    STRONG,
    STRONG_ODD,
    ImmersionCertificate,
    MalformedCertificateError,
    certificate_from_json,
    encode_graph6,
    enumerate_alpha_le2,
    find_clique_immersion,
    max_clique_immersion,
    parse_graph6,
    verify_certificate,
)
from immersions import immersion as immersion_module
from common import random_graph

ALL_FLAGS = (PLAIN, STRONG, ODD, STRONG_ODD)
ROUTER = immersion_module._solve_pairs
GOLDEN = Path(__file__).parent / "data" / "golden_immersions.jsonl.gz"


def climbs(graphs, flags, solve_pairs) -> list:
    """max_clique_immersion on each graph, its pairs routed by solve_pairs."""
    immersion_module._solve_pairs = solve_pairs
    try:
        return [max_clique_immersion(g, flags) for g in graphs]
    finally:
        immersion_module._solve_pairs = ROUTER


def first_mismatch(graphs, flags, got) -> str | None:
    """The graph6 word of the first graph whose certificate in got, the
    climbs' own, differs from the reference router's, or None."""
    want = climbs(graphs, flags, oracles.reference_solve_pairs)
    return next((encode_graph6(g) for g, a, b in zip(graphs, got, want) if a != b), None)


def test_certificates_match_the_reference_router(all_graphs_small, alpha2_by_n):
    """Every graph with n <= 6 and every alpha <= 2 class with n <= 7,
    under every flag setting."""
    graphs = [g for n in range(1, 7) for g in all_graphs_small[n]]
    graphs += alpha2_by_n[7]
    for flags in ALL_FLAGS:
        assert first_mismatch(graphs, flags, climbs(graphs, flags, ROUTER)) is None, flags


def outcome(verify, g, cert, flags):
    """The report, or the type and message of the malformation raised."""
    try:
        return verify(g, cert, flags)
    except MalformedCertificateError as exc:
        return type(exc).__name__, str(exc)


def random_walk(rng: random.Random, g, a: int, b: int) -> tuple[int, ...]:
    """a, up to five random steps (one in eight off any edge), then b."""
    path = [a]
    for _ in range(rng.randrange(6)):
        row = g.adj[path[-1]]
        if row and rng.random() < 7 / 8:
            path.append(rng.choice([w for w in range(g.n) if row >> w & 1]))
        else:
            path.append(rng.randrange(g.n))
    return (*path, b)


def breakages(rng: random.Random, g, cert) -> list[ImmersionCertificate]:
    """cert with one path broken in each of four ways, at one seeded
    pair; with no pair, cert with a repeated terminal."""
    if not cert.paths:
        v = cert.terminals[0]
        return [ImmersionCertificate((v, v), {(0, 1): (v, v)})]
    pair = rng.choice(sorted(cert.paths))
    path = cert.paths[pair]
    spot = rng.randrange(1, len(path))
    return [
        ImmersionCertificate(cert.terminals, {**cert.paths, pair: broken})
        for broken in (
            path[::-1],  # wrong ends
            path[:spot] + (rng.choice(path),) + path[spot:],  # a repeated vertex, maybe
            path[:spot] + (rng.randrange(g.n),) + path[spot:],  # maybe a non-edge
            cert.paths[rng.choice(sorted(cert.paths))],  # another pair's path
        )
    ]


def broken_certificates(rng: random.Random, g):
    """Certificates of g to verify: the search's own, each with one path
    broken, random path systems, and some with bad pair keys."""
    for t in range(2, g.n + 1):
        cert = find_clique_immersion(g, t, rng.choice(ALL_FLAGS))
        if cert is None:
            break
        yield cert
        yield from breakages(rng, g, cert)
    t = rng.randint(1, min(g.n, 5))
    terminals = rng.sample(range(g.n), t)
    if rng.random() < 0.1:
        terminals[-1] = terminals[0]
    paths = {
        (i, j): random_walk(rng, g, terminals[i], terminals[j])
        for i, j in itertools.combinations(range(t), 2)
    }
    yield ImmersionCertificate(tuple(terminals), paths)
    if paths:
        del paths[rng.choice(sorted(paths))]
    paths[(t - 1, t)] = (terminals[-1], terminals[0])
    yield ImmersionCertificate(tuple(terminals), paths)


def test_verifier_matches_the_reference():
    """Valid and broken certificates on seeded random graphs: every
    outcome under every flag setting equals the reference verifier's, and
    each kind of breakage shows up."""
    rng = random.Random(27)
    seen: set[str] = set()
    kinds = {
        "accepted": None, "ends": "does not run from", "repeat": "repeats a vertex",
        "non-edge": "uses the non-edge", "reuse": "reused by pairs", "even": "has even length",
        "interior": "is interior to", "distinct": "not pairwise distinct", "keys": "pair keys",
    }
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 7), rng.choice((0.4, 0.6, 0.8)))
        for cert in broken_certificates(rng, g):
            for flags in ALL_FLAGS:
                got = outcome(verify_certificate, g, cert, flags)
                assert got == outcome(oracles.reference_verify_certificate, g, cert, flags), (
                    sorted(g.edges()), cert, flags,
                )
                text = repr(got)
                seen |= {kind for kind, marker in kinds.items() if marker and marker in text}
                if getattr(got, "accepted", False):
                    seen.add("accepted")
    assert seen == set(kinds)


def same_verdicts(rng: random.Random, g, cert, settings) -> bool:
    """Whether the verifier and its reference agree on cert and on one
    seeded breakage of it, under each flag setting of settings."""
    broken = rng.choice(breakages(rng, g, cert))
    return all(
        outcome(verify_certificate, g, c, flags) == outcome(oracles.reference_verify_certificate, g, c, flags)
        for c in (cert, broken)
        for flags in settings
    )


def test_verifier_matches_the_reference_on_the_golden_corpus():
    """The 5,828 certificates of the golden corpus, as stored and with
    one seeded breakage, under their own flags and one other setting."""
    rng = random.Random(36)
    with gzip.open(GOLDEN, "rt", encoding="ascii") as handle:
        rows = [json.loads(line) for line in handle]
    assert len(rows) == 5828
    graphs = {word: parse_graph6(word) for word, *_ in rows}  # a graph with n <= 7 has four rows
    for word, _, _, text in rows:
        g = graphs[word]
        cert, flags = certificate_from_json(text)
        other = rng.choice([f for f in ALL_FLAGS if f != flags])
        assert same_verdicts(rng, g, cert, (flags, other)), (word, text, other)


def check_n9() -> int:
    """Compare the certificates of the alpha <= 2 classes at n = 9, and
    the odd-only ones at n = 8, and the verifier's outcome on each and
    on one broken variant of each."""
    status = 0
    rng = random.Random(9)
    for n, settings in ((9, (PLAIN, STRONG, STRONG_ODD)), (8, (ODD,))):
        graphs = list(enumerate_alpha_le2(n))
        for flags in settings:
            got = climbs(graphs, flags, ROUTER)
            word = first_mismatch(graphs, flags, got)
            if word is not None:
                print(f"n = {n}, {flags.label()}: {word} differs from the reference router", file=sys.stderr)
                status = 1
            else:
                print(f"n = {n}, {flags.label()}: all {len(graphs)} certificates match the reference router")
            word = next((encode_graph6(g) for g, (_, cert) in zip(graphs, got)
                         if not same_verdicts(rng, g, cert, (flags,))), None)
            if word is not None:
                print(f"n = {n}, {flags.label()}: the verifier judges {word} unlike its reference", file=sys.stderr)
                status = 1
            else:
                print(f"n = {n}, {flags.label()}: the verifier agrees with its reference on all {len(graphs)}"
                      " certificates and a broken variant of each")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n9", action="store_true", help="compare the alpha <= 2 classes at n = 9, and odd-only at n = 8")
    if not parser.parse_args(argv).n9:
        parser.error("nothing to do without --n9; run the rest with pytest")
    return check_n9()


if __name__ == "__main__":
    sys.exit(main())
