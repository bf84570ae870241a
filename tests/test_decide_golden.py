"""Every _decide result on the small graphs pinned by one digest.

_decide is the decision every climb and every find_clique_immersion
call makes: the first terminal set in colex order that passes the
decision pass at order t, or None.  The digest is the sha256 of one line
per call, "<graph6> <flags> <t> <result>", over every graph with
1 <= n <= 7 in the order enumerate_graphs yields them, under the plain,
strong, odd and strong odd flags, for t = 1..n+1, each graph's calls
sharing one _SearchIndex as a sweep row's climbs do: 38,908 calls.  A
change to a pruning rule, the candidate filter or the colex walk that
moves any terminal set, or a refusal, shows up here.

Print the digest of the current code with:

    PYTHONPATH=src python3 tests/test_decide_golden.py --print
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from immersions import encode_graph6, enumerate_graphs
from immersions.immersion import ODD, PLAIN, STRONG, STRONG_ODD, _decide, _SearchIndex

MAX_N = 7
CALLS = 38908
DIGEST = "f1e26a0d2f6133654dbece6ffe1a15923e00790d3e9516fda9d9003187434afb"


def decide_lines(graphs_by_n) -> list[str]:
    lines = []
    for n in range(1, MAX_N + 1):
        for g in graphs_by_n[n]:
            word = encode_graph6(g)
            index = _SearchIndex(g)
            for flags in (PLAIN, STRONG, ODD, STRONG_ODD):
                label = flags.label()
                for t in range(1, n + 2):
                    lines.append(f"{word} {label} {t} {_decide(index, t, flags)}")
    return lines


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def test_decide_digest(all_graphs_by_n):
    lines = decide_lines(all_graphs_by_n)
    assert len(lines) == CALLS
    assert digest(lines) == DIGEST


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--print", action="store_true", help="print the count and digest instead of checking them")
    args = parser.parse_args(argv)
    lines = decide_lines({n: list(enumerate_graphs(n)) for n in range(1, MAX_N + 1)})
    if args.print:
        print(f"CALLS = {len(lines)}")
        print(f'DIGEST = "{digest(lines)}"')
        return 0
    if (len(lines), digest(lines)) != (CALLS, DIGEST):
        print(f"{len(lines)} calls, digest {digest(lines)}", file=sys.stderr)
        return 1
    print(f"all {CALLS} _decide results match the pinned digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
