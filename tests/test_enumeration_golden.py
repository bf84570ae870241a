"""Every enumerated level pinned by its class count and the digest of
its graph6 words.

Each digest is the sha256 of the "\\n"-joined graph6 words of one
level, in the order the enumerator yields them: all graphs for
n = 1..8 and alpha <= 2 graphs for n = 1..10.  The values for n <= 9
were written by the enumerator that canonicalized every child of every
parent, before generation was restricted to maximum-degree
augmentations; the alpha <= 2 value for n = 10 was written by the
maximum-degree generator, before the twin and f-maximality rules.  No
digest moved when the top-class rule replaced the f-maximality rule
and each child came to be refined once, its colors shared by that rule
and the canonical search.  A change to the generator that drops a
class, adds one, or reorders a level shows up here.  The counts are
the published ones (OEIS A000088 for all graphs, A006785 for
triangle-free graphs, whose complements are the alpha <= 2 graphs).

Print the digests of the current code with:

    PYTHONPATH=src python3 tests/test_enumeration_golden.py

The alpha <= 2 level at n = 11 (105,071 classes) lies past the public
cap of n = 10 and takes about 15 s, so Tier-1 leaves it out; check it,
from the private level builder, with:

    PYTHONPATH=src python3 tests/test_enumeration_golden.py --n11
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import pytest

import immersions.families as families
import oracles
from immersions import complement, encode_graph6, enumerate_alpha_le2, enumerate_graphs

FAMILIES = {"all": enumerate_graphs, "alpha2": enumerate_alpha_le2}
COUNTS = {"all": oracles.ALL_GRAPH_COUNTS, "alpha2": oracles.TRIANGLE_FREE_COUNTS}

DIGESTS = {
    ("all", 1): "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    ("all", 2): "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    ("all", 3): "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4",
    ("all", 4): "c2358ed80eda8f62dcaf61a18b1f7f660bafe54c4c53a2c9dc32611f615f94ec",
    ("all", 5): "974ec45f4597d4dbbf44a71dee314e9556d6c06dc9c2e23df23a64e436522b6e",
    ("all", 6): "f6b6191402a636eef7f28881b2b308465c5fbc4476e9acc5435f8480b61def40",
    ("all", 7): "22ca11d429e1989e3903db539b19ed090adf3ac052a656576db2a178e44fb96a",
    ("all", 8): "e07b51ee5e5f52ce7f5cb048a3ddad2a05b2221a820b072e05c1d7c50510439f",
    ("alpha2", 1): "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    ("alpha2", 2): "fa296c68cb38bf2774ccecd4237a0f10b85537a68f8b96dc467bdb3eb3a0914a",
    ("alpha2", 3): "c97628a15a3e5daa2fa8948699e5d88f6548c134faa5a27deb4aacadbae7cdf9",
    ("alpha2", 4): "67e4bf233fa7cca6b0f831a31d5951faa439f1d58593a039a65a8e8fbd778e08",
    ("alpha2", 5): "2082acf652a882fbcc491a9c00334009259f2a1301e16747eb9ffd9ddbd90146",
    ("alpha2", 6): "e3b28ac5b33968c9fc2f5e2d2e8e513029b0592533ba9dec7c377d2f9d8ee313",
    ("alpha2", 7): "0b4c257db343c6c740cbcf5a14ef1133ffbec9c3446ab29066928397b7fda41f",
    ("alpha2", 8): "f61a1493af868507094ced649638ceea6a39bd3d0cdbadf6d0985a460bf3db4c",
    ("alpha2", 9): "b15007b06feeefd16742d012bf1fe08ff942dd74ead49ec7f1d272224b49a9c4",
    ("alpha2", 10): "309cb588ca238e7e84e29f1336421778f6f71c12b02067e01d4e0e188609858c",
}


# Written by the generator before automorphisms of the parent cut its
# children (the count is A006785's).
N11_COUNT = 105071
N11_DIGEST = "9e5fb014daba46a39a55808a7fb134906131bb1c613145684a932304e8df1170"


def level_words(family: str, n: int) -> list[str]:
    return [encode_graph6(g) for g in FAMILIES[family](n)]


def digest(words: list[str]) -> str:
    return hashlib.sha256("\n".join(words).encode("ascii")).hexdigest()


@pytest.mark.parametrize("family,n", sorted(DIGESTS))
def test_level_digest(family, n):
    words = level_words(family, n)
    assert len(words) == COUNTS[family][n]
    assert digest(words) == DIGESTS[family, n]


def check_n11() -> int:
    """Compare the alpha <= 2 level at n = 11 with its pinned count and digest."""
    words = [encode_graph6(complement(g)) for g in families._level(11, True)[0]]
    if (len(words), digest(words)) != (N11_COUNT, N11_DIGEST):
        print(f"n = 11: {len(words)} classes, digest {digest(words)}", file=sys.stderr)
        return 1
    print(f"n = 11: all {N11_COUNT} classes match the pinned digest")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n11", action="store_true", help="check the alpha <= 2 level at n = 11 instead of printing")
    if parser.parse_args(argv).n11:
        return check_n11()
    for family, n in sorted(DIGESTS):
        print(f'    ("{family}", {n}): "{digest(level_words(family, n))}",')
    return 0


if __name__ == "__main__":
    sys.exit(main())
