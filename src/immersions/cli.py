"""Command-line front end.

Every subcommand reads graph6 words from its arguments, prints JSON on
stdout, and reserves stderr for diagnostics.  Exit codes follow one
convention throughout: 0 success / all checks hold, 1 a semantic
negative (no immersion found, certificate rejected, some check failed),
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import string
import sys

from .checks import CHECK_NAMES, run_batch
from .coloring import chromatic_number
from .construct import build_third_immersion
from .families import enumerate_alpha_le2, enumerate_graphs, sample_alpha_le2
from .graphs import bits, max_independent_set, parse_graph6
from .immersion import (
    STRONG_ODD,
    ImmersionFlags,
    certificate_from_json,
    certificate_to_json,
    find_clique_immersion,
    max_clique_immersion,
    verify_certificate,
)


# Each --family choice as the generator of its graphs; a size cap is
# raised lazily, inside run_batch, so it exits 2 with its message.
_FAMILIES = {
    "alpha2": lambda args: enumerate_alpha_le2(args.n),
    "all": lambda args: enumerate_graphs(args.n),
    "sample": lambda args: sample_alpha_le2(
        args.n, 100 if args.count is None else args.count, args.seed or 0
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="immersions",
        description="Exact clique-immersion search, construction, and chromatic bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chromatic", help="exact chromatic number with a witness coloring")
    p.add_argument("graph6")

    p = sub.add_parser("alpha", help="independence number with a witness set")
    p.add_argument("graph6")

    p = sub.add_parser("immersion", help="exact clique-immersion search")
    imm = p.add_subparsers(dest="subcommand", required=True)
    q = imm.add_parser("find", help="find a K_t-immersion certificate, or report null")
    q.add_argument("--t", type=int, required=True, help="clique order to realize")
    q.add_argument("--strong", action="store_true", help="forbid terminals interior to paths")
    q.add_argument("--odd", action="store_true", help="require every path length odd")
    q.add_argument("graph6")
    q = imm.add_parser("max", help="largest clique order admitting an immersion")
    q.add_argument("--strong", action="store_true")
    q.add_argument("--odd", action="store_true")
    q.add_argument("graph6")

    p = sub.add_parser(
        "build-third",
        help="construct a strong odd immersion of order ceil(n/3) (needs alpha <= 2)",
    )
    p.add_argument("-v", "--verbose", action="store_true", help="trace recursion on stderr")
    p.add_argument("graph6")

    p = sub.add_parser("verify", help="check a certificate JSON against a host graph")
    p.add_argument("--cert", required=True, help="path to the certificate JSON file")
    p.add_argument("graph6")

    p = sub.add_parser("sweep", help="batch-check chromatic bounds over a graph family")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=tuple(_FAMILIES), help="generator family")
    group.add_argument("--input", help="path to a graph6 file, one word per line")
    p.add_argument("--n", type=int, help="vertex count for the generator family")
    p.add_argument("--count", type=int, help="sample size for --family sample (default 100)")
    p.add_argument("--seed", type=int, help="seed for --family sample (default 0)")
    p.add_argument(
        "--checks",
        default="main,appendix,vergara",
        help=f"comma-separated subset of: {', '.join(CHECK_NAMES)}",
    )
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=1)
    return parser


def _cmd_chromatic(args) -> int:
    g = parse_graph6(args.graph6)
    chi, cert = chromatic_number(g)
    print(json.dumps({"chi": chi, "coloring": list(cert.colors)}))
    return 0


def _cmd_alpha(args) -> int:
    g = parse_graph6(args.graph6)
    witness = sorted(bits(max_independent_set(g)))
    print(json.dumps({"alpha": len(witness), "witness": witness}))
    return 0


def _cmd_immersion(args) -> int:
    g = parse_graph6(args.graph6)
    flags = ImmersionFlags(strong=args.strong, odd=args.odd)
    if args.subcommand == "find":
        cert = find_clique_immersion(g, args.t, flags)
        if cert is None:
            print("null")
            return 1
        print(certificate_to_json(cert, flags))
        return 0
    t_max, cert = max_clique_immersion(g, flags)
    payload = json.loads(certificate_to_json(cert, flags))
    print(json.dumps({"t_max": t_max, "certificate": payload}, sort_keys=True))
    return 0


def _cmd_build_third(args) -> int:
    g = parse_graph6(args.graph6)
    trace: list[str] | None = [] if args.verbose else None
    cert = build_third_immersion(g, trace)
    if trace:
        for line in trace:
            print(line, file=sys.stderr)
    print(certificate_to_json(cert, STRONG_ODD))
    return 0


def _cmd_verify(args) -> int:
    g = parse_graph6(args.graph6)
    with open(args.cert, "r", encoding="ascii") as handle:
        cert, flags = certificate_from_json(handle.read())
    report = verify_certificate(g, cert, flags)
    print(json.dumps({"accepted": report.accepted, "violations": list(report.violations)}))
    return 0 if report.accepted else 1


def _cmd_sweep(args) -> int:
    checks = tuple(name.strip(string.whitespace) for name in args.checks.split(","))
    if args.family is not None and args.n is None:
        print("error: --family requires --n", file=sys.stderr)
        return 2
    if args.family is None and args.n is not None:
        print("error: --n applies only to --family", file=sys.stderr)
        return 2
    if args.family != "sample" and (args.count is not None or args.seed is not None):
        print("error: --count and --seed apply only to --family sample", file=sys.stderr)
        return 2
    source = args.input if args.family is None else _FAMILIES[args.family](args)
    return run_batch(source, checks, workers=args.workers, out=args.out, fmt=args.format)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "chromatic": _cmd_chromatic,
        "alpha": _cmd_alpha,
        "immersion": _cmd_immersion,
        "build-third": _cmd_build_third,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
