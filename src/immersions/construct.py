"""Constructive strong odd immersions in graphs with independence number 2.

`build_third_immersion` turns the existence proof of the guaranteed
K_{ceil(n/3)} strong odd immersion into an algorithm.  The key fact,
used throughout, is that when alpha(G) <= 2 the non-neighborhood of any
vertex is a clique, and a clique carries a trivial single-edge
certificate that is both strong and odd.  The builder branches:

1. a vertex x of degree <= floor(2n/3) - 1 makes its non-neighborhood a
   clique of size >= ceil(n/3);
2. a graph with no independent pair is complete and takes its first
   ceil(n/3) vertices;
3. otherwise remove the lex-least independent pair {u, v}, recurse,
   trim the recursive certificate to exactly k = ceil((n-2)/3)
   terminals, and promote v to a new terminal: v reaches adjacent
   terminals by direct edges and each remaining terminal t through a
   path (v, w, u, t) over a distinct common neighbor w of u and v that
   avoids the old terminals.

Step 3 never fails.  It runs only when every degree is at least
floor(2n/3).  With A = N(u) - N(v), B = N(v) - N(u) and C = N(u) & N(v),
alpha <= 2 puts every other vertex in A, B or C, so |A|+|B|+|C| = n - 2,
and adding the bounds |A|+|C|, |B|+|C| >= floor(2n/3) gives
|C| >= 2 floor(2n/3) - n + 2 >= k + 1 for every residue of n mod 3.  A
terminal t that v misses lies in A, and u is adjacent to it since
{u, v, t} is not independent.  With M the missed terminals, at most
k - |M| terminals lie in C, so |C - terminals| >= |C| - k + |M| > |M|.

Step 3 itself, given that u is adjacent to every terminal v misses and
that enough common neighbors lie off the terminals, holds in any graph:
alpha <= 2 only guarantees those two conditions.  Its test,
immersion._extends, also serves the immersion climbs, which start one
past the clique number when it holds for a maximum clique as the base.

Steps 1 and 2 make their certificates through immersion's
_clique_certificate, as clique_certificate does after its argument
checks, which the builder's own ascending int terminals do not need.
Step 1's clique is asserted through graphs._is_clique, is_clique's walk
without its argument checks, since the clique is a mask of live.  Each
step 3 certificate is verified in an assert, and the appendix check
verifies every certificate the builder returns.
"""

from __future__ import annotations

from .errors import (
    DegenerateInputError,
    IndependencePreconditionError,
    PreconditionError,
)
from .graphs import (
    Graph,
    _is_clique,
    _require_int,
    _require_type,
    mask_of,
    max_independent_set,
)
from .immersion import (
    STRONG_ODD,
    ImmersionCertificate,
    Path,
    _clique_certificate,
    _extends,
    verify_certificate,
)


def _vertices(mask: int) -> list[int]:
    """list(bits(mask)) in one call: the vertices of mask, ascending."""
    vertices = []
    while mask:
        low = mask & -mask
        vertices.append(low.bit_length() - 1)
        mask ^= low
    return vertices


def _trim_certificate(cert: ImmersionCertificate, k: int) -> ImmersionCertificate:
    """Keep the k lowest terminals (_build returns them ascending) and their paths."""
    paths = {(i, j): path for (i, j), path in cert.paths.items() if j < k}
    return ImmersionCertificate(cert.terminals[:k], paths)


def extension_step(
    g: Graph, u: int, v: int, base: ImmersionCertificate
) -> ImmersionCertificate | None:
    """Promote v to a terminal of base using u as the detour vertex.

    base must be a strong odd certificate living in g - {u, v}.  Every
    terminal t adjacent to v is reached by the direct edge; every other
    terminal is reached by the odd path (v, w, u, t) through a distinct
    common neighbor w of u and v outside the terminals, provided u is
    adjacent to t.  The enlarged certificate lists its terminals
    ascending, whatever the order of base's.  Returns None when the
    common neighbors cannot cover the non-adjacent terminals.
    """
    _require_type(g, Graph, "g")
    _require_int(u, "vertex u")
    _require_int(v, "vertex v")
    _require_type(base, ImmersionCertificate, "base")
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise PreconditionError(f"need two distinct vertices, got {u}, {v}")
    if g.has_edge(u, v):
        raise PreconditionError(f"vertices {u} and {v} are adjacent, not an independent pair")
    forbidden = 1 << u | 1 << v
    if mask_of(base.terminals) & forbidden:
        raise PreconditionError("base terminals must avoid u and v")
    for path in base.paths.values():
        if mask_of(path) & forbidden:
            raise PreconditionError("base paths must avoid u and v")
    report = verify_certificate(g, base, STRONG_ODD)
    if not report.accepted:
        raise PreconditionError(
            f"base certificate rejected under strong+odd: {report.violations[0]}"
        )
    return _extend(g, u, v, base)


def _extend(g: Graph, u: int, v: int, base: ImmersionCertificate) -> ImmersionCertificate | None:
    """extension_step on inputs known to meet its preconditions."""
    adj = g.adj
    term_mask = mask_of(base.terminals)
    if not _extends(adj, term_mask, u, v):
        return None
    missing = _vertices(term_mask & ~adj[v])
    common = _vertices(adj[u] & adj[v] & ~term_mask)
    terminals = tuple(sorted(base.terminals + (v,)))
    position = {t: i for i, t in enumerate(terminals)}
    assigned = dict(zip(missing, common))
    to_v = [(t, u, assigned[t], v) if t in assigned else (t, v) for t in base.terminals]
    paths: dict[tuple[int, int], Path] = {}
    for path in [*base.paths.values(), *to_v]:
        a, b = position[path[0]], position[path[-1]]
        paths[(a, b) if a < b else (b, a)] = path if a < b else path[::-1]
    enlarged = ImmersionCertificate(terminals, paths)
    check = verify_certificate(g, enlarged, STRONG_ODD)
    assert check.accepted, f"extension produced an invalid certificate: {check.violations}"
    return enlarged


def build_third_immersion(g: Graph, trace: list[str] | None = None) -> ImmersionCertificate:
    """Strong odd certificate with at least ceil(n/3) terminals, alpha <= 2.

    Given a list as trace, the builder appends one line per branch it
    takes (build-third -v prints them); with None it formats none.
    """
    _require_type(g, Graph, "g")
    if trace is not None:
        _require_type(trace, list, "trace")
    if g.n == 0:
        raise DegenerateInputError("no terminals exist in the empty graph")
    witness = max_independent_set(g)
    if witness.bit_count() >= 3:
        triple = tuple(_vertices(witness)[:3])
        raise IndependencePreconditionError(
            f"independence number exceeds 2: vertices {triple} are pairwise nonadjacent",
            triple,
        )
    return _build(g, g.vertex_mask, trace)


def _build(g: Graph, live: int, trace: list[str] | None) -> ImmersionCertificate:
    """The builder on the subgraph induced by live, in the input's
    labels; g has no edge that leaves live.  Each branch taken is
    written to trace as a line, unless trace is None."""
    n = live.bit_count()
    target = -(-n // 3)
    degree_cap = 2 * n // 3 - 1
    adj = g.adj
    rest = live
    while rest:  # bits(live) inlined, here and below: ascending
        low = rest & -rest
        rest ^= low
        x = low.bit_length() - 1
        if (adj[x] & live).bit_count() <= degree_cap:
            clique = live & ~adj[x] & ~low
            assert _is_clique(adj, clique) and clique.bit_count() >= target
            if trace is not None:
                trace.append(f"n={n} branch=low-degree x={x} t={clique.bit_count()}")
            return _clique_certificate(_vertices(clique))
    rest = live
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        later = (live & ~adj[u]) >> (u + 1) << (u + 1)
        if later:
            v = (later & -later).bit_length() - 1
            break
    else:
        if trace is not None:
            trace.append(f"n={n} branch=complete t={target}")
        return _clique_certificate(_vertices(live)[:target])

    sub_mask = live & ~(1 << u) & ~(1 << v)
    sub = Graph._unchecked(g.n, tuple(row & sub_mask if sub_mask >> w & 1 else 0 for w, row in enumerate(adj)))
    base = _trim_certificate(_build(sub, sub_mask, trace), -(-(n - 2) // 3))

    # base is the recursion's own, trimmed: a clique's certificate or one _extend verified.
    extended = _extend(g, u, v, base)
    assert extended is not None, "every degree >= floor(2n/3) leaves enough common neighbors"
    if trace is not None:
        trace.append(f"n={n} branch=extend pair=({u},{v}) t={extended.t}")
    return extended
