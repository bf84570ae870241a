"""Constructive strong odd immersions in graphs with independence number 2.

`build_third_immersion` turns the existence proof of the guaranteed
K_{ceil(n/3)} strong odd immersion into an algorithm.  The key fact,
used throughout, is that when alpha(G) <= 2 the non-neighborhood of any
vertex is a clique, and a clique carries a trivial single-edge
certificate that is both strong and odd.  The builder branches:

1. a vertex x of degree <= floor(2n/3) - 1 makes its non-neighborhood a
   clique of size >= ceil(n/3);
2. a complete graph takes its first ceil(n/3) vertices;
3. otherwise remove the lex-least independent pair {u, v}, recurse,
   trim the recursive certificate to exactly ceil((n-2)/3) terminals,
   and try to promote v to a new terminal: v reaches adjacent terminals
   by direct edges and each remaining terminal t through a path
   (v, w, u, t) over a distinct common neighbor w of u and v that
   avoids the old terminals;
4. if too few common neighbors exist, the non-neighbors of u outside
   the old terminals, together with v, form a clique of size
   >= ceil(n/3).
"""

from __future__ import annotations

from .errors import (
    DegenerateInputError,
    IndependencePreconditionError,
    PreconditionError,
)
from .graphs import (
    Graph,
    bits,
    complement,
    induced_subgraph,
    is_clique,
    mask_of,
    max_clique,
    non_neighborhood,
)
from .immersion import (
    STRONG_ODD,
    ImmersionCertificate,
    Path,
    clique_certificate,
    verify_certificate,
)


def _relabel_certificate(cert: ImmersionCertificate, mapping: dict[int, int]) -> ImmersionCertificate:
    terminals = tuple(mapping[v] for v in cert.terminals)
    paths = {pair: tuple(mapping[v] for v in path) for pair, path in cert.paths.items()}
    return ImmersionCertificate(terminals, paths)


def _sort_terminals(cert: ImmersionCertificate) -> ImmersionCertificate:
    order = sorted(range(cert.t), key=lambda i: cert.terminals[i])
    position = {old: new for new, old in enumerate(order)}
    terminals = tuple(cert.terminals[i] for i in order)
    paths: dict[tuple[int, int], Path] = {}
    for (i, j), path in cert.paths.items():
        a, b = position[i], position[j]
        if a > b:
            a, b = b, a
            path = path[::-1]
        paths[(a, b)] = path
    return ImmersionCertificate(terminals, paths)


def _trim_certificate(cert: ImmersionCertificate, k: int) -> ImmersionCertificate:
    """Keep the k lowest-indexed terminals and their pairwise paths."""
    if cert.t <= k:
        return cert
    cert = _sort_terminals(cert)
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
    adjacent to t.  Returns None when the common neighbors cannot cover
    the non-adjacent terminals.
    """
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise PreconditionError(f"need two distinct vertices, got {u}, {v}")
    if g.has_edge(u, v):
        raise PreconditionError(f"vertices {u} and {v} are adjacent, not an independent pair")
    forbidden = 1 << u | 1 << v
    if mask_of(base.terminals) & forbidden:
        raise PreconditionError("base terminals must avoid u and v")
    for _, path in sorted(base.paths.items()):
        if mask_of(path) & forbidden:
            raise PreconditionError("base paths must avoid u and v")
    report = verify_certificate(g, base, STRONG_ODD)
    if not report.accepted:
        raise PreconditionError(
            f"base certificate rejected under strong+odd: {report.violations[0]}"
        )

    term_mask = mask_of(base.terminals)
    missing = sorted(t for t in base.terminals if not g.has_edge(v, t))
    if any(not g.has_edge(u, t) for t in missing):
        return None
    outside = g.vertex_mask & ~forbidden & ~term_mask
    common = list(bits(g.adj[u] & g.adj[v] & outside))
    if len(common) < len(missing):
        return None

    new_paths: dict[tuple[int, int], Path] = dict(base.paths)
    new_index = base.t
    assigned = dict(zip(missing, common))
    for i, t in enumerate(base.terminals):
        if t in assigned:
            new_paths[(i, new_index)] = (t, u, assigned[t], v)
        else:
            new_paths[(i, new_index)] = (t, v)
    enlarged = _sort_terminals(ImmersionCertificate(base.terminals + (v,), new_paths))
    check = verify_certificate(g, enlarged, STRONG_ODD)
    assert check.accepted, f"extension produced an invalid certificate: {check.violations}"
    return enlarged


def build_third_immersion(g: Graph, trace: list[str] | None = None) -> ImmersionCertificate:
    """Strong odd certificate with at least ceil(n/3) terminals, alpha <= 2."""
    if g.n == 0:
        raise DegenerateInputError("no terminals exist in the empty graph")
    size, witness = max_clique(complement(g))
    if size >= 3:
        triple = tuple(sorted(bits(witness)))[:3]
        raise IndependencePreconditionError(
            f"independence number exceeds 2: vertices {triple} are pairwise nonadjacent",
            triple,
        )
    return _build(g, trace, tuple(range(g.n)))


def _build(g: Graph, trace: list[str] | None, names: tuple[int, ...]) -> ImmersionCertificate:
    """The builder on g, whose vertex i is vertex names[i] of the input graph."""
    n = g.n
    target = -(-n // 3)
    degree_cap = 2 * n // 3 - 1
    for x in range(n):
        if g.degree(x) <= degree_cap:
            clique = non_neighborhood(g, x)
            assert is_clique(g, clique) and clique.bit_count() >= target
            if trace is not None:
                trace.append(f"n={n} branch=low-degree x={names[x]} t={clique.bit_count()}")
            return clique_certificate(bits(clique))
    if g.edge_count == n * (n - 1) // 2:
        if trace is not None:
            trace.append(f"n={n} branch=complete t={target}")
        return clique_certificate(range(target))

    pair = None
    for u in range(n):
        rest = non_neighborhood(g, u) >> (u + 1) << (u + 1)
        if rest:
            pair = (u, next(bits(rest)))
            break
    assert pair is not None, "non-complete graph has an independent pair"
    u, v = pair
    sub_mask = g.vertex_mask & ~(1 << u) & ~(1 << v)
    sub, relabel = induced_subgraph(g, sub_mask)
    base = _build(sub, trace, tuple(names[w] for w in bits(sub_mask)))
    base = _trim_certificate(base, -(-(n - 2) // 3))
    inverse = {new: old for old, new in relabel.items()}
    base = _relabel_certificate(base, inverse)

    extended = extension_step(g, u, v, base)
    if extended is not None:
        if trace is not None:
            trace.append(f"n={n} branch=extend pair=({names[u]},{names[v]}) t={extended.t}")
        return extended
    outside = sub_mask & ~mask_of(base.terminals)
    clique = (non_neighborhood(g, u) & outside) | 1 << v
    assert is_clique(g, clique) and clique.bit_count() >= target
    if trace is not None:
        trace.append(f"n={n} branch=clique-fallback pair=({names[u]},{names[v]}) t={clique.bit_count()}")
    return clique_certificate(bits(clique))
