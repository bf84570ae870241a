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

The second half of the module implements the path-type machinery from
the chromatic-bound proof: given a join of two sides, each carrying a
minimized immersion support, it classifies every side vertex by role
and grows a family of short odd paths from a leftover vertex toward the
unsolved terminals, using four fixed templates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateInputError,
    IndependencePreconditionError,
    PreconditionError,
)
from .coloring import JoinPartition
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
    ImmersionFlags,
    Path,
    clique_certificate,
    find_clique_immersion,
    max_clique_immersion,
    minimize_support,
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
    return _build(g, trace)


def _build(g: Graph, trace: list[str] | None) -> ImmersionCertificate:
    n = g.n
    target = -(-n // 3)
    degree_cap = 2 * n // 3 - 1
    for x in range(n):
        if g.degree(x) <= degree_cap:
            clique = non_neighborhood(g, x)
            assert is_clique(g, clique) and clique.bit_count() >= target
            if trace is not None:
                trace.append(f"n={n} branch=low-degree x={x} t={clique.bit_count()}")
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
    base = _build(sub, trace)
    base = _trim_certificate(base, -(-(n - 2) // 3))
    inverse = {new: old for old, new in relabel.items()}
    base = _relabel_certificate(base, inverse)

    extended = extension_step(g, u, v, base)
    if extended is not None:
        if trace is not None:
            trace.append(f"n={n} branch=extend pair=({u},{v}) t={extended.t}")
        return extended
    outside = sub_mask & ~mask_of(base.terminals)
    clique = (non_neighborhood(g, u) & outside) | 1 << v
    assert is_clique(g, clique) and clique.bit_count() >= target
    if trace is not None:
        trace.append(f"n={n} branch=clique-fallback pair=({u},{v}) t={clique.bit_count()}")
    return clique_certificate(bits(clique))


@dataclass(frozen=True)
class SideSupport:
    """Role decomposition of one side of a join.

    part is the side's vertex set X; support is an inclusion-minimal
    M ⊆ X whose induced subgraph still carries the side's maximum
    immersion (order `order`); terminals ⊆ support are the witness
    terminals recomputed inside the support; nonterminals is the rest
    of the support; leftover is X minus the support.  Nonterminals
    split into detached (no neighbor in the leftover) and attached.
    """

    part: int
    order: int
    support: int
    terminals: int
    nonterminals: int
    detached: int
    attached: int
    leftover: int


@dataclass(frozen=True)
class JoinStructure:
    host: Graph
    side1: SideSupport
    side2: SideSupport

    def side_of(self, v: int) -> SideSupport:
        if self.side1.part >> v & 1:
            return self.side1
        if self.side2.part >> v & 1:
            return self.side2
        raise PreconditionError(f"vertex {v} is on neither side of the join")

    def other_side(self, v: int) -> SideSupport:
        return self.side2 if self.side1.part >> v & 1 else self.side1

    @property
    def terminal_mask(self) -> int:
        return self.side1.terminals | self.side2.terminals


@dataclass(frozen=True)
class ExtensionState:
    """Growing family of odd paths from source toward unresolved terminals."""

    source: int
    solved_paths: tuple[Path, ...]
    unresolved: int


def classify_support(g: Graph, jp: JoinPartition, flags: ImmersionFlags) -> JoinStructure:
    """Compute both sides' supports and role sets for a valid join partition."""
    full = g.vertex_mask
    if jp.x1 == 0 or jp.x2 == 0 or jp.x1 & jp.x2 or jp.x1 | jp.x2 != full:
        raise PreconditionError("join partition must split the vertices into two nonempty sides")
    for x1 in bits(jp.x1):
        if g.adj[x1] & jp.x2 != jp.x2:
            missing = next(bits(jp.x2 & ~g.adj[x1]))
            raise PreconditionError(f"cross pair {x1}-{missing} not adjacent; not a join")

    sides = []
    for part in (jp.x1, jp.x2):
        sub, relabel = induced_subgraph(g, part)
        inverse = {new: old for old, new in relabel.items()}
        order, _ = max_clique_immersion(sub, flags)
        support_sub = minimize_support(sub, order, flags)
        core, core_relabel = induced_subgraph(sub, support_sub)
        witness = find_clique_immersion(core, order, flags)
        assert witness is not None, "minimized support lost its immersion"
        core_inverse = {new: old for old, new in core_relabel.items()}
        support = mask_of(inverse[w] for w in bits(support_sub))
        terminals = mask_of(inverse[core_inverse[t]] for t in witness.terminals)
        nonterminals = support & ~terminals
        leftover = part & ~support
        detached = mask_of(a for a in bits(nonterminals) if not g.adj[a] & leftover)
        sides.append(
            SideSupport(
                part=part,
                order=order,
                support=support,
                terminals=terminals,
                nonterminals=nonterminals,
                detached=detached,
                attached=nonterminals & ~detached,
                leftover=leftover,
            )
        )
    return JoinStructure(g, sides[0], sides[1])


def fresh_extension_state(js: JoinStructure, v: int) -> ExtensionState:
    """Initial state for v: nothing solved, every terminal unresolved."""
    own = js.side_of(v)
    if not own.leftover >> v & 1:
        raise PreconditionError(f"vertex {v} is not in its side's leftover set")
    return ExtensionState(v, (), js.terminal_mask)


def _blocked_edges(js: JoinStructure) -> set[tuple[int, int]]:
    """Edges reserved by the two immersions and their cross clique."""
    g = js.host
    blocked: set[tuple[int, int]] = set()
    for side in (js.side1, js.side2):
        for a in bits(side.support):
            for b in bits(g.adj[a] & side.support):
                if a < b:
                    blocked.add((a, b))
    for a in bits(js.side1.terminals):
        for b in bits(g.adj[a] & js.side2.terminals):
            blocked.add((a, b) if a < b else (b, a))
    return blocked


def build_type_paths(js: JoinStructure, v: int, state: ExtensionState) -> ExtensionState:
    """Add every acceptable template path from v, types 1 through 4 in order.

    A path is acceptable when all its edges exist and are free (not
    used by earlier paths nor reserved by the supports or the cross
    terminal clique), its interior avoids all terminals, its length is
    odd, and it ends at a distinct still-unresolved terminal.  Each
    first-hop edge carries at most one path.
    """
    g = js.host
    own = js.side_of(v)
    other = js.other_side(v)
    if not own.leftover >> v & 1:
        raise PreconditionError(f"vertex {v} is not in a leftover set")
    if state.source != v:
        raise PreconditionError(f"state belongs to source {state.source}, not {v}")

    reserved = _blocked_edges(js)
    used: set[tuple[int, int]] = set()
    for path in state.solved_paths:
        for a, b in zip(path, path[1:]):
            used.add((a, b) if a < b else (b, a))
    paths = list(state.solved_paths)
    unresolved = state.unresolved
    terminal_mask = js.terminal_mask

    def acceptable(path: tuple[int, ...]) -> bool:
        if len(set(path)) != len(path):
            return False
        if mask_of(path[1:-1]) & terminal_mask:
            return False
        edges = []
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                return False
            edges.append((a, b) if a < b else (b, a))
        seen = set(edges)
        if len(seen) != len(edges) or seen & reserved or seen & used:
            return False
        return True

    def add(path: tuple[int, ...]):
        nonlocal unresolved
        for a, b in zip(path, path[1:]):
            used.add((a, b) if a < b else (b, a))
        paths.append(path)
        unresolved &= ~(1 << path[-1])

    # Type 1: direct edges from v to terminals.
    for t in bits(terminal_mask & g.adj[v] & unresolved):
        path = (v, t)
        if acceptable(path):
            add(path)

    own_targets = lambda: bits(unresolved & own.terminals)

    # Type 2: (v, v', b, t) with v' in own leftover or attached, b the
    # lowest detached vertex of the other side.
    if other.detached:
        b = next(bits(other.detached))
        for vp in bits((own.leftover | own.attached) & g.adj[v] & ~(1 << v)):
            for t in own_targets():
                path = (v, vp, b, t)
                if acceptable(path):
                    add(path)
                    break

    # Type 3: (v, z', z, t) with z the lowest leftover vertex of the
    # other side and z' another leftover vertex there.
    if other.leftover:
        z = next(bits(other.leftover))
        for zp in bits(other.leftover & ~(1 << z)):
            for t in own_targets():
                path = (v, zp, z, t)
                if acceptable(path):
                    add(path)
                    break

    # Type 4: (v, x, x', t) with x attached on the other side and x'
    # one of its leftover neighbors there.
    for x in bits(other.attached):
        solved = False
        for xp in bits(g.adj[x] & other.leftover):
            for t in own_targets():
                path = (v, x, xp, t)
                if acceptable(path):
                    add(path)
                    solved = True
                    break
            if solved:
                break

    return ExtensionState(v, tuple(paths), unresolved)
