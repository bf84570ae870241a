"""Clique-immersion certificates, the exact verifier, and exact search.

A K_t-immersion certificate is an injective terminal list (the images
of K_t's vertices) plus one vertex-simple path per terminal pair, the
whole family pairwise edge-disjoint.  Two optional clauses refine the
notion: *odd* requires every path length odd, *strong* forbids every
terminal from appearing as an interior vertex of any path.  Paths may
share vertices freely otherwise; only edges must be disjoint.

The searches are exact, not heuristic: `find_clique_immersion` returns
a certificate iff one exists.  Terminal sets are enumerated in colex
order over degree-feasible vertices, pairs are solved in lex order, and
each pair's paths are enumerated by iterative deepening on length
(odd lengths only under the odd flag), from one path generator that
carries each path's edge bits.  Pruning is limited to sound necessary
conditions, so the first certificate found never depends on it:

- terminal degree >= t-1, since a terminal ends t-1 disjoint paths;
- the global edge budget C(t,2) <= |E|;
- per-pair parity-aware reachability;
- a running free-edge budget against the cheapest completion of the
  unsolved pairs;
- a pass-through budget: a terminal x spends one incident edge per
  path it ends and two per path through it, so it can be interior to
  at most (deg(x) - (t-1)) // 2 paths of the whole family;
- a failure memo: the unsolved-pair search is a pure function of the
  pair index k and the used-edge set (free edges and pass-through
  budgets both follow from them), so a (k, used) state that failed
  once fails again and is cut.  The memo lives for one terminal set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate, combinations

from .errors import DegenerateInputError, MalformedCertificateError
from .graphs import Graph, bits, mask_of, max_clique


@dataclass(frozen=True)
class ImmersionFlags:
    strong: bool = False
    odd: bool = False

    def label(self) -> str:
        parts = [name for name in ("strong", "odd") if getattr(self, name)]
        return "+".join(parts) if parts else "plain"


PLAIN = ImmersionFlags()
STRONG = ImmersionFlags(strong=True)
ODD = ImmersionFlags(odd=True)
STRONG_ODD = ImmersionFlags(strong=True, odd=True)

Path = tuple[int, ...]


@dataclass(frozen=True)
class ImmersionCertificate:
    """Terminals plus one path per terminal-index pair (i, j), i < j.

    paths maps the index pair to the path, which runs from
    terminals[i] to terminals[j].  A t=1 certificate has an empty map.
    """

    terminals: tuple[int, ...]
    paths: dict[tuple[int, int], Path] = field(default_factory=dict)

    @property
    def t(self) -> int:
        return len(self.terminals)


def clique_certificate(vertices) -> ImmersionCertificate:
    """Single-edge certificate on a clique (callers guarantee cliqueness)."""
    terminals = tuple(sorted(vertices))
    paths = {
        (i, j): (terminals[i], terminals[j])
        for i, j in combinations(range(len(terminals)), 2)
    }
    return ImmersionCertificate(terminals, paths)


@dataclass(frozen=True)
class VerifyReport:
    accepted: bool
    violations: tuple[str, ...]


def verify_certificate(g: Graph, cert: ImmersionCertificate, flags: ImmersionFlags) -> VerifyReport:
    """Check every immersion clause; malformed certificates raise instead."""
    t = cert.t
    if t < 1:
        raise MalformedCertificateError("certificate needs at least one terminal")
    for term in cert.terminals:
        if not 0 <= term < g.n:
            raise MalformedCertificateError(f"terminal {term} outside 0..{g.n - 1}")
    expected = set(combinations(range(t), 2))
    got = set(cert.paths)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        detail = []
        if missing:
            detail.append(f"missing pair keys {missing}")
        if extra:
            detail.append(f"unexpected pair keys {extra}")
        raise MalformedCertificateError("; ".join(detail))
    for pair, path in cert.paths.items():
        if len(path) < 2:
            raise MalformedCertificateError(f"path for pair {pair} has fewer than 2 vertices")
        for v in path:
            if not 0 <= v < g.n:
                raise MalformedCertificateError(f"path vertex {v} outside 0..{g.n - 1}")

    violations: list[str] = []
    if len(set(cert.terminals)) != t:
        violations.append("terminals are not pairwise distinct")
    terminal_mask = mask_of(cert.terminals)
    seen_edges: dict[tuple[int, int], tuple[int, int]] = {}
    for (i, j), path in sorted(cert.paths.items()):
        want = (cert.terminals[i], cert.terminals[j])
        if (path[0], path[-1]) != want:
            violations.append(f"path for pair ({i},{j}) does not run from {want[0]} to {want[1]}")
            continue
        if len(set(path)) != len(path):
            violations.append(f"path for pair ({i},{j}) repeats a vertex")
            continue
        ok = True
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                violations.append(f"path for pair ({i},{j}) uses the non-edge {a}-{b}")
                ok = False
                break
        if not ok:
            continue
        for a, b in zip(path, path[1:]):
            edge = (a, b) if a < b else (b, a)
            if edge in seen_edges:
                first = seen_edges[edge]
                violations.append(
                    f"edge {edge[0]}-{edge[1]} reused by pairs "
                    f"({first[0]},{first[1]}) and ({i},{j})"
                )
            else:
                seen_edges[edge] = (i, j)
        if flags.odd and (len(path) - 1) % 2 == 0:
            violations.append(f"path for pair ({i},{j}) has even length {len(path) - 1}")
        if flags.strong:
            interior = mask_of(path[1:-1])
            blocked = interior & terminal_mask
            if blocked:
                culprit = next(bits(blocked))
                violations.append(f"terminal {culprit} is interior to the path for pair ({i},{j})")
    return VerifyReport(not violations, tuple(violations))


def certificate_to_json(cert: ImmersionCertificate, flags: ImmersionFlags) -> str:
    payload = {
        "t": cert.t,
        "terminals": list(cert.terminals),
        "paths": {f"{i},{j}": list(path) for (i, j), path in sorted(cert.paths.items())},
        "flags": {"strong": flags.strong, "odd": flags.odd},
    }
    return json.dumps(payload, sort_keys=True)


def certificate_from_json(text: str) -> tuple[ImmersionCertificate, ImmersionFlags]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedCertificateError(f"certificate is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedCertificateError("certificate JSON must be an object")
    _reject_unknown_keys(payload, ("t", "terminals", "paths", "flags"), "certificate")
    try:
        t = payload["t"]
        terminals = payload["terminals"]
        raw_paths = payload["paths"]
        flags_obj = payload["flags"]
    except KeyError as exc:
        raise MalformedCertificateError(f"certificate JSON missing key {exc}") from exc
    if not _is_int(t):
        raise MalformedCertificateError("t must be an integer")
    if not isinstance(terminals, list) or not all(_is_int(v) for v in terminals):
        raise MalformedCertificateError("terminals must be a list of integers")
    if t != len(terminals):
        raise MalformedCertificateError(f"t={t} but {len(terminals)} terminals listed")
    if not isinstance(raw_paths, dict):
        raise MalformedCertificateError("paths must be an object keyed by 'i,j'")
    paths: dict[tuple[int, int], Path] = {}
    for key, seq in raw_paths.items():
        try:
            i, j = (int(part) for part in key.split(","))
        except ValueError as exc:
            raise MalformedCertificateError(f"bad pair key {key!r}") from exc
        if not 0 <= i < j < t:
            raise MalformedCertificateError(f"pair key {key!r} out of range for t={t}")
        if (i, j) in paths:
            raise MalformedCertificateError(f"pair key {key!r} repeats the pair {i},{j}")
        if not isinstance(seq, list) or not all(_is_int(v) for v in seq):
            raise MalformedCertificateError(f"path for pair {key!r} must be a list of integers")
        paths[(i, j)] = tuple(seq)
    if not isinstance(flags_obj, dict):
        raise MalformedCertificateError("flags must be an object")
    _reject_unknown_keys(flags_obj, ("strong", "odd"), "flags")
    strong, odd = flags_obj.get("strong", False), flags_obj.get("odd", False)
    if not isinstance(strong, bool) or not isinstance(odd, bool):
        raise MalformedCertificateError("flag values must be true or false")
    return ImmersionCertificate(tuple(terminals), paths), ImmersionFlags(strong, odd)


def _reject_unknown_keys(obj: dict, known: tuple[str, ...], where: str) -> None:
    """A misspelled key must not be read as an absent one (say, a flag as false)."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise MalformedCertificateError(f"unknown {where} key(s) {unknown}; known: {list(known)}")


def _is_int(value) -> bool:
    """JSON integer check: bool is an int subclass but never a vertex or count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _colex_combinations(items: list[int], k: int):
    """Yield k-subsets of items (ascending tuples) in colexicographic order."""
    if k == 0:
        yield ()
        return
    for i in range(k - 1, len(items)):
        for rest in _colex_combinations(items[:i], k - 1):
            yield rest + (items[i],)


def _pair_floor(g: Graph, a: int, b: int, allowed: int, odd: bool) -> int | None:
    """Shortest possible a-b path length with interiors inside allowed.

    One BFS over (vertex, parity) states: the front at distance d holds
    the vertices first reached at parity d % 2 by a walk of length d
    whose interior lies in allowed, a or b.  Plain flags take the first
    distance that reaches b.  The odd flag takes the first odd one, the
    shortest odd *walk* length, a sound lower bound for the shortest odd
    path (every path is a walk).  None means no path of the right parity
    can exist at all.
    """
    adj = g.adj
    scope = allowed | 1 << a | 1 << b
    seen = [1 << a, 0]  # by parity
    front = 1 << a
    dist = 0
    while front:
        dist += 1
        grown = 0
        for v in bits(front):
            grown |= adj[v]
        parity = dist & 1
        front = grown & scope & ~seen[parity]
        if front >> b & 1 and (parity or not odd):
            return dist
        seen[parity] |= front
    return None


def find_clique_immersion(g: Graph, t: int, flags: ImmersionFlags) -> ImmersionCertificate | None:
    """Exact search for a K_t-immersion certificate under flags."""
    if t < 1:
        raise ValueError("clique order must be at least 1")
    if t > g.n:
        return None
    if t == 1:
        return ImmersionCertificate((0,), {})
    m = g.edge_count
    pair_count = t * (t - 1) // 2
    if pair_count > m:
        return None
    candidates = [v for v in range(g.n) if g.degree(v) >= t - 1]
    if len(candidates) < t:
        return None

    # edge_bit[v][w] is the used-edge bit of vw; keys ascend, as in adj[v].
    edge_bit: list[dict[int, int]] = [{} for _ in range(g.n)]
    for k, (u, v) in enumerate(g.edges()):
        edge_bit[u][v] = edge_bit[v][u] = 1 << k

    full = g.vertex_mask
    max_len = g.n - 1
    step = 2 if flags.odd else 1
    pairs = list(combinations(range(t), 2))
    # Pass-through budget: how many more paths each candidate terminal
    # may be interior to.  A failed search leaves it as it found it.
    spare = [(g.degree(v) - (t - 1)) // 2 for v in range(g.n)]
    no_spare = mask_of(v for v in candidates if not spare[v])

    def routes(path: Path, b: int, remaining: int, closed: int, used: int, edge_bits: int):
        """Yield (path + rest, edge bits of the whole path) for every rest of
        exactly remaining edges that ends at b, off closed vertices and used edges.
        """
        v = path[-1]
        if remaining == 1:
            bit = edge_bit[v].get(b)
            if bit and not used & bit:
                yield path + (b,), edge_bits | bit
            return
        for w, bit in edge_bit[v].items():
            if closed >> w & 1 or used & bit:
                continue
            yield from routes(path + (w,), b, remaining - 1, closed | 1 << w, used, edge_bits | bit)

    def solve(k: int, used: int, free: int, spent: int) -> bool:
        """Route pairs k.. with edges used taken; spent: terminals out of budget.

        Reads the current terminal set's terms, floors, suffix, memo and
        solution, which the loop below rebinds for each set.
        """
        if k == len(pairs):
            return True
        if used in failed[k]:
            return False
        i, j = pairs[k]
        a, b = terms[i], terms[j]
        closed = term_mask if flags.strong else spent | 1 << a | 1 << b
        cap = min(free - suffix[k + 1], max_len)
        for length in range(floors[k], cap + 1, step):
            for path, edge_bits in routes((a,), b, length, closed, used, 0):
                # Strong paths never cross a terminal.
                crossed = () if flags.strong else [x for x in path[1:-1] if term_mask >> x & 1]
                now_spent = spent
                for x in crossed:
                    spare[x] -= 1
                    if not spare[x]:
                        now_spent |= 1 << x
                solution.append(path)
                if solve(k + 1, used | edge_bits, free - length, now_spent):
                    return True
                solution.pop()
                for x in crossed:
                    spare[x] += 1
        failed[k].add(used)
        return False

    for terms in _colex_combinations(candidates, t):
        term_mask = mask_of(terms)
        floors: list[int] = []
        for i, j in pairs:
            a, b = terms[i], terms[j]
            if flags.strong:
                allowed = full & ~term_mask
            else:
                allowed = full & ~(1 << a) & ~(1 << b)
            floor = _pair_floor(g, a, b, allowed, flags.odd)
            if floor is None:
                break
            floors.append(floor)
        else:
            suffix = list(accumulate(reversed(floors), initial=0))[::-1]  # sum(floors[k:])
            solution: list[Path] = []
            failed: list[set[int]] = [set() for _ in pairs]
            if suffix[0] <= m and solve(0, 0, m, term_mask & no_spare):
                return ImmersionCertificate(tuple(terms), dict(zip(pairs, solution)))
    return None


def max_clique_immersion(g: Graph, flags: ImmersionFlags) -> tuple[int, ImmersionCertificate]:
    """Largest t admitting a certificate under flags, with a witness."""
    if g.n == 0:
        raise DegenerateInputError("maximum immersion order undefined on the empty graph")
    omega, _ = max_clique(g)
    best = find_clique_immersion(g, omega, flags)
    assert best is not None, "a clique always immerses itself"
    t = omega
    while t < g.n:
        nxt = find_clique_immersion(g, t + 1, flags)
        if nxt is None:
            break
        best = nxt
        t += 1
    return t, best
