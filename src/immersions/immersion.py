"""Clique-immersion certificates, the exact verifier, and exact search.

A K_t-immersion certificate is an injective terminal list (the images
of K_t's vertices) plus one vertex-simple path per terminal pair, the
whole family pairwise edge-disjoint.  Two optional clauses refine the
notion: *odd* requires every path length odd, *strong* forbids every
terminal from appearing as an interior vertex of any path.  Paths may
share vertices freely otherwise; only edges must be disjoint.

The verifier shares nothing with the searches but the graph's adjacency
rows.  It checks the pair keys by their count and each key's range, and
walks each path once to check its vertices and read its vertex mask,
first non-edge and edges (as bits of one int), which finds a reused edge
by masking.  A rejected certificate whose map is out of pair order is
checked again in pair order, so violations always come in pair order.
clique_certificate and the builder's clique branches make a clique's
certificate through one constructor, _clique_certificate, which the
builder calls on terminals it knows are ascending ints, with no
argument checks.

The searches are exact, not heuristic: `find_clique_immersion` returns
a certificate iff one exists.  Terminal sets are enumerated in colex
order over degree-feasible vertices, pairs are solved in lex order, and
each pair's paths are enumerated by iterative deepening on length
(odd lengths only under the odd flag), in one recursion that extends a
path edge by edge and, at the pair's far end, routes the next pair.  A
step from the path's end v goes only to the open neighbors adj[v] &
~closed, in ascending order, over edges not yet used; with two edges
left, only to those that are also neighbors of the far end b, so a
neighbor of v that misses b is never entered and the last step tests
the one edge wb.  This visits the same paths in the same order as
trying every neighbor of v.  Pruning is limited to sound necessary
conditions, so the first certificate found never depends on it:

- terminal degree >= t-1, since a terminal ends t-1 disjoint paths;
  t such terminals have t(t-1) <= degree sum <= 2|E|, so C(t,2) <= |E|.
  The degrees are kept ranked in descending order, so an order with
  fewer than t such vertices, where most climbs end, is refused by one
  read of the t-th largest degree, before any candidate is listed;
- per-pair parity-aware floors over exactly the vertices a route of
  the set may cross: neither end, nor a terminal with no pass-through
  budget from the start;
- a running free-edge budget against the cheapest completion of the
  unsolved pairs;
- a pass-through budget: a terminal x spends one incident edge per
  path it ends and two per path through it, so it can be interior to
  at most (deg(x) - (t-1)) // 2 paths of the whole family (to none
  under the strong flag);
- a failure memo: the unsolved-pair search is a pure function of the
  pair index k and the used-edge set (free edges and pass-through
  budgets both follow from them), so a (k, used) state that failed
  once fails again and is cut.  The memo lives for one pass over one
  terminal set;
- a twin skip: a terminal set that holds w but not some twin v < w
  (equal neighborhoods apart from each other) is never yielded by the
  walk over candidate sets.  Twins have equal degree, so v is a
  candidate whenever w is, and swapping them is an automorphism.  It
  maps the set to the one with v in place of w, which comes earlier in
  colex order and so has already failed (tried, or skipped by this rule,
  the edge-class count or the tight-terminal bound, which skip only sets
  that fail); an automorphic image has the same outcome;
- an edge-class count, under strong odd flags only: with T the
  terminal set, N the other vertices and M the number of non-adjacent
  terminal pairs, T is skipped when e(N,N) < M.  A strong odd path of a
  non-adjacent pair crosses no terminal and has length >= 3, so it
  takes an N-N edge; paths share no edge.  The matching count of T-N
  edges, e(T,N) >= 2M, holds for every candidate set: its degree sum
  is at least t(t-1), and e(T,N) is that sum less 2e(T);
- a tight-terminal bound, under every flag setting: a terminal of
  degree t-1 is tight.  It ends t-1 paths, one by each of its edges, so
  it is interior to none.  A non-terminal w with k tight neighbors E
  carries the k paths that end by an edge wE, and each leaves w by
  another edge.  One that leaves into E ends there too, so it is the
  path a-w-b of two tight terminals: not adjacent, since a tight pair's
  edge is the path of that pair, and of even length.  So w needs
  k - 2*mu edges off E, mu being 0 under the odd flag or when E is a
  clique and floor(k/2) otherwise, and T is skipped when deg(w) - k is
  fewer;
- a direct-edge rule, in the decision pass under every flag setting
  but the odd flag alone: each adjacent terminal pair ab takes its own
  edge, and only the other pairs are routed, off the edges inside T.
  The floors cover the routed pairs alone, and the edge count is the
  running free-edge budget solve keeps, which starts with the edges
  inside T taken.  The rule is exact.  Under the strong flag a path
  through the edge ab has a and b on it, so it is the path of the pair
  ab, and the edge can replace it.
  Under plain flags, when pair ab routes by a path P and another pair's
  path Q takes the edge ab, the walk Q - ab + P holds a path between
  Q's ends that replaces Q, and ab takes its own edge.  Each such swap
  adds an adjacent pair routed by its own edge, so the swaps end in a
  certificate the rule allows, and the other cuts, all necessary
  conditions, hold for it.  Under the odd flag alone that path can be
  even: on EFzw the set (0, 1, 3, 5) immerses, but the one 0-1 path off
  the edges inside it is 0-4-1, of even length;
- a decision pass: each set is first solved with its pairs in
  tightest-first order (smaller endpoint degree, then longer floor),
  with its own memo, and a set that fails there is dropped.  Whether a
  set has a certificate does not depend on the order its pairs are
  routed in, so the first set that passes is the certificate's, and it
  alone is solved again in lex order, which finds the same first
  certificate as without the pass.  A climb stops at the decision
  pass: it keeps the set of each order it reaches and routes only the
  last one, and only when a caller asks for the certificate.

A climb starts from an order proved without search: the clique number,
or one more when the extension lemma behind the builder's step 3
(construct.py) holds for a maximum clique or a one-vertex swap of it;
`_extends` is the lemma's one test, and max_clique_immersion gives the
argument.  Starting higher skips only orders that are known to immerse,
and the witness at the top order is searched as before, so every
certificate is the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations

from .errors import DegenerateInputError, MalformedCertificateError
from .graphs import Graph, _is_clique, _is_int, _require_int, _require_type, earlier_twins, mask_of, max_clique


@dataclass(frozen=True)
class ImmersionFlags:
    strong: bool = False
    odd: bool = False

    def __post_init__(self):
        # certificate_to_json writes the fields as they are, and
        # certificate_from_json reads back only true or false.
        for name in ("strong", "odd"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"flag {name} needs a bool, not the {type(value).__name__} {value!r}")

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
    """Single-edge certificate on a clique (callers guarantee cliqueness)
    of distinct nonnegative vertices, listed ascending."""
    try:
        terminals = tuple(vertices)
    except TypeError:
        raise ValueError(f"vertices need an iterable of ints, not the {type(vertices).__name__} {vertices!r}") from None
    for v in terminals:
        _require_int(v, "a terminal")
    terminals = sorted(terminals)
    if terminals and terminals[0] < 0:
        raise ValueError(f"vertices need nonnegative ints, not the {type(vertices).__name__} {vertices!r}")
    if len(set(terminals)) < len(terminals):  # a repeated vertex would make a path a loop
        raise ValueError(f"vertices need distinct ints, not the {type(vertices).__name__} {vertices!r}")
    return _clique_certificate(terminals)


def _clique_certificate(terminals) -> ImmersionCertificate:
    """clique_certificate on ascending ints, which it takes unchecked."""
    terminals = tuple(terminals)
    paths = {(i, j): (a, b) for (i, a), (j, b) in combinations(enumerate(terminals), 2)}
    return ImmersionCertificate(terminals, paths)


@dataclass(frozen=True)
class VerifyReport:
    accepted: bool
    violations: tuple[str, ...]


def verify_certificate(g: Graph, cert: ImmersionCertificate, flags: ImmersionFlags) -> VerifyReport:
    """Check every immersion clause; malformed certificates raise instead.

    The pair keys are checked by their count and each key's range.  One
    walk over each path, in the map's order, checks its vertices and
    reads its vertex mask, first non-edge and edges, edge uv (u < v) as
    bit u*n + v of one int, and reused edges are found by masking.  A
    rejected map out of pair order is checked again in pair order.
    """
    _require_type(g, Graph, "g")
    _require_type(cert, ImmersionCertificate, "cert")
    _require_type(flags, ImmersionFlags, "flags")
    n = g.n
    terminals, paths = cert.terminals, cert.paths
    if not isinstance(terminals, (tuple, list)):
        raise MalformedCertificateError(f"terminals need a tuple, not the {type(terminals).__name__} {terminals!r}")
    if not isinstance(paths, dict):
        raise MalformedCertificateError(f"paths need a dict, not the {type(paths).__name__} {paths!r}")
    t = len(terminals)
    if t < 1:
        raise MalformedCertificateError("certificate needs at least one terminal")
    terminal_mask = 0
    for term in terminals:
        if type(term) is not int and not _is_int(term):
            raise MalformedCertificateError(f"terminal {term!r} is not an integer")
        if not 0 <= term < n:
            raise MalformedCertificateError(f"terminal {term} outside 0..{n - 1}")
        terminal_mask |= 1 << term
    in_range = True  # distinct keys i < j < t, C(t,2) of them, are all the pairs
    for key in paths:
        # The type() tests pass a plain pair of ints without calls.
        if not (type(key) is tuple and len(key) == 2 and type(key[0]) is int and type(key[1]) is int
                or isinstance(key, tuple) and len(key) == 2 and _is_int(key[0]) and _is_int(key[1])):
            raise MalformedCertificateError(f"pair key {key!r} is not a pair of integers")
        if not 0 <= key[0] < key[1] < t:
            in_range = False
    if not in_range or len(paths) != t * (t - 1) // 2:
        expected = set(combinations(range(t), 2))
        detail = (("missing", sorted(expected - paths.keys())), ("unexpected", sorted(paths.keys() - expected)))
        raise MalformedCertificateError("; ".join(f"{what} pair keys {keys}" for what, keys in detail if keys))
    adj = g.adj
    violations: list[str] = []
    if terminal_mask.bit_count() != t:
        violations.append("terminals are not pairwise distinct")
    used = 0  # the edges of the paths checked so far
    taken = []  # (pair, its edges) for each of those paths
    for pair, path in paths.items():
        if not isinstance(path, (tuple, list)):
            raise MalformedCertificateError(f"path for pair {pair} needs a tuple, not the {type(path).__name__} {path!r}")
        if len(path) < 2:
            raise MalformedCertificateError(f"path for pair {pair} has fewer than 2 vertices")
        mask = edges = 0
        u, non_edge = -1, None
        for v in path:
            if type(v) is not int and not _is_int(v):
                raise MalformedCertificateError(f"path vertex {v!r} is not an integer")
            if not 0 <= v < n:
                raise MalformedCertificateError(f"path vertex {v} outside 0..{n - 1}")
            if u >= 0:
                if not adj[u] >> v & 1 and non_edge is None:
                    non_edge = f"{u}-{v}"
                edges |= 1 << (u * n + v if u < v else v * n + u)
            mask |= 1 << v
            u = v
        i, j = pair
        if path[0] != terminals[i] or u != terminals[j]:
            violations.append(f"path for pair ({i},{j}) does not run from {terminals[i]} to {terminals[j]}")
            continue
        if mask.bit_count() != len(path):
            violations.append(f"path for pair ({i},{j}) repeats a vertex")
            continue
        if non_edge:
            violations.append(f"path for pair ({i},{j}) uses the non-edge {non_edge}")
            continue
        if edges & used:  # name each reused edge and the first pair that took it
            for low, high in map(sorted, zip(path, path[1:])):
                bit = 1 << (low * n + high)
                if used & bit:
                    first = next(other for other, other_edges in taken if other_edges & bit)
                    violations.append(f"edge {low}-{high} reused by pairs ({first[0]},{first[1]}) and ({i},{j})")
        used |= edges
        taken.append((pair, edges))
        length = len(path) - 1
        if flags.odd and not length & 1:
            violations.append(f"path for pair ({i},{j}) has even length {length}")
        if flags.strong:
            # No vertex repeats, so the interior is the path less its two ends.
            blocked = mask & ~(1 << path[0] | 1 << u) & terminal_mask
            if blocked:
                culprit = (blocked & -blocked).bit_length() - 1
                violations.append(f"terminal {culprit} is interior to the path for pair ({i},{j})")
    if violations and list(paths) != sorted(paths):
        # Reported in pair order, each reused edge named with the first pair in that order to take it.
        return verify_certificate(g, ImmersionCertificate(terminals, dict(sorted(paths.items()))), flags)
    return VerifyReport(not violations, tuple(violations))


def certificate_to_json(cert: ImmersionCertificate, flags: ImmersionFlags) -> str:
    _require_type(cert, ImmersionCertificate, "cert")
    _require_type(flags, ImmersionFlags, "flags")
    payload = {
        "t": cert.t,
        "terminals": list(cert.terminals),
        "paths": {f"{i},{j}": list(path) for (i, j), path in sorted(cert.paths.items())},
        "flags": {"strong": flags.strong, "odd": flags.odd},
    }
    return json.dumps(payload, sort_keys=True)


def certificate_from_json(text: str) -> tuple[ImmersionCertificate, ImmersionFlags]:
    try:
        payload = json.loads(text, object_pairs_hook=_object_without_repeats)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # bytes are decoded first
        raise MalformedCertificateError(f"certificate is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # json's decoder recurses once per nested array or object
        raise MalformedCertificateError("certificate JSON nests too deeply") from exc
    except TypeError as exc:  # not a str, bytes or bytearray
        raise MalformedCertificateError(f"certificate JSON needs a str or bytes, not the {type(text).__name__}") from exc
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
        # Only the spelling certificate_to_json writes: no two keys name one pair.
        if key != f"{i},{j}":
            raise MalformedCertificateError(f"pair key {key!r} is not written as {i},{j}")
        if not 0 <= i < j < t:
            raise MalformedCertificateError(f"pair key {key!r} out of range for t={t}")
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


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    """A repeated key must not silently keep its last value."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedCertificateError(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


def _reject_unknown_keys(obj: dict, known: tuple[str, ...], where: str) -> None:
    """A misspelled key must not be read as an absent one (say, a flag as false)."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise MalformedCertificateError(f"unknown {where} key(s) {unknown}; known: {list(known)}")


def _twin_closed_sets(candidates: list[int], t: int, twins: list[int]):
    """Yield (terms, term_mask) for the t-subsets of candidates, which
    ascend, in colex order, skipping every set that holds some w but not
    a twin v < w of it (twins[w] has those v).

    A set is a bitmask over candidate positions, and increasing masks are
    colex order; Gosper's step goes from one t-bit mask to the next.  The
    twin test runs on the vertex mask as the set is listed, in ascending
    order: a twin v < w of a member w is listed before w if the set holds
    it, so twins[w] & ~term_mask is exactly the twins of w missing from
    the set, and the listing stops at the first member that has one.
    """
    top = 1 << len(candidates)
    mask = (1 << t) - 1
    while mask < top:
        terms = []
        term_mask = 0
        rest = mask
        while rest:
            low = rest & -rest
            w = candidates[low.bit_length() - 1]
            term_mask |= 1 << w
            if twins[w] & ~term_mask:
                break
            terms.append(w)
            rest ^= low
        else:
            yield tuple(terms), term_mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> 2) // low


def _pair_floor(g: Graph, a: int, b: int, allowed: int, odd: bool) -> int | None:
    """Shortest possible a-b path length with interiors inside allowed.

    One BFS over (vertex, parity) states: the front at distance d holds
    the vertices of allowed, which has neither a nor b, first reached at
    parity d % 2 by a walk of length d with its interior in allowed.  The
    plain flag takes the first distance at which b is next to the front,
    the odd flag the first odd one: the shortest odd *walk* length, a
    sound lower bound for the shortest odd path (every path is a walk).
    None means no path of the right parity can exist at all.
    """
    adj = g.adj
    seen = [0, 0]  # by parity
    front = 1 << a
    dist = 0
    while front:
        dist += 1
        grown = 0
        while front:  # bits(front) inlined; front is set anew below
            low = front & -front
            grown |= adj[low.bit_length() - 1]
            front ^= low
        parity = dist & 1
        if grown >> b & 1 and (parity or not odd):
            return dist
        front = grown & allowed & ~seen[parity]
        seen[parity] |= front
    return None


def _edge_classes_short(index: _SearchIndex, terms: tuple[int, ...], term_mask: int) -> bool:
    """Whether the terminal set T = terms has too few edges among the
    other vertices N for a strong odd certificate.

    A strong odd path of a non-adjacent terminal pair crosses no terminal
    and has length at least 3, so it takes an N-N edge of its own.  With
    M = C(t,2) - e(T) such pairs and e(N,N) = m - sum of deg(T) + e(T),
    the set is short when e(N,N) < M.
    """
    adj, degrees = index.g.adj, index.degrees
    inside = degree_sum = 0  # T-T edges counted twice
    for v in terms:
        inside += (adj[v] & term_mask).bit_count()
        degree_sum += degrees[v]
    t = len(terms)
    return index.g.edge_count - degree_sum + inside < t * (t - 1) // 2


def _tight_crowded(index: _SearchIndex, term_mask: int, tight: int, odd: bool) -> bool:
    """Whether some non-terminal w has too few other edges to pass on the
    paths that end at its tight terminal neighbors E (tight: the
    terminals of degree t-1).

    With k = |E|, w needs k - 2*mu edges off E, mu being 0 under the odd
    flag or when E is a clique and floor(k/2) otherwise; the module
    docstring gives the argument.
    """
    adj, degrees = index.g.adj, index.degrees
    near = 0
    rest = tight
    while rest:  # bits(tight) inlined
        low = rest & -rest
        near |= adj[low.bit_length() - 1]
        rest ^= low
    rest = near & ~term_mask
    while rest:  # bits(near & ~term_mask) inlined: ascending
        low = rest & -rest
        w = low.bit_length() - 1
        rest ^= low
        ends = adj[w] & tight
        k = ends.bit_count()
        spare = degrees[w] - k  # w's edges off E
        # k - 2*mu is k, or k % 2 when mu = floor(k/2).
        if spare < k and (odd or spare < k % 2 or _is_clique(adj, ends)):
            return True
    return False


def _decision_order(degrees: list[int], terms: tuple[int, ...], pairs: list[tuple[int, int]],
                    floors: list[int]) -> list[int]:
    """Pair positions in the decision pass's order: smaller endpoint
    degree first, then the longer floor, then position."""
    keys = sorted(
        (min(degrees[terms[i]], degrees[terms[j]]), -floor, k)
        for k, ((i, j), floor) in enumerate(zip(pairs, floors))
    )
    return [k for _, _, k in keys]


class _SearchIndex:
    """What the searches on one graph share: the degrees at once, each
    other part at first use.

    degrees[v] is the degree of v, the one source of the candidate
    filter, the pass-through budgets and the decision order; ranked is
    the degrees in descending order, so ranked[t - 1] >= t - 1 says in
    one read whether t vertices have degree >= t - 1; edge_bit[v][w] is
    the used-edge bit of the edge vw, looked up by w (its keys ascend as
    in adj[v], the order the reference router in tests/oracles.py walks);
    twins[w] is the bitset of the twins v < w of w.  Each caller builds
    one for the orders it decides and routes (a sweep row one for both
    its climbs and any witnesses), and nothing keeps it past that call.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.degrees = [row.bit_count() for row in g.adj]
        self.ranked = sorted(self.degrees, reverse=True)

    @cached_property
    def edge_bit(self) -> list[dict[int, int]]:
        # Bit k for the k-th edge in lex order; row u adds its higher
        # neighbors after every lower row has added u, so keys ascend.
        edge_bit: list[dict[int, int]] = [{} for _ in range(self.g.n)]
        bit = 1
        for u, row in enumerate(self.g.adj):
            row >>= u + 1
            while row:  # bits(row) inlined, offset by u + 1
                low = row & -row
                v = u + low.bit_length()
                edge_bit[u][v] = edge_bit[v][u] = bit
                bit <<= 1
                row ^= low
        return edge_bit

    @cached_property
    def twins(self) -> list[int]:
        return earlier_twins(self.g.adj)


def find_clique_immersion(g: Graph, t: int, flags: ImmersionFlags) -> ImmersionCertificate | None:
    """Exact search for a K_t-immersion certificate under flags."""
    _require_type(g, Graph, "g")
    _require_int(t, "clique order t")
    _require_type(flags, ImmersionFlags, "flags")
    index = _SearchIndex(g)
    terms = _decide(index, t, flags)
    return None if terms is None else _route(index, terms, flags)


def _decide(index: _SearchIndex, t: int, flags: ImmersionFlags) -> tuple[int, ...] | None:
    """The first terminal set in colex order that passes the decision
    pass, or None: the terminals of find_clique_immersion's certificate."""
    if t < 1:
        raise ValueError("clique order must be at least 1")
    g = index.g
    if t == 1:
        return (0,) if g.n else None
    if t > g.n or index.ranked[t - 1] < t - 1:  # fewer than t vertices of degree >= t - 1
        return None
    candidates = []
    tight_candidates = 0
    for v, degree in enumerate(index.degrees):
        if degree >= t - 1:
            candidates.append(v)
            if degree == t - 1:
                tight_candidates |= 1 << v
    strong_odd = flags.strong and flags.odd
    for terms, term_mask in _twin_closed_sets(candidates, t, index.twins):
        if strong_odd and _edge_classes_short(index, terms, term_mask):
            continue
        tight = term_mask & tight_candidates
        if tight and _tight_crowded(index, term_mask, tight, flags.odd):
            continue
        if _solve_set(index, terms, flags, True) is not None:
            return terms
    return None


def _route(index: _SearchIndex, terms: tuple[int, ...], flags: ImmersionFlags) -> ImmersionCertificate:
    """find_clique_immersion's certificate on the set _decide returned:
    its pairs solved in lex order."""
    return ImmersionCertificate(terms, _solve_set(index, terms, flags, False))


def _solve_set(index: _SearchIndex, terms: tuple[int, ...], flags: ImmersionFlags,
               decide: bool) -> dict[tuple[int, int], Path] | None:
    """The paths of a certificate on the terminal set terms, keyed by
    terminal-index pair, or None.  One pass over the pairs in lex order
    plans the search: with decide, under every flag setting but the odd
    flag alone, an adjacent pair takes its own edge; every other pair
    takes its floor over the vertices a route may cross, which leave out
    the terminals with no pass-through budget (spent only grows), and the
    set fails at the first pair with none.  The routed pairs go in the
    decision pass's order with decide, and in lex order without, which
    gives find_clique_immersion's certificate.  With decide the map holds
    only the routed pairs: the caller asks whether the set immerses, and
    an adjacent pair's path would be its edge.
    """
    g = index.g
    edge_bit = index.edge_bit
    t = len(terms)
    budget = [0] * g.n if flags.strong else [(degree - (t - 1)) // 2 for degree in index.degrees]
    spent = 0
    for v in terms:
        if not budget[v]:
            spent |= 1 << v
    direct = decide and (flags.strong or not flags.odd)
    used = 0
    pairs = []
    floors = []
    for i, j in combinations(range(t), 2):
        a, b = terms[i], terms[j]
        if direct and (bit := edge_bit[a].get(b)):
            used |= bit
            continue
        allowed = g.vertex_mask & ~(spent | 1 << a | 1 << b)  # solve's first closed set
        floor = _pair_floor(g, a, b, allowed, flags.odd)
        if floor is None:
            return None
        pairs.append((i, j))
        floors.append(floor)
    if decide:
        order = _decision_order(index.degrees, terms, pairs, floors)
        pairs = [pairs[k] for k in order]
        floors = [floors[k] for k in order]
    routed = _solve_pairs(index, terms, flags, budget, spent, used, pairs, floors)
    return None if routed is None else dict(zip(pairs, routed))


def _solve_pairs(index: _SearchIndex, terms: tuple[int, ...], flags: ImmersionFlags, budget: list[int],
                 spent: int, used: int, pairs: list[tuple[int, int]], floors: list[int]) -> list[Path] | None:
    """Route the terminal pairs of terms in the order given, floors[k]
    being the floor of pairs[k], off the edges of used: one path per
    pair, in that order, or None.
    """
    g = index.g
    adj = g.adj
    edge_bit = index.edge_bit
    m = g.edge_count
    max_len = g.n - 1
    step = 2 if flags.odd else 1
    term_mask = mask_of(terms)
    # route spends a terminal's pass-through budget on each step through
    # it and refunds it on a failed return; a success keeps its spending,
    # so each pass starts from a fresh copy.
    spare = budget[:]
    suffix = list(accumulate(reversed(floors), initial=0))[::-1]  # sum(floors[k:])
    solution: list[Path] = []
    failed: list[set[int]] = [set() for _ in pairs]  # the failure memo, by position

    def route(k: int, path: Path, b: int, remaining: int, closed: int, used: int, spent: int) -> bool:
        """Extend pair k's path by exactly remaining edges to b, off closed
        vertices and used edges, then route pairs k+1..; True once all are.
        With two edges left a step goes only to a neighbor of b, and the
        call for the last edge tests that neighbor's edge to b.
        """
        v = path[-1]
        if remaining == 1:  # the last edge, vb
            bit = edge_bit[v].get(b)
            if bit and not used & bit:
                solution.append(path + (b,))
                if solve(k + 1, used | bit, spent):
                    return True
                solution.pop()
            return False
        to_v = edge_bit[v]
        free = adj[v] & ~closed
        if remaining == 2:  # the next vertex must be a neighbor of b
            free &= adj[b]
        while free:  # bits(free) inlined: ascending
            low = free & -free
            w = low.bit_length() - 1
            free ^= low
            bit = to_v[w]
            if used & bit:
                continue
            spare[w] -= 1
            now_spent = spent | low if term_mask & low and not spare[w] else spent
            if route(k, path + (w,), b, remaining - 1, closed | low, used | bit, now_spent):
                return True
            spare[w] += 1
        return False

    def solve(k: int, used: int, spent: int) -> bool:
        """Route pairs k.. with edges used taken; spent: terminals out of budget."""
        if k == len(pairs):
            return True
        if used in failed[k]:
            return False
        i, j = pairs[k]
        a, b = terms[i], terms[j]
        cap = min(m - used.bit_count() - suffix[k + 1], max_len)  # a path of length L uses L edges
        for length in range(floors[k], cap + 1, step):
            if route(k, (a,), b, length, spent | 1 << a | 1 << b, used, spent):
                return True
        failed[k].add(used)
        return False

    found = solve(0, used, spent)
    route = solve = None  # they call themselves and each other: free the cycle now, not at a collection
    return solution if found else None


def max_clique_immersion(g: Graph, flags: ImmersionFlags) -> tuple[int, ImmersionCertificate]:
    """Largest t admitting a certificate under flags, with a witness.

    The climb starts unsearched from _clique_order: a clique Q proves
    K_omega, and the extension lemma often proves K_{omega+1} on Q plus
    one vertex v.  With u a non-neighbor of v off Q, M the vertices of Q
    that v misses, every one a neighbor of u, and w_q distinct common
    neighbors of u and v off Q, one for each q in M: the pairs of Q take
    their own edges, v reaches a neighbor q in Q by the edge vq, and a q
    in M by the path (v, w_q, u, q).  The edges vw_q and w_qu are told
    apart by w_q, the edges uq by q, and none lies inside Q or joins v
    to Q, so the paths are edge-disjoint; each has length 1 or 3 and
    crosses no terminal.  Such a strong odd certificate is one under
    every flag setting.  The witness is always searched, by _decide at
    the top order when the climb makes no step, so it does not depend on
    where the climb started.
    """
    _require_type(g, Graph, "g")
    _require_type(flags, ImmersionFlags, "flags")
    if g.n == 0:
        raise DegenerateInputError("maximum immersion order undefined on the empty graph")
    index = _SearchIndex(g)
    t, terms = _ascend(index, _clique_order(index), flags)
    return t, _route(index, terms or _decide(index, t, flags), flags)


def _extends(adj: tuple[int, ...], terms: int, u: int, v: int) -> bool:
    """The extension lemma's test (see max_clique_immersion): whether a
    strong odd certificate on the terminals terms, avoiding the two
    non-adjacent vertices u and v, grows by v through the hub u.  Every
    terminal v misses must be a neighbor of u, and u and v need as many
    common neighbors off terms as v misses terminals."""
    missed = terms & ~adj[v]
    return not missed & ~adj[u] and (adj[u] & adj[v] & ~terms).bit_count() >= missed.bit_count()


def _clique_order(index: _SearchIndex) -> int:
    """An order that immerses strongly and oddly, found with no search:
    omega + 1 when the extension lemma holds for the clique max_clique
    returns or for a swap Q - q + x, where x misses exactly the vertex q
    of Q, for some hub u and new terminal v; omega otherwise.  Each of
    the lemma's omega + 1 terminals ends omega edge-disjoint paths, so
    with fewer vertices of degree >= omega, the test _decide makes for
    K_{omega+1}, no scan is made."""
    g = index.g
    omega, clique = max_clique(g)
    if omega >= g.n or index.ranked[omega] < omega:
        return omega
    adj = g.adj
    cliques = [clique]
    outside = g.vertex_mask & ~clique
    while outside:  # the bits inlined here and below: ascending
        low = outside & -outside
        outside ^= low
        missed = clique & ~adj[low.bit_length() - 1]  # not empty: Q is a maximum clique
        if not missed & (missed - 1):
            cliques.append(clique ^ missed | low)
    for terms in cliques:
        rest = g.vertex_mask & ~terms
        todo = rest  # v runs over rest, each hub u over its non-neighbors there
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            hubs = rest & ~adj[v] & ~low
            while hubs:
                hub = hubs & -hubs
                hubs ^= hub
                if _extends(adj, terms, hub.bit_length() - 1, v):
                    return omega + 1
    return omega


def _ascend(index: _SearchIndex, t: int, flags: ImmersionFlags) -> tuple[int, tuple[int, ...] | None]:
    """From a K_t known to immerse, decide K_{t+1}, K_{t+2}, ... until one
    fails.  Returns the largest order and the terminals _decide found for
    it, None when no step succeeds; no certificate is routed.  Stopping at
    the first failure is exact, since a K_{t+1} certificate less one
    terminal is a K_t certificate.
    """
    terms = None
    while t < index.g.n and (nxt := _decide(index, t + 1, flags)) is not None:
        t, terms = t + 1, nxt
    return t, terms

