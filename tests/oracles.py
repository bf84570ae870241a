"""Independent oracles the test suite checks the package against.

Everything here is deliberately naive: plain backtracking, exhaustive
enumeration, and a third-party codec.  None of it shares pruning ideas,
search order, or data structures with the package beyond elementary
counting facts, so agreement is meaningful evidence.
"""

from __future__ import annotations

import csv
import io
import itertools
import string
from functools import lru_cache

import networkx as nx

from immersions import (
    Graph,
    Graph6Error,
    MalformedCertificateError,
    UnsupportedSizeError,
    VerifyReport,
    bits,
    mask_of,
)


# ---------------------------------------------------------------- codec

def nx_encode(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode("ascii").strip()


def nx_decode(word: str) -> Graph:
    h = nx.from_graph6_bytes(word.encode("ascii"))
    return Graph.from_edges(h.number_of_nodes(), h.edges())


# ------------------------------------------------------------- coloring

def brute_chromatic(g: Graph) -> int:
    """Smallest k admitting a proper coloring, by plain backtracking."""
    if g.n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors = [-1] * g.n

        def assign(v: int) -> bool:
            if v == g.n:
                return True
            taken = {colors[u] for u in range(v) if g.adj[v] >> u & 1}
            for c in range(k):
                if c not in taken:
                    colors[v] = c
                    if assign(v + 1):
                        return True
            colors[v] = -1
            return False

        return assign(0)

    for k in range(1, g.n + 1):
        if colorable(k):
            return k
    raise AssertionError("unreachable")


# ------------------------------------------------------------- matching

def brute_matching_number(g: Graph) -> int:
    """Size of a maximum matching: the lowest free vertex stays unmatched
    or is matched to each free neighbor in turn, over every choice."""

    @lru_cache(maxsize=None)
    def best(free: int) -> int:
        if not free:
            return 0
        v = (free & -free).bit_length() - 1
        rest = free & ~(1 << v)
        options = [best(rest)]
        for w in range(g.n):
            if rest >> w & 1 and g.adj[v] >> w & 1:
                options.append(1 + best(rest & ~(1 << w)))
        return max(options)

    return best(g.vertex_mask)


# ------------------------------------------------------------ immersion

def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def simple_paths(g: Graph, a: int, b: int) -> list[tuple[int, ...]]:
    """Every vertex-simple path from a to b, by depth-first walk."""
    found: list[tuple[int, ...]] = []
    stack = [a]
    on_stack = {a}

    def walk(v: int):
        for w in range(g.n):
            if not g.adj[v] >> w & 1 or w in on_stack:
                continue
            if w == b:
                found.append(tuple(stack) + (b,))
                continue
            stack.append(w)
            on_stack.add(w)
            walk(w)
            stack.pop()
            on_stack.remove(w)

    walk(a)
    found.sort(key=len)
    return found


def brute_immersion_exists(g: Graph, t: int, strong: bool, odd: bool) -> bool:
    """Exhaustive search over terminal sets and complete path systems."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if t == 1:
        return g.n >= 1
    total_edges = sum(1 for _ in g.edges())
    if total_edges < t * (t - 1) // 2:
        return False
    path_cache: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    return any(
        brute_terminals_immerse(g, terminals, strong, odd, path_cache)
        for terminals in itertools.combinations(range(g.n), t)
    )


def brute_terminals_immerse(
    g: Graph, terminals: tuple[int, ...], strong: bool, odd: bool,
    path_cache: dict[tuple[int, int], list[tuple[int, ...]]] | None = None,
) -> bool:
    """Whether some complete path system joins these terminals pairwise.

    path_cache keeps each pair's simple paths across calls on one graph.
    """
    if path_cache is None:
        path_cache = {}
    total_edges = sum(1 for _ in g.edges())

    def paths_between(a: int, b: int) -> list[tuple[int, ...]]:
        key = _edge_key(a, b)
        if key not in path_cache:
            path_cache[key] = simple_paths(g, *key)
        return path_cache[key]

    term_set = set(terminals)
    candidates: list[list[frozenset[tuple[int, int]]]] = []
    for a, b in itertools.combinations(terminals, 2):
        options = []
        for path in paths_between(a, b):
            if odd and (len(path) - 1) % 2 == 0:
                continue
            if strong and any(v in term_set for v in path[1:-1]):
                continue
            options.append(
                frozenset(_edge_key(x, y) for x, y in zip(path, path[1:]))
            )
        if not options:
            return False
        candidates.append(options)

    order = sorted(range(len(candidates)), key=lambda i: len(candidates[i]))

    def assign(i: int, used: frozenset[tuple[int, int]]) -> bool:
        if i == len(order):
            return True
        if total_edges - len(used) < len(order) - i:
            return False
        for edges in candidates[order[i]]:
            if used & edges:
                continue
            if assign(i + 1, used | edges):
                return True
        return False

    return assign(0, frozenset())


def walk_floor(g: Graph, a: int, b: int, inner: set[int], odd: bool) -> int | None:
    """Least d >= 1, odd under the odd flag, such that some walk of length
    d runs from a to b with every interior vertex in inner.

    Walk-length dynamic programming: ends is the set of last vertices of
    the walks of length d.  A shortest such walk never repeats a (vertex,
    length parity) state before its last step, so d <= 2n suffices.
    """
    ends = {a}
    for d in range(1, 2 * g.n + 1):
        sources = ends if d == 1 else ends & inner
        ends = {w for v in sources for w in range(g.n) if g.adj[v] >> w & 1}
        if b in ends and (d % 2 == 1 or not odd):
            return d
    return None


# ------------------------------------------ reference terminal-set walk
#
# Like the reference canonical form below, this shares its design with
# the package: it is how the search listed terminal sets before it
# walked bitmasks over candidate positions.

def reference_colex_combinations(items: list[int], k: int):
    """Yield k-subsets of items (ascending tuples) in colexicographic order."""
    if k == 0:
        yield ()
        return
    for i in range(k - 1, len(items)):
        for rest in reference_colex_combinations(items[:i], k - 1):
            yield rest + (items[i],)


def reference_twin_closed_sets(candidates: list[int], t: int, twins: list[int]):
    """(terms, term_mask) for each t-subset of candidates in colex order
    that holds, with each w, every twin v < w of it (twins[w])."""
    for terms in reference_colex_combinations(candidates, t):
        term_mask = sum(1 << v for v in terms)
        if not any(twins[w] & ~term_mask for w in terms):
            yield terms, term_mask


# ---------------------------------------------------------- isomorphism

def brute_canonical(g: Graph) -> tuple[int, ...]:
    """Lexicographically least adjacency rows over all n! relabelings."""
    if g.n > 8:
        raise ValueError("brute canonical form capped at n = 8")
    best: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(g.n)):
        rows = []
        for new_u in range(g.n):
            u = perm[new_u]
            row = 0
            for new_w in range(new_u):
                if g.adj[u] >> perm[new_w] & 1:
                    row |= 1 << new_w
            rows.append(row)
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return best


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    return brute_canonical(g) == brute_canonical(h)


# ------------------------------------------------------------- families

@lru_cache(maxsize=None)
def nx_graph_atlas_counts(n: int) -> int:
    """Isomorphism classes of all graphs on n vertices, via networkx."""
    if n > 7:
        raise ValueError("atlas oracle capped at n = 7")
    from networkx.generators.atlas import graph_atlas_g

    return sum(1 for h in graph_atlas_g() if h.number_of_nodes() == n)


# A006785: triangle-free graphs on n unlabeled vertices.
TRIANGLE_FREE_COUNTS = {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107, 8: 410, 9: 1897, 10: 12172}
# A000088: all graphs on n unlabeled vertices.
ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def brute_independence(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for subset in itertools.combinations(range(g.n), size):
            if all(not g.adj[a] >> b & 1 for a, b in itertools.combinations(subset, 2)):
                return size
    return best


# ---------------------------------------- reference canonical form
#
# Unlike the oracles above, these share their design with the package:
# they are its refinement and canonical search as they stood before the
# search took integer signatures, incremental rows and the colors of
# the child's own refinement, and before the top-class rule replaced
# the f-rule.  The new code must reproduce their output exactly.

def _bit_positions(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _twins(adj: tuple[int, ...], v: int, w: int) -> bool:
    return adj[v] & ~(1 << w) == adj[w] & ~(1 << v)


def reference_refine_colors(n: int, adj: tuple[int, ...]) -> tuple[int, ...]:
    """Colours by (color, sorted neighbor colors) tuples."""
    neighbors = [_bit_positions(row) for row in adj]
    ranking = {d: r for r, d in enumerate(sorted({len(ns) for ns in neighbors}))}
    colors = [ranking[len(ns)] for ns in neighbors]
    classes = len(ranking)
    while 1 < classes < n:
        signatures = [
            (colors[v], tuple(sorted([colors[w] for w in neighbors[v]])))
            for v in range(n)
        ]
        ranking = {s: r for r, s in enumerate(sorted(set(signatures)))}
        colors = [ranking[s] for s in signatures]
        if len(ranking) == classes:
            break
        classes = len(ranking)
    return tuple(colors)


def reference_canonical_form(g: Graph) -> tuple[int, ...]:
    """Least rows over the color-consistent orders, each row rebuilt
    bit by bit at every node of the descent."""
    n, adj = g.n, g.adj
    colors = reference_refine_colors(n, adj)
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(colors[v], []).append(v)
    slot_class = [c for c in sorted(members) for _ in members[c]]

    best: list[int] | None = None
    placed: list[int] = []
    rows: list[int] = []
    placed_mask = 0

    def descend(p: int, equal_prefix: bool):
        nonlocal best, placed_mask
        if p == n:
            if best is None or rows < best:
                best = rows.copy()
            return
        candidates = []
        for v in members[slot_class[p]]:
            if placed_mask >> v & 1:
                continue
            row = 0
            for q in range(p):
                if adj[v] >> placed[q] & 1:
                    row |= 1 << q
            candidates.append((row, v))
        candidates.sort()
        explored: list[tuple[int, int]] = []
        for row, v in candidates:
            if best is not None and equal_prefix and row > best[p]:
                break
            if any(row == r2 and _twins(adj, v, w) for r2, w in explored):
                continue
            explored.append((row, v))
            child_equal = equal_prefix and (best is None or row == best[p])
            placed.append(v)
            placed_mask |= 1 << v
            rows.append(row)
            descend(p + 1, child_equal)
            rows.pop()
            placed_mask &= ~(1 << v)
            placed.pop()

    descend(0, True)
    assert best is not None
    return tuple(best)


def f_outranked(g: Graph) -> bool:
    """The former f-rule: whether an old vertex with the degree of the
    last vertex has a larger sorted tuple of neighbor degrees."""
    degrees = [row.bit_count() for row in g.adj]

    def profile(v: int) -> list[int]:
        return sorted([degrees[w] for w in _bit_positions(g.adj[v])])

    new = g.n - 1
    mine = profile(new)
    return any(degrees[v] == degrees[new] and profile(v) > mine for v in range(new))


# ------------------------------------------- reference per-bit graph code
#
# These share their design with the package too: they are its graph
# check, graph6 codec, twin table and edge-bit table as they stood
# before those worked a word at a time, one bit or one pair per step.

def reference_graph_error(n: int, adj: tuple[int, ...]) -> str | None:
    """The message Graph(n, adj) raises for rows of the right count, or
    None when it accepts them: range, loop and then mirror, bit by bit."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            return f"vertex {v} has neighbors outside 0..{n - 1}"
        if row >> v & 1:
            return f"loop at vertex {v}"
    for v, row in enumerate(adj):
        while row:
            low = row & -row
            w = low.bit_length() - 1
            if not adj[w] >> v & 1:
                return f"asymmetric edge {v}-{w}"
            row ^= low
    return None


def reference_transpose(rows) -> tuple[int, ...]:
    """Row v of the result has bit w iff rows[w] has bit v, for v, w < len(rows)."""
    n = len(rows)
    return tuple(sum(1 << w for w in range(n) if rows[w] >> v & 1) for v in range(n))


def reference_parse_graph6(line: str) -> Graph:
    """Decode one graph6 word bit by bit, column by column."""
    text = line.strip(string.whitespace)
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise Graph6Error("empty graph6 word")
    for offset, char in enumerate(text):
        if not 63 <= ord(char) <= 126:
            raise Graph6Error(f"character {char!r} (code {ord(char)}) out of range 63..126 at offset {offset}")
    data = text.encode("ascii")
    if data[0] == 126:
        raise UnsupportedSizeError("multi-byte graph6 size (n > 62) not supported")
    n = data[0] - 63
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - 1 < need:
        raise Graph6Error(f"word ends at offset {len(data)}, expected {need} data bytes")
    if len(data) - 1 > need:
        raise Graph6Error(f"trailing garbage at offset {1 + need}")
    values = [byte - 63 for byte in data[1:]]
    adj = [0] * n
    position = 0
    for v in range(1, n):
        for u in range(v):
            if values[position // 6] >> (5 - position % 6) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            position += 1
    padding = (1 << (6 * need - position)) - 1
    if values and values[-1] & padding:
        raise Graph6Error(f"nonzero padding bits in the byte at offset {need}")
    return Graph(n, tuple(adj))


def reference_encode_graph6(g: Graph) -> str:
    """Encode to graph6 one upper-triangle bit at a time."""
    out = [g.n + 63]
    value, filled = 0, 0
    for v in range(1, g.n):
        for u in range(v):
            value = value << 1 | (g.adj[u] >> v & 1)
            filled += 1
            if filled == 6:
                out.append(value + 63)
                value, filled = 0, 0
    if filled:
        out.append((value << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


def reference_earlier_twins(adj: tuple[int, ...]) -> list[int]:
    """For each vertex w, the bitset of its twins v < w, pair by pair."""
    return [sum(1 << v for v in range(w) if _twins(adj, v, w)) for w in range(len(adj))]


def reference_edge_bit(g: Graph) -> list[dict[int, int]]:
    """edge_bit[v][w]: bit k for the k-th edge of g.edges(), keyed both ways."""
    edge_bit: list[dict[int, int]] = [{} for _ in range(g.n)]
    for k, (u, v) in enumerate(g.edges()):
        edge_bit[u][v] = edge_bit[v][u] = 1 << k
    return edge_bit


# ------------------------------------------------- path-layer references
#
# The path router and the verifier as they stood before both came to read
# adjacency bitmasks: the router tried every neighbor of a path's end and
# tested the last edge in the callee, the verifier read edges one by one
# through Graph.has_edge and keyed used edges by tuple.  The new code must
# give the same certificates and the same verifier outcomes.

def reference_solve_pairs(index, terms, flags, budget, spent, used, pairs, floors):
    """immersion._solve_pairs, routing each step over edge_bit[v]."""
    g = index.g
    edge_bit = index.edge_bit
    m = g.edge_count
    max_len = g.n - 1
    step = 2 if flags.odd else 1
    term_mask = mask_of(terms)
    spare = budget[:]
    suffix = list(itertools.accumulate(reversed(floors), initial=0))[::-1]
    solution: list[tuple[int, ...]] = []
    failed: list[set[int]] = [set() for _ in pairs]

    def route(k, path, b, remaining, closed, used, spent):
        v = path[-1]
        if remaining == 1:
            bit = edge_bit[v].get(b)
            if bit and not used & bit:
                solution.append(path + (b,))
                if solve(k + 1, used | bit, spent):
                    return True
                solution.pop()
            return False
        for w, bit in edge_bit[v].items():
            if closed >> w & 1 or used & bit:
                continue
            spare[w] -= 1
            now_spent = spent | 1 << w if term_mask >> w & 1 and not spare[w] else spent
            if route(k, path + (w,), b, remaining - 1, closed | 1 << w, used | bit, now_spent):
                return True
            spare[w] += 1
        return False

    def solve(k, used, spent):
        if k == len(pairs):
            return True
        if used in failed[k]:
            return False
        i, j = pairs[k]
        a, b = terms[i], terms[j]
        cap = min(m - used.bit_count() - suffix[k + 1], max_len)
        for length in range(floors[k], cap + 1, step):
            if route(k, (a,), b, length, spent | 1 << a | 1 << b, used, spent):
                return True
        failed[k].add(used)
        return False

    return solution if solve(0, used, spent) else None


def lemma_holds(g: Graph, clique: set[int], u: int, v: int) -> bool:
    """The extension lemma's condition, read off neighbor sets."""
    nu, nv = set(bits(g.adj[u])), set(bits(g.adj[v]))
    missed = clique - nv
    return missed <= nu and len((nu & nv) - clique) >= len(missed)


def lemma_cliques(g: Graph, clique_mask: int) -> list[set[int]]:
    """The clique and each swap Q - q + x of it, x missing exactly q."""
    clique = set(bits(clique_mask))
    return [clique] + [
        clique - missed | {x}
        for x in range(g.n)
        if x not in clique and len(missed := clique - set(bits(g.adj[x]))) == 1
    ]


def reference_clique_order(g: Graph, clique_mask: int) -> int:
    """immersion._clique_order given max_clique's witness: omega, plus 1
    when the lemma holds for some (Q, v, u), scanning every triple."""
    cliques = lemma_cliques(g, clique_mask)
    holds = any(
        not g.has_edge(u, v) and lemma_holds(g, terms, u, v)
        for terms in cliques
        for u, v in itertools.permutations([w for w in range(g.n) if w not in terms], 2)
    )
    return len(cliques[0]) + holds


def reference_max_clique(g: Graph) -> tuple[int, int]:
    """graphs.max_clique as it stood with each search node's coloring in
    (vertex, color) tuples and a call for every branch, leaves too."""
    adj = g.adj
    best_size = 0
    best_mask = 0

    def expand(r_mask: int, r_size: int, cand: int):
        nonlocal best_size, best_mask
        if not cand:
            if r_size > best_size:
                best_size, best_mask = r_size, r_mask
            return
        order: list[tuple[int, int]] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order.append((v, color))
                rest ^= low
                avail &= ~adj[v] & ~low
        for v, color in reversed(order):
            if r_size + color <= best_size:
                return
            expand(r_mask | 1 << v, r_size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, 0, g.vertex_mask)
    return best_size, best_mask


def reference_csv_bytes(rows, checks) -> bytes:
    """checks._csv_bytes as the csv module writes it, CRLF line ends."""
    columns = ("graph6", "n", "alpha", "chi", "t_max_plain", "t_max_strong_odd")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow([*columns, *(f"{name}_{part}" for name in checks for part in ("bound", "holds"))])
    for report in rows:
        outcomes = [report.bounds[name] for name in checks]
        writer.writerow([
            *(getattr(report, column) for column in columns),
            *(value for outcome in outcomes for value in (outcome.bound_value, outcome.status)),
        ])
    return buffer.getvalue().encode("ascii")


def reference_verify_certificate(g: Graph, cert, flags):
    """immersion.verify_certificate, reading one edge at a time."""
    t = cert.t
    if t < 1:
        raise MalformedCertificateError("certificate needs at least one terminal")
    for term in cert.terminals:
        if not 0 <= term < g.n:
            raise MalformedCertificateError(f"terminal {term} outside 0..{g.n - 1}")
    expected = set(itertools.combinations(range(t), 2))
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
        non_edges = [f"{a}-{b}" for a, b in zip(path, path[1:]) if not g.has_edge(a, b)]
        if non_edges:
            violations.append(f"path for pair ({i},{j}) uses the non-edge {non_edges[0]}")
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
