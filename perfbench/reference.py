"""Answers the benchmark checks the program against.

Nothing here imports or imitates the package under test. Graphs are plain
adjacency bitmask lists built from edge lists, class counts come from
generating-function recurrences, and maximal dissociation sets are counted
by a frontier dynamic program over set membership alone (the package
searches over per-vertex states instead).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

# --- graphs as adjacency bitmask lists ---------------------------------------


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def family_edges(kind: str, args: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """Order and edges of a named family, from the documented definitions:
    ``P(n)`` path, ``C(n)`` cycle, ``Urt(r,t)`` r-cycle with a pendant leaf
    on positions 0..t-1, ``T(p,q)`` spider with p legs of which q have
    length two, ``U(p,q)`` that spider with a triangle through its centre."""
    if kind == "P":
        return args[0], path_edges(args[0])
    if kind == "C":
        return args[0], cycle_edges(args[0])
    if kind == "Urt":
        r, t = args
        return r + t, cycle_edges(r) + [(i, r + i) for i in range(t)]
    p, q = args
    edges, label = [], 1
    for leg in range(p):
        edges.append((0, label))
        if leg < q:
            edges.append((label, label + 1))
            label += 1
        label += 1
    if kind == "T":
        return label, edges
    return label + 2, edges + [(0, label), (0, label + 1), (label, label + 1)]


def is_connected(adj: list[int]) -> bool:
    seen, frontier = 1, 1
    while frontier:
        reach = 0
        for v in bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def is_caterpillar(adj: list[int]) -> bool:
    """A tree is a caterpillar iff its non-leaf vertices induce a path."""
    spine = [v for v in range(len(adj)) if adj[v].bit_count() > 1]
    mask = sum(1 << v for v in spine)
    inner = [(adj[v] & mask).bit_count() for v in spine]
    return all(d <= 2 for d in inner) and sum(inner) == 2 * max(len(spine) - 1, 0)


def graph6_adjacency(line: bytes) -> list[int]:
    """Adjacency of a graph6 string of order at most 62."""
    n = line[0] - 63
    flags = []
    for byte in line[1:]:
        value = byte - 63
        flags.extend((value >> k) & 1 for k in range(5, -1, -1))
    edges, k = [], 0
    for j in range(1, n):
        for i in range(j):
            if flags[k]:
                edges.append((i, j))
            k += 1
    return adjacency(n, edges)


def is_maximal_dissociation(adj: list[int], s: int) -> bool:
    for v in range(len(adj)):
        inside = adj[v] & s
        if s >> v & 1:
            if inside & (inside - 1):
                return False
        elif inside == 0 or (inside & (inside - 1) == 0 and adj[inside.bit_length() - 1] & s == 0):
            return False
    return True


# --- maximal dissociation sets by a membership frontier DP -------------------

EXCLUDED, IN_DEGREE0, IN_DEGREE1 = "excluded", "in0", "in1"


def bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _ball2(adj: list[int], v: int) -> int:
    ball = adj[v] | 1 << v
    for u in bits(adj[v]):
        ball |= adj[u]
    return ball


def _schedule(adj: list[int], order: list[int]) -> tuple[list[list[int]], list[int], int]:
    """When each vertex can be checked (its distance-2 ball is assigned),
    which vertices can be forgotten after each step, and the largest number
    of vertices held at once."""
    n = len(adj)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    balls = [_ball2(adj, v) for v in range(n)]
    check_at = [max(pos[u] for u in bits(balls[v])) for v in range(n)]
    forget_at = [0] * n
    for v in range(n):
        for u in bits(balls[v]):
            forget_at[u] = max(forget_at[u], check_at[v])
    checks = [[] for _ in range(n)]
    forgets = [0] * n
    for v in range(n):
        checks[check_at[v]].append(v)
        forgets[forget_at[v]] |= 1 << v
    held = width = 0
    for t in range(n):
        held += 1
        width = max(width, held)
        held -= forgets[t].bit_count()
    return checks, forgets, width


def bfs_order(adj: list[int], start: int) -> list[int]:
    order, seen, i = [start], 1 << start, 0
    while i < len(order):
        for u in bits(adj[order[i]] & ~seen):
            seen |= 1 << u
            order.append(u)
        i += 1
    return order + [v for v in range(len(adj)) if not seen >> v & 1]


def frontier_width(adj: list[int]) -> tuple[int, list[int]]:
    """Narrowest breadth-first order over all start vertices."""
    best = None
    for start in range(len(adj)):
        order = bfs_order(adj, start)
        width = _schedule(adj, order)[2]
        if best is None or width < best[0]:
            best = (width, order)
    return best


def count_mds(adj: list[int], pin: tuple[int, str] | None = None, order: list[int] | None = None) -> int:
    """Number of maximal dissociation sets, optionally with one vertex
    pinned to excluded / in with induced degree 0 / in with degree 1.

    Vertices are assigned in or out one at a time; a vertex is checked
    against the definition once every vertex within distance two of it is
    assigned, and forgotten once no unchecked vertex needs it. States are
    the memberships of the vertices still held. ``order`` defaults to the
    narrowest breadth-first order."""
    if order is None:
        order = frontier_width(adj)[1]
    checks, forgets, _ = _schedule(adj, order)
    pinned, kind = pin if pin is not None else (-1, None)
    states = {0: 1}
    keep = -1
    for t, v in enumerate(order):
        bit = 1 << v
        keep &= ~forgets[t]
        due = [(w, adj[w], 1 << w) for w in checks[t]]
        merged: dict[int, int] = {}
        for s, count in states.items():
            for s2 in (s, s | bit):
                for w, row, wbit in due:
                    inside = row & s2
                    if s2 & wbit:
                        if inside & (inside - 1):
                            break
                    elif inside == 0 or (inside & (inside - 1) == 0 and adj[inside.bit_length() - 1] & s2 == 0):
                        break
                    if w == pinned and not _pin_ok(kind, bool(s2 & wbit), inside):
                        break
                else:
                    key = s2 & keep
                    merged[key] = merged.get(key, 0) + count
        states = merged
    return sum(states.values())


def _pin_ok(kind: str, member: bool, inside: int) -> bool:
    if kind == EXCLUDED:
        return not member
    if kind == IN_DEGREE0:
        return member and inside == 0
    return member and inside != 0


# --- class counts ------------------------------------------------------------


def rooted_tree_counts(n_max: int) -> list[int]:
    """OEIS A000081 by the Cayley recurrence."""
    r = [0, 1] + [0] * (n_max - 1)
    for n in range(1, n_max):
        c = [sum(d * r[d] for d in range(1, j + 1) if j % d == 0) for j in range(n + 1)]
        r[n + 1] = sum(c[j] * r[n + 1 - j] for j in range(1, n + 1)) // n
    return r


def tree_counts(n_max: int) -> list[int]:
    """OEIS A000055 from Otter's dissimilarity relation."""
    r = rooted_tree_counts(n_max)
    out = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        pairs = sum(r[i] * r[n - i] for i in range(1, n))
        out[n] = (2 * r[n] - pairs + (r[n // 2] if n % 2 == 0 else 0)) // 2
    return out


def caterpillar_counts(n_max: int) -> list[int]:
    """Harary and Schwenk: 2^(n-4) + 2^floor((n-4)/2) caterpillars for n >= 4."""
    return [0] + [1 if n <= 3 else 2 ** (n - 4) + 2 ** ((n - 4) // 2) for n in range(1, n_max + 1)]


def _mul(a: list, b: list, n_max: int) -> list:
    out = [0] * (n_max + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(n_max + 1 - i):
                out[i + j] += x * b[j]
    return out


def _power(a: list, k: int, n_max: int) -> list:
    out = [1] + [0] * n_max
    for _ in range(k):
        out = _mul(out, a, n_max)
    return out


def _stretch(a: list, d: int, n_max: int) -> list:
    out = [0] * (n_max + 1)
    for i in range(0, n_max // d + 1):
        out[i * d] = a[i]
    return out


def unicyclic_counts(n_max: int) -> list[int]:
    """OEIS A001429: rooted trees hung on a cycle, counted up to the
    dihedral group of the cycle by Burnside's lemma."""
    r = rooted_tree_counts(n_max)
    r[0] = 0
    total = [Fraction(0)] * (n_max + 1)
    for k in range(3, n_max + 1):
        fixed = [0] * (n_max + 1)
        for d in range(1, k + 1):
            if k % d == 0:
                phi_d = sum(1 for j in range(1, d + 1) if gcd(j, d) == 1)
                term = _power(_stretch(r, d, n_max), k // d, n_max)
                fixed = [f + phi_d * x for f, x in zip(fixed, term)]
        r2 = _stretch(r, 2, n_max)
        if k % 2:
            mirror = _mul(r, _power(r2, k // 2, n_max), n_max)
            mirror = [k * x for x in mirror]
        else:
            through_edges = _power(r2, k // 2, n_max)
            through_vertices = _mul(_mul(r, r, n_max), _power(r2, k // 2 - 1, n_max), n_max)
            mirror = [k // 2 * (x + y) for x, y in zip(through_edges, through_vertices)]
        for i in range(n_max + 1):
            total[i] += Fraction(fixed[i] + mirror[i], 2 * k)
    return [int(x) for x in total]


def bracelet_count(r: int, t: int) -> int:
    """Binary bracelets of length r with t black beads (Burnside)."""
    rotations = sum(
        sum(1 for j in range(1, d + 1) if gcd(j, d) == 1) * comb(r // d, t // d)
        for d in range(1, r + 1)
        if r % d == 0 and t % d == 0
    )
    if r % 2:
        reflections = r * comb(r // 2, t // 2)
    else:
        through_edges = comb(r // 2, t // 2) if t % 2 == 0 else 0
        through_vertices = sum(
            comb(2, b) * comb(r // 2 - 1, (t - b) // 2) for b in range(3) if (t - b) % 2 == 0 and t >= b
        )
        reflections = r // 2 * (through_edges + through_vertices)
    return (rotations + reflections) // (2 * r)


def pendant_cycle_classes(n: int) -> int:
    """Cycles of order r >= 3 carrying 1 <= t <= r pendant leaves, r + t = n,
    up to isomorphism: one class per bracelet."""
    return sum(bracelet_count(r, n - r) for r in range(3, n) if 1 <= n - r <= r)
