"""Independent oracles used to freeze expected values.

None of these share algorithms with the package code under test: labeled
trees come from Prufer sequences, isomorphism deduplication uses the
backtracking test, class counts are recomputed analytically from the
rooted-tree recurrence, random connected graphs are built from a random
spanning tree, and maximal dissociation sets are found by testing every
subset against the definition (``is_maximal_dissociation`` here, one
subset at a time, or all at once with numpy) or, past the subset filter's
cap, by a backtracking search in label order that takes only public names
from ``dissoc``; the package lists and counts them from a frontier sweep
instead. Pendant paths are found by scanning degrees rather than from the
leaf peel, and graph6 coding and vertex deletion work one bit at a time.
Graphs are classified by a breadth-first search and edge counts, not by
the leaf peel.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import NamedTuple

import numpy as np

from dissoc import MAX_ORDER, Graph, bit_list, from_edges, iter_bits, leaves

BRUTEFORCE_ISO_CAP = 10
NAIVE_ORDER_CAP = 24


def prufer_decode(seq: tuple[int, ...], n: int) -> Graph:
    if n == 1:
        return from_edges(1, [])
    if n == 2:
        return from_edges(2, [(0, 1)])
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return from_edges(n, edges)


class Classification(NamedTuple):
    kind: str  # "tree" | "unicyclic" | "other"
    components: int


def classify(g: Graph) -> Classification:
    """Tree, unicyclic or other, with the component count. A breadth-first
    search finds each component's vertices and edges: a connected graph
    with m = n - 1 edges is a tree, one with m = n is unicyclic."""
    seen = [False] * g.n
    components = []  # (vertices, edges) of each component
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        queue, vertices, degrees = deque([s]), 0, 0
        while queue:
            v = queue.popleft()
            vertices += 1
            for u in iter_bits(g.adj[v]):
                degrees += 1
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        components.append((vertices, degrees // 2))
    kind = "other"
    if len(components) == 1:
        n, m = components[0]
        kind = "tree" if m == n - 1 else "unicyclic" if m == n else "other"
    return Classification(kind, len(components))


def all_labeled_trees(n: int):
    if n <= 2:
        yield prufer_decode((), n)
        return
    for seq in product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


def _signature(g: Graph) -> tuple:
    per_vertex = sorted(
        (
            g.adj[v].bit_count(),
            tuple(sorted(g.adj[u].bit_count() for u in iter_bits(g.adj[v]))),
        )
        for v in range(g.n)
    )
    return (g.n, g.edge_count, tuple(per_vertex))


def is_isomorphic_bruteforce(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test, intended as a small-order oracle."""
    if g.n > BRUTEFORCE_ISO_CAP or h.n > BRUTEFORCE_ISO_CAP:
        raise ValueError(f"brute-force isomorphism capped at order {BRUTEFORCE_ISO_CAP}")
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if _signature(g) != _signature(h):
        return False
    n = g.n
    deg_g = [g.adj[v].bit_count() for v in range(n)]
    deg_h = [h.adj[v].bit_count() for v in range(n)]
    # BFS order from a max-degree vertex keeps mapped neighborhoods connected
    start = max(range(n), key=lambda v: deg_g[v])
    order: list[int] = []
    seen = 1 << start
    queue = [start]
    while queue:
        v = queue.pop(0)
        order.append(v)
        for u in iter_bits(g.adj[v]):
            if not seen >> u & 1:
                seen |= 1 << u
                queue.append(u)
    for v in range(n):  # disconnected remainder, if any
        if not seen >> v & 1:
            order.append(v)
            seen |= 1 << v
    image = [-1] * n

    def backtrack(i: int, used: int, assigned: int) -> bool:
        if i == n:
            return True
        v = order[i]
        mapped_nbrs = 0
        for w in iter_bits(g.adj[v] & assigned):
            mapped_nbrs |= 1 << image[w]
        for u in range(n):
            if used >> u & 1 or deg_h[u] != deg_g[v]:
                continue
            if h.adj[u] & used != mapped_nbrs:
                continue
            image[v] = u
            if backtrack(i + 1, used | 1 << u, assigned | 1 << v):
                return True
        image[v] = -1
        return False

    return backtrack(0, 0, 0)


def is_dissociation(g: Graph, s: int) -> bool:
    """True iff every vertex of ``s`` has at most one neighbor inside ``s``."""
    if s & ~g.full_mask:
        raise ValueError("set contains vertices outside the graph")
    adj = g.adj
    for v in iter_bits(s):
        if (adj[v] & s).bit_count() > 1:
            return False
    return True


def addable(g: Graph, s: int, v: int) -> bool:
    """True iff s + v is still a dissociation set.

    Assumes ``s`` itself is a dissociation set. Holds when v has no
    neighbor in s, or exactly one whose induced degree in s is 0.
    """
    if s >> v & 1:
        raise ValueError(f"vertex {v} is already in the set")
    m = g.adj[v] & s
    if m == 0:
        return True
    if m & (m - 1):
        return False
    return (g.adj[m.bit_length() - 1] & s) == 0


def is_maximal_dissociation(g: Graph, s: int) -> bool:
    """True iff ``s`` is a dissociation set and no outside vertex is addable."""
    return is_dissociation(g, s) and not any(addable(g, s, v) for v in iter_bits(g.full_mask & ~s))


def enumerate_mds_naive(g: Graph) -> list[int]:
    """Reference oracle: test every subset against the definition.

    Kept deliberately independent of the package's sweep and of
    ``search_mds``. Output is ascending by bit-packed value by construction.
    """
    if g.n > NAIVE_ORDER_CAP:
        raise ValueError(f"naive oracle capped at order {NAIVE_ORDER_CAP}")
    return [s for s in range(1 << g.n) if is_maximal_dissociation(g, s)]


def search_mds(g: Graph) -> list[int]:
    """Every maximal dissociation set, ascending, by a backtracking search
    that reaches orders the subset filter cannot.

    Each vertex is assigned, in label order, out, in-free (in with induced
    degree 0, never gaining a partner) or in-matched (in with induced
    degree exactly 1). The consistent assignments, where every in-free
    vertex ends with no in-neighbor and every in-matched one with exactly
    one, are the dissociation sets, one each. A branch dies once a vertex's
    neighborhood is assigned and it is an unpaired in-matched vertex or an
    addable out vertex; each surviving leaf is re-checked for maximality.
    """
    n, adj, full = g.n, g.adj, g.full_mask
    closers = [0] * n  # per v, the vertices whose neighborhood is assigned with v
    for u in range(n):
        closers[max(u, adj[u].bit_length() - 1)] |= 1 << u
    sink: list[int] = []

    def blocked(cc: int, s: int, free: int) -> bool:
        """Whether no vertex of cc, all outside s, is addable to s."""
        while cc:
            low = cc & -cc
            cc ^= low
            m = adj[low.bit_length() - 1] & s
            if m == 0 or (m & (m - 1) == 0 and m & free):
                return False
        return True

    def rec(v: int, s: int, free: int, pending: int) -> None:
        if v == n:
            if blocked(full & ~s, s, free):  # construction-independent re-check
                sink.append(s)
            return
        row, bit = adj[v], 1 << v
        inb = row & s
        options = [(s, free, pending)]  # out
        if not row & free and inb == 0:  # in-free, or in-matched to a later vertex
            options += [(s | bit, free | bit, pending), (s | bit, free, pending | bit)]
        elif not row & free and inb & (inb - 1) == 0 and inb & pending:  # in-matched to its in-neighbor
            options.append((s | bit, free, pending & ~inb))
        for ns, nf, npend in options:
            if not npend & closers[v] and blocked(closers[v] & ~ns, ns, nf):
                rec(v + 1, ns, nf, npend)

    rec(0, 0, 0, 0)
    return sorted(sink)


def count_mds_bruteforce(g: Graph) -> int:
    """Vectorized subset-filter count of maximal dissociation sets.

    Same exhaustive-filter semantics as :func:`enumerate_mds_naive`, run
    over all 2^n subsets at once with numpy so that order-12 corpora stay
    cheap. Shares no logic with the package's counting DP.
    """
    n = g.n
    if n > NAIVE_ORDER_CAP:
        raise ValueError(f"brute-force counter capped at order {NAIVE_ORDER_CAP}")
    size = 1 << n
    pop = np.zeros(size, dtype=np.uint8)
    for i in range(n):
        pop[1 << i : 1 << (i + 1)] = pop[: 1 << i] + 1
    masks = np.arange(size, dtype=np.uint64)
    member = [(masks >> np.uint64(v)) & np.uint64(1) != 0 for v in range(n)]
    cnt = [pop[(masks & np.uint64(g.adj[v])).astype(np.int64)] for v in range(n)]
    ok = np.ones(size, dtype=bool)
    for v in range(n):
        ok &= ~member[v] | (cnt[v] <= 1)
    memdeg = [np.where(member[v], cnt[v], 0).astype(np.int16) for v in range(n)]
    for v in range(n):
        nbr_sum = np.zeros(size, dtype=np.int16)
        for u in iter_bits(g.adj[v]):
            nbr_sum += memdeg[u]
        addable_v = ~member[v] & (cnt[v] <= 1) & (nbr_sum == 0)
        ok &= ~addable_v
    return int(np.count_nonzero(ok))


class IsoClassRegistry:
    """Collect representatives up to isomorphism via signature buckets plus
    the brute-force test."""

    def __init__(self):
        self.buckets: dict[tuple, list[Graph]] = {}

    def add(self, g: Graph) -> bool:
        """Returns True iff g opened a new isomorphism class."""
        key = _signature(g)
        bucket = self.buckets.setdefault(key, [])
        for rep in bucket:
            if is_isomorphic_bruteforce(rep, g):
                return False
        bucket.append(g)
        return True

    @property
    def count(self) -> int:
        return sum(len(b) for b in self.buckets.values())

    def representatives(self) -> list[Graph]:
        return [g for bucket in self.buckets.values() for g in bucket]


def count_trees_bruteforce(n: int) -> int:
    """Unlabeled tree count: Prufer enumeration deduped by isomorphism."""
    reg = IsoClassRegistry()
    for g in all_labeled_trees(n):
        reg.add(g)
    return reg.count


def count_unicyclic_bruteforce(n: int, trees: list[Graph]) -> int:
    """Unlabeled unicyclic count: each tree plus one extra edge, deduped."""
    reg = IsoClassRegistry()
    for t in trees:
        assert t.n == n
        for i, j in combinations(range(n), 2):
            if t.adj[i] >> j & 1:
                continue
            reg.add(from_edges(n, t.edges() + [(i, j)]))
    return reg.count


# --- analytic class counts -------------------------------------------------
#
# Rooted trees satisfy r(n) = (1/(n-1)) * sum_{j<n} c(j) r(n-j) with
# c(j) = sum_{d|j} d*r(d); free trees follow from the generating-function
# identity t(x) = r(x) - (r(x)^2 - r(x^2))/2, and connected unicyclic counts
# from averaging rooted-forest necklaces over the dihedral groups.


def rooted_tree_counts(n_max: int) -> list[int]:
    r = [0] * (n_max + 1)
    r[1] = 1
    c = [0] * (n_max + 1)
    for n in range(1, n_max):
        c[n] = sum(d * r[d] for d in range(1, n + 1) if n % d == 0)
        total = sum(c[j] * r[n + 1 - j] for j in range(1, n + 1))
        assert total % n == 0
        r[n + 1] = total // n
    return r


def free_tree_counts(n_max: int) -> list[int]:
    r = rooted_tree_counts(n_max)
    t = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        conv = sum(r[i] * r[n - i] for i in range(1, n))
        twice = 2 * r[n] - conv + (r[n // 2] if n % 2 == 0 else 0)
        assert twice % 2 == 0
        t[n] = twice // 2
    return t


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _poly_mul(a: list[int], b: list[int], n_max: int) -> list[int]:
    out = [0] * (n_max + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > n_max:
                break
            out[i + j] += ai * bj
    return out


def _poly_pow(base: list[int], k: int, n_max: int) -> list[int]:
    out = [0] * (n_max + 1)
    out[0] = 1
    for _ in range(k):
        out = _poly_mul(out, base, n_max)
    return out


def _substitute(poly: list[int], d: int, n_max: int) -> list[int]:
    out = [0] * (n_max + 1)
    for i, coeff in enumerate(poly):
        if i * d <= n_max:
            out[i * d] = coeff
    return out


def unicyclic_counts(n_max: int) -> list[int]:
    """Connected unicyclic graph counts via dihedral-necklace averaging of
    rooted trees around each cycle length."""
    r = rooted_tree_counts(n_max)
    rx = list(r)
    rx[0] = 0
    out = [Fraction(0)] * (n_max + 1)
    for length in range(3, n_max + 1):
        acc = [Fraction(0)] * (n_max + 1)
        for d in range(1, length + 1):
            if length % d:
                continue
            term = _poly_pow(_substitute(rx, d, n_max), length // d, n_max)
            w = Fraction(_euler_phi(d), 2 * length)
            for i in range(n_max + 1):
                acc[i] += w * term[i]
        rx2 = _substitute(rx, 2, n_max)
        if length % 2 == 1:
            refl = _poly_mul(rx, _poly_pow(rx2, (length - 1) // 2, n_max), n_max)
            for i in range(n_max + 1):
                acc[i] += Fraction(refl[i], 2)
        else:
            refl_a = _poly_pow(rx2, length // 2, n_max)
            refl_b = _poly_mul(_poly_mul(rx, rx, n_max), _poly_pow(rx2, (length - 2) // 2, n_max), n_max)
            for i in range(n_max + 1):
                acc[i] += Fraction(refl_a[i] + refl_b[i], 4)
        for i in range(n_max + 1):
            out[i] += acc[i]
    counts = []
    for value in out:
        assert value.denominator == 1
        counts.append(int(value))
    return counts


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.25) -> Graph:
    """Random spanning tree plus random extra edges; connected by build."""
    if n == 1:
        return from_edges(1, [])
    if n == 2:
        seq: tuple[int, ...] = ()
    else:
        seq = tuple(rng.randrange(n) for _ in range(n - 2))
    tree = prufer_decode(seq, n)
    edges = tree.edges()
    for i, j in combinations(range(n), 2):
        if not tree.adj[i] >> j & 1 and rng.random() < extra_edge_prob:
            edges.append((i, j))
    return from_edges(n, edges)


def graph6_encode_bitwise(g: Graph) -> bytes:
    """graph6 bytes, packed one upper-triangle bit at a time."""
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    out = bytearray(head)
    acc = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (g.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def graph6_decode_bitwise(data: bytes | str) -> Graph:
    """graph6 decoding through a per-bit list, raising what
    ``dissoc.graph6_decode`` raises."""
    if isinstance(data, str):
        data = data.encode("ascii")
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ValueError("graph6 orders above 258047 are not supported")
        if len(data) < 4:
            raise ValueError("truncated graph6 size prefix")
        digits = [b - 63 for b in data[1:4]]
        if any(d < 0 or d > 63 for d in digits):
            raise ValueError("invalid graph6 size prefix byte")
        n = (digits[0] << 12) | (digits[1] << 6) | digits[2]
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"decoded order {n} outside [1, {MAX_ORDER}]")
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {expect}")
    bits = []
    for b in body:
        x = b - 63
        if x < 0 or x > 63:
            raise ValueError(f"invalid graph6 data byte {b}")
        bits.extend((x >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 data")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    return Graph(n, rows)


def pendant_path_triples(g: Graph) -> list[tuple[int, int, int]]:
    """(w, u, v) with v a leaf, u its degree-2 support and w the other
    neighbor of u, by ascending v, found by scanning the degrees."""
    out = []
    for v in iter_bits(leaves(g)):
        u = g.adj[v].bit_length() - 1
        if g.adj[u].bit_count() != 2:
            continue
        w = (g.adj[u] & ~(1 << v)).bit_length() - 1
        out.append((w, u, v))
    return out


def delete_vertices_bitwise(g: Graph, s: int) -> tuple[Graph, dict[int, int]]:
    """``dissoc.delete_vertices``, relabelling one neighbor bit at a time."""
    if s & ~g.full_mask:
        raise ValueError("set contains vertices outside the graph")
    if s == g.full_mask:
        raise ValueError("cannot remove all vertices")
    keep = bit_list(g.full_mask & ~s)
    relabel = {old: new for new, old in enumerate(keep)}
    rows = []
    for old in keep:
        row = 0
        for u in iter_bits(g.adj[old] & ~s):
            row |= 1 << relabel[u]
        rows.append(row)
    return Graph(len(keep), rows), relabel
