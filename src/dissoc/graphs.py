"""Immutable bit-packed graphs on up to 64 vertices.

A vertex set is a plain ``int`` bitmask (bit ``v`` set means vertex ``v``
belongs to the set), so adjacency rows, neighborhoods, and the sets handled
by the enumeration code are all single machine words and the inner loops
reduce to integer bit operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

MAX_ORDER = 64


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vset(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


class Graph:
    """Simple undirected graph with bit-row adjacency.

    Instances are immutable value objects: every surgery operation returns a
    new graph, so graphs can be shared freely between worker processes.
    Construction validates symmetry, absence of self-loops, and that no row
    uses bit positions at or beyond the order. The package's own builders
    (``from_edges``, ``delete_vertices``, ``disjoint_union``,
    ``graph6_decode`` and the generators in ``canon``) go through
    ``_trusted`` instead: their rows are valid by construction, so only
    their inputs are checked.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        if not 1 <= n <= MAX_ORDER:
            raise ValueError(f"order must be in [1, {MAX_ORDER}], got {n}")
        rows = tuple(adj)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} uses vertices >= order {n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in iter_bits(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
        self.n = n
        self.adj = rows

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) pairs with i < j, sorted."""
        out = []
        for v, row in enumerate(self.adj):
            for u in iter_bits(row):
                if u > v:
                    out.append((v, u))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    def __getstate__(self):
        return (self.n, self.adj)

    def __setstate__(self, state):
        self.n, self.adj = state


def _trusted(n: int, rows: tuple[int, ...]) -> Graph:
    """A Graph from rows that are symmetric, loop-free and within the order
    by construction, skipping the O(m) re-check of ``Graph.__init__``."""
    g = Graph.__new__(Graph)
    g.n = n
    g.adj = rows
    return g


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on vertices 0..n-1 with the given edges.

    Duplicate edges collapse; self-loops and out-of-range endpoints raise.
    It owns the family builders' order check: an order outside [1, MAX_ORDER]
    raises before any edge is read, so they pass their edges lazily.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {n}")
    rows = [0] * n
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop ({i},{i}) rejected")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for order {n}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return _trusted(n, tuple(rows))


def path(n: int) -> Graph:
    """The path P_n on vertices 0..n-1 labeled along the path."""
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """The cycle C_n, closing the edge (n-1, 0)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def delete_vertices(g: Graph, s: int) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on V minus ``s``, compactly relabeled.

    Surviving vertices are renumbered 0.. in their original order; the
    returned dict maps old labels to new ones. Removing every vertex is
    rejected (the empty graph is not representable).
    """
    if s & ~g.full_mask:
        raise ValueError("set contains vertices outside the graph")
    if s == g.full_mask:
        raise ValueError("cannot remove all vertices")
    # each maximal run of kept labels moves down, in one shift, by the
    # number of deleted labels below it
    runs = []
    kept: list[int] = []
    rest = g.full_mask & ~s
    while rest:
        low = rest & -rest
        run = rest & ~(rest + low)
        start = low.bit_length() - 1
        kept.extend(range(start, start + run.bit_count()))
        runs.append((run, (s & (low - 1)).bit_count()))
        rest ^= run
    rows = []
    for old in kept:
        row = g.adj[old]
        new = 0
        for run, shift in runs:
            new |= (row & run) >> shift
        rows.append(new)
    return _trusted(len(kept), tuple(rows)), {old: new for new, old in enumerate(kept)}


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union, with h's vertices shifted up by g.n."""
    n = g.n + h.n
    if n > MAX_ORDER:
        raise ValueError(f"combined order {n} exceeds {MAX_ORDER}")
    return _trusted(n, g.adj + tuple(row << g.n for row in h.adj))


def closed_neighborhood(g: Graph, v: int) -> int:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")
    return g.adj[v] | (1 << v)


def _component(adj: Sequence[int], v: int, within: int) -> int:
    """The vertices of v's component in the subgraph induced by ``within``,
    as a bitmask."""
    comp = frontier = 1 << v
    while frontier:
        nxt = 0
        for u in iter_bits(frontier):
            nxt |= adj[u]
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def _layout(adj: Sequence[int]) -> tuple[list[int], list[int], list[tuple[list[int], int]]]:
    """Peel leaves, oldest first, then walk what remains.

    Returns (peel order, parent per vertex, one core per component with a
    cycle). Every peeled vertex comes after its peeled neighbors (its
    children), a tree component's last vertex has parent -1, and a pendant
    tree's top vertex has a core vertex as parent. A core is (walk, k): its
    vertices from the lowest, and k = m - n + 1 for the component. A
    unicyclic component's walk is its cycle in cyclic order (k = 1); any
    other's is ascending.
    """
    n = len(adj)
    deg = [row.bit_count() for row in adj]
    order = [v for v in range(n) if deg[v] <= 1]
    parent = [-1] * n
    alive = (1 << n) - 1
    for v in order:  # grows as vertices become leaves
        alive ^= 1 << v
        rest = adj[v] & alive
        if rest:
            u = rest.bit_length() - 1
            parent[v] = u
            deg[u] -= 1
            if deg[u] == 1:
                order.append(u)
    cores = []
    while alive:
        p = (alive & -alive).bit_length() - 1
        walk, before = [], alive
        while p >= 0 and deg[p] == 2:  # every core degree 2: a cycle, walked in order
            walk.append(p)
            alive ^= 1 << p
            p = (adj[p] & alive).bit_length() - 1
        if p < 0:
            cores.append((walk, 1))
            continue
        core = _component(adj, (before & -before).bit_length() - 1, before)
        alive = before & ~core
        walk = bit_list(core)
        cores.append((walk, sum(deg[v] for v in walk) // 2 - len(walk) + 1))
    return order, parent, cores


def _unicyclic_cycle(layout: tuple) -> list[int] | None:
    """The cycle of a unicyclic graph from its ``_layout``, else None: the
    graph is unicyclic iff it has one core, with k = 1, and every peeled
    vertex hangs below it."""
    _, parent, cores = layout
    if len(cores) != 1 or cores[0][1] != 1 or parent.count(-1) != len(cores[0][0]):
        return None
    return cores[0][0]


def leaves(g: Graph) -> int:
    """Bitmask of degree-1 vertices."""
    return vset(v for v in range(g.n) if g.adj[v].bit_count() == 1)


def support_vertices(g: Graph) -> int:
    """Bitmask of vertices adjacent to at least one leaf."""
    out = 0
    for v in iter_bits(leaves(g)):
        out |= g.adj[v]
    return out


def is_caterpillar(g: Graph) -> bool:
    """True iff g is a tree whose non-leaf vertices induce a path.

    The leaf peel tells a tree: it leaves no core and one root. Removing
    the leaves of a tree keeps it connected, so the check reduces to a
    degree bound on the remaining vertices. Trees that shrink to nothing
    or to a single vertex count as caterpillars.
    """
    _, parent, cores = _layout(g.adj)
    if cores or parent.count(-1) != 1:
        return False
    inner = g.full_mask & ~leaves(g)
    return all((g.adj[v] & inner).bit_count() <= 2 for v in iter_bits(inner))


# --- graph6 serialization -------------------------------------------------
#
# Standard printable encoding: a size prefix (one byte n+63 for n <= 62,
# else 126 followed by three 6-bit digits), then the upper triangle of the
# adjacency matrix in column-major order, packed big-endian six bits per
# byte, each byte offset by 63. Encoding is label-sensitive by design.


def graph6_encode(g: Graph) -> bytes:
    n = g.n
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    # bit p of ``stream`` is bit p of the upper triangle: column j holds the
    # edges (i, j), i < j, which are the low j bits of row j
    stream = 0
    for j, row in enumerate(g.adj):
        stream |= (row & ((1 << j) - 1)) << (j * (j - 1) // 2)
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    # reversed, so that bit 0 comes first, and padded to whole bytes
    packed = int(format(stream, f"0{nbits}b")[::-1], 2) << pad if nbits else 0
    return bytes(head + [(packed >> k & 63) + 63 for k in range(nbits + pad - 6, -1, -6)])


def graph6_decode(data: bytes | str) -> Graph:
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
    # the set bits in order, high bit first in each byte: bit p is the pair
    # (i, j) of the column j that starts at bit j(j-1)/2, so j only grows
    rows = [0] * n
    first, start, j = 0, 0, 1  # the byte's first bit, column j's first bit
    for b in body:
        x = b - 63
        if x < 0 or x > 63:
            raise ValueError(f"invalid graph6 data byte {b}")
        while x:
            k = x.bit_length()
            x ^= 1 << k - 1
            p = first + 6 - k
            if p >= nbits:
                raise ValueError("nonzero padding bits in graph6 data")
            while start + j <= p:
                start += j
                j += 1
            i = p - start
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        first += 6
    return _trusted(n, tuple(rows))
