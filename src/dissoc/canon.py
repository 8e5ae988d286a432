"""Canonical codes and isomorphism-free generators for trees and unicyclic
graphs.

Rooted trees are canonicalized bottom-up (leaf -> "()", internal node ->
"(" + sorted child codes + ")"), free trees by rooting at the centroid, and
unicyclic graphs as a dihedral necklace of the rooted-tree codes hanging at
each cycle position. No general-purpose canonical labeling is needed at
these orders.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

from .graphs import (
    Graph,
    classify,
    cycle_vertices,
    from_edges,
    is_caterpillar,
    iter_bits,
)

DEFAULT_TREE_CAP = 14
DEFAULT_UNICYCLIC_CAP = 13
# Keys corpus cache files. Bump it whenever a generator's output (which
# graphs, their labels or their order) changes; a package release alone
# leaves cached corpora valid.
GENERATOR_VERSION = "0.1.0"


class CanonicalCode(NamedTuple):
    kind: str  # "rooted-tree" | "free-tree" | "unicyclic"
    text: str


def _rooted_text(g: Graph, root: int, banned: int = 0) -> str:
    """AHU code of the subtree reachable from root, avoiding banned vertices."""

    def code(v: int, parent: int) -> str:
        subcodes = sorted(
            code(u, v) for u in iter_bits(g.adj[v] & ~banned) if u != parent
        )
        return "(" + "".join(subcodes) + ")"

    return code(root, -1)


def ahu_code(g: Graph, root: int) -> CanonicalCode:
    """Canonical code of a tree rooted at the given vertex."""
    if classify(g).kind != "tree":
        raise ValueError("ahu_code requires a tree")
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range")
    return CanonicalCode("rooted-tree", _rooted_text(g, root))


def _centroids(g: Graph) -> list[int]:
    n = g.n
    order: list[int] = []
    parent = [-1] * n
    seen = 1
    stack = [0]
    visited = [False] * n
    visited[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for u in iter_bits(g.adj[v]):
            if not visited[u]:
                visited[u] = True
                parent[u] = v
                stack.append(u)
                seen += 1
    size = [1] * n
    maxcomp = [0] * n
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
            maxcomp[parent[v]] = max(maxcomp[parent[v]], size[v])
    for v in range(n):
        maxcomp[v] = max(maxcomp[v], n - size[v])
    best = min(maxcomp)
    return [v for v in range(n) if maxcomp[v] == best]


def tree_code(g: Graph) -> CanonicalCode:
    """Canonical code of a free tree; equal codes iff isomorphic."""
    if classify(g).kind != "tree":
        raise ValueError("tree_code requires a tree")
    cents = _centroids(g)
    if len(cents) == 1:
        return CanonicalCode("free-tree", "C" + _rooted_text(g, cents[0]))
    c1, c2 = cents
    halves = sorted(
        (_rooted_text(g, c1, banned=1 << c2), _rooted_text(g, c2, banned=1 << c1))
    )
    return CanonicalCode("free-tree", "B" + halves[0] + halves[1])


def _cycle_sequence(g: Graph) -> list[int]:
    mask = cycle_vertices(g)
    start = (mask & -mask).bit_length() - 1
    seq = [start]
    prev = -1
    cur = start
    while True:
        nxt_candidates = [u for u in iter_bits(g.adj[cur] & mask) if u != prev]
        nxt = nxt_candidates[0]
        if nxt == start:
            return seq
        seq.append(nxt)
        prev, cur = cur, nxt


def _dihedral_min(codes: tuple[str, ...]) -> tuple[str, ...]:
    best = codes
    for seq in (codes, codes[::-1]):
        for k in range(len(seq)):
            cand = seq[k:] + seq[:k]
            if cand < best:
                best = cand
    return best


def unicyclic_code(g: Graph) -> CanonicalCode:
    """Canonical code of a unicyclic graph; equal codes iff isomorphic."""
    seq = _cycle_sequence(g)
    mask = cycle_vertices(g)
    codes = tuple(
        _rooted_text(g, v, banned=mask & ~(1 << v)) for v in seq
    )
    best = _dihedral_min(codes)
    return CanonicalCode("unicyclic", f"{len(seq)}:" + "|".join(best))


def _with_leaf(g: Graph, v: int) -> Graph:
    return from_edges(g.n + 1, g.edges() + [(v, g.n)])


_tree_levels: dict[int, dict[str, Graph]] = {}


def _tree_table(n: int) -> dict[str, Graph]:
    if n in _tree_levels:
        return _tree_levels[n]
    if n == 1:
        table = {tree_code(from_edges(1, [])).text: from_edges(1, [])}
    else:
        table = {}
        for g in _tree_table(n - 1).values():
            for v in range(g.n):
                extended = _with_leaf(g, v)
                key = tree_code(extended).text
                if key not in table:
                    table[key] = extended
    _tree_levels[n] = table
    return table


def generate_trees(n: int, cap: int | None = None) -> Iterator[Graph]:
    """One representative per isomorphism class of trees of order n.

    Built by extending smaller trees with one leaf and deduplicating by
    canonical code; yielded in code order.
    """
    cap = DEFAULT_TREE_CAP if cap is None else cap
    if not 1 <= n <= cap:
        raise ValueError(f"tree generation supports 1 <= n <= {cap}")
    table = _tree_table(n)
    for key in sorted(table):
        yield table[key]


def generate_caterpillars(n: int, cap: int | None = None) -> Iterator[Graph]:
    for g in generate_trees(n, cap):
        if is_caterpillar(g):
            yield g


_rooted_tables: dict[int, dict[str, tuple[Graph, int]]] = {}


def _rooted_table(size: int) -> dict[str, tuple[Graph, int]]:
    """All rooted trees on ``size`` vertices as code -> (tree, root)."""
    if size in _rooted_tables:
        return _rooted_tables[size]
    table: dict[str, tuple[Graph, int]] = {}
    for g in generate_trees(size, cap=max(size, DEFAULT_TREE_CAP)):
        for root in range(g.n):
            key = _rooted_text(g, root)
            if key not in table:
                table[key] = (g, root)
    _rooted_tables[size] = table
    return table


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _assemble_unicyclic(r: int, combo: tuple[str, ...], sizes: tuple[int, ...]) -> Graph:
    n = sum(sizes)
    edges = [(i, (i + 1) % r) for i in range(r)]
    next_label = r
    for pos in range(r):
        tree, root = _rooted_table(sizes[pos])[combo[pos]]
        relabel = {root: pos}
        for v in range(tree.n):
            if v != root:
                relabel[v] = next_label
                next_label += 1
        edges += [(relabel[a], relabel[b]) for a, b in tree.edges()]
    return from_edges(n, edges)


_unicyclic_memo: dict[int, list[Graph]] = {}


def generate_unicyclic(n: int, cap: int | None = None) -> Iterator[Graph]:
    """One representative per isomorphism class of unicyclic graphs of order n.

    For each cycle length r the rooted trees hanging at the r positions are
    enumerated by code and only the dihedral-canonical code tuple is built,
    so no post-hoc deduplication is needed. Yields ascending cycle length,
    then code order.
    """
    cap = DEFAULT_UNICYCLIC_CAP if cap is None else cap
    if not 1 <= n <= cap:
        raise ValueError(f"unicyclic generation supports 1 <= n <= {cap}")
    if n < 3:
        return
    if n in _unicyclic_memo:
        yield from _unicyclic_memo[n]
        return
    out: list[Graph] = []
    for r in range(3, n + 1):
        batch: list[tuple[tuple[str, ...], tuple[int, ...]]] = []
        for sizes in _compositions(n, r):
            code_lists = [sorted(_rooted_table(s)) for s in sizes]
            for combo in product(*code_lists):
                if combo == _dihedral_min(combo):
                    batch.append((combo, sizes))
        batch.sort(key=lambda item: "|".join(item[0]))
        for combo, sizes in batch:
            out.append(_assemble_unicyclic(r, combo, sizes))
    _unicyclic_memo[n] = out
    yield from out


# class name -> generator, shared by the ``gen`` command and the suite runner
GENERATORS = {
    "tree": generate_trees,
    "caterpillar": generate_caterpillars,
    "unicyclic": generate_unicyclic,
}
