"""Canonical codes and isomorphism-free generators for trees and unicyclic
graphs.

Rooted trees are canonicalized bottom-up (leaf -> "()", internal node ->
"(" + sorted child codes + ")"), free trees by rooting at the centroid, and
unicyclic graphs as a dihedral necklace of the rooted-tree codes hanging at
each cycle position. No general-purpose canonical labeling is needed at
these orders. Every code starts from the leaf peel of ``graphs._layout``
(a tree peels completely, a unicyclic graph down to its cycle) and codes
each peeled subtree in one pass over the peel order.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import combinations, pairwise, product
from typing import Iterator, NamedTuple, Sequence

from .graphs import MAX_ORDER, Graph, _layout, _trusted, _unicyclic_cycle, from_edges, is_caterpillar

# Keys corpus cache files. Bump it whenever a generator's output (which
# graphs, their labels or their order) changes; a package release alone
# leaves cached corpora valid. tests/test_canon.py pins that output.
GENERATOR_VERSION = "0.1.0"


class CanonicalCode(NamedTuple):
    kind: str  # "free-tree" | "unicyclic"
    text: str


def _coded_tree(adj: Sequence[int]) -> tuple | None:
    """The ``_layout`` of a tree (connected and acyclic, so m = n-1) with
    every peeled subtree coded (leaf -> "()", vertex -> "(" + sorted child
    codes + ")"), else None. The last vertex peeled is a center.

    Returns (order, parent, size, code, kids): the peel order and parents,
    and per vertex the order of its subtree, its code and the codes of its
    children.
    """
    layout = _layout(adj)
    if layout[2] or layout[1].count(-1) != 1:
        return None
    order, parent, _ = layout
    return (order, parent, *_subtree_codes(order, parent))


def _subtree_codes(order: list[int], parent: list[int]) -> tuple:
    """Per vertex the order of its peeled subtree, its code and the codes
    of its peeled children, in one pass over the peel order."""
    n = len(parent)
    size = [1] * n
    code = [""] * n
    kids: list[list[str]] = [[] for _ in range(n)]
    for v in order:
        ks = kids[v]
        if ks:
            ks.sort()
        code[v] = text = "(" + "".join(ks) + ")" if ks else "()"
        u = parent[v]
        if u >= 0:
            size[u] += size[v]
            kids[u].append(text)
    return size, code, kids


def _rerooted(peel: tuple, v: int, drop: int = -1) -> str:
    """AHU code of v's tree rooted at v, without the branch of v's peeled
    child ``drop``: the codes on the path from v up to the peel's root are
    recomputed with the path reversed."""
    _, parent, _, code, kids = peel
    if parent[v] < 0 and drop < 0:
        return code[v]
    chain = [v]
    while parent[chain[-1]] >= 0:
        chain.append(parent[chain[-1]])
    text = None
    for i in range(len(chain) - 1, -1, -1):
        ks = list(kids[chain[i]])
        below = chain[i - 1] if i else drop
        if below >= 0:
            ks.remove(code[below])
        if text is not None:
            insort(ks, text)
        text = "(" + "".join(ks) + ")"
    return text


def _tree_text(adj: Sequence[int]) -> str | None:
    """Free-tree code text of the rows, None if they are not a tree."""
    peel = _coded_tree(adj)
    return None if peel is None else _free_text(peel, len(adj))


def _free_text(peel: tuple, n: int) -> str:
    """Free-tree code text of a coded peel of an n-vertex tree.

    From any root, the vertices whose subtree holds more than half the tree
    form a path down to the centroid, so the centroid is the first such
    vertex in the peel order. A subtree of exactly half (listed before it)
    is the second centroid, hanging directly below the first.
    """
    order, parent, size, code, _ = peel
    for v in order:
        if 2 * size[v] >= n:
            break
    if 2 * size[v] > n:
        return "C" + _rerooted(peel, v)
    halves = sorted((code[v], _rerooted(peel, parent[v], drop=v)))
    return "B" + halves[0] + halves[1]


def _extended(peel: tuple, v: int) -> tuple:
    """The coded peel of the tree with a new leaf at v, numbered after the
    others and listed first: only the path from v up to the peel's root is
    recoded and resized, on copies, so ``peel`` stays as it is."""
    order, parent, size, code, kids = peel
    parent, size, code, kids = parent + [v], size + [1], code + ["()"], kids + [[]]
    old, text = None, "()"  # the path child's code before and after
    while v >= 0:
        ks = kids[v] = list(kids[v])
        if old is not None:
            del ks[bisect_left(ks, old)]
        insort(ks, text)
        old = code[v]
        code[v] = text = "(" + "".join(ks) + ")"
        size[v] += 1
        v = parent[v]
    return [len(parent) - 1] + order, parent, size, code, kids


def tree_code(g: Graph) -> CanonicalCode:
    """Canonical code of a free tree; equal codes iff isomorphic."""
    text = _tree_text(g.adj)
    if text is None:
        raise ValueError("tree_code requires a tree")
    return CanonicalCode("free-tree", text)


def _dihedral_min(codes: tuple) -> tuple:
    """Least rotation or reflection; only those starting at a least entry
    can win."""
    low = min(codes)
    best = codes
    for seq in (codes, codes[::-1]):
        for k, c in enumerate(seq):
            if c == low:
                cand = seq[k:] + seq[:k]
                if cand < best:
                    best = cand
    return best


def unicyclic_code(g: Graph) -> CanonicalCode:
    """Canonical code of a unicyclic graph; equal codes iff isomorphic."""
    layout = _layout(g.adj)
    cyc = _unicyclic_cycle(layout)
    if cyc is None:
        raise ValueError("unicyclic_code requires a unicyclic graph")
    order, parent, _ = layout
    _, _, kids = _subtree_codes(order, parent)
    codes = tuple("(" + "".join(sorted(kids[v])) + ")" for v in cyc)
    return CanonicalCode("unicyclic", f"{len(cyc)}:" + "|".join(_dihedral_min(codes)))


_tree_levels: dict[int, dict[str, Graph]] = {}


def _tree_table(n: int) -> dict[str, Graph]:
    if n in _tree_levels:
        return _tree_levels[n]
    if n == 1:
        g = from_edges(1, [])
        table = {_tree_text(g.adj): g}
    else:
        table = {}
        leaf = n - 1
        for g in _tree_table(n - 1).values():
            peel = _coded_tree(g.adj)
            extended = 0  # neighbors of the leaves extended so far
            for v in range(leaf):
                row = g.adj[v]
                if row & (row - 1) == 0:
                    # a leaf: swapping it with an earlier leaf of the same
                    # neighbor is an automorphism, so that extension covers it
                    if row & extended:
                        continue
                    extended |= row
                key = _free_text(_extended(peel, v), n)
                if key not in table:
                    # g with a new leaf at v
                    rows = g.adj[:v] + (g.adj[v] | 1 << leaf,) + g.adj[v + 1 :] + (1 << v,)
                    table[key] = _trusted(n, rows)
    _tree_levels[n] = table
    return table


def generate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees of order n.

    Built by extending smaller trees with one leaf and deduplicating by
    canonical code; yielded in code order. An order outside [1, MAX_ORDER]
    is refused before any table is built.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {n}")
    table = _tree_table(n)
    for key in sorted(table):
        yield table[key]


def generate_caterpillars(n: int) -> Iterator[Graph]:
    yield from filter(is_caterpillar, generate_trees(n))


_rooted_tables: dict[int, dict[str, tuple[int, ...]]] = {}


def _rooted_table(size: int) -> dict[str, tuple[int, ...]]:
    """All rooted trees on ``size`` vertices as code -> rows, relabeled
    with the root as vertex 0 and the others after it in their order."""
    if size in _rooted_tables:
        return _rooted_tables[size]
    table: dict[str, tuple[int, ...]] = {}
    for g in generate_trees(size):
        peel = _coded_tree(g.adj)
        for root in range(g.n):
            key = _rerooted(peel, root)
            if key not in table:
                rows = (g.adj[root],) + g.adj[:root] + g.adj[root + 1 :]
                low = (1 << root) - 1  # the labels below the root move up by one
                table[key] = tuple((row & low) << 1 | row >> root & 1 | row & ~low << 1 for row in rows)
    _rooted_tables[size] = table
    return table


def _assemble_unicyclic(n: int, pieces: list[tuple[int, ...]]) -> Graph:
    """The cycle 0..r-1 with the rooted tree of rows pieces[i] (root first,
    as in ``_rooted_table``) hung at position i; the other vertices are
    numbered from r up, tree by tree, in their order inside the tree."""
    r = len(pieces)
    rows = [0] * n
    for i in range(r):
        rows[i] = 1 << (i + 1) % r | 1 << (i - 1) % r
    start = r
    for pos, tree in enumerate(pieces):
        # local vertex 0 is pos, local vertex i >= 1 is start + i - 1
        rows[pos] |= tree[0] >> 1 << start
        for i, row in enumerate(tree[1:], start):
            rows[i] = (row & 1) << pos | row >> 1 << start
        start += len(tree) - 1
    return _trusted(n, tuple(rows))


def generate_unicyclic(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of unicyclic graphs of order n.

    For each cycle length r the rooted trees hanging at the r positions are
    enumerated by code and only the dihedral-canonical code tuple is built,
    so no post-hoc deduplication is needed. Yields ascending cycle length,
    then code order. An order outside [1, MAX_ORDER] is refused before any
    table is built.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {n}")
    if n < 3:
        return
    # rank every rooted code once: rank order is code order, so tuples of
    # ranks sort and compare like the code tuples
    pieces: list[tuple[int, ...]] = []
    ranks_by_size: dict[int, list[int]] = {}
    for key, size in sorted((key, size) for size in range(1, n - 1) for key in _rooted_table(size)):
        ranks_by_size.setdefault(size, []).append(len(pieces))
        pieces.append(_rooted_table(size)[key])
    for r in range(3, n + 1):
        batch: list[tuple[int, ...]] = []
        # each composition of n into r parts, by its cut points
        for cuts in combinations(range(1, n), r - 1):
            first_ranks, *others = (ranks_by_size[b - a] for a, b in pairwise((0, *cuts, n)))
            for first in first_ranks:
                # a canonical tuple starts with its least entry
                rest = [ranks[bisect_left(ranks, first):] for ranks in others]
                for tail in product(*rest):
                    combo = (first,) + tail
                    if combo == _dihedral_min(combo):
                        batch.append(combo)
        batch.sort()
        for combo in batch:
            yield _assemble_unicyclic(n, [pieces[k] for k in combo])


# class name -> generator, shared by the ``gen`` command and the suite runner
GENERATORS = {
    "tree": generate_trees,
    "caterpillar": generate_caterpillars,
    "unicyclic": generate_unicyclic,
}
