"""Enumeration and exact counting of maximal dissociation sets.

A dissociation set induces a subgraph of maximum degree at most one, i.e. a
disjoint union of isolated vertices and single edges. It is maximal when
every outside vertex is blocked: it has two neighbors in the set, or one
neighbor that already has a partner inside.

Counting (``phi``, ``phi_refined``, ``mds_profile``) runs a subtree-vector
dynamic program. The graph is peeled leaf by leaf; each peeled vertex hangs
below its last neighbor, which leaves one root per tree component and one
core per component with cycles (``graphs._layout``). Per vertex ``v`` the
DP keeps a six-slot vector of what the neighbors merged so far demand of
``v``: with ``v`` out of the set, that it has no in-neighbor yet, exactly
one in-neighbor of induced degree 0, or is already blocked; with ``v`` in,
that it has no in-neighbor, none but must still gain a partner (an out
neighbor relies on ``v`` being matched), or is matched to one of them.
Merging a neighbor is a product of two such vectors. ``_edge`` turns a
finished subtree into the vector its parent sees, applying the subtree
root's allowed statuses; each allowed bit (out, in with degree 0, in with
degree 1) gates its own slots, so refined counts pin vertices for free.

A core with k = m - n + 1 = 1 is a cycle, cut as the paper cuts it at one
edge (a, b) into six cases over the statuses of a and b (both out; both in
and each other's partner; one in with degree 0 or 1, the other out): one
chain over the cycle per case, all sharing the pendant-tree vectors. A core
with k >= 2 is swept once (``_sweep``), in a greedy order that keeps its
frontier small. A state gives each frontier vertex one slot of its vector,
and a table maps states to counts. A vertex comes in at its slots, weighted
by its pendant-tree vector; each edge back to the frontier updates the
slots of both ends; and a vertex leaves, blocked, in-free or matched, once
its last core neighbor is in. The cost follows the live states, not k: the
ladder of order 64 (k = 31) keeps a frontier of width 2. A sweep that would
pass through more than ``_MAX_STATES`` states, summed over its steps,
raises ``ValueError`` instead, whether it counts or profiles.

A vertex's context is everything outside its subtree, as one vector of
demands on the vertex. One on-demand top-down pass, ``_Contexts``, is the
only source of contexts. A tree root's context is empty. A cycle vertex c's
is what its cycle neighbors hand it: with the cycle cut beside c, one chain
per case from the far end of the cut back to c (``_context``), summed over
the cases since c's mask is the same in every case; ``_count`` closes it at
the vertex next to the cut. ``mds_profile`` asks for every cycle vertex
this way, so a cycle's profile costs the square of its length. On a core
with k >= 2, a vertex's count is linear in the weights of its slots; one
backward pass over the kept tables gives, per slot, the count with the
vertex at that slot alone, and so, on the first ask, the context of every
vertex of the core (``_sweep_contexts``). Below the root or core, a child's
context follows from its parent's and the product of its siblings, so only
the path down to the vertex is visited, and a profile is quadratic in a
vertex's child count. Merging the context with the vertex's vector gives its
triple (``_Contexts.triple``), which sums to the count of its component;
merging it with the vertex's vector minus one child's subtree gives the
triple in the graph without that subtree, which is what the pendant-path
suite compares. Its pendant paths w-u-v come from the same peel: v is
peeled with no children, v is u's only child, and u hangs below w. Such a u
hands w the same vector whatever the path, so the paths at one w share both
triples. The surgery suite's graphs add k leaves at a vertex w, or k - 2
leaves and a path of two; those hang below w and leave w's context as it
is, so w's triples there are its context merged with its vector times k
leaves, or times k - 2 leaves and the path.

``enumerate_mds`` lists the sets from one sweep over the whole graph, with
nothing peeled and every vertex's vector ``_UNIT``. Every slot then weighs 0
or 1, so each path of slots through the steps is exactly one set. A
backward pass (``_back``, as for contexts) gives each state its number of
completions; a walk forward takes only moves into states with one, so it
never meets a dead end, and puts a vertex in the set when its slot is in.
Both read the moves the sweep memoised, as they use the same slots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator, NamedTuple

from .graphs import Graph, _layout, _unicyclic_cycle, iter_bits, vset

_OUT, _FREE, _MATCHED = 1, 2, 4
_ALL = _OUT | _FREE | _MATCHED


class Status(enum.Enum):
    """Membership requirement attached to one vertex."""

    EXCLUDED = "excluded"
    IN_ANY = "in"
    IN_DEGREE0 = "in0"
    IN_DEGREE1 = "in1"


_STATUS_BITS = {
    Status.EXCLUDED: _OUT,
    Status.IN_ANY: _FREE | _MATCHED,
    Status.IN_DEGREE0: _FREE,
    Status.IN_DEGREE1: _MATCHED,
}


class Constraint(NamedTuple):
    vertex: int
    status: Status


@dataclass(frozen=True)
class MdsProfile:
    """Total count plus per-vertex (excluded, degree-0, degree-1) triples."""

    total: int
    per_vertex: tuple[tuple[int, int, int], ...]


# --- subtree-vector DP --------------------------------------------------------
#
# A vector (x0, x1, xb, n0, nn, n1) counts partial assignments by what they
# demand of one vertex v. With v out: x0 no in-neighbor, x1 one in-neighbor
# of degree 0, xb blocked. With v in: n0 no in-neighbor, nn none yet but
# matching required, n1 matched to a neighbor already merged.

_UNIT = (1, 0, 0, 1, 0, 0)
# what the far end of the cut edge (a, b) asks of its near end
_DEMAND_OUT = (1, 0, 0, 0, 0, 0)  # out: the near end must be out too
_DEMAND_FREE = (0, 1, 0, 0, 0, 0)  # in with degree 0: the near end is out
_DEMAND_BLOCKING = (0, 0, 1, 0, 0, 0)  # in with degree 1: the near end is out
_DEMAND_NONE = (0, 0, 0, 1, 0, 0)  # out and blocked elsewhere: the near end is in
_DEMAND_PARTNER = (0, 0, 0, 0, 0, 1)  # in, its partner: the near end is in
# (demand on a, mask on a, demand on b, mask on b): one case per status
# pattern of a and b, so every maximal set falls in exactly one
_CUT_CASES = (
    (_DEMAND_OUT, _ALL, _DEMAND_OUT, _ALL),
    (_DEMAND_PARTNER, _ALL, _DEMAND_PARTNER, _ALL),
    (_DEMAND_NONE, _FREE, _DEMAND_FREE, _ALL),
    (_DEMAND_NONE, _MATCHED, _DEMAND_BLOCKING, _ALL),
    (_DEMAND_FREE, _ALL, _DEMAND_NONE, _FREE),
    (_DEMAND_BLOCKING, _ALL, _DEMAND_NONE, _MATCHED),
)


def _mul(a: tuple, b: tuple) -> tuple:
    """Merge the demands of two disjoint neighbor sets of one vertex."""
    a0, a1, ab, c0, cn, c1 = a
    b0, b1, bb, d0, dn, d1 = b
    x0 = a0 * b0
    x1 = a0 * b1 + a1 * b0
    n0 = c0 * d0
    c = c0 + cn
    d = d0 + dn
    return (x0, x1, (a0 + a1 + ab) * (b0 + b1 + bb) - x0 - x1, n0, c * d - n0, c * d1 + c1 * d)


def _step(a: tuple, b: tuple, mask: int) -> tuple:
    """``_edge(_mul(a, b), mask)``, fused when every status is allowed."""
    if a is _UNIT:  # a vertex with nothing below it but b
        return _edge(b, mask)
    if mask != _ALL:
        return _edge(_mul(a, b), mask)
    a0, a1, ab, c0, cn, c1 = a
    b0, b1, bb, d0, dn, d1 = b
    x0 = a0 * b0
    rest = (a0 + a1 + ab) * (b0 + b1 + bb) - x0
    c = c0 + cn
    d = d0 + dn
    return (rest - a0 * b1 - a1 * b0, c0 * d0, c * d1 + c1 * d, rest, x0, c * d)


def _edge(a: tuple, mask: int) -> tuple:
    """The demands a finished subtree with root vector ``a`` puts on the
    root's parent p, keeping only the root statuses in ``mask``."""
    x0, x1, xb, n0, nn, n1 = a
    if mask & _OUT:
        # root out: blocked already (p free to choose), blocked once p is
        # in, or needing p in and matched
        p_out, p_in, p_matched = xb, xb + x1, x0
    else:
        p_out = p_in = p_matched = 0
    free = n0 if mask & _FREE else 0
    if mask & _MATCHED:
        # root in: matched below (p must stay out), or matched to p
        blocking, partner = n1, n0 + nn
    else:
        blocking = partner = 0
    return (p_out, free, blocking, p_in, p_matched, partner)


_LEAF = _edge(_UNIT, _ALL)  # what a leaf hands its parent
_STALK = _edge(_LEAF, _ALL)  # what a vertex with one leaf below it hands its parent


def _subtrees(g: Graph, allowed: list[int], order: list[int], parent: list[int]):
    """Bottom-up pass: each vertex's vector over its peeled subtree, the
    vector each peeled vertex hands its parent, and the product of the tree
    components' counts."""
    vec = [_UNIT] * g.n
    up = [_UNIT] * g.n
    trees = 1
    for v in order:
        p = parent[v]
        a = vec[v]
        if p < 0:  # a tree component's last vertex
            trees *= _root_value(_edge(a, allowed[v]))
            continue
        e = up[v] = _LEAF if a is _UNIT and allowed[v] == _ALL else _edge(a, allowed[v])
        # a first child needs no merge: _UNIT is the identity
        vec[p] = e if vec[p] is _UNIT else _mul(vec[p], e)
    return vec, up, trees


def _root_value(e: tuple) -> int:
    return e[0] + e[1] + e[2]


def _add(a: tuple, b: tuple) -> tuple:
    a0, a1, ab, c0, cn, c1 = a
    b0, b1, bb, d0, dn, d1 = b
    return (a0 + b0, a1 + b1, ab + bb, c0 + d0, cn + dn, c1 + d1)


def _context(cyc: list[int], vec: list[tuple], allowed: list[int]) -> tuple:
    """The context of c = cyc[1] on the cycle ``cyc`` cut at (a, b) =
    (cyc[0], cyc[-1]): per live cut case, one chain from b back to c, merged
    with what a hands c. Every case leaves c's mask as it is, so the context
    is one vector, summed over the cases."""
    a, b = cyc[0], cyc[-1]
    at_c = None
    for need_a, mask_a, need_b, mask_b in _CUT_CASES:
        if allowed[a] & mask_a and allowed[b] & mask_b:
            e = _step(vec[b], need_b, allowed[b] & mask_b)
            for v in cyc[-2:1:-1]:
                e = _step(vec[v], e, allowed[v])
            x = _mul(_step(vec[a], need_a, allowed[a] & mask_a), e)
            at_c = x if at_c is None else _add(at_c, x)
    return at_c


# --- frontier sweep over a core with k >= 2 ----------------------------------
#
# A frontier vertex is in one slot of its vector: out with no in-neighbor,
# one in-neighbor of degree 0, or blocked; in with degree 0, in and still
# needing a partner, or in and matched. A state gives each frontier
# position 6 bits, one per slot; a table maps states to counts.

_O0, _O1, _OB, _IF, _IP, _IM = range(6)
_SLOT_BITS = (_OUT, _OUT, _OUT, _FREE, _MATCHED, _MATCHED)
# the most states a sweep may pass through, summed over its tables, whether
# it counts or profiles: under a second of work (CHANGES.md has the graphs
# on each side)
_MAX_STATES = 300_000


def _plan(adj: tuple[int, ...], core: list[int], vec: list[tuple]) -> tuple[list[tuple], int]:
    """The steps of a sweep over ``core``, and its frontier width. The next
    vertex leaves the smallest frontier; ties go to the most edges to the
    vertices taken, then the lowest label. A step is (v, its slots' weights,
    its position's shift, the low bits of its taken neighbors' positions and
    of those that leave after it, the mask of all three)."""
    rest, taken, border = vset(core), 0, 0
    rows = {v: adj[v] & rest for v in core}
    at: dict[int, int] = {}  # the frontier's positions
    steps, width = [], 0
    while rest:
        v = min(
            iter_bits(rest & border or rest),  # a vertex beside the taken ones ranks first
            key=lambda u: (
                bool(rows[u] & rest) - sum(rows[w] & rest == 1 << u for w in at),
                -(rows[u] & taken).bit_count(),
                u,
            ),
        )
        rest ^= 1 << v
        taken |= 1 << v
        border |= rows[v]
        at[v] = q = min(set(range(0, 6 * len(at) + 6, 6)) - set(at.values()))
        width = max(width, len(at))
        near = sum(1 << at[u] for u in iter_bits(rows[v] & taken))
        gone = sum(1 << at.pop(u) for u in list(at) if not rows[u] & rest)
        x0, x1, xb, n0, nn, n1 = vec[v]
        steps.append((v, (x0, x1, xb, n0, n0 + nn, n1), q, near, gone, (1 << q | near | gone) * 63))
    return steps, width


def _moves(step: tuple, slots, memo: dict, s: int) -> list[tuple[int, int]]:
    """(t, the positions ``step`` reads after it) per slot t in ``slots``
    from which those positions s go on, memoised in ``memo``. Per edge to a
    taken neighbor, an out end gains an in-neighbor, blocked unless it is
    its first, of degree 0; two in ends must both be waiting for a partner,
    and become each other's."""
    if s in memo:
        return memo[s]
    _, _, at, near, gone, _ = step
    free, waiting, matched = s >> _IF & near, s >> _IP & near, s >> _IM & near
    out0, out1 = s & near, s >> _O1 & near
    moves = memo[s] = []
    for t in slots:
        x = s
        if t < _IF:
            u = _OB if waiting or matched else min(t + free.bit_count(), _OB)
        elif free or matched or waiting and (t != _IP or waiting & (waiting - 1)):
            continue
        else:  # out neighbors: O0 -> O1 and O1 -> OB beside an in-free vertex, else blocked
            x ^= out0 * 3 | out1 * 6 if t == _IF else out0 * 5 | out1 * 6
            u = _IM if waiting else t
            x ^= waiting << _IP | waiting << _IM
        x |= 1 << at + u
        # a vertex leaves only blocked, in-free or matched
        if not x & gone * (1 << _O0 | 1 << _O1 | 1 << _IP):
            moves.append((t, x & ~(gone * 63)))
    return moves


def _sweep(adj: tuple[int, ...], core: list[int], vec: list[tuple], allowed: list[int], keep: bool = False):
    """The steps of a sweep over ``core``, its tables, the first {0: 1} and
    the last {0: count}, and each step's ``_moves`` memo; without ``keep``,
    only the last table and no memo."""
    steps, width = _plan(adj, core, vec)
    tables, memos, held = [{0: 1}], [], 0
    for step in steps:
        v, weights, read = step[0], step[1], step[5]
        slots = [t for t, w in enumerate(weights) if w and allowed[v] & _SLOT_BITS[t]]
        memo, table = {}, {}  # the moves per the positions read, and the next table
        for s, c in tables[-1].items():
            key = s & read
            for t, x in _moves(step, slots, memo, key):
                x |= s ^ key
                table[x] = table.get(x, 0) + c * weights[t]
            if held + len(table) > _MAX_STATES:
                raise ValueError(f"a sweep of frontier width {width} would pass through more than {_MAX_STATES} live states")
        held += len(table)
        if keep:
            tables.append(table)
            memos.append(memo)
        else:
            tables = [table]
    return steps, tables, memos


def _back(step: tuple, slots, memo: dict, table: dict, after: dict) -> tuple[dict, list[int]]:
    """One step of a backward pass: per state of ``table``, the count of
    its completions, given ``after``, those of the states after ``step``;
    and per slot t in ``slots``, the count with the step's vertex at t
    alone. ``memo`` is the step's ``_moves`` memo."""
    weights, read = step[1], step[5]
    back, w = {}, [0] * 6
    for s, c in table.items():
        key, back[s] = s & read, 0
        for t, x in _moves(step, slots, memo, key):
            x = after.get(x | s ^ key, 0)
            back[s] += weights[t] * x
            w[t] += c * x
    return back, w


def _sweep_contexts(adj: tuple[int, ...], core: list[int], contexts: _Contexts) -> dict[int, tuple]:
    """Every context on ``core``, from the kept tables of a sweep and one
    backward pass. A vertex's count is linear in its slots' weights, w[t]
    the count with it at slot t alone, and so is the merge of its context
    with its vector. w[t] is exact where that vector weighs slot t, and no
    count of the vertex or its pendant trees in g reads it elsewhere."""
    steps, tables, _ = _sweep(adj, core, contexts.vec, contexts.allowed, True)
    back, out = {0: 1}, {}
    for step, table in zip(reversed(steps), reversed(tables[:-1])):
        back, w = _back(step, range(6), {}, table, back)
        out[step[0]] = (w[_OB] - w[_O1], w[_O1] - w[_O0], w[_O0], w[_IF], w[_IM] - w[_IF], w[_IP])
    return out


def _count(g: Graph, allowed: list[int]) -> int:
    order, parent, cores = _layout(g.adj)
    vec, _, total = _subtrees(g, allowed, order, parent)
    for walk, k in cores:
        if k == 1:
            total *= _root_value(_step(_context(walk, vec, allowed), vec[walk[1]], allowed[walk[1]]))
        else:
            total *= _sweep(g.adj, walk, vec, allowed)[1][-1].get(0, 0)
    return total


def _unicyclic_layout(g: Graph) -> tuple[list[int], list[int], list]:
    """The ``_layout`` of g, which the targeted passes require to be a
    connected unicyclic graph. They merge w's context with vectors of
    graphs other than g, and a sweep's context is exact only for counts in
    g itself, since its tables drop the slots that g weighs zero: read on a
    core with two cycles, w's triple in g - {u, v} can come out short."""
    layout = _layout(g.adj)
    if _unicyclic_cycle(layout) is None:
        raise ValueError("the targeted counting passes require a unicyclic graph")
    return layout


def _pendant_paths(parent: list[int]) -> list[tuple[int, int, int]]:
    """(w, u, v) per pendant path w-u-v, v a leaf and u of degree 2, of a
    graph with the peel ``parent``, by ascending v: v is peeled with no
    children, v is u's only child, and u hangs below w."""
    children = [0] * len(parent)
    for p in parent:
        if p >= 0:
            children[p] += 1
    return [
        (parent[u], u, v)
        for v, u in enumerate(parent)
        if u >= 0 and not children[v] and children[u] == 1 and parent[u] >= 0
    ]


class _Contexts:
    """The top-down pass of a graph g from its ``layout``, on demand: the
    subtree vectors, the product ``trees`` of the tree components' counts,
    ``without(p, child)`` (p's vector with ``child``'s subtree left out,
    the product of p's other children, so a profile is quadratic in a
    vertex's child count), ``context_of(v)``, one vector memoised per
    vertex, and ``triple(v)``, the only place a context meets a vertex
    vector. A tree root's context is empty. A cycle vertex's is
    ``_context`` with the cycle cut beside it. The first vertex asked for
    on a core with k >= 2 fills the whole core's from one
    ``_sweep_contexts``. Below a root or a core, only the path down to v is
    visited. Methods, not closures: a closure that calls itself is a
    reference cycle, and only the cyclic collector frees it and all it
    holds."""

    __slots__ = ("adj", "parent", "children", "core_of", "allowed", "vec", "up", "trees", "memo")

    def __init__(self, g: Graph, layout: tuple):
        order, parent, cores = layout
        children: list[list[int]] = [[] for _ in range(g.n)]
        for v in order:
            if parent[v] >= 0:
                children[parent[v]].append(v)
        self.adj, self.parent, self.children = g.adj, parent, children
        self.core_of = {v: core for core in cores for v in core[0]}
        self.allowed = [_ALL] * g.n
        self.vec, self.up, self.trees = _subtrees(g, self.allowed, order, parent)
        self.memo: dict[int, tuple] = {}

    def without(self, p: int, child: int) -> tuple:
        rest = _UNIT
        for k in self.children[p]:
            if k != child:
                rest = self.up[k] if rest is _UNIT else _mul(rest, self.up[k])
        return rest

    def context_of(self, v: int) -> tuple:
        memo, parent = self.memo, self.parent
        below = []  # v and its ancestors up to the first known context
        while v not in memo and parent[v] >= 0:
            below.append(v)
            v = parent[v]
        if v not in memo:
            walk, k = self.core_of.get(v, (None, 0))
            if k == 0:
                memo[v] = _UNIT
            elif k == 1:
                i = walk.index(v) - 1
                memo[v] = _context(walk[i:] + walk[:i], self.vec, self.allowed)
            else:
                memo.update(_sweep_contexts(self.adj, walk, self))
        ctx = memo[v]
        for child in reversed(below):
            ctx = memo[child] = _step(ctx, self.without(v, child), _ALL)
            v = child
        return ctx

    def triple(self, v: int, below: tuple | None = None) -> tuple[int, int, int]:
        """v's (excluded, degree-0, degree-1) counts: its context merged with
        its vector, or with ``below`` in its place."""
        return _step(self.context_of(v), self.vec[v] if below is None else below, _ALL)[:3]


def _detached_triples(g: Graph) -> tuple[list[tuple[int, int, int]], list[tuple[tuple, tuple]]]:
    """The pendant paths (w, u, v) of the connected unicyclic graph g, from
    its leaf peel, and per path the (excluded, degree-0, degree-1) triple at
    w in g and in g - {u, v}. Every u below w is a stalk, so the paths at
    one w share both triples."""
    layout = _unicyclic_layout(g)
    paths = _pendant_paths(layout[1])
    if not paths:
        return [], []
    contexts = _Contexts(g, layout)
    at: dict[int, tuple[tuple, tuple]] = {}
    for w, u, _ in paths:
        if w not in at:
            at[w] = (contexts.triple(w), contexts.triple(w, contexts.without(w, u)))
    return paths, [at[w] for w, _, _ in paths]


def _surgery_triples(g: Graph, pairs: Iterable[tuple[int, int]]) -> list[tuple[tuple, tuple]]:
    """For each (w, k), k >= 2, on the connected unicyclic graph g: the
    (excluded, degree-0, degree-1) triple at w in g1, which is g with k new
    leaves at w, and in g2, which is g1 with its last new leaf moved onto
    its first. The new vertices hang below w, so w's context is its context
    in g."""
    contexts = _Contexts(g, _unicyclic_layout(g))
    out = []
    for w, k in pairs:
        rest = contexts.vec[w]
        for _ in range(k - 2):
            rest = _mul(rest, _LEAF)
        out.append((contexts.triple(w, _mul(_mul(rest, _LEAF), _LEAF)), contexts.triple(w, _mul(rest, _STALK))))
    return out


def _allowed(g: Graph, constraints: Iterable[Constraint | tuple]) -> list[int]:
    allowed = [_ALL] * g.n
    seen = 0
    for vertex, status in constraints:
        if not 0 <= vertex < g.n:
            raise ValueError(f"constraint vertex {vertex} out of range")
        if seen >> vertex & 1:
            raise ValueError(f"duplicate constraint for vertex {vertex}")
        seen |= 1 << vertex
        allowed[vertex] = _STATUS_BITS[Status(status)]
    return allowed


def phi(g: Graph) -> int:
    """Number of maximal dissociation sets of g."""
    return _count(g, [_ALL] * g.n)


def phi_refined(g: Graph, constraints: Iterable[Constraint | tuple]) -> int:
    """Number of maximal dissociation sets satisfying every constraint.

    Constraints are (vertex, Status) pairs, at most one per vertex:
    EXCLUDED keeps the vertex out, IN_ANY requires membership, IN_DEGREE0 /
    IN_DEGREE1 additionally pin its induced degree inside the set.
    """
    return _count(g, _allowed(g, constraints))


def enumerate_mds(g: Graph) -> Iterator[int]:
    """All maximal dissociation sets, ascending by bit-packed value."""
    steps, tables, memos = _sweep(g.adj, list(range(g.n)), [_UNIT] * g.n, [_ALL] * g.n, True)
    slots = (_O0, _IF, _IP)  # the slots a _UNIT vector weighs, as in the sweep's memos
    after = [{0: 1}]  # per table, backwards: the completions of each state
    for step, memo, table in zip(reversed(steps), reversed(memos), reversed(tables[:-1])):
        after.append(_back(step, slots, memo, table, after[-1])[0])
    after.reverse()
    sets, stack = [], [(0, 0, 0)]  # (step, state, the set so far)
    while stack:
        i, s, chosen = stack.pop()
        if i == len(steps):
            sets.append(chosen)
            continue
        step = steps[i]
        key = s & step[5]
        for t, x in _moves(step, slots, memos[i], key):
            x |= s ^ key
            if after[i + 1][x]:
                stack.append((i + 1, x, chosen | (t >= _IF) << step[0]))
    yield from sorted(sets)


def mds_profile(g: Graph) -> MdsProfile:
    """Per-vertex decomposition of the count.

    For every vertex the triple (excluded, in with induced degree 0, in
    with induced degree 1) sums to the total.
    """
    layout = _layout(g.adj)
    contexts = _Contexts(g, layout)
    triples = [contexts.triple(v) for v in range(g.n)]
    # a triple sums to its component's count, never 0 (every graph has a
    # maximal set), and a vertex's counts in g are those times the others'
    total = contexts.trees * prod(sum(triples[walk[0]]) for walk, _ in layout[2])
    return MdsProfile(total, tuple(tuple(x * (total // sum(t)) for x in t) for t in triples))
