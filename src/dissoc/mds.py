"""Enumeration and exact counting of maximal dissociation sets.

A dissociation set induces a subgraph of maximum degree at most one, i.e. a
disjoint union of isolated vertices and single edges. The optimized
enumerator assigns one of three states to each vertex in label order:

* ``out``        - not in the set;
* ``in-free``    - in the set with induced degree 0 (never gains a partner);
* ``in-matched`` - in the set with induced degree exactly 1.

A state assignment is consistent iff every in-free vertex ends with zero
in-neighbors and every in-matched vertex pairs with exactly one. Consistent
assignments correspond bijectively to dissociation sets, so no deduplication
is needed. Two pruning rules fire whenever a vertex's neighborhood becomes
fully assigned: a still-unpaired in-matched vertex kills the branch, and an
out vertex that is already addable kills the branch (its addability can no
longer change, so no completion is maximal). Each surviving leaf is
re-checked for maximality independently of the search path before being
counted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .graphs import Graph, iter_bits

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
    u = m.bit_length() - 1
    return (g.adj[u] & s) == 0


def is_maximal_dissociation(g: Graph, s: int) -> bool:
    """True iff ``s`` is a dissociation set and no outside vertex is addable."""
    if not is_dissociation(g, s):
        return False
    adj = g.adj
    for v in iter_bits(g.full_mask & ~s):
        m = adj[v] & s
        if m == 0:
            return False
        if m & (m - 1) == 0 and (adj[m.bit_length() - 1] & s) == 0:
            return False
    return True


def _closers(g: Graph) -> list[int]:
    """closers[v] = bitmask of vertices whose neighborhood closes at step v."""
    out = [0] * g.n
    for u in range(g.n):
        row = g.adj[u]
        last = u if row == 0 else max(u, row.bit_length() - 1)
        out[last] |= 1 << u
    return out


def _search(g: Graph, allowed: list[int], sink: list[int] | None) -> int:
    """Core state-assignment search; returns the number of maximal
    dissociation sets whose states are permitted by ``allowed``."""
    n = g.n
    adj = g.adj
    closers = _closers(g)
    full = g.full_mask

    def closure_ok(v: int, s: int, free: int, pending: int) -> bool:
        cl = closers[v]
        if pending & cl:
            return False
        cc = cl & ~s
        while cc:
            low = cc & -cc
            cc ^= low
            m = adj[low.bit_length() - 1] & s
            if m == 0 or (m & (m - 1) == 0 and m & free):
                return False
        return True

    def rec(v: int, s: int, free: int, pending: int) -> int:
        if v == n:
            # construction-independent maximality re-check
            outside = full & ~s
            while outside:
                low = outside & -outside
                outside ^= low
                m = adj[low.bit_length() - 1] & s
                if m == 0 or (m & (m - 1) == 0 and m & free):
                    return 0
            if sink is not None:
                sink.append(s)
            return 1
        count = 0
        opts = allowed[v]
        bit = 1 << v
        row = adj[v]
        if opts & _OUT and closure_ok(v, s, free, pending):
            count += rec(v + 1, s, free, pending)
        if opts & (_FREE | _MATCHED) and not row & free:
            inb = row & s
            ns = s | bit
            if opts & _FREE and inb == 0:
                nf = free | bit
                if closure_ok(v, ns, nf, pending):
                    count += rec(v + 1, ns, nf, pending)
            if opts & _MATCHED:
                if inb == 0:
                    npend = pending | bit
                    if closure_ok(v, ns, free, npend):
                        count += rec(v + 1, ns, free, npend)
                elif inb & (inb - 1) == 0 and inb & pending:
                    npend = pending & ~inb
                    if closure_ok(v, ns, free, npend):
                        count += rec(v + 1, ns, free, npend)
        return count

    return rec(0, 0, 0, 0)


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
    return _search(g, [_ALL] * g.n, None)


def phi_refined(g: Graph, constraints: Iterable[Constraint | tuple]) -> int:
    """Number of maximal dissociation sets satisfying every constraint.

    Constraints are (vertex, Status) pairs, at most one per vertex:
    EXCLUDED keeps the vertex out, IN_ANY requires membership, IN_DEGREE0 /
    IN_DEGREE1 additionally pin its induced degree inside the set.
    """
    return _search(g, _allowed(g, constraints), None)


def enumerate_mds(g: Graph) -> Iterator[int]:
    """All maximal dissociation sets, ascending by bit-packed value."""
    sink: list[int] = []
    _search(g, [_ALL] * g.n, sink)
    sink.sort()
    yield from sink


def mds_profile(g: Graph) -> MdsProfile:
    """Per-vertex decomposition of the count.

    For every vertex the triple (excluded, in with induced degree 0, in
    with induced degree 1) sums to the total.
    """
    sets: list[int] = []
    _search(g, [_ALL] * g.n, sets)
    triples = []
    for v in range(g.n):
        bit = 1 << v
        row = g.adj[v]
        excluded = deg0 = deg1 = 0
        for s in sets:
            if not s & bit:
                excluded += 1
            elif row & s:
                deg1 += 1
            else:
                deg0 += 1
        triples.append((excluded, deg0, deg1))
    return MdsProfile(len(sets), tuple(triples))
