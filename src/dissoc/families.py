"""Constructors for the named graph families and their extremal members.

Labeling conventions are fixed so reports are reproducible: spiders put the
center at 0 followed by leg vertices in declaration order (inner before
outer, length-2 legs first); the triangle variant appends its two extra
vertices last; cycles with pendants label the cycle 0..r-1 and pendants
r.. in sorted attachment order.
"""

from __future__ import annotations

import re
from itertools import combinations

from .canon import _dihedral_min, tree_code
from .graphs import Graph, cycle, from_edges


def spider_T(p: int, q: int) -> Graph:
    """Spider tree of order p+q+1: center with p legs, q of length 2."""
    if q < 0 or p < q:
        raise ValueError(f"spider needs p >= q >= 0, got ({p}, {q})")
    edges = []
    label = 1
    for _ in range(q):
        edges += [(0, label), (label, label + 1)]
        label += 2
    for _ in range(p - q):
        edges.append((0, label))
        label += 1
    return from_edges(p + q + 1, edges)


def U_pq(p: int, q: int) -> Graph:
    """Unicyclic graph of order p+q+3: a triangle sharing the spider center."""
    spider = spider_T(p, q)
    a = spider.n
    b = a + 1
    return from_edges(b + 1, spider.edges() + [(0, a), (0, b), (a, b)])


def U_rt(r: int, t: int, pattern: tuple[int, ...] | None = None) -> Graph:
    """Cycle of order r with one pendant leaf on each of t positions.

    Default pattern is the consecutive positions 0..t-1.
    """
    if r < 3:
        raise ValueError("cycle part needs r >= 3")
    if not 0 <= t <= r:
        raise ValueError(f"need 0 <= t <= r, got t={t}, r={r}")
    if pattern is None:
        pattern = tuple(range(t))
    pattern = tuple(sorted(pattern))
    if len(pattern) != t or len(set(pattern)) != t:
        raise ValueError(f"pattern must hold {t} distinct positions")
    if pattern and not all(0 <= p < r for p in pattern):
        raise ValueError("pattern position out of range")
    edges = [(i, (i + 1) % r) for i in range(r)]
    edges += [(pos, r + i) for i, pos in enumerate(pattern)]
    return from_edges(r + t, edges)


def enumerate_U_rt_class(r: int, t: int) -> list[Graph]:
    """One representative per isomorphism class of pendant patterns.

    Patterns are binary necklaces on the cycle, so dihedral equivalence of
    the characteristic vector is exactly graph isomorphism here.
    """
    if r < 3 or not 0 <= t <= r:
        raise ValueError(f"invalid class parameters r={r}, t={t}")
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    for pattern in combinations(range(r), t):
        bits = tuple(1 if i in pattern else 0 for i in range(r))
        reps.setdefault(_dihedral_min(bits), pattern)
    return [U_rt(r, t, reps[key]) for key in sorted(reps)]


def extremal_trees(n: int) -> list[Graph]:
    """Trees predicted to minimize the count at order n (deduplicated)."""
    if n < 3:
        raise ValueError("extremal trees defined for n >= 3")
    if n % 2 == 0:
        return [spider_T(n // 2, (n - 2) // 2)]
    first = spider_T((n - 1) // 2, (n - 1) // 2)
    second = spider_T((n + 1) // 2, (n - 3) // 2)
    if tree_code(first) == tree_code(second):
        return [first]
    return [first, second]


def extremal_unicyclic(n: int) -> list[Graph]:
    """Unicyclic graphs predicted to minimize the count at order n."""
    if n < 3:
        raise ValueError("extremal unicyclic graphs defined for n >= 3")
    if n % 2 == 1:
        return [U_pq((n - 3) // 2, (n - 3) // 2)]
    out = [U_pq((n - 2) // 2, (n - 4) // 2)]
    if n == 6:
        out += [cycle(6), U_rt(5, 1)]
    if n == 8:
        out.append(U_rt(4, 4))
    return out


def extremal_caterpillars() -> list[Graph]:
    """The six caterpillars attaining the tree bound with equality."""
    params = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2)]
    return [spider_T(p, q) for p, q in params]


_FAMILY_RE = re.compile(
    r"""^\s*(?P<kind>T|U|Urt|P|C)\s*\(\s*(?P<args>[^)]*)\s*\)\s*$"""
)


def parse_family(text: str) -> Graph:
    """Parse a family spec string: T(p,q), U(p,q), Urt(r,t[,[i,...]]), P(n), C(n)."""
    m = _FAMILY_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized family spec: {text!r}")
    kind = m.group("kind")
    args = m.group("args")
    if kind == "Urt":
        pat_match = re.search(r"\[([^\]]*)\]", args)
        pattern = None
        if pat_match:
            inner = pat_match.group(1).strip()
            pattern = tuple(int(x) for x in inner.split(",")) if inner else ()
            args = args[: pat_match.start()].rstrip().rstrip(",")
        nums = [int(x) for x in args.split(",") if x.strip()]
        if len(nums) != 2:
            raise ValueError(f"Urt needs (r,t[,[pattern]]): {text!r}")
        return U_rt(nums[0], nums[1], pattern)
    nums = [int(x) for x in args.split(",") if x.strip()]
    if kind == "T":
        if len(nums) != 2:
            raise ValueError(f"T needs (p,q): {text!r}")
        return spider_T(*nums)
    if kind == "U":
        if len(nums) != 2:
            raise ValueError(f"U needs (p,q): {text!r}")
        return U_pq(*nums)
    if len(nums) != 1:
        raise ValueError(f"{kind} needs a single order: {text!r}")
    if kind == "P":
        from .graphs import path

        return path(nums[0])
    return cycle(nums[0])
