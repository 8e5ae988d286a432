"""Exhaustive verification suites for the extremal counting statements.

Every suite reduces to exact integer comparisons over exhaustively generated
corpora and returns a machine-readable report. A suite passes iff its
violations list is empty. Reports are deterministic for fixed inputs: the
worker count only changes how per-graph work is distributed, never the
aggregated content, and the wall-clock field is omitted from serialized
output.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures.process import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Generator, Iterable, Iterator, NamedTuple, Sequence

from ._version import __version__
from .canon import _tree_text, unicyclic_code
from .corpus import CorpusStore
from .families import enumerate_U_rt_class, extremal_caterpillars, extremal_trees, extremal_unicyclic
from .graphs import MAX_ORDER, Graph, bit_list, closed_neighborhood, cycle, delete_vertices, disjoint_union
from .graphs import from_edges, graph6_encode, is_caterpillar, leaves, path, support_vertices
from .mds import Status, _detached_triples, _surgery_triples, mds_profile, phi, phi_refined

# _pmap cuts a map into this many chunks per worker
CHUNKS_PER_WORKER = 2
IDENTITY_PAIR_SEED = 0x1D55
IDENTITY_PAIR_COUNT = 200
# surgery moves the last of k = 2..SURGERY_K_MAX pendant leaves
SURGERY_K_MAX = 3
# leaf-removal checks its refined-count identity up to this order
LEAF_IDENTITY_ORDER_CAP = 10
# the largest order leaf-removal runs: it walks every pendant pattern, a
# Fibonacci number of them that grows about 1.6x per order (order 24:
# 75,024 patterns in about 2 s; order 28: 514,228 in 15 s; order 64: 1.7e13)
LEAF_REMOVAL_ORDER_CAP = 24


@dataclass
class Violation:
    graph6: str
    rule: str
    lhs: int
    rhs: int


@dataclass
class VerificationReport:
    suite: str
    order: str
    graphs_examined: int
    violations: list[Violation]
    bound: int | None = None
    min_phi: int | None = None
    minimizers: list[tuple[str, str]] = field(default_factory=list)
    expected_minimizers: list[tuple[str, str]] = field(default_factory=list)
    observations: list[dict] = field(default_factory=list)
    runtime_ms: float | None = None
    engine_version: str = __version__

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """The report as plain data for ``json.dumps``, sharing the report's
        lists and dicts rather than copying them. The wall-clock time is
        left out: it differs from run to run."""
        return {**vars(self), "violations": [vars(v) for v in self.violations], "runtime_ms": None}


def _g6(g: Graph) -> str:
    return graph6_encode(g).decode("ascii")


def _code(g: Graph) -> str:
    """Canonical code text of a tree or unicyclic graph."""
    text = _tree_text(g.adj)
    return unicyclic_code(g).text if text is None else text


def _coded(graphs: Iterable[Graph]) -> list[tuple[str, str]]:
    """(graph6, code) of each graph, sorted by code."""
    return sorted(((_g6(g), _code(g)) for g in graphs), key=lambda pair: pair[1])


@cache
def _pool(workers: int) -> ProcessPoolExecutor:
    """The process's one pool of ``workers`` workers: starting workers costs
    more than the fan-out of many suite orders. All workers are forked at
    first use, so they run the package as it stood then."""
    return ProcessPoolExecutor(max_workers=workers)


def _workers(jobs: int) -> int:
    # at most one worker per CPU: a larger ``jobs`` would ask the OS for that
    # many processes, and would cut the work into needlessly small chunks
    return min(jobs, os.cpu_count() or 1)


def _pmap(fn: Callable, items: Sequence, jobs: int) -> Iterator:
    """Order-preserving lazy map, optionally fanned out across processes.
    With a pool, every chunk is queued on it by this call; the results are
    read from the returned iterator. Without one, fn runs as they are read."""
    if jobs <= 1 or len(items) < 4:
        return map(fn, items)
    workers = _workers(jobs)
    chunk = max(1, len(items) // (workers * CHUNKS_PER_WORKER))
    return _pool(workers).map(fn, items, chunksize=chunk)


@contextmanager
def _cancelling(jobs: int):
    """On an error, cancel every map still queued on the pool and drop the
    pool, broken or not: queued work would run on, and the interpreter
    waits for it at exit."""
    try:
        yield
    except BaseException:
        if jobs > 1 and _pool.cache_info().currsize:
            _pool(_workers(jobs)).shutdown(wait=False, cancel_futures=True)
            _pool.cache_clear()
        raise


def _violations(g: Graph, claims: Iterable[tuple[str, int, int, bool]]) -> list[Violation]:
    """The claims (rule, lhs, rhs, holds) about g that fail, as violations;
    g is encoded only when one does."""
    return [Violation(_g6(g), rule, lhs, rhs) for rule, lhs, rhs, holds in claims if not holds]


def _flattened(results: list[tuple[list[Violation], object]]) -> tuple[list[Violation], list]:
    """The results of a per-graph check, which returns (violations, rest),
    over graphs: every violation, in graph order, and the rest of each
    graph's result."""
    return [v for vs, _ in results for v in vs], [rest for _, rest in results]


def _phi_minus(g: Graph, mask: int) -> int:
    """phi of g minus a vertex set; removing everything leaves the empty
    graph, whose only maximal dissociation set is the empty set."""
    if mask == g.full_mask:
        return 1
    h, _ = delete_vertices(g, mask)
    return phi(h)


def _extremal_report(
    graphs: Sequence[Graph], values: Sequence[int], bounds: Sequence[int], expected: Iterable[Graph]
) -> dict:
    """The findings of every extremal statement checked here: each value is at
    least its graph's bound, and the graphs at equality are, up to
    isomorphism, exactly ``expected``. Only graphs at equality are coded. An
    unexpected or missing graph carries (graphs at equality, graphs expected)."""
    violations = []
    for g, value, bound in zip(graphs, values, bounds):
        violations += _violations(g, [("phi_lower_bound", value, bound, value >= bound)])
    minimizers = _coded(g for g, value, bound in zip(graphs, values, bounds) if value == bound)
    expected_min = _coded(expected)
    sizes = (len(minimizers), len(expected_min))
    want = {code for _, code in expected_min}
    have = {code for _, code in minimizers}
    violations += [Violation(g6, "unexpected_minimizer", *sizes) for g6, code in minimizers if code not in want]
    violations += [Violation(g6, "missing_minimizer", *sizes) for g6, code in expected_min if code not in have]
    return {"violations": violations, "minimizers": minimizers, "expected_minimizers": expected_min}


# A check is a generator over its orders and, if it reads a corpus
# (``Suite.corpus``), that class's graphs: it yields its one per-graph map,
# (fn, graphs), is sent fn's results in graph order, and returns its report's
# fields beyond the suite, order and graphs_examined (len(graphs)) that
# ``_start`` sets, or overriding them. Code before the yield runs as the suite
# starts, outside its run, so every count comes after it. No check tests its
# own domain start or cap: ``suite_orders`` resolves them before ``_start``.
Body = Generator[tuple[Callable, Sequence[Graph]], list, dict]


def _minimum_report(graphs: list[Graph], phis: list[int], bound: int, expected: list[Graph]) -> dict:
    """The extremal report of one bound that the least value must attain.
    When the least value lies above the bound, equality is taken there, so
    the graphs attaining it are the minimizers."""
    min_phi = min(phis, default=0)
    fields = _extremal_report(graphs, phis, [max(bound, min_phi)] * len(graphs), expected)
    if min_phi != bound:
        fields["violations"].append(Violation("", "min_phi_equals_bound", min_phi, bound))
    return {**fields, "bound": bound, "min_phi": min_phi}


def _main_theorem(n: int, graphs: list[Graph]) -> Body:
    """Every unicyclic graph of order n has at least floor(n/2)+2 maximal
    dissociation sets, with the predicted minimizer set exactly attained."""
    phis = yield phi, graphs
    return _minimum_report(graphs, phis, n // 2 + 2, extremal_unicyclic(n))


def _tree_theorem(n: int, graphs: list[Graph]) -> Body:
    """Every tree of order n has at least ceil(n/2)+1 maximal dissociation
    sets, with minimizers exactly the predicted spiders."""
    phis = yield phi, graphs
    return _minimum_report(graphs, phis, (n + 1) // 2 + 1, extremal_trees(n))


def _path_corollary(lo: int, hi: int) -> Body:
    """Paths meet the tree bound with equality exactly at orders 3, 4, 5."""
    graphs = [path(n) for n in range(lo, hi + 1)]
    phis = yield phi, graphs
    bounds = [(g.n + 1) // 2 + 1 for g in graphs]
    expected = [g for g in graphs if g.n in (3, 4, 5)]
    return _extremal_report(graphs, phis, bounds, expected)


def _caterpillar_corollary(lo: int, hi: int, trees: list[Graph]) -> Body:
    """Caterpillars meet the tree bound with equality exactly on the six
    listed spiders."""
    graphs = list(filter(is_caterpillar, trees))
    phis = yield phi, graphs
    bounds = [(g.n + 1) // 2 + 1 for g in graphs]
    expected = [g for g in extremal_caterpillars() if lo <= g.n <= hi]
    return _extremal_report(graphs, phis, bounds, expected)


def _cycle_lemma(lo: int, hi: int) -> Body:
    """phi(C_n) is at least phi(P_{n-1}) + 1, with equality only at n=6."""
    graphs = [cycle(n) for n in range(lo, hi + 1)]
    phis = yield phi, graphs
    bounds = [phi(path(g.n - 1)) + 1 for g in graphs]
    expected = [g for g in graphs if g.n == 6]
    return _extremal_report(graphs, phis, bounds, expected)


def _leaf_removal_check(g: Graph) -> tuple[list[Violation], int]:
    """The leaf-removal claims at each leaf y of g, with support x and x's
    cycle neighbours w, z, and the number of leaves."""
    phi_g = phi(g)
    claims = []
    ys = bit_list(leaves(g))
    for y in ys:
        x = g.adj[y].bit_length() - 1
        w, z = bit_list(g.adj[x] & ~(1 << y))
        u_graph, relabel = delete_vertices(g, closed_neighborhood(g, y))
        phi_u = phi(u_graph)
        claims.append(("leaf_removal_drop_ge_2", phi_g, phi_u + 2, phi_g >= phi_u + 2))
        if g.n <= LEAF_IDENTITY_ORDER_CAP:
            lhs = phi_refined(g, [(x, Status.EXCLUDED)])
            rhs = phi_u - phi_refined(u_graph, [(relabel[w], Status.EXCLUDED), (relabel[z], Status.EXCLUDED)])
            claims.append(("support_excluded_identity", lhs, rhs, lhs == rhs))
            for other in (w, z):
                refined = phi_refined(g, [(x, Status.IN_DEGREE1), (other, Status.IN_DEGREE1)])
                claims.append(("support_pair_count_ge_1", refined, 1, refined >= 1))
    return _violations(g, claims), len(ys)


def _leaf_removal_lemma(n: int) -> Body:
    """For cycles with pendants, removing a closed leaf neighborhood drops
    the count by at least 2; the refined-count identity behind the argument
    is checked directly at orders up to LEAF_IDENTITY_ORDER_CAP."""
    # a cycle of order r >= 3 with t = n - r pendants, 1 <= t <= r
    graphs = [g for r in range(max(3, (n + 1) // 2), n) for g in enumerate_U_rt_class(r, n - r)]
    violations, leaf_counts = _flattened((yield _leaf_removal_check, graphs))
    observations = [{"leaf_instances": sum(leaf_counts), "identity_checked": n <= LEAF_IDENTITY_ORDER_CAP}]
    return {"violations": violations, "observations": observations}


def _surgery_graphs(u_graph: Graph, w: int, k: int) -> tuple[Graph, Graph]:
    """g1, the base graph with k new leaves at w, and g2, g1 with its last
    new leaf moved onto its first."""
    n = u_graph.n
    edges = u_graph.edges()
    g1 = from_edges(n + k, edges + [(w, n + i) for i in range(k)])
    g2 = from_edges(n + k, edges + [(w, n + i) for i in range(k - 1)] + [(n, n + k - 1)])
    return g1, g2


def _surgery_instances(u_graph: Graph) -> tuple[list[Violation], tuple[list[dict], int]]:
    """The surgery instances on one base graph: violations, and its equality
    observations and number of instances. w's counts in g1 and g2 come from
    one targeted pass; g1 and g2 are built only to be named, and to
    cross-check the pass against their profiles on the first instance."""
    supports = support_vertices(u_graph)
    # never empty: a leaf, or on a bare cycle any vertex, supports no leaf
    ws = [w for w in range(u_graph.n) if not supports >> w & 1]
    pairs = [(w, k) for w in ws for k in range(2, SURGERY_K_MAX + 1)]
    violations = []
    observations = []
    results = _surgery_triples(u_graph, pairs)
    w = pairs[0][0]
    for g, triple in zip(_surgery_graphs(u_graph, *pairs[0]), results[0]):
        profiled = mds_profile(g).per_vertex[w]
        violations += _violations(g, [("surgery_cross_check", a, b, a == b) for a, b in zip(triple, profiled)])
    minus_nw = {w: _phi_minus(u_graph, closed_neighborhood(u_graph, w)) for w in ws}
    for (w, k), (t1, t2) in zip(pairs, results):
        phi_u_minus_nw = minus_nw[w]
        phi1, phi2 = sum(t1), sum(t2)
        claim2_rhs = t1[2] - phi_u_minus_nw
        claims = [
            ("surgery_phi_monotone", phi1, phi2, phi1 >= phi2),
            ("surgery_claim1", t2[0], t1[0], t2[0] == t1[0]),
            ("surgery_claim2", t2[2], claim2_rhs, t2[2] == claim2_rhs),
        ]
        if phi1 == phi2:
            cond_rhs = phi_refined(u_graph, [(w, Status.IN_DEGREE0)])
            claims.append(("surgery_equality_condition", phi_u_minus_nw, cond_rhs, phi_u_minus_nw == cond_rhs))
        elif all(holds for *_, holds in claims):
            continue  # nothing to name
        g1, g2 = _surgery_graphs(u_graph, w, k)
        violations += _violations(g1, claims)
        if phi1 == phi2:
            observations.append(
                {"g1": _g6(g1), "g2": _g6(g2), "base": _g6(u_graph), "w": w, "k": k, "phi": phi1,
                 "phi_base_minus_nw": phi_u_minus_nw, "phi_base_w_deg0": cond_rhs}
            )
    return violations, (observations, len(pairs))


def _surgery_lemma(lo: int, hi: int, graphs: list[Graph]) -> Body:
    """Moving the last of k pendant leaves from w onto the first leaf never
    increases the count, on the unicyclic graphs of orders lo..hi. The two
    refined-count claims behind the argument are asserted on every instance;
    count-preserving instances are recorded and must satisfy the stated
    necessary condition."""
    violations, results = _flattened((yield _surgery_instances, graphs))
    observations = [o for obs, _ in results for o in obs]
    tally = {"instances": sum(n for _, n in results), "equality_instances": len(observations), "k_max": SURGERY_K_MAX}
    return {"violations": violations, "observations": observations + [tally]}


def _pendant_path_check(g: Graph) -> tuple[list[Violation], tuple[int, int]]:
    # per pendant path (w, u, v): w's counts in g and in h = g - {u, v},
    # from one pass
    triples, split = _detached_triples(g)
    if not triples:
        return [], (0, 0)
    claims = []
    claim2_eq = 0
    total = sum(split[0][0])
    for (c3_lhs, c1_lhs, c2_lhs), (h_excl, h_deg0, h_deg1) in split:
        # every set puts w in exactly one status
        phi_h = h_excl + h_deg0 + h_deg1
        c2_rhs = h_deg1 + 1
        claims += [
            ("pendant_path_drop_ge_1", total, phi_h + 1, total >= phi_h + 1),
            ("pendant_path_claim1", c1_lhs, h_deg0, c1_lhs == h_deg0),
            ("pendant_path_claim2_ge", c2_lhs, c2_rhs, c2_lhs >= c2_rhs),
            ("pendant_path_claim3_ge", c3_lhs, h_excl, c3_lhs >= h_excl),
        ]
        claim2_eq += c2_lhs == c2_rhs
    # cross-check the first path on g: with v in, u is blocked, so the sets of g
    # with w isolated and v in are those of g - {u, v} with w isolated, plus v
    w, _, v = triples[0]
    pinned = phi_refined(g, [(w, Status.IN_DEGREE0), (v, Status.IN_ANY)])
    h_deg0 = split[0][1][1]
    claims.append(("pendant_path_cross_check", h_deg0, pinned, h_deg0 == pinned))
    return _violations(g, claims), (claim2_eq, len(triples))


def _pendant_path_lemma(n: int, graphs: list[Graph]) -> Body:
    """Deleting a pendant path of length two (leaf plus its degree-2
    support) drops the count by at least 1 on every unicyclic graph."""
    violations, results = _flattened((yield _pendant_path_check, graphs))
    claim2_eq = sum(eq for eq, _ in results)
    total = sum(t for _, t in results)
    return {
        "graphs_examined": sum(1 for _, t in results if t),  # the graphs with a pendant path
        "violations": violations,
        "observations": [
            {"pendant_path_instances": total, "claim2_equality_instances": claim2_eq, "claims_checked": True}
        ],
    }


def _case3_subcases(n: int) -> Body:
    """Attaching a pendant path at each vertex orbit of the order-(n-2)
    extremal graph reproduces the closed-form counts: the orbits of each
    vertex role take exactly that role's set of counts."""
    base = extremal_unicyclic(n - 2)[0]
    expected_by_role = {
        "center": {n // 2 + 2},
        "triangle": {(n + 6) // 2},
        "other": {(n + 6) // 2},
        "leaf": {(3 * n - 1) // 2} if n % 2 else {(3 * n + 2) // 2, (n + 6) // 2},
    }
    # U_pq labels its center 0 and its triangle's other two vertices last
    leaf_mask = leaves(base)
    role = ["center"] + ["leaf" if leaf_mask >> w & 1 else "other" for w in range(1, base.n - 2)] + ["triangle"] * 2
    # code -> (the graph extended at the orbit's first vertex, the orbit)
    orbits: dict[str, tuple[Graph, list[int]]] = {}
    for w in range(base.n):
        extended = from_edges(base.n + 2, base.edges() + [(w, base.n), (base.n, base.n + 1)])
        orbits.setdefault(unicyclic_code(extended).text, (extended, []))[1].append(w)
    ordered = [orbits[code] for code in sorted(orbits)]
    values = yield phi, [extended for extended, _ in ordered]

    violations = []
    observations = []
    for (extended, members), value in zip(ordered, values):
        roles = {role[w] for w in members}
        violations += _violations(extended, [("orbit_role_mixed", len(roles), 1, len(roles) == 1)])
        if len(roles) == 1:
            observations.append(
                {"role": roles.pop(), "orbit_size": len(members), "phi": value, "graph6": _g6(extended)}
            )
    have = {r: {o["phi"] for o in observations if o["role"] == r} for r in expected_by_role}
    claims = [(f"subcase_{r}", sum(have[r]), sum(want), have[r] == want) for r, want in expected_by_role.items()]
    violations += _violations(base, claims)
    return {"violations": violations, "observations": observations}


def _identity_check(g: Graph) -> tuple[list[Violation], int]:
    profile = mds_profile(g)
    supports = support_vertices(g)
    claims = []
    for v, parts in enumerate(profile.per_vertex):
        without_v = _phi_minus(g, 1 << v)
        without_nv = _phi_minus(g, closed_neighborhood(g, v))
        claims += [
            ("per_vertex_decomposition", sum(parts), profile.total, sum(parts) == profile.total),
            ("support_vertex_deg0_zero", parts[1], 0, not supports >> v & 1 or parts[1] == 0),
            ("deletion_vs_excluded", without_v, parts[0], without_v >= parts[0]),
            ("deletion_vs_deg0", without_nv, parts[1], without_nv >= parts[1]),
        ]
    return _violations(g, claims), profile.total


def _identity_suite(lo: int, hi: int, graphs: list[Graph]) -> Body:
    """Per-vertex decomposition, support-vertex vanishing, deletion
    inequalities on every unicyclic graph of orders lo..hi, and
    multiplicativity on seeded random disjoint-union pairs drawn from them."""
    violations, totals = _flattened((yield _identity_check, graphs))
    # each graph with its total, read from its profile
    counted = list(zip(graphs, totals))
    rng = random.Random(IDENTITY_PAIR_SEED)
    pairs = IDENTITY_PAIR_COUNT if counted else 0
    for _ in range(pairs):
        g, phi_g = rng.choice(counted)
        h, phi_h = rng.choice(counted)
        union = disjoint_union(g, h)
        joint, separate = phi(union), phi_g * phi_h
        violations += _violations(union, [("union_multiplicativity", joint, separate, joint == separate)])
    observations = [{"union_pairs": pairs, "seed": IDENTITY_PAIR_SEED}]
    return {"order": f"corpus[{len(graphs)}]", "violations": violations, "observations": observations}


class Suite(NamedTuple):
    start: int  # smallest order of the suite's domain
    end: int  # largest order run by default
    per_order: bool  # check(n, ...) once per order, else check(lo, hi, ...) once
    # the corpus class the check reads, if any; its body (see Body) is
    # handed that class's graphs of its orders after the orders
    corpus: str | None
    check: Callable[..., Body]
    # the largest order the check runs, which only ``suite_orders`` tests,
    # before any suite starts; ``from_edges`` refuses a graph past MAX_ORDER
    cap: int = MAX_ORDER


SUITES = {
    "main": Suite(3, 12, True, "unicyclic", _main_theorem),
    "trees": Suite(3, 12, True, "tree", _tree_theorem),
    "paths": Suite(3, 20, False, None, _path_corollary),
    "caterpillars": Suite(3, 9, False, "tree", _caterpillar_corollary),
    "cycle": Suite(4, 20, False, None, _cycle_lemma),
    "leaf-removal": Suite(5, 11, True, None, _leaf_removal_lemma, LEAF_REMOVAL_ORDER_CAP),
    "surgery": Suite(3, 8, False, "unicyclic", _surgery_lemma, MAX_ORDER - SURGERY_K_MAX),  # adds k leaves
    "pendant-path": Suite(5, 12, True, "unicyclic", _pendant_path_lemma),
    "subcases": Suite(9, 13, True, None, _case3_subcases),
    "identities": Suite(3, 8, False, "unicyclic", _identity_suite, MAX_ORDER // 2),  # joins two graphs
}


def suite_orders(name: str, orders: tuple[int, int] | None, corpora: CorpusStore) -> tuple[int, int]:
    """The order range a suite runs: ``orders`` (default: the suite's
    default range) with its lower bound raised to the suite's domain start.
    An empty range, or one past the suite's cap or past the cap of its
    corpus in ``corpora``, is an error before any work, never a vacuous
    pass."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    suite = SUITES[name]
    lo, hi = orders if orders is not None else (suite.start, suite.end)
    if max(lo, suite.start) > hi:
        raise ValueError(
            f"suite {name!r} has no orders to check in {lo}..{hi} "
            f"(its domain starts at order {suite.start})"
        )
    if hi > suite.cap:
        raise ValueError(f"suite {name!r} runs orders up to {suite.cap}, got {hi}")
    if suite.corpus:
        corpora.check_cap(suite.corpus, hi)
    return max(lo, suite.start), hi


def _start(name: str, args: tuple, corpora: CorpusStore, jobs: int) -> Callable[[], VerificationReport]:
    """Start one report of a suite: its check is handed its class's graphs,
    if it reads a corpus, and its per-graph map is queued here. Returns the
    report's finish, which reads the results in graph order, sends them to
    the check and builds its report; the report's runtime covers both steps."""
    suite = SUITES[name]
    t0 = time.perf_counter()
    with _cancelling(jobs):
        corpus = [corpora.graphs(suite.corpus, args[0], args[-1])] if suite.corpus else []
        body = suite.check(*args, *corpus)
        fn, graphs = next(body)
        results = _pmap(fn, graphs, jobs)
    start_s = time.perf_counter() - t0
    order = str(args[0]) if suite.per_order else f"{args[0]}..{args[1]}"
    fields = {"suite": name, "order": order, "graphs_examined": len(graphs)}

    def finish() -> VerificationReport:
        t1 = time.perf_counter()
        with _cancelling(jobs):
            try:
                body.send(list(results))
            except StopIteration as done:
                report = VerificationReport(**(fields | done.value))
        report.runtime_ms = (start_s + time.perf_counter() - t1) * 1000
        return report

    return finish


def start_suite(
    name: str, orders: tuple[int, int] | None, jobs: int, corpora: CorpusStore
) -> list[Callable[[], VerificationReport]]:
    """Start every report of one named suite over an order range, in order;
    ``run_suite`` finishes them. ``orders`` is resolved by ``suite_orders``.
    Every suite that uses a tree or unicyclic corpus takes it from
    ``corpora``; one store shared by the suites of a run generates or loads
    each corpus once. With ``jobs`` > 1 the suite's maps are queued on the
    process's pool when this returns."""
    lo, hi = suite_orders(name, orders, corpora)
    ranges = [(n,) for n in range(lo, hi + 1)] if SUITES[name].per_order else [(lo, hi)]
    return [_start(name, args, corpora, jobs) for args in ranges]


def run_suite(
    name: str,
    orders: tuple[int, int] | None = None,
    jobs: int = 1,
    corpora: CorpusStore | None = None,
    started: list[Callable[[], VerificationReport]] | None = None,
) -> list[VerificationReport]:
    """Run one named suite over an order range; returns its timed reports.

    The suite is started by ``start_suite`` (``corpora`` default: a new store
    at the default caps, without a cache), unless ``started`` holds what an
    earlier ``start_suite`` call returned for it: a run that starts every
    suite before it finishes the first keeps the pool's workers busy while
    the parent reads corpora and builds reports.
    """
    if started is None:
        started = start_suite(name, orders, jobs, CorpusStore() if corpora is None else corpora)
    return [finish() for finish in started]
