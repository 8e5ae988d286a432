"""Exhaustive verification suites for the extremal counting statements.

Every suite reduces to exact integer comparisons over exhaustively generated
corpora and returns a machine-readable report. A suite passes iff its
violations list is empty. Reports are deterministic for fixed inputs: the
worker count only changes how per-graph work is distributed, never the
aggregated content, and the wall-clock field is omitted from serialized
output.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Iterable, MutableMapping, NamedTuple, Sequence

from ._version import __version__
from .canon import (
    DEFAULT_TREE_CAP,
    DEFAULT_UNICYCLIC_CAP,
    GENERATORS,
    generate_trees,
    generate_unicyclic,
    tree_code,
    unicyclic_code,
)
from .families import U_pq, enumerate_U_rt_class, extremal_caterpillars, extremal_trees, extremal_unicyclic
from .graphs import (
    Graph,
    bit_list,
    classify,
    closed_neighborhood,
    cycle,
    degree,
    delete_vertices,
    disjoint_union,
    from_edges,
    graph6_encode,
    is_caterpillar,
    iter_bits,
    leaves,
    path,
    support_vertices,
    vset,
)
from .mds import Status, _detached_triples, mds_profile, phi, phi_refined

IDENTITY_PAIR_SEED = 0x1D55
IDENTITY_PAIR_COUNT = 200
# leaf-removal checks its refined-count identity up to this order
LEAF_IDENTITY_ORDER_CAP = 10

# (kind, n) -> the tree or unicyclic corpus of order n
Corpus = Callable[[str, int], Sequence[Graph]]


def _generated(kind: str, n: int) -> list[Graph]:
    """The corpus at the default caps, for checks called directly."""
    return list(GENERATORS[kind](n))


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

    def to_dict(self, include_runtime: bool = False) -> dict:
        out = asdict(self)
        if not include_runtime:
            out["runtime_ms"] = None
        return out

    def summary_row(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.order,
            "graphs": self.graphs_examined,
            "min_phi": "" if self.min_phi is None else self.min_phi,
            "bound": "" if self.bound is None else self.bound,
            "pass": self.passed,
        }


def _g6(g: Graph) -> str:
    return graph6_encode(g).decode("ascii")


def _code(g: Graph) -> str:
    kind = classify(g).kind
    if kind == "tree":
        return tree_code(g).text
    if kind == "unicyclic":
        return unicyclic_code(g).text
    return "g6:" + _g6(g)


def _pmap(fn: Callable, items: Sequence, jobs: int) -> list:
    """Order-preserving map, optionally fanned out across processes."""
    if jobs <= 1 or len(items) < 4:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def _phi_minus(g: Graph, mask: int) -> int:
    """phi of g minus a vertex set; removing everything leaves the empty
    graph, whose only maximal dissociation set is the empty set."""
    if mask == g.full_mask:
        return 1
    h, _ = delete_vertices(g, mask)
    return phi(h)


def _minimizer_report(
    suite: str,
    n: int,
    graphs: Sequence[Graph],
    phis: Sequence[int],
    bound: int,
    expected: Sequence[Graph],
) -> VerificationReport:
    violations = []
    for g, value in zip(graphs, phis):
        if value < bound:
            violations.append(Violation(_g6(g), "phi_lower_bound", value, bound))
    min_phi = min(phis) if phis else 0
    minimizers = sorted(
        ((_g6(g), _code(g)) for g, value in zip(graphs, phis) if value == min_phi),
        key=lambda pair: pair[1],
    )
    expected_min = sorted(((_g6(g), _code(g)) for g in expected), key=lambda p: p[1])
    actual_codes = {code for _, code in minimizers}
    expected_codes = {code for _, code in expected_min}
    if min_phi != bound:
        violations.append(Violation("", "min_phi_equals_bound", min_phi, bound))
    for g6, code in minimizers:
        if code not in expected_codes:
            violations.append(Violation(g6, "unexpected_minimizer", min_phi, bound))
    for g6, code in expected_min:
        if code not in actual_codes:
            violations.append(Violation(g6, "missing_minimizer", min_phi, bound))
    return VerificationReport(
        suite=suite,
        order=str(n),
        graphs_examined=len(graphs),
        bound=bound,
        min_phi=min_phi,
        minimizers=minimizers,
        expected_minimizers=expected_min,
        violations=violations,
    )


def check_main_theorem(n: int, jobs: int = 1, graphs: Sequence[Graph] | None = None) -> VerificationReport:
    """Every unicyclic graph of order n has at least floor(n/2)+2 maximal
    dissociation sets, with the predicted minimizer set exactly attained."""
    if graphs is None:
        graphs = list(generate_unicyclic(n))
    phis = _pmap(phi, graphs, jobs)
    return _minimizer_report("main", n, graphs, phis, n // 2 + 2, extremal_unicyclic(n))


def check_tree_theorem(n: int, jobs: int = 1, graphs: Sequence[Graph] | None = None) -> VerificationReport:
    """Every tree of order n has at least ceil(n/2)+1 maximal dissociation
    sets, with minimizers exactly the predicted spiders."""
    if graphs is None:
        graphs = list(generate_trees(n))
    phis = _pmap(phi, graphs, jobs)
    return _minimizer_report("trees", n, graphs, phis, (n + 1) // 2 + 1, extremal_trees(n))


def check_path_corollary(n_max: int) -> VerificationReport:
    """Paths meet the tree bound with equality exactly at orders 3, 4, 5."""
    violations = []
    minimizers = []
    expected = []
    for n in range(3, n_max + 1):
        g = path(n)
        bound = (n + 1) // 2 + 1
        value = phi(g)
        if value < bound:
            violations.append(Violation(_g6(g), "path_lower_bound", value, bound))
        if (value == bound) != (n in (3, 4, 5)):
            violations.append(Violation(_g6(g), "path_equality_set", value, bound))
        if value == bound:
            minimizers.append((_g6(g), _code(g)))
        if n in (3, 4, 5):
            expected.append((_g6(g), _code(g)))
    return VerificationReport(
        suite="paths",
        order=f"3..{n_max}",
        graphs_examined=max(0, n_max - 2),
        minimizers=sorted(minimizers, key=lambda p: p[1]),
        expected_minimizers=sorted(expected, key=lambda p: p[1]),
        violations=violations,
    )


def check_caterpillar_corollary(n_max: int, corpus: Corpus = _generated) -> VerificationReport:
    """Caterpillars meet the tree bound with equality exactly on the six
    listed spiders."""
    violations = []
    minimizers = []
    examined = 0
    expected_graphs = [g for g in extremal_caterpillars() if g.n <= n_max]
    expected = sorted(((_g6(g), _code(g)) for g in expected_graphs), key=lambda p: p[1])
    expected_codes = {code for _, code in expected}
    for n in range(3, n_max + 1):
        bound = (n + 1) // 2 + 1
        for g in filter(is_caterpillar, corpus("tree", n)):
            examined += 1
            value = phi(g)
            if value < bound:
                violations.append(Violation(_g6(g), "caterpillar_lower_bound", value, bound))
            code = _code(g)
            if value == bound:
                minimizers.append((_g6(g), code))
                if code not in expected_codes:
                    violations.append(Violation(_g6(g), "unexpected_equality", value, bound))
            elif code in expected_codes:
                violations.append(Violation(_g6(g), "missing_equality", value, bound))
    return VerificationReport(
        suite="caterpillars",
        order=f"3..{n_max}",
        graphs_examined=examined,
        minimizers=sorted(minimizers, key=lambda p: p[1]),
        expected_minimizers=expected,
        violations=violations,
    )


def check_cycle_lemma(n_min: int = 4, n_max: int = 20) -> VerificationReport:
    """phi(C_n) exceeds phi(P_{n-1}) by at least 1, exactly 1 only at n=6,
    and by at least 2 beyond n=6."""
    if n_min < 4:
        raise ValueError("cycle lemma needs n_min >= 4")
    violations = []
    minimizers = []
    expected = []
    for n in range(n_min, n_max + 1):
        g = cycle(n)
        diff = phi(g) - phi(path(n - 1))
        if diff < 1:
            violations.append(Violation(_g6(g), "cycle_minus_path_ge_1", diff, 1))
        if (diff == 1) != (n == 6):
            violations.append(Violation(_g6(g), "cycle_equality_only_n6", diff, 1))
        if n > 6 and diff < 2:
            violations.append(Violation(_g6(g), "cycle_gap_ge_2_beyond_6", diff, 2))
        if diff == 1:
            minimizers.append((_g6(g), _code(g)))
        if n == 6:
            expected.append((_g6(g), _code(g)))
    return VerificationReport(
        suite="cycle",
        order=f"{n_min}..{n_max}",
        graphs_examined=max(0, n_max - n_min + 1),
        minimizers=minimizers,
        expected_minimizers=expected,
        violations=violations,
    )


def check_leaf_removal_lemma(n: int) -> VerificationReport:
    """For cycles with pendants, removing a closed leaf neighborhood drops
    the count by at least 2; the refined-count identity behind the argument
    is checked directly at orders up to LEAF_IDENTITY_ORDER_CAP."""
    if n < 5:
        raise ValueError("leaf-removal lemma needs order >= 5")
    check_identity = n <= LEAF_IDENTITY_ORDER_CAP
    violations = []
    examined = 0
    instances = 0
    for r in range(3, n):
        t = n - r
        if not 1 <= t <= r:
            continue
        for g in enumerate_U_rt_class(r, t):
            examined += 1
            phi_g = phi(g)
            for y in iter_bits(leaves(g)):
                instances += 1
                x = g.adj[y].bit_length() - 1
                others = bit_list(g.adj[x] & ~(1 << y))
                w, z = others
                closed = closed_neighborhood(g, y)
                u_graph, relabel = delete_vertices(g, closed)
                phi_u = phi(u_graph)
                if phi_g < phi_u + 2:
                    violations.append(Violation(_g6(g), "leaf_removal_drop_ge_2", phi_g, phi_u + 2))
                if check_identity:
                    lhs = phi_refined(g, [(x, Status.EXCLUDED)])
                    rhs = phi_u - phi_refined(
                        u_graph,
                        [(relabel[w], Status.EXCLUDED), (relabel[z], Status.EXCLUDED)],
                    )
                    if lhs != rhs:
                        violations.append(Violation(_g6(g), "support_excluded_identity", lhs, rhs))
                    for other in (w, z):
                        refined = phi_refined(
                            g, [(x, Status.IN_DEGREE1), (other, Status.IN_DEGREE1)]
                        )
                        if refined < 1:
                            violations.append(
                                Violation(_g6(g), "support_pair_count_ge_1", refined, 1)
                            )
    return VerificationReport(
        suite="leaf-removal",
        order=str(n),
        graphs_examined=examined,
        violations=violations,
        observations=[{"leaf_instances": instances, "identity_checked": check_identity}],
    )


def _add_leaves(g: Graph, w: int, k: int) -> Graph:
    edges = g.edges() + [(w, g.n + i) for i in range(k)]
    return from_edges(g.n + k, edges)


def _surgery_instances(u_graph: Graph, k_max: int) -> tuple[list[Violation], list[dict], int]:
    """The surgery instances on one base graph: violations, equality
    observations and the number of instances."""
    violations = []
    observations = []
    instances = 0
    supports = support_vertices(u_graph)
    for w in range(u_graph.n):
        if supports >> w & 1:
            continue
        phi_u_minus_nw = _phi_minus(u_graph, closed_neighborhood(u_graph, w))
        for k in range(2, k_max + 1):
            if u_graph.n + k > 64:
                continue
            instances += 1
            g1 = _add_leaves(u_graph, w, k)
            v1 = u_graph.n
            vk = u_graph.n + k - 1
            edges2 = [e for e in g1.edges() if e != (w, vk)] + [(v1, vk)]
            g2 = from_edges(g1.n, edges2)
            p1 = mds_profile(g1)
            p2 = mds_profile(g2)
            phi1 = p1.total
            phi2 = p2.total
            if phi1 < phi2:
                violations.append(Violation(_g6(g1), "surgery_phi_monotone", phi1, phi2))
            c1_lhs = p2.per_vertex[w][0]
            c1_rhs = p1.per_vertex[w][0]
            if c1_lhs != c1_rhs:
                violations.append(Violation(_g6(g1), "surgery_claim1", c1_lhs, c1_rhs))
            c2_lhs = p2.per_vertex[w][2]
            c2_rhs = p1.per_vertex[w][2] - phi_u_minus_nw
            if c2_lhs != c2_rhs:
                violations.append(Violation(_g6(g1), "surgery_claim2", c2_lhs, c2_rhs))
            if phi1 == phi2:
                cond_rhs = phi_refined(u_graph, [(w, Status.IN_DEGREE0)])
                observations.append(
                    {
                        "g1": _g6(g1),
                        "g2": _g6(g2),
                        "base": _g6(u_graph),
                        "w": w,
                        "k": k,
                        "phi": phi1,
                        "phi_base_minus_nw": phi_u_minus_nw,
                        "phi_base_w_deg0": cond_rhs,
                    }
                )
                if phi_u_minus_nw != cond_rhs:
                    violations.append(
                        Violation(_g6(g1), "surgery_equality_condition", phi_u_minus_nw, cond_rhs)
                    )
    return violations, observations, instances


def check_surgery_lemma(
    order_cap: int, k_max: int = 3, corpus: Corpus = _generated, jobs: int = 1
) -> VerificationReport:
    """Moving the last of k pendant leaves from w onto the first leaf never
    increases the count. The two refined-count claims behind the argument
    are asserted on every instance; count-preserving instances are recorded
    and must satisfy the stated necessary condition."""
    if k_max < 2:
        raise ValueError("surgery lemma needs k_max >= 2")
    graphs = [g for m in range(3, order_cap + 1) for g in corpus("unicyclic", m)]
    results = _pmap(partial(_surgery_instances, k_max=k_max), graphs, jobs)
    observations = [o for _, obs, _ in results for o in obs]
    instances = sum(n for _, _, n in results)
    return VerificationReport(
        suite="surgery",
        order=f"3..{order_cap}",
        graphs_examined=len(graphs),
        violations=[v for vs, _, _ in results for v in vs],
        observations=observations
        + [{"instances": instances, "equality_instances": len(observations), "k_max": k_max}],
    )


def _pendant_path_triples(g: Graph) -> list[tuple[int, int, int]]:
    """(w, u, v) with v a leaf, u its degree-2 support, w the other neighbor."""
    out = []
    for v in iter_bits(leaves(g)):
        u = g.adj[v].bit_length() - 1
        if degree(g, u) != 2:
            continue
        w = (g.adj[u] & ~(1 << v)).bit_length() - 1
        out.append((w, u, v))
    return out


def _pendant_path_check(g: Graph) -> tuple[list[Violation], int, int]:
    triples = _pendant_path_triples(g)
    if not triples:
        return [], 0, 0
    violations: list[Violation] = []
    claim2_eq = 0
    # per triple: w's counts in g and in h = g - {u, v}, from one pass
    split = _detached_triples(g, [(w, u) for w, u, _ in triples])
    total = sum(split[0][0])
    for (c3_lhs, c1_lhs, c2_lhs), (h_excl, h_deg0, h_deg1) in split:
        # every set puts w in exactly one status
        phi_h = h_excl + h_deg0 + h_deg1
        if total < phi_h + 1:
            violations.append(Violation(_g6(g), "pendant_path_drop_ge_1", total, phi_h + 1))
        if c1_lhs != h_deg0:
            violations.append(Violation(_g6(g), "pendant_path_claim1", c1_lhs, h_deg0))
        c2_rhs = h_deg1 + 1
        if c2_lhs < c2_rhs:
            violations.append(Violation(_g6(g), "pendant_path_claim2_ge", c2_lhs, c2_rhs))
        if c2_lhs == c2_rhs:
            claim2_eq += 1
        if c3_lhs < h_excl:
            violations.append(Violation(_g6(g), "pendant_path_claim3_ge", c3_lhs, h_excl))
    # cross-check the pass against a pinned count of the first reduced graph
    w, u, v = triples[0]
    h, relabel = delete_vertices(g, vset([u, v]))
    pinned = phi_refined(h, [(relabel[w], Status.IN_DEGREE0)])
    h_deg0 = split[0][1][1]
    if h_deg0 != pinned:
        violations.append(Violation(_g6(g), "pendant_path_cross_check", h_deg0, pinned))
    return violations, claim2_eq, len(triples)


def check_pendant_path_lemma(
    n: int, jobs: int = 1, graphs: Sequence[Graph] | None = None
) -> VerificationReport:
    """Deleting a pendant path of length two (leaf plus its degree-2
    support) drops the count by at least 1 on every unicyclic graph."""
    if n < 5:
        raise ValueError("pendant-path lemma needs order >= 5")
    if graphs is None:
        graphs = list(generate_unicyclic(n))
    results = _pmap(_pendant_path_check, graphs, jobs)
    violations = [v for vs, _, _ in results for v in vs]
    claim2_eq = sum(eq for _, eq, _ in results)
    total = sum(t for _, _, t in results)
    return VerificationReport(
        suite="pendant-path",
        order=str(n),
        graphs_examined=sum(1 for _, _, t in results if t),
        violations=violations,
        observations=[
            {
                "pendant_path_instances": total,
                "claim2_equality_instances": claim2_eq,
                "claims_checked": True,
            }
        ],
    )


def check_case3_subcases(n: int) -> VerificationReport:
    """Attaching a pendant path at each vertex orbit of the order-(n-2)
    extremal graph reproduces the closed-form counts for every orbit."""
    if n % 2 == 1:
        if n < 9:
            raise ValueError("odd orders start at 9")
        base = U_pq((n - 5) // 2, (n - 5) // 2)
    else:
        if n < 10:
            raise ValueError("even orders start at 10")
        base = U_pq((n - 4) // 2, (n - 6) // 2)
    center = 0
    triangle = {base.n - 2, base.n - 1}
    leaf_mask = leaves(base)

    def role(w: int) -> str:
        if w == center:
            return "center"
        if w in triangle:
            return "triangle"
        if leaf_mask >> w & 1:
            return "leaf"
        return "other"

    orbits: dict[str, list[int]] = {}
    for w in range(base.n):
        extended = from_edges(base.n + 2, base.edges() + [(w, base.n), (base.n, base.n + 1)])
        orbits.setdefault(unicyclic_code(extended).text, []).append(w)

    violations = []
    observations = []
    leaf_values = set()
    if n % 2 == 1:
        expected_by_role = {
            "leaf": (3 * n - 1) // 2,
            "triangle": (n + 5) // 2,
            "center": n // 2 + 2,
            "other": (n + 5) // 2,
        }
    else:
        expected_by_role = {
            "triangle": (n + 6) // 2,
            "center": n // 2 + 2,
            "other": (n + 6) // 2,
        }
    leaf_orbit_count = 0
    for code in sorted(orbits):
        members = orbits[code]
        roles = {role(w) for w in members}
        rep = members[0]
        extended = from_edges(
            base.n + 2, base.edges() + [(rep, base.n), (base.n, base.n + 1)]
        )
        value = phi(extended)
        if len(roles) != 1:
            violations.append(Violation(_g6(extended), "orbit_role_mixed", len(roles), 1))
            continue
        orbit_role = roles.pop()
        observations.append(
            {"role": orbit_role, "orbit_size": len(members), "phi": value, "graph6": _g6(extended)}
        )
        if orbit_role == "leaf" and n % 2 == 0:
            leaf_orbit_count += 1
            leaf_values.add(value)
            continue
        expect = expected_by_role[orbit_role]
        if value != expect:
            violations.append(Violation(_g6(extended), f"subcase_{orbit_role}", value, expect))
    if n % 2 == 0:
        want = {(3 * n + 2) // 2, (n + 6) // 2}
        if leaf_orbit_count != 2:
            violations.append(Violation(_g6(base), "even_leaf_orbit_count", leaf_orbit_count, 2))
        if leaf_values != want:
            violations.append(
                Violation(_g6(base), "even_leaf_values", sum(sorted(leaf_values)), sum(sorted(want)))
            )
    return VerificationReport(
        suite="subcases",
        order=str(n),
        graphs_examined=len(orbits),
        violations=violations,
        observations=observations,
    )


def _identity_check(g: Graph) -> list[Violation]:
    violations = []
    profile = mds_profile(g)
    supports = support_vertices(g)
    for v, parts in enumerate(profile.per_vertex):
        if sum(parts) != profile.total:
            violations.append(Violation(_g6(g), "per_vertex_decomposition", sum(parts), profile.total))
        if supports >> v & 1 and parts[1] != 0:
            violations.append(Violation(_g6(g), "support_vertex_deg0_zero", parts[1], 0))
        if _phi_minus(g, 1 << v) < parts[0]:
            violations.append(
                Violation(_g6(g), "deletion_vs_excluded", _phi_minus(g, 1 << v), parts[0])
            )
        closed = closed_neighborhood(g, v)
        if _phi_minus(g, closed) < parts[1]:
            violations.append(
                Violation(_g6(g), "deletion_vs_deg0", _phi_minus(g, closed), parts[1])
            )
    return violations


def check_identity_suite(
    corpus: Iterable[Graph],
    pair_count: int = IDENTITY_PAIR_COUNT,
    seed: int = IDENTITY_PAIR_SEED,
    jobs: int = 1,
) -> VerificationReport:
    """Per-vertex decomposition, support-vertex vanishing, deletion
    inequalities on every corpus graph, and multiplicativity on seeded
    random disjoint-union pairs drawn from the corpus."""
    graphs = list(corpus)
    results = _pmap(_identity_check, graphs, jobs)
    violations = [v for vs in results for v in vs]
    rng = random.Random(seed)
    pairs_done = 0
    while pairs_done < pair_count and graphs:
        g = rng.choice(graphs)
        h = rng.choice(graphs)
        if g.n + h.n > 64:
            continue
        pairs_done += 1
        joint = phi(disjoint_union(g, h))
        separate = phi(g) * phi(h)
        if joint != separate:
            violations.append(
                Violation(_g6(disjoint_union(g, h)), "union_multiplicativity", joint, separate)
            )
    return VerificationReport(
        suite="identities",
        order=f"corpus[{len(graphs)}]",
        graphs_examined=len(graphs),
        violations=violations,
        observations=[{"union_pairs": pairs_done, "seed": seed}],
    )


class Suite(NamedTuple):
    start: int  # smallest order of the suite's domain
    end: int  # largest order run by default
    per_order: bool  # one report per order, else one report over the range
    # (lo, hi, jobs, corpus: Corpus) -> report; per-order suites get
    # lo == hi == n
    check: Callable[..., VerificationReport]


SUITES = {
    "main": Suite(
        3, 12, True, lambda lo, hi, jobs, corpus: check_main_theorem(lo, jobs, corpus("unicyclic", lo))
    ),
    "trees": Suite(
        3, 12, True, lambda lo, hi, jobs, corpus: check_tree_theorem(lo, jobs, corpus("tree", lo))
    ),
    "paths": Suite(3, 20, False, lambda lo, hi, jobs, corpus: check_path_corollary(hi)),
    "caterpillars": Suite(3, 9, False, lambda lo, hi, jobs, corpus: check_caterpillar_corollary(hi, corpus)),
    "cycle": Suite(4, 20, False, lambda lo, hi, jobs, corpus: check_cycle_lemma(lo, hi)),
    "leaf-removal": Suite(5, 11, True, lambda lo, hi, jobs, corpus: check_leaf_removal_lemma(lo)),
    "surgery": Suite(
        3, 8, False, lambda lo, hi, jobs, corpus: check_surgery_lemma(hi, corpus=corpus, jobs=jobs)
    ),
    "pendant-path": Suite(
        5, 12, True, lambda lo, hi, jobs, corpus: check_pendant_path_lemma(lo, jobs, corpus("unicyclic", lo))
    ),
    "subcases": Suite(9, 13, True, lambda lo, hi, jobs, corpus: check_case3_subcases(lo)),
    "identities": Suite(3, 8, False, lambda lo, hi, jobs, corpus: check_identity_suite(
        [g for n in range(lo, hi + 1) for g in corpus("unicyclic", n)], jobs=jobs)),
}


def suite_orders(name: str, orders: tuple[int, int] | None = None) -> tuple[int, int]:
    """The order range a suite runs: ``orders`` (default: the suite's
    default range) with its lower bound raised to the suite's domain start.
    An empty range is an error, never a vacuous pass."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    suite = SUITES[name]
    lo, hi = orders if orders is not None else (suite.start, suite.end)
    if max(lo, suite.start) > hi:
        raise ValueError(
            f"suite {name!r} has no orders to check in {lo}..{hi} "
            f"(its domain starts at order {suite.start})"
        )
    return max(lo, suite.start), hi


def run_suite(
    name: str,
    orders: tuple[int, int] | None = None,
    jobs: int = 1,
    corpora: MutableMapping[tuple[str, int], list[Graph]] | None = None,
    tree_cap: int = DEFAULT_TREE_CAP,
    unicyclic_cap: int = DEFAULT_UNICYCLIC_CAP,
) -> list[VerificationReport]:
    """Run one named suite over an order range; returns its timed reports.

    ``orders`` is resolved by ``suite_orders``. Every suite that uses a tree
    or unicyclic corpus takes it generated under ``tree_cap`` /
    ``unicyclic_cap``, and an order above its cap is an error. ``corpora``
    optionally maps (class, n) to graph lists (a dict, or a
    ``CorpusCache``): it is consulted first and receives every corpus
    generated, so a cached corpus is reused across suites and runs.
    """
    lo, hi = suite_orders(name, orders)
    suite = SUITES[name]
    caps = {"tree": tree_cap, "unicyclic": unicyclic_cap}
    corpora = {} if corpora is None else corpora

    def corpus(kind: str, n: int) -> list[Graph]:
        if n > caps[kind]:
            raise ValueError(f"{kind} corpus of order {n} is above its cap {caps[kind]}")
        graphs = corpora.get((kind, n))
        if graphs is None:
            graphs = corpora[kind, n] = list(GENERATORS[kind](n, cap=caps[kind]))
        return graphs

    ranges = [(n, n) for n in range(lo, hi + 1)] if suite.per_order else [(lo, hi)]
    reports = []
    for a, b in ranges:
        t0 = time.perf_counter()
        report = suite.check(a, b, jobs, corpus)
        report.runtime_ms = (time.perf_counter() - t0) * 1000
        reports.append(report)
    return reports
