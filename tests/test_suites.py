import ast
import inspect
import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from dissoc import cycle, from_edges, graph6_decode, path, phi, unicyclic_code
from dissoc import corpus, suites
from dissoc.families import U_pq, extremal_caterpillars, extremal_unicyclic
from dissoc.mds import MdsProfile, Status
from dissoc.suites import (
    IDENTITY_PAIR_COUNT,
    LEAF_REMOVAL_ORDER_CAP,
    SUITES,
    CorpusStore,
    VerificationReport,
    Violation,
    run_suite,
)

# one store for the module: each corpus is generated once
CORPORA = CorpusStore()


def _run(name, lo, hi=None, corpora=CORPORA, jobs=1):
    """The one report of suite ``name`` over orders lo..hi (default lo..lo)."""
    (report,) = run_suite(name, (lo, lo if hi is None else hi), jobs, corpora)
    return report


def test_main_theorem_small_orders():
    for n, expected_minimizers in [(3, 1), (4, 1), (5, 1), (6, 3), (7, 1), (8, 2), (9, 1)]:
        report = _run("main", n)
        assert report.passed, report.violations
        assert report.min_phi == n // 2 + 2
        assert len(report.minimizers) == expected_minimizers
        assert report.bound == n // 2 + 2


def test_main_theorem_examines_whole_corpus():
    known = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240}
    for n, count in known.items():
        assert _run("main", n).graphs_examined == count


def test_main_theorem_minimizers_sorted_and_decodable():
    report = _run("main", 8)
    codes = [code for _, code in report.minimizers]
    assert codes == sorted(codes)
    for g6, code in report.minimizers:
        g = graph6_decode(g6)
        assert unicyclic_code(g).text == code


def test_tree_theorem_small_orders():
    for n, mins in [(3, 1), (4, 1), (5, 2), (6, 1), (7, 2), (8, 1)]:
        report = _run("trees", n)
        assert report.passed, report.violations
        assert report.min_phi == (n + 1) // 2 + 1
        assert len(report.minimizers) == mins


def test_path_corollary():
    report = _run("paths", 3, 20)
    assert report.passed
    assert len(report.minimizers) == 3  # orders 3, 4, 5 only


def test_caterpillar_corollary():
    report = _run("caterpillars", 3, 9)
    assert report.passed
    assert len(report.minimizers) == 6


def test_cycle_lemma():
    report = _run("cycle", 4, 20)
    assert report.passed
    assert len(report.minimizers) == 1  # only C6


def test_cycle_lemma_rejects_small_start():
    # the domain starts at 4: an order range below it is refused, and one
    # that reaches it starts there
    with pytest.raises(ValueError, match="domain starts at order 4"):
        run_suite("cycle", (3, 3))
    assert _run("cycle", 3, 10).order == "4..10"


def _tree_bound(g):
    return (g.n + 1) // 2 + 1


# suite -> (run, a graph's bound, a graph off the equality set, a graph on it)
EXTREMAL_SUITES = {
    "paths": (lambda: _run("paths", 3, 8), _tree_bound, path(7), path(4)),
    "caterpillars": (
        lambda: _run("caterpillars", 3, 9),
        _tree_bound,
        path(7),
        extremal_caterpillars()[-1],
    ),
    "cycle": (lambda: _run("cycle", 4, 8), lambda g: phi(path(g.n - 1)) + 1, cycle(7), cycle(6)),
}


@pytest.mark.parametrize("suite", sorted(EXTREMAL_SUITES))
@pytest.mark.parametrize(
    "offset, rule", [(-1, "phi_lower_bound"), (0, "unexpected_minimizer"), (1, "missing_minimizer")]
)
def test_extremal_suites_catch_a_moved_count(monkeypatch, suite, offset, rule):
    # move one graph's count to one below its bound or onto it, or an
    # expected graph's count to one above it
    run, bound, other, expected = EXTREMAL_SUITES[suite]
    target = expected if offset > 0 else other
    code = suites._code(target)
    value = bound(target) + offset
    real = suites.phi
    assert run().passed
    monkeypatch.setattr(suites, "phi", lambda g: value if suites._code(g) == code else real(g))
    report = run()
    assert not report.passed
    assert {v.rule for v in report.violations} == {rule}


def test_leaf_removal_lemma():
    for n in range(5, 11):
        report = _run("leaf-removal", n)
        assert report.passed, report.violations


def test_leaf_removal_refuses_orders_above_its_cap():
    # the pendant patterns it walks grow about 1.6x per order, so an order
    # past the cap is refused at once, not run for minutes or years
    with pytest.raises(ValueError, match=f"orders up to {LEAF_REMOVAL_ORDER_CAP}, got {LEAF_REMOVAL_ORDER_CAP + 1}"):
        run_suite("leaf-removal", (LEAF_REMOVAL_ORDER_CAP + 1, LEAF_REMOVAL_ORDER_CAP + 1))


def test_leaf_removal_example_caterpillar():
    # removing a closed leaf neighborhood from a one-pendant cycle leaves a path
    from dissoc import U_rt, closed_neighborhood, delete_vertices, is_caterpillar, leaves, iter_bits

    g = U_rt(5, 1)
    (y,) = list(iter_bits(leaves(g)))
    h, _ = delete_vertices(g, closed_neighborhood(g, y))
    assert is_caterpillar(h) and h.n == g.n - 2


def test_surgery_lemma():
    report = _run("surgery", 3, 6)
    assert report.passed, report.violations[:3]
    tail = report.observations[-1]
    assert tail["instances"] > 0


def test_surgery_equality_instances_satisfy_condition():
    report = _run("surgery", 3, 6)
    assert report.passed
    for obs in report.observations:
        if "g1" in obs:
            assert obs["phi_base_minus_nw"] == obs["phi_base_w_deg0"]


def test_pendant_path_lemma():
    for n in (5, 6, 7, 8, 9, 10):
        report = _run("pendant-path", n)
        assert report.passed, report.violations[:3]


def test_pendant_path_on_U22():
    # U(2,2) itself carries a degree-2-support pendant path on each long leg
    from dissoc import delete_vertices, vset
    from oracles import pendant_path_triples

    g = U_pq(2, 2)
    triples = pendant_path_triples(g)
    assert triples
    for w, u, v in triples:
        h, _ = delete_vertices(g, vset([u, v]))
        assert phi(g) >= phi(h) + 1


@pytest.mark.parametrize(
    "slot, delta, run, rule",
    [
        (1, 1, lambda: _run("pendant-path", 5), "pendant_path_claim1"),
        (2, -1, lambda: _run("pendant-path", 5), "pendant_path_claim2_ge"),
        (0, -1, lambda: _run("pendant-path", 5), "pendant_path_claim3_ge"),
        (4, 1, lambda: _run("pendant-path", 5), "pendant_path_cross_check"),
        (0, 1, lambda: _run("surgery", 3, 4), "surgery_claim1"),
        (2, 1, lambda: _run("surgery", 3, 4), "surgery_claim2"),
        (0, 1, lambda: _run("surgery", 3, 4), "surgery_cross_check"),
        (0, 1, lambda: _run("identities", 4, 4), "per_vertex_decomposition"),
        (1, 1, lambda: _run("identities", 4, 4), "support_vertex_deg0_zero"),
    ],
)
def test_profile_checks_catch_a_skewed_profile(monkeypatch, slot, delta, run, rule):
    # shift one entry of every per-vertex triple in the first profile taken,
    # or of every pair in the first result of a targeted pass (pendant-path,
    # which returns its paths beside the pairs, or surgery), whose slots
    # 0..2 are w's triple in g (in g1) and 3..5 its triple in g - {u, v}
    # (in g2); a check that passes anyway does not read the counts it
    # claims to
    calls = []

    def shift(row, first):
        return tuple(c + delta if first + i == slot else c for i, c in enumerate(row))

    def skew_profile(profile):
        return MdsProfile(profile.total, tuple(shift(row, 0) for row in profile.per_vertex))

    def skew_pairs(pairs):
        return [(shift(in_g, 0), shift(in_h, 3)) for in_g, in_h in pairs]

    if rule.startswith("pendant_path"):
        target, skew = "_detached_triples", lambda result: (result[0], skew_pairs(result[1]))
    elif rule.startswith("surgery_claim"):
        target, skew = "_surgery_triples", skew_pairs
    else:
        target, skew = "mds_profile", skew_profile
    real = getattr(suites, target)

    def skewed(*args):
        result = real(*args)
        calls.append(args)
        return skew(result) if len(calls) == 1 else result

    assert run().passed
    monkeypatch.setattr(suites, target, skewed)
    report = run()
    assert calls and rule in {v.rule for v in report.violations}


def _moved_past_the_first_path(real):
    # raise w's excluded count in g and in g - {u, v} by one alike on every
    # pendant path but the first, whose triple in g gives phi(g): only the
    # drop phi(g) >= phi(g - {u, v}) + 1 can see it
    def moved(g):
        paths, pairs = real(g)
        return paths, pairs[:1] + [((c + 1, *rest), (h + 1, *h_rest)) for (c, *rest), (h, *h_rest) in pairs[1:]]

    return moved


def _leaf_removal():
    return _run("leaf-removal", 6)


def _surgery():
    return _run("surgery", 3, 6)


def _identities():
    return _run("identities", 4, 5)


# rule -> (the name in suites that is patched, the fault as a function of the
# real value, the run whose comparison must catch it). Each fault but
# surgery's monotonicity moves a count by one, and each run meets its rule
# with equality somewhere, so a comparison rewritten off by one fails too
FAULTS = {
    # phi is read on the order-6 graphs only for the drop
    "leaf_removal_drop_ge_2": ("phi", lambda real: lambda g: real(g) - (g.n == 6), _leaf_removal),
    # only the support vertex's excluded count takes one constraint
    "support_excluded_identity": ("phi_refined", lambda real: lambda g, cs: real(g, cs) + (len(cs) == 1), _leaf_removal),
    "support_pair_count_ge_1": (
        "phi_refined",
        lambda real: lambda g, cs: real(g, cs) - (cs[0][1] is Status.IN_DEGREE1),
        _leaf_removal,
    ),
    # g2 gains sets on every instance but each base graph's first, which is
    # cross-checked against profiles; by 100, since an instance one set
    # short would become count-preserving and meet the equality condition
    "surgery_phi_monotone": (
        "_surgery_triples",
        lambda real: lambda g, pairs: [
            (t1, (t2[0], t2[1] + 100 * (i > 0), t2[2])) for i, (t1, t2) in enumerate(real(g, pairs))
        ],
        _surgery,
    ),
    # surgery counts one refined count only, on count-preserving instances
    "surgery_equality_condition": ("phi_refined", lambda real: lambda g, cs: real(g, cs) + 1, _surgery),
    "deletion_vs_excluded": (
        "_phi_minus",
        lambda real: lambda g, mask: real(g, mask) - (mask & (mask - 1) == 0),
        _identities,
    ),
    "deletion_vs_deg0": ("_phi_minus", lambda real: lambda g, mask: real(g, mask) - (mask & (mask - 1) != 0), _identities),
    # outside the deletions, phi counts only the unions
    "union_multiplicativity": ("phi", lambda real: lambda g: real(g) + 1, _identities),
    "pendant_path_drop_ge_1": ("_detached_triples", _moved_past_the_first_path, lambda: _run("pendant-path", 7)),
}


@pytest.mark.parametrize("rule", sorted(FAULTS))
def test_lemma_checks_catch_an_injected_fault(monkeypatch, rule):
    # each rule fires, and no other does, once a value it compares is moved
    name, fault, run = FAULTS[rule]
    assert run().passed
    monkeypatch.setattr(suites, name, fault(getattr(suites, name)))
    assert {v.rule for v in run().violations} == {rule}


def test_pendant_path_rejects_graphs_that_are_not_unicyclic():
    two_cycles = from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)])
    for g in (path(7), two_cycles):
        store = CorpusStore()
        store.corpora["unicyclic", 7] = [g]
        with pytest.raises(ValueError, match="unicyclic"):
            _run("pendant-path", 7, corpora=store)


def test_surgery_rejects_graphs_that_are_not_unicyclic():
    # the targeted pass reads w's context in graphs it never builds, which
    # only a cycle's context gives exactly: on two cycles it must refuse
    two_cycles = from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)])
    for g in (path(7), two_cycles):
        store = CorpusStore()
        store.corpora["unicyclic", 7] = [g]
        with pytest.raises(ValueError, match="unicyclic"):
            _run("surgery", 7, 7, corpora=store)


def test_case3_subcases_odd():
    report = _run("subcases", 9)
    assert report.passed, report.violations
    by_role = {o["role"]: o["phi"] for o in report.observations}
    assert by_role["leaf"] == 13
    assert by_role["center"] == 6
    assert by_role["triangle"] == 7
    assert by_role["other"] == 7


def test_case3_subcases_even():
    report = _run("subcases", 10)
    assert report.passed, report.violations
    leaf_values = {o["phi"] for o in report.observations if o["role"] == "leaf"}
    assert leaf_values == {16, 8}
    center = [o["phi"] for o in report.observations if o["role"] == "center"]
    assert center == [10 // 2 + 2]


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("role", ["center", "triangle", "other", "leaf"])
def test_case3_subcases_catch_an_off_by_one_count(monkeypatch, n, role):
    # one orbit of the role counts one more: only that role's rule fires,
    # on the base graph, with the sums of the counts found and expected
    report = _run("subcases", n)
    assert report.passed
    target = next(o for o in report.observations if o["role"] == role)
    real = suites.phi
    monkeypatch.setattr(suites, "phi", lambda g: real(g) + (suites._g6(g) == target["graph6"]))
    failed = _run("subcases", n)
    have = sum({o["phi"] + (o is target) for o in report.observations if o["role"] == role})
    want = sum({o["phi"] for o in report.observations if o["role"] == role})
    base = suites._g6(extremal_unicyclic(n - 2)[0])
    assert [(v.graph6, v.rule, v.lhs, v.rhs) for v in failed.violations] == [(base, f"subcase_{role}", have, want)]


def test_case3_rejects_invalid_orders():
    for n in (7, 8):
        with pytest.raises(ValueError, match="domain starts at order 9"):
            run_suite("subcases", (n, n))


def test_identity_suite():
    report = _run("identities", 3, 7)
    assert report.passed, report.violations[:3]
    assert report.observations[0]["union_pairs"] == IDENTITY_PAIR_COUNT


def test_identity_suite_counts_each_graph_once(monkeypatch):
    # multiplicativity reads each graph's total from its profile: outside
    # the deletion checks, phi runs once per union pair, on the union
    calls, deleting = [], []
    real_phi, real_phi_minus = suites.phi, suites._phi_minus

    def counting_phi(g):
        if not deleting:
            calls.append(g)
        return real_phi(g)

    def phi_minus(g, mask):
        deleting.append(mask)
        try:
            return real_phi_minus(g, mask)
        finally:
            deleting.pop()

    monkeypatch.setattr(suites, "phi", counting_phi)
    monkeypatch.setattr(suites, "_phi_minus", phi_minus)
    report = _run("identities", 3, 6, jobs=1)
    assert report.passed
    assert len(calls) == report.observations[0]["union_pairs"] == IDENTITY_PAIR_COUNT


def test_main_theorem_detects_missing_minimizer():
    # drop the extremal graph from the corpus: the bound is no longer attained
    from dissoc import unicyclic_code as ucode

    full = CORPORA.graphs("unicyclic", 7, 7)
    extremal_code = ucode(extremal_unicyclic(7)[0]).text
    store = CorpusStore()
    store.corpora["unicyclic", 7] = [g for g in full if ucode(g).text != extremal_code]
    report = _run("main", 7, corpora=store)
    assert not report.passed
    rules = {v.rule for v in report.violations}
    assert "min_phi_equals_bound" in rules
    assert "missing_minimizer" in rules
    assert "unexpected_minimizer" in rules  # the new argmin graphs are not expected


def test_main_theorem_detects_bound_breach():
    # a path is not unicyclic and sits below the unicyclic bound
    from dissoc import path as mk_path

    store = CorpusStore()
    store.corpora["unicyclic", 4] = [mk_path(4)]
    report = _run("main", 4, corpora=store)
    assert not report.passed
    assert any(v.rule == "phi_lower_bound" for v in report.violations)


def test_report_passed_iff_no_violations():
    report = _run("main", 5)
    assert report.passed
    report.violations.append(Violation("", "synthetic", 0, 1))
    assert not report.passed


def test_report_json_roundtrip_and_runtime_excluded():
    report = _run("main", 6)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["runtime_ms"] is None
    assert parsed["min_phi"] == 5
    assert len(parsed["minimizers"]) == 3


def test_jobs_do_not_change_reports():
    seq = _run("main", 8, jobs=1)
    par = _run("main", 8, jobs=2)
    assert seq.to_dict() == par.to_dict()
    seq_pp = _run("pendant-path", 8, jobs=1)
    par_pp = _run("pendant-path", 8, jobs=2)
    assert seq_pp.to_dict() == par_pp.to_dict()
    seq_surgery = _run("surgery", 3, 6, jobs=1)
    par_surgery = _run("surgery", 3, 6, jobs=2)
    assert seq_surgery.to_dict() == par_surgery.to_dict()


def _direct(name, args):
    """Run a SUITES row's check on ``args`` in this process, without the
    runner: its body is handed its class's corpus, if the row names one,
    and then its per-graph results, mapped here in graph order. The report
    takes the row's name, the order label of one order or of a range, and
    the number of graphs mapped, then the fields the body returns."""
    suite = SUITES[name]
    corpus = [CORPORA.graphs(suite.corpus, args[0], args[-1])] if suite.corpus else []
    body = suite.check(*args, *corpus)
    fn, graphs = next(body)
    try:
        body.send([fn(g) for g in graphs])
    except StopIteration as done:
        order = str(args[0]) if suite.per_order else f"{args[0]}..{args[1]}"
        return VerificationReport(**{"suite": name, "order": order, "graphs_examined": len(graphs), **done.value})
    raise AssertionError(f"{name}: the body did not finish on its results")


def test_suite_table_matches_direct_checks():
    for name, suite in SUITES.items():
        n = suite.start
        reports = run_suite(name, orders=(n, n), jobs=2, corpora=CORPORA)
        direct = _direct(name, (n,) if suite.per_order else (n, n))
        assert [r.to_dict() for r in reports] == [direct.to_dict()], name
    seq = run_suite("identities", orders=(3, 6), jobs=1)
    par = run_suite("identities", orders=(3, 6), jobs=2)
    assert [r.to_dict() for r in seq] == [r.to_dict() for r in par]


def test_only_the_runner_builds_a_report():
    # a report's suite, order and graphs_examined come from its SUITES row
    # and its map, so one call in the runner builds every report, and no
    # check body, or helper of one, names its suite
    tree = ast.parse(inspect.getsource(suites))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def report_calls(node):
        return [
            call for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "VerificationReport"
        ]

    assert len(report_calls(tree)) == 1
    assert len(report_calls(functions["_start"])) == 1
    for name, fn in functions.items():
        if name == "_start":
            continue
        keywords = {node.arg for node in ast.walk(fn) if isinstance(node, ast.keyword)}
        keys = {key.value for node in ast.walk(fn) if isinstance(node, ast.Dict)
                for key in node.keys if isinstance(key, ast.Constant)}
        assert "suite" not in keywords | keys, name


def test_every_check_yields_its_map_before_counting(monkeypatch):
    # one check shape: every row's check is a body, and nothing before its
    # yield counts, so every count falls inside its suite's run
    def refuse(*args, **kwargs):
        raise AssertionError("counted before the map was yielded")

    for name in ("phi", "phi_refined", "mds_profile", "_detached_triples", "_surgery_triples"):
        monkeypatch.setattr(suites, name, refuse)
    for name, suite in SUITES.items():
        assert inspect.isgeneratorfunction(suite.check), name
        n = suite.start
        args = (n,) if suite.per_order else (n, n)
        corpus = [CORPORA.graphs(suite.corpus, n, n)] if suite.corpus else []
        fn, graphs = next(suite.check(*args, *corpus))
        assert callable(fn) and graphs, name


def test_run_suite_dispatch():
    reports = run_suite("main", orders=(3, 6))
    assert [r.order for r in reports] == ["3", "4", "5", "6"]
    assert all(r.passed for r in reports)
    reports = run_suite("subcases", orders=(9, 10))
    assert [r.order for r in reports] == ["9", "10"]
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_pmap_drops_a_broken_pool(monkeypatch):
    # a pool broken by a dead worker is not reused: the run shuts it down
    # and the next map builds a new one (no process is started here)
    built, shut = [], []

    class Broken:
        def __init__(self, max_workers):
            built.append(max_workers)

        def map(self, fn, items, chunksize=1):
            raise BrokenProcessPool("a worker died")

        def shutdown(self, wait=True, *, cancel_futures=False):
            shut.append(cancel_futures)

    monkeypatch.setattr(suites.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(suites, "ProcessPoolExecutor", Broken)
    suites._pool.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(BrokenProcessPool):
                _run("main", 8, jobs=2)
            assert suites._pool.cache_info().currsize == 0
    finally:
        suites._pool.cache_clear()
    assert built == [2, 2] and shut == [True, True]


def test_reading_a_broken_pool_drops_it(monkeypatch):
    # a map is queued on a pool that breaks before its results are read:
    # the error reaches the caller, and the next map builds a new pool
    built, shut = [], []

    class BreaksWhileRead:
        def __init__(self, max_workers):
            built.append(max_workers)

        def map(self, fn, items, chunksize=1):
            def results():
                raise BrokenProcessPool("a worker died")
                yield

            return results()

        def shutdown(self, wait=True, *, cancel_futures=False):
            shut.append(cancel_futures)

    monkeypatch.setattr(suites.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(suites, "ProcessPoolExecutor", BreaksWhileRead)
    suites._pool.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(BrokenProcessPool):
                _run("main", 8, jobs=2)
            assert suites._pool.cache_info().currsize == 0
    finally:
        suites._pool.cache_clear()
    assert built == [2, 2] and shut == [True, True]


def test_run_suite_uses_supplied_corpora(monkeypatch):
    # a store that already holds part of the corpus a suite needs hands
    # exactly that part on, and never generates
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was called")

    mapped = []
    pmap = suites._pmap
    monkeypatch.setattr(suites, "_pmap", lambda fn, items, jobs: mapped.extend(items) or pmap(fn, items, jobs))
    corpus_suites = [name for name, suite in SUITES.items() if suite.corpus]
    assert len(corpus_suites) == 6
    for name in corpus_suites:
        n = SUITES[name].start
        kind = "tree" if name in ("trees", "caterpillars") else "unicyclic"
        graphs = CORPORA.graphs(kind, n, n)[:3]
        store = CorpusStore()
        store.corpora[kind, n] = graphs
        mapped.clear()
        with monkeypatch.context() as patch:
            patch.setattr(corpus, "GENERATORS", dict.fromkeys(corpus.GENERATORS, refuse))
            run_suite(name, orders=(n, n), corpora=store)
        assert mapped == graphs, name
        assert store.corpora == {(kind, n): graphs}, name


def test_expected_minimizers_attain_bound():
    for n in range(3, 13):
        for g in extremal_unicyclic(n):
            assert phi(g) == n // 2 + 2

