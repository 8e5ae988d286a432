import json

import pytest

from dissoc import from_edges, generate_unicyclic, graph6_decode, path, phi, unicyclic_code
from dissoc import suites
from dissoc.families import U_pq, extremal_unicyclic
from dissoc.mds import MdsProfile
from dissoc.suites import (
    SUITES,
    CorpusStore,
    Violation,
    check_case3_subcases,
    check_caterpillar_corollary,
    check_cycle_lemma,
    check_identity_suite,
    check_leaf_removal_lemma,
    check_main_theorem,
    check_path_corollary,
    check_pendant_path_lemma,
    check_surgery_lemma,
    check_tree_theorem,
    run_suite,
)


def test_main_theorem_small_orders():
    for n, expected_minimizers in [(3, 1), (4, 1), (5, 1), (6, 3), (7, 1), (8, 2), (9, 1)]:
        report = check_main_theorem(n)
        assert report.passed, report.violations
        assert report.min_phi == n // 2 + 2
        assert len(report.minimizers) == expected_minimizers
        assert report.bound == n // 2 + 2


def test_main_theorem_examines_whole_corpus():
    known = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240}
    for n, count in known.items():
        assert check_main_theorem(n).graphs_examined == count


def test_main_theorem_minimizers_sorted_and_decodable():
    report = check_main_theorem(8)
    codes = [code for _, code in report.minimizers]
    assert codes == sorted(codes)
    for g6, code in report.minimizers:
        g = graph6_decode(g6)
        assert unicyclic_code(g).text == code


def test_tree_theorem_small_orders():
    for n, mins in [(3, 1), (4, 1), (5, 2), (6, 1), (7, 2), (8, 1)]:
        report = check_tree_theorem(n)
        assert report.passed, report.violations
        assert report.min_phi == (n + 1) // 2 + 1
        assert len(report.minimizers) == mins


def test_path_corollary():
    report = check_path_corollary(20)
    assert report.passed
    assert len(report.minimizers) == 3  # orders 3, 4, 5 only


def test_caterpillar_corollary():
    report = check_caterpillar_corollary(9)
    assert report.passed
    assert len(report.minimizers) == 6


def test_cycle_lemma():
    report = check_cycle_lemma(4, 20)
    assert report.passed
    assert len(report.minimizers) == 1  # only C6


def test_cycle_lemma_rejects_small_start():
    with pytest.raises(ValueError):
        check_cycle_lemma(3, 10)


def test_leaf_removal_lemma():
    for n in range(5, 11):
        report = check_leaf_removal_lemma(n)
        assert report.passed, report.violations


def test_leaf_removal_example_caterpillar():
    # removing a closed leaf neighborhood from a one-pendant cycle leaves a path
    from dissoc import U_rt, closed_neighborhood, delete_vertices, is_caterpillar, leaves, iter_bits

    g = U_rt(5, 1)
    (y,) = list(iter_bits(leaves(g)))
    h, _ = delete_vertices(g, closed_neighborhood(g, y))
    assert is_caterpillar(h) and h.n == g.n - 2


def test_surgery_lemma():
    report = check_surgery_lemma(6, k_max=3)
    assert report.passed, report.violations[:3]
    tail = report.observations[-1]
    assert tail["instances"] > 0


def test_surgery_equality_instances_satisfy_condition():
    report = check_surgery_lemma(6, k_max=2)
    assert report.passed
    for obs in report.observations:
        if "g1" in obs:
            assert obs["phi_base_minus_nw"] == obs["phi_base_w_deg0"]


def test_pendant_path_lemma():
    for n in (5, 6, 7, 8, 9, 10):
        report = check_pendant_path_lemma(n)
        assert report.passed, report.violations[:3]


def test_pendant_path_on_U22():
    # U(2,2) itself carries a degree-2-support pendant path on each long leg
    from dissoc import delete_vertices, vset
    from dissoc.suites import _pendant_path_triples

    g = U_pq(2, 2)
    triples = _pendant_path_triples(g)
    assert triples
    for w, u, v in triples:
        h, _ = delete_vertices(g, vset([u, v]))
        assert phi(g) >= phi(h) + 1


@pytest.mark.parametrize(
    "slot, delta, run, rule",
    [
        (1, 1, lambda: check_pendant_path_lemma(5), "pendant_path_claim1"),
        (2, -1, lambda: check_pendant_path_lemma(5), "pendant_path_claim2_ge"),
        (0, -1, lambda: check_pendant_path_lemma(5), "pendant_path_claim3_ge"),
        (4, 1, lambda: check_pendant_path_lemma(5), "pendant_path_cross_check"),
        (0, 1, lambda: check_surgery_lemma(4, k_max=2), "surgery_claim1"),
        (2, 1, lambda: check_surgery_lemma(4, k_max=2), "surgery_claim2"),
        (0, 1, lambda: check_identity_suite(generate_unicyclic(4)), "per_vertex_decomposition"),
        (1, 1, lambda: check_identity_suite(generate_unicyclic(4)), "support_vertex_deg0_zero"),
    ],
)
def test_profile_checks_catch_a_skewed_profile(monkeypatch, slot, delta, run, rule):
    # shift one entry of every per-vertex triple in the first profile taken,
    # or of every pair in the first targeted pass of pendant-path, whose
    # slots 0..2 are w's triple in g and 3..5 its triple in g - {u, v}; a
    # check that passes anyway does not read the counts it claims to
    calls = []

    def shift(row, first):
        return tuple(c + delta if first + i == slot else c for i, c in enumerate(row))

    def skew_first_call(real, skew):
        def skewed(*args):
            result = real(*args)
            calls.append(args)
            return skew(result) if len(calls) == 1 else result

        return skewed

    def skew_profile(profile):
        return MdsProfile(profile.total, tuple(shift(row, 0) for row in profile.per_vertex))

    def skew_pairs(pairs):
        return [(shift(in_g, 0), shift(in_h, 3)) for in_g, in_h in pairs]

    assert run().passed
    monkeypatch.setattr(suites, "mds_profile", skew_first_call(suites.mds_profile, skew_profile))
    monkeypatch.setattr(suites, "_detached_triples", skew_first_call(suites._detached_triples, skew_pairs))
    report = run()
    assert calls and rule in {v.rule for v in report.violations}


def test_pendant_path_rejects_graphs_that_are_not_unicyclic():
    two_cycles = from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)])
    for g in (path(7), two_cycles):
        with pytest.raises(ValueError, match="unicyclic"):
            check_pendant_path_lemma(7, graphs=[g])


def test_case3_subcases_odd():
    report = check_case3_subcases(9)
    assert report.passed, report.violations
    by_role = {o["role"]: o["phi"] for o in report.observations}
    assert by_role["leaf"] == 13
    assert by_role["center"] == 6
    assert by_role["triangle"] == 7
    assert by_role["other"] == 7


def test_case3_subcases_even():
    report = check_case3_subcases(10)
    assert report.passed, report.violations
    leaf_values = {o["phi"] for o in report.observations if o["role"] == "leaf"}
    assert leaf_values == {16, 8}
    center = [o["phi"] for o in report.observations if o["role"] == "center"]
    assert center == [10 // 2 + 2]


def test_case3_rejects_invalid_orders():
    with pytest.raises(ValueError):
        check_case3_subcases(7)
    with pytest.raises(ValueError):
        check_case3_subcases(8)


def test_identity_suite():
    corpus = [g for n in range(3, 8) for g in generate_unicyclic(n)]
    report = check_identity_suite(corpus, pair_count=50)
    assert report.passed, report.violations[:3]
    assert report.observations[0]["union_pairs"] == 50


def test_main_theorem_detects_missing_minimizer():
    # drop the extremal graph from the corpus: the bound is no longer attained
    from dissoc import unicyclic_code as ucode

    full = list(generate_unicyclic(7))
    extremal_code = ucode(extremal_unicyclic(7)[0]).text
    doctored = [g for g in full if ucode(g).text != extremal_code]
    report = check_main_theorem(7, graphs=doctored)
    assert not report.passed
    rules = {v.rule for v in report.violations}
    assert "min_phi_equals_bound" in rules
    assert "missing_minimizer" in rules
    assert "unexpected_minimizer" in rules  # the new argmin graphs are not expected


def test_main_theorem_detects_bound_breach():
    # a path is not unicyclic and sits below the unicyclic bound
    from dissoc import path as mk_path

    report = check_main_theorem(4, graphs=[mk_path(4)])
    assert not report.passed
    assert any(v.rule == "phi_lower_bound" for v in report.violations)


def test_report_passed_iff_no_violations():
    report = check_main_theorem(5)
    assert report.passed
    report.violations.append(Violation("", "synthetic", 0, 1))
    assert not report.passed


def test_report_json_roundtrip_and_runtime_excluded():
    report = check_main_theorem(6)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["runtime_ms"] is None
    assert parsed["min_phi"] == 5
    assert len(parsed["minimizers"]) == 3


def test_jobs_do_not_change_reports():
    seq = check_main_theorem(8, jobs=1)
    par = check_main_theorem(8, jobs=2)
    assert seq.to_dict() == par.to_dict()
    seq_pp = check_pendant_path_lemma(8, jobs=1)
    par_pp = check_pendant_path_lemma(8, jobs=2)
    assert seq_pp.to_dict() == par_pp.to_dict()
    seq_surgery = check_surgery_lemma(6, jobs=1)
    par_surgery = check_surgery_lemma(6, jobs=2)
    assert seq_surgery.to_dict() == par_surgery.to_dict()


def test_run_suite_dispatch():
    reports = run_suite("main", orders=(3, 6))
    assert [r.order for r in reports] == ["3", "4", "5", "6"]
    assert all(r.passed for r in reports)
    reports = run_suite("subcases", orders=(9, 10))
    assert [r.order for r in reports] == ["9", "10"]
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_run_suite_uses_supplied_corpora():
    # a store that already holds part of a corpus hands exactly that part on
    graphs = list(generate_unicyclic(5))[:3]
    store = CorpusStore()
    store.corpora["unicyclic", 5] = graphs
    reports = run_suite("main", orders=(5, 5), corpora=store)
    assert reports[0].graphs_examined == len(graphs)
    assert store.corpora == {("unicyclic", 5): graphs}


def test_expected_minimizers_attain_bound():
    for n in range(3, 13):
        for g in extremal_unicyclic(n):
            assert phi(g) == n // 2 + 2


def test_suite_table_matches_direct_checks():
    direct = {
        "main": check_main_theorem,
        "trees": check_tree_theorem,
        "paths": check_path_corollary,
        "caterpillars": check_caterpillar_corollary,
        "cycle": lambda n: check_cycle_lemma(n, n),
        "leaf-removal": check_leaf_removal_lemma,
        "surgery": check_surgery_lemma,
        "pendant-path": check_pendant_path_lemma,
        "subcases": check_case3_subcases,
        "identities": lambda n: check_identity_suite(generate_unicyclic(n)),
    }
    assert set(direct) == set(SUITES)
    for name, suite in SUITES.items():
        reports = run_suite(name, orders=(suite.start, suite.start))
        assert [r.to_dict() for r in reports] == [direct[name](suite.start).to_dict()], name
    seq = run_suite("identities", orders=(3, 6), jobs=1)
    par = run_suite("identities", orders=(3, 6), jobs=2)
    assert [r.to_dict() for r in seq] == [r.to_dict() for r in par]
