import ast
import importlib.util
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissoc import (
    Constraint,
    MdsProfile,
    Status,
    U_pq,
    cycle,
    disjoint_union,
    enumerate_mds,
    from_edges,
    generate_trees,
    generate_unicyclic,
    iter_bits,
    mds_profile,
    parse_family,
    path,
    phi,
    phi_refined,
    spider_T,
    support_vertices,
    vset,
)
from dissoc.graphs import delete_vertices, closed_neighborhood
from dissoc import mds
from dissoc.suites import SURGERY_K_MAX, _surgery_graphs

from oracles import (
    addable,
    count_mds_bruteforce,
    enumerate_mds_naive,
    is_dissociation,
    is_maximal_dissociation,
    pendant_path_triples,
    random_connected_graph,
    search_mds,
)

K1 = from_edges(1, [])
ROOT = Path(__file__).resolve().parent.parent


def ladder(n):
    """P_2 x P_{n/2}: two paths 0..h-1 and h..n-1, with the rungs (i, h + i)."""
    h = n // 2
    rails = [(i, i + 1) for i in range(h - 1)] + [(h + i, h + i + 1) for i in range(h - 1)]
    return from_edges(n, rails + [(i, h + i) for i in range(h)])


def test_is_dissociation_p3():
    p3 = path(3)
    assert is_dissociation(p3, vset([0, 2]))
    assert is_dissociation(p3, vset([0, 1]))
    assert not is_dissociation(p3, vset([0, 1, 2]))


def test_is_dissociation_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        is_dissociation(path(3), 1 << 5)


def test_addable():
    c3 = cycle(3)
    assert addable(c3, vset([0]), 1)
    p4 = path(4)
    assert not addable(p4, vset([1, 2]), 0)  # 1 already matched with 2
    assert not addable(p4, vset([0, 2, 3]), 1)  # two neighbors inside
    with pytest.raises(ValueError):
        addable(p4, vset([1, 2]), 1)


def test_is_maximal_dissociation():
    c3 = cycle(3)
    assert is_maximal_dissociation(c3, vset([0, 1]))
    assert not is_maximal_dissociation(c3, vset([0]))
    assert is_maximal_dissociation(path(4), vset([1, 2]))  # 0 and 3 meet a matched vertex
    assert is_maximal_dissociation(path(4), vset([0, 2, 3]))  # 1 has two neighbors inside


def test_naive_frozen_p4():
    # all 16 subsets filtered by hand: {1,2}, {0,1,3}, {0,2,3}
    assert enumerate_mds_naive(path(4)) == [0b0110, 0b1011, 0b1101]


def test_naive_frozen_c3():
    assert enumerate_mds_naive(cycle(3)) == [0b011, 0b101, 0b110]


def test_naive_k1():
    assert enumerate_mds_naive(K1) == [1]


def test_naive_order_cap():
    with pytest.raises(ValueError):
        enumerate_mds_naive(path(25))


def test_enumerate_matches_naive_on_examples():
    for g in (path(4), cycle(6), cycle(12), spider_T(3, 2), U_pq(2, 1)):
        assert list(enumerate_mds(g)) == enumerate_mds_naive(g)


def test_phi_paper_values():
    assert phi(cycle(3)) == 3
    assert phi(U_pq(1, 0)) == 4
    assert phi(path(5)) == 4
    assert phi(K1) == 1
    assert phi(cycle(6)) == phi(path(5)) + 1


def test_phi_refined_examples():
    c3 = cycle(3)
    assert phi_refined(c3, [(0, Status.IN_DEGREE0)]) == 0
    assert phi_refined(c3, [(0, Status.EXCLUDED)]) == 1
    assert phi_refined(c3, []) == phi(c3)
    # the middle of a path is a support vertex
    p3 = path(3)
    assert phi_refined(p3, [(1, Status.IN_DEGREE0)]) == 0
    # same graph built as a spider with the support at the center
    assert phi_refined(spider_T(2, 0), [(0, Status.IN_DEGREE0)]) == 0


def test_phi_refined_in_any_splits_count():
    g = U_pq(2, 1)
    for v in range(g.n):
        assert phi_refined(g, [(v, Status.IN_ANY)]) + phi_refined(
            g, [(v, Status.EXCLUDED)]
        ) == phi(g)
        assert phi_refined(g, [(v, Status.IN_ANY)]) == phi_refined(
            g, [(v, Status.IN_DEGREE0)]
        ) + phi_refined(g, [(v, Status.IN_DEGREE1)])


def test_phi_refined_rejects_duplicates():
    with pytest.raises(ValueError):
        phi_refined(path(3), [(0, Status.EXCLUDED), (0, Status.IN_ANY)])
    with pytest.raises(ValueError):
        phi_refined(path(3), [(5, Status.EXCLUDED)])


def test_phi_refined_accepts_constraint_namedtuple():
    assert phi_refined(cycle(3), [Constraint(0, Status.EXCLUDED)]) == 1


def test_mds_profile_c3():
    prof = mds_profile(cycle(3))
    assert prof.total == 3
    assert prof.per_vertex == ((1, 0, 2),) * 3


def test_mds_profile_k1():
    prof = mds_profile(K1)
    assert prof.total == 1 and prof.per_vertex == ((0, 1, 0),)


def test_mds_profile_rows_sum_to_total():
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(1, 8))
        prof = mds_profile(g)
        for triple in prof.per_vertex:
            assert sum(triple) == prof.total


def test_mds_profile_matches_refined_counts_on_corpora():
    # the per-graph suites read their refined counts from the profile
    statuses = (Status.EXCLUDED, Status.IN_DEGREE0, Status.IN_DEGREE1)
    graphs = [g for n in range(1, 10) for g in [*generate_trees(n), *generate_unicyclic(n)]]
    # long cycles, whose contexts come from two chains per cut case, a
    # vertex with 63 children, whose siblings' product is taken per child,
    # and a ladder, whose contexts come from the sweep
    graphs += [parse_family(spec) for spec in ("C(64)", "P(64)", "Urt(40,24)", "T(63,0)")] + [ladder(16)]
    for g in graphs:
        prof = mds_profile(g)
        assert prof.total == phi(g)
        for v in range(g.n):
            assert prof.per_vertex[v] == tuple(phi_refined(g, [(v, s)]) for s in statuses)


def _status_codes(g, s) -> list[int]:
    # per vertex: 0 excluded, 1 in with degree 0, 2 in with degree 1
    return [0 if not s >> v & 1 else 1 if not g.adj[v] & s else 2 for v in range(g.n)]


def _check_counts_against_search(g, rng, pairs):
    """enumerate_mds against the sets of the search oracle; then phi, every
    mds_profile triple, phi_refined for every (vertex, Status) and for
    each vertex pair in ``pairs`` under random statuses, against counts
    derived from those sets."""
    sets = search_mds(g)
    assert list(enumerate_mds(g)) == sets, g
    codes = [_status_codes(g, s) for s in sets]
    triples = tuple(tuple(sum(1 for c in codes if c[v] == k) for k in range(3)) for v in range(g.n))
    assert phi(g) == len(sets)
    assert mds_profile(g) == MdsProfile(len(sets), triples)
    for v, (excluded, deg0, deg1) in enumerate(triples):
        expect = {
            Status.EXCLUDED: excluded,
            Status.IN_ANY: deg0 + deg1,
            Status.IN_DEGREE0: deg0,
            Status.IN_DEGREE1: deg1,
        }
        for status, count in expect.items():
            assert phi_refined(g, [(v, status)]) == count, (g, v, status)
    statuses = list(Status)
    for a, b in pairs:
        sa, sb = rng.choice(statuses), rng.choice(statuses)
        expect = sum(1 for s in sets if _satisfies(g, s, a, sa) and _satisfies(g, s, b, sb))
        assert phi_refined(g, [(a, sa), (b, sb)]) == expect, (g, a, sa, b, sb)


def check_refined_counts_against_search(orders, seed=0x5E7):
    """``_check_counts_against_search`` on every tree and unicyclic graph of
    the given orders, with four random vertex pairs per graph (the shape of
    the leaf-removal suite's pins). Returns the number of graphs checked."""
    rng = random.Random(seed)
    checked = 0
    for n in orders:
        for g in [*generate_trees(n), *generate_unicyclic(n)]:
            checked += 1
            pairs = [rng.sample(range(g.n), 2) for _ in range(4)] if g.n >= 2 else []
            _check_counts_against_search(g, rng, pairs)
    return checked


def test_refined_counts_match_search_sets_on_corpora():
    # the refined-count gate, independent of the DP behind phi_refined and
    # mds_profile; check_refined_counts_against_search(range(11, 13)) takes
    # it to order 12 in about half a minute
    assert check_refined_counts_against_search(range(1, 11)) == 201 + 1040


def check_detached_triples(orders):
    """``mds._detached_triples`` for every pendant-path triple (w, u, v) of
    every unicyclic graph of the given orders, as the scanning oracle finds
    them: w's triple in g against ``mds_profile``, and w's triple in
    g - {u, v} against three ``phi_refined`` calls on that graph. Returns
    the number of triples."""
    statuses = (Status.EXCLUDED, Status.IN_DEGREE0, Status.IN_DEGREE1)
    checked = 0
    for n in orders:
        for g in generate_unicyclic(n):
            triples = pendant_path_triples(g)
            profile = mds_profile(g)
            paths, pairs = mds._detached_triples(g)
            assert paths == triples, g
            for (w, u, v), (in_g, in_h) in zip(triples, pairs, strict=True):
                checked += 1
                h, relabel = delete_vertices(g, vset([u, v]))
                assert in_g == profile.per_vertex[w], (g, w)
                assert in_h == tuple(phi_refined(h, [(relabel[w], s)]) for s in statuses), (g, w)
    return checked


def test_detached_triples_match_profile_and_reduced_graphs():
    # pendant-path reads its claims from this pass;
    # check_detached_triples(range(12, 14)) takes it to order 13
    assert check_detached_triples(range(5, 12)) == 2737


def test_pendant_paths_from_the_peel_match_the_scan():
    # the pass finds its paths in the leaf peel; the oracle scans degrees
    graphs = [U_pq(2, 2)] + [g for n in range(3, 13) for g in generate_unicyclic(n)]
    for g in graphs:
        assert mds._pendant_paths(mds._layout(g.adj)[1]) == pendant_path_triples(g), g


def test_two_pin_count_on_g_equals_pinned_count_on_the_reduced_graph():
    # pendant-path cross-checks its pass by counting on g: with v in, u has
    # two neighbours in the set, so the sets of g with w isolated and v in
    # are, less v, the sets of g - {u, v} with w isolated
    checked = 0
    for n in range(3, 11):
        for g in generate_unicyclic(n):
            for w, u, v in pendant_path_triples(g):
                checked += 1
                h, relabel = delete_vertices(g, vset([u, v]))
                on_g = phi_refined(g, [(w, Status.IN_DEGREE0), (v, Status.IN_ANY)])
                assert on_g == phi_refined(h, [(relabel[w], Status.IN_DEGREE0)]), (g, w, u, v)
    assert checked == 865


def check_surgery_triples(orders):
    """``mds._surgery_triples`` for every surgery instance (w, k) of every
    unicyclic graph of the given orders: w's triples in g1 and g2 against
    ``mds_profile`` of the built graphs. Returns the number of instances."""
    checked = 0
    for n in orders:
        for g in generate_unicyclic(n):
            supports = support_vertices(g)
            pairs = [(w, k) for w in range(g.n) if not supports >> w & 1 for k in range(2, SURGERY_K_MAX + 1)]
            for (w, k), in_g12 in zip(pairs, mds._surgery_triples(g, pairs), strict=True):
                checked += 1
                built = tuple(mds_profile(h).per_vertex[w] for h in _surgery_graphs(g, w, k))
                assert in_g12 == built, (g, w, k)
    return checked


def test_surgery_triples_match_profiles_of_built_graphs():
    # surgery reads its claims from this pass;
    # check_surgery_triples(range(10, 12)) takes it to order 11
    assert check_surgery_triples(range(3, 10)) == 4728


VECTORS = st.tuples(*[st.integers(min_value=0, max_value=10**6)] * 6)


@settings(max_examples=200, deadline=None)
@given(VECTORS, VECTORS)
def test_step_is_the_lift_of_a_merge(a, b):
    for mask in range(8):
        assert mds._step(a, b, mask) == mds._edge(mds._mul(a, b), mask)


def test_every_emitted_set_is_maximal():
    rng = random.Random(5)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(1, 9))
        for s in enumerate_mds(g):
            assert is_maximal_dissociation(g, s)


def test_multiplicativity_small():
    for g, h in [(path(3), path(3)), (cycle(3), path(2)), (K1, cycle(5))]:
        assert phi(disjoint_union(g, h)) == phi(g) * phi(h)


def test_support_vertex_vanishing_random():
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 9))
        for u in iter_bits(support_vertices(g)):
            assert phi_refined(g, [(u, Status.IN_DEGREE0)]) == 0


def test_deletion_inequalities_random():
    rng = random.Random(29)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 8))
        for u in range(g.n):
            excluded = phi_refined(g, [(u, Status.EXCLUDED)])
            h, _ = delete_vertices(g, 1 << u)
            assert phi(h) >= excluded
            closed = closed_neighborhood(g, u)
            deg0 = phi_refined(g, [(u, Status.IN_DEGREE0)])
            if closed != g.full_mask:
                h2, _ = delete_vertices(g, closed)
                assert phi(h2) >= deg0
            else:
                assert deg0 <= 1


def _has_uncovered_3path(g, s) -> bool:
    # a path on three vertices entirely inside s
    for b in range(g.n):
        if not s >> b & 1:
            continue
        inside = g.adj[b] & s
        if inside.bit_count() >= 2:
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dissociation_iff_every_3path_hits_complement(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    g = from_edges(n, edges)
    s = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert is_dissociation(g, s) == (not _has_uncovered_3path(g, s))


def test_bruteforce_counter_matches_naive():
    rng = random.Random(31)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(1, 9))
        assert count_mds_bruteforce(g) == len(enumerate_mds_naive(g))


def _satisfies(g, s, vertex, status):
    inside = s >> vertex & 1
    if status is Status.EXCLUDED:
        return not inside
    if status is Status.IN_ANY:
        return bool(inside)
    deg = (g.adj[vertex] & s).bit_count()
    if status is Status.IN_DEGREE0:
        return bool(inside) and deg == 0
    return bool(inside) and deg == 1


def test_phi_refined_matches_naive_filter():
    rng = random.Random(43)
    statuses = list(Status)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 8))
        sets = enumerate_mds_naive(g)
        for v in range(g.n):
            for status in statuses:
                expect = sum(1 for s in sets if _satisfies(g, s, v, status))
                assert phi_refined(g, [(v, status)]) == expect
        # joint constraints on two distinct vertices
        for _ in range(6):
            a, b = rng.sample(range(g.n), 2) if g.n >= 2 else (0, 0)
            sa, sb = rng.choice(statuses), rng.choice(statuses)
            expect = sum(
                1 for s in sets if _satisfies(g, s, a, sa) and _satisfies(g, s, b, sb)
            )
            assert phi_refined(g, [(a, sa), (b, sb)]) == expect


def test_enumerate_matches_naive_on_disconnected_graphs():
    rng = random.Random(41)
    for _ in range(40):
        parts = [random_connected_graph(rng, rng.randint(1, 4)) for _ in range(rng.randint(2, 3))]
        g = parts[0]
        for h in parts[1:]:
            g = disjoint_union(g, h)
        assert list(enumerate_mds(g)) == enumerate_mds_naive(g)
        assert count_mds_bruteforce(g) == phi(g)


def test_phi_invariant_under_relabeling():
    # the sweep's vertex order depends on the labels; counts must not
    rng = random.Random(53)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 10))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
        assert phi(h) == phi(g)
        prof_g = mds_profile(g)
        prof_h = mds_profile(h)
        for v in range(g.n):
            assert prof_h.per_vertex[perm[v]] == prof_g.per_vertex[v]


def test_counter_matches_bruteforce_on_denser_graphs():
    # generated corpora are sparse; stress the DP on denser graphs too
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(10, 14)
        g = random_connected_graph(rng, n, extra_edge_prob=rng.choice([0.1, 0.3, 0.6]))
        assert phi(g) == count_mds_bruteforce(g)


def test_stream_is_sorted_ascending():
    rng = random.Random(37)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 9))
        out = list(enumerate_mds(g))
        assert out == sorted(out)
        assert len(out) == len(set(out))


def _parts_and_pairs(rng, parts):
    """The disjoint union of ``parts`` and eight vertex pairs, each across
    two different parts."""
    g = parts[0]
    for h in parts[1:]:
        g = disjoint_union(g, h)
    starts = [0]
    for h in parts:
        starts.append(starts[-1] + h.n)
    pairs = []
    for _ in range(8 if len(parts) > 1 else 0):
        x, y = rng.sample(range(len(parts)), 2)
        pairs.append((rng.randrange(starts[x], starts[x + 1]), rng.randrange(starts[y], starts[y + 1])))
    return g, pairs


def test_counts_on_disjoint_unions_match_search_sets():
    # trees, unicyclic graphs and, every other time, a component with two
    # cycles; the sets come from the search oracle, and every count goes
    # through the DP
    rng = random.Random(59)
    two_cycles = from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    trees = list(generate_trees(5))
    unicyclic = list(generate_unicyclic(5))
    for i in range(40):
        parts = [rng.choice(trees), rng.choice(unicyclic), rng.choice(unicyclic), K1]
        parts += [two_cycles] if i % 2 else []
        rng.shuffle(parts)
        g, pairs = _parts_and_pairs(rng, parts)
        _check_counts_against_search(g, rng, pairs)


def _with_cut_edges(rng, n, k):
    """A random connected graph of order n with k edges more than a tree."""
    edges = {frozenset((v, rng.randrange(v))) for v in range(1, n)}
    while len(edges) < n - 1 + k:
        edges.add(frozenset(rng.sample(range(n), 2)))
    return from_edges(n, [tuple(e) for e in edges])


def test_counts_with_several_cut_edges_match_search_sets():
    # components with k = 2..6, on the frontier sweep
    rng = random.Random(67)
    shared = from_edges(7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 0)])
    bridged = from_edges(9, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4), (6, 7), (7, 8)])
    graphs = [(shared, []), (bridged, [])]
    for k, n, count in ((2, 12, 4), (3, 12, 3), (4, 11, 2), (5, 10, 1), (6, 9, 1)):
        graphs += [(_with_cut_edges(rng, rng.randint(k + 2, n), k), []) for _ in range(count)]
    graphs.append(_parts_and_pairs(rng, [shared, K1, _with_cut_edges(rng, 6, 2), cycle(4)]))
    graphs.append(_parts_and_pairs(rng, [_with_cut_edges(rng, 5, 3), bridged]))
    for g, pairs in graphs:
        assert any(k > 1 for _, k in mds._layout(g.adj)[2]), g
        _check_counts_against_search(g, rng, pairs)


def test_dense_components_are_counted_without_the_search():
    # a component with k = 8 at order 9, beside sparser ones, counted by
    # the DP and checked against the search oracle
    rng = random.Random(71)
    dense = _with_cut_edges(rng, 9, 8)
    sparse = _with_cut_edges(rng, 12, 2)
    g, pairs = _parts_and_pairs(rng, [dense, sparse, cycle(5)])
    _check_counts_against_search(g, rng, pairs)


def test_listing_matches_the_search_beyond_the_naive_cap():
    # orders the subset filter refuses; the lister sweeps the whole graph
    rng = random.Random(89)
    graphs = [path(28), cycle(26), ladder(24)]
    graphs += [_with_cut_edges(rng, 30, k) for k in (1, 2, 3)]
    for g in graphs:
        assert list(enumerate_mds(g)) == search_mds(g), g.edges()


def test_listing_refuses_a_dense_graph():
    # G(64, 1/2) passes through more live states than a sweep may
    rng = random.Random(83)
    g = from_edges(64, [(i, j) for i in range(64) for j in range(i + 1, 64) if rng.random() < 0.5])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="frontier width"):
        next(enumerate_mds(g))
    assert time.perf_counter() - start < 2


def test_phi_and_profile_refuse_the_same_graphs(monkeypatch):
    # the bound is on the states a sweep passes through, whether it keeps
    # its tables for a profile or not; under a small bound, graphs with
    # several cycles fall on both sides of it
    monkeypatch.setattr(mds, "_MAX_STATES", 300)
    rng = random.Random(79)
    refused = counted = 0
    for _ in range(30):
        g = _with_cut_edges(rng, rng.randint(8, 16), rng.randint(2, 6))
        try:
            total = phi(g)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="live states"):
                mds_profile(g)
        else:
            counted += 1
            assert mds_profile(g).total == total
    assert refused and counted


def _load_reference():
    """``perfbench/reference.py``, loaded as a file: it is no package."""
    spec = importlib.util.spec_from_file_location("reference", ROOT / "perfbench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _imported(path):
    """The top-level names of the modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_counts_match_the_independent_reference_dp():
    # the reference tracks membership over distance-2 balls, the package
    # slots over the peeled core's frontier; neither may import the other
    assert "dissoc" not in _imported(ROOT / "perfbench" / "reference.py")
    for path_ in (ROOT / "src" / "dissoc").glob("*.py"):
        assert not _imported(path_) & {"perfbench", "reference"}, path_
    ref = _load_reference()
    rng = random.Random(73)
    graphs = [ladder(n) for n in range(6, 65, 2)]
    for n in (12, 24, 40, 64):
        for k in (1, 3, 7):
            chords = {(a, a + rng.choice((2, 3))) for a in rng.sample(range(n - 3), k)}
            graphs.append(from_edges(n, path(n).edges() + sorted(chords)))
    for g in graphs:
        adj = list(g.adj)
        order = ref.frontier_width(adj)[1]
        assert phi(g) == ref.count_mds(adj, order=order), g.edges()
        assert phi_refined(g, [(0, Status.EXCLUDED)]) == ref.count_mds(adj, (0, ref.EXCLUDED), order), g.edges()
    # profiles: cycles through order 64, whose contexts come from the cut
    # beside each vertex, ladders, whose come from one sweep, and a centre
    # with many children, whose siblings' product is taken per child; every
    # vertex of a cycle looks alike, so two are sampled, and more elsewhere
    kinds = (ref.EXCLUDED, ref.IN_DEGREE0, ref.IN_DEGREE1)
    graphs = [(cycle(n), 2) for n in (3, 4, 5, 6, 7, 13, 24, 33, 64)] + [(ladder(12), 4), (ladder(64), 4)]
    for g, samples in graphs + [(parse_family("T(12,0)"), 3), (parse_family("U(5,5)"), 3)]:
        adj = list(g.adj)
        order = ref.frontier_width(adj)[1]
        per_vertex = mds_profile(g).per_vertex
        for v in rng.sample(range(g.n), samples):
            assert per_vertex[v] == tuple(ref.count_mds(adj, (v, kind), order) for kind in kinds), (g.edges(), v)
    # the reference holds every vertex within distance two of one at once,
    # which is all of T(63,0) and U(30,30); their few sets come from the
    # search oracle instead
    for g in (parse_family("T(63,0)"), parse_family("U(30,30)")):
        codes = [_status_codes(g, s) for s in search_mds(g)]
        per_vertex = mds_profile(g).per_vertex
        for v in [0] + rng.sample(range(1, g.n), 3):
            assert per_vertex[v] == tuple(sum(c[v] == kind for c in codes) for kind in range(3)), (g.edges(), v)


def test_the_search_oracle_is_independent_of_the_package():
    # the oracle takes only public names from dissoc, and no package module
    # keeps a search of its own
    for node in ast.walk(ast.parse((ROOT / "tests" / "oracles.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "dissoc":
            names = node.module.split(".") + [alias.name for alias in node.names]
            assert not [name for name in names if name.startswith("_")], ast.unparse(node)
    for path_ in (ROOT / "src" / "dissoc").glob("*.py"):
        for node in ast.walk(ast.parse(path_.read_text())):
            defined = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            assert "_search" not in defined, path_


def test_counts_invariant_under_relabeling_on_corpora():
    # random corpus trees and unicyclic graphs, which take the DP
    rng = random.Random(61)
    graphs = [g for n in (8, 9, 10) for g in (*generate_trees(n), *generate_unicyclic(n))]
    for g in rng.sample(graphs, 60):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
        assert phi(h) == phi(g)
        prof_g = mds_profile(g)
        prof_h = mds_profile(h)
        assert prof_h.total == prof_g.total
        statuses = list(Status)
        for v in range(g.n):
            assert prof_h.per_vertex[perm[v]] == prof_g.per_vertex[v]
            status = rng.choice(statuses)
            assert phi_refined(h, [(perm[v], status)]) == phi_refined(g, [(v, status)])
