import copy
import hashlib
import random
from itertools import combinations

import pytest

from dissoc import (
    U_rt,
    cycle,
    disjoint_union,
    from_edges,
    generate_caterpillars,
    generate_trees,
    generate_unicyclic,
    graph6_encode,
    is_caterpillar,
    path,
    spider_T,
    tree_code,
    unicyclic_code,
)
from dissoc import canon
from dissoc.canon import GENERATOR_VERSION, GENERATORS, _coded_tree, _extended, _free_text, _rerooted, _tree_text
from dissoc.corpus import DEFAULT_TREE_CAP, DEFAULT_UNICYCLIC_CAP, CorpusStore

from oracles import (
    IsoClassRegistry,
    classify,
    count_trees_bruteforce,
    count_unicyclic_bruteforce,
    free_tree_counts,
    is_isomorphic_bruteforce,
    prufer_decode,
    unicyclic_counts,
)

K1 = from_edges(1, [])


def _permuted(g, perm):
    return from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def _rooted(g, root):
    """AHU code of the tree g rooted at ``root``."""
    return _rerooted(_coded_tree(g.adj), root)


def test_ahu_examples():
    assert _rooted(K1, 0) == "()"
    p3 = path(3)
    assert _rooted(p3, 1) == "(()())"
    assert _rooted(p3, 0) == "((()))"
    assert _coded_tree(cycle(3).adj) is None


def test_ahu_rooted_invariance():
    g = spider_T(3, 2)
    perm = [5, 0, 3, 1, 4, 2]
    h = _permuted(g, perm)
    for v in range(g.n):
        assert _rooted(g, v) == _rooted(h, perm[v])


def test_tree_code_invariance_and_separation():
    rng = random.Random(3)
    for n in range(2, 10):
        for g in generate_trees(n):
            perm = list(range(n))
            rng.shuffle(perm)
            assert tree_code(g) == tree_code(_permuted(g, perm))
    assert tree_code(path(4)) != tree_code(spider_T(3, 0))
    assert tree_code(spider_T(2, 1)) == tree_code(path(4))


def test_unicyclic_code_examples():
    rng = random.Random(9)
    g = cycle(6)
    perm = list(range(6))
    rng.shuffle(perm)
    assert unicyclic_code(g) == unicyclic_code(_permuted(g, perm))
    assert unicyclic_code(U_rt(4, 2, (0, 1))) != unicyclic_code(U_rt(4, 2, (0, 2)))
    assert unicyclic_code(U_rt(4, 2, (0, 1))) == unicyclic_code(U_rt(4, 2, (1, 2)))
    with pytest.raises(ValueError):
        unicyclic_code(path(4))


@pytest.mark.parametrize(
    "g",
    [
        path(5),
        K1,
        disjoint_union(cycle(3), cycle(4)),
        disjoint_union(cycle(4), K1),
        disjoint_union(cycle(3), path(2)),
        from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]),  # two triangles on an edge
        from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),  # bowtie
    ],
)
def test_unicyclic_code_rejects_other_graphs(g):
    with pytest.raises(ValueError, match="^unicyclic_code requires a unicyclic graph$"):
        unicyclic_code(g)


@pytest.mark.parametrize(
    "g",
    [
        cycle(5),
        U_rt(4, 2, (0, 1)),
        disjoint_union(path(3), path(2)),
        disjoint_union(cycle(3), K1),  # m = n-1 but not connected
    ],
)
def test_tree_code_rejects_other_graphs(g):
    with pytest.raises(ValueError, match="^tree_code requires a tree$"):
        tree_code(g)


# sha256 over the generators' output, in order: graph6 bytes and code text
# per tree of order 1..12, graph6 bytes per caterpillar of order 1..12, and
# graph6 bytes and code text per unicyclic graph of order 3..11
GENERATOR_DIGEST = "c4e407ee186833c7c46468800c4559ee57ca8a3ad60786776bb5af67e6ffa884"


def test_generator_output_is_pinned():
    h = hashlib.sha256()
    for n in range(1, 13):
        for g in generate_trees(n):
            h.update(graph6_encode(g))
            h.update(tree_code(g).text.encode())
    for n in range(1, 13):
        for g in generate_caterpillars(n):
            h.update(graph6_encode(g))
    for n in range(3, 12):
        for g in generate_unicyclic(n):
            h.update(graph6_encode(g))
            h.update(unicyclic_code(g).text.encode())
    assert h.hexdigest() == GENERATOR_DIGEST, (
        "the generators' output (which graphs, their labels or their order) changed; "
        f"if that is intended, bump canon.GENERATOR_VERSION (now {GENERATOR_VERSION!r}), "
        "which keys the corpus cache files, and update GENERATOR_DIGEST"
    )


# the same digest over the orders the corpus-build benchmark generates past
# those: trees and caterpillars of order 13..14, unicyclic graphs of 12..13
CORPUS_BUILD_DIGEST = "78b2506c814356ce2d54af7a7612e6bef70cafa63aa6dd96eb537c1d88652395"


def test_generator_output_is_pinned_at_corpus_build_orders():
    h = hashlib.sha256()
    for n in (13, 14):
        for g in generate_trees(n):
            h.update(graph6_encode(g))
            h.update(tree_code(g).text.encode())
    for n in (13, 14):
        for g in generate_caterpillars(n):
            h.update(graph6_encode(g))
    for n in (12, 13):
        for g in generate_unicyclic(n):
            h.update(graph6_encode(g))
            h.update(unicyclic_code(g).text.encode())
    assert h.hexdigest() == CORPUS_BUILD_DIGEST


def test_extended_peel_matches_a_fresh_peel():
    # every leaf extension the tree table could make, twins included
    for n in range(1, 11):
        for g in generate_trees(n):
            peel = _coded_tree(g.adj)
            before = copy.deepcopy(peel)
            for v in range(n):
                rows = list(g.adj)
                rows[v] |= 1 << n
                rows.append(1 << v)
                fresh = _coded_tree(rows)
                ext = _extended(peel, v)
                assert _free_text(ext, n + 1) == _tree_text(rows)
                assert sorted(ext[0]) == list(range(n + 1))
                for u in range(n + 1):
                    assert _rerooted(ext, u) == _rerooted(fresh, u)
                assert peel == before, "the parent's peel changed"


def test_tree_table_peels_each_parent_tree_once(monkeypatch):
    # one _layout per tree of order 1..10 extended, plus the order-1 base;
    # coding every extension from scratch would peel each extension instead
    calls = []

    def counted(adj):
        calls.append(len(adj))
        return layout(adj)

    layout = canon._layout
    monkeypatch.setattr(canon, "_layout", counted)
    monkeypatch.setattr(canon, "_tree_levels", {})
    table = canon._tree_table(11)
    assert len(table) == free_tree_counts(11)[11]
    assert len(calls) == 1 + sum(free_tree_counts(10)[1:])


def test_code_soundness_vs_bruteforce_order7():
    # equality of canonical codes must coincide with brute-force isomorphism
    trees = [g for n in range(1, 8) for g in generate_trees(n)]
    for a, b in combinations(trees, 2):
        same_code = tree_code(a) == tree_code(b)
        if a.n != b.n:
            assert not same_code
        else:
            assert same_code == is_isomorphic_bruteforce(a, b)
    unis = [g for n in range(3, 8) for g in generate_unicyclic(n)]
    for a, b in combinations(unis, 2):
        same_code = unicyclic_code(a) == unicyclic_code(b)
        if a.n != b.n:
            assert not same_code
        else:
            assert same_code == is_isomorphic_bruteforce(a, b)


def test_bruteforce_iso_basics():
    assert not is_isomorphic_bruteforce(path(4), spider_T(3, 0))
    a = cycle(4)
    b = from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert is_isomorphic_bruteforce(a, b)
    with pytest.raises(ValueError):
        is_isomorphic_bruteforce(path(11), path(11))


def test_tree_counts_against_live_prufer_oracle():
    for n in range(1, 8):
        assert len(list(generate_trees(n))) == count_trees_bruteforce(n)


# Frozen values, computed once with the Prufer + brute-force-isomorphism
# oracle (n=8 takes ~20 s, n=9 several minutes; see also the analytic
# cross-check below which recomputes the whole row independently).
FROZEN_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
FROZEN_UNICYCLIC_COUNTS = {3: 1, 4: 2, 5: 5, 6: 13, 7: 33, 8: 89, 9: 240}


def test_tree_counts_frozen():
    for n, expect in FROZEN_TREE_COUNTS.items():
        assert len(list(generate_trees(n))) == expect


def test_unicyclic_counts_frozen():
    for n, expect in FROZEN_UNICYCLIC_COUNTS.items():
        assert len(list(generate_unicyclic(n))) == expect


def test_unicyclic_counts_against_live_bruteforce_oracle():
    for n in range(3, 9):
        trees = list(generate_trees(n))
        assert len(list(generate_unicyclic(n))) == count_unicyclic_bruteforce(n, trees)


def test_counts_against_analytic_oracle():
    free = free_tree_counts(13)
    for n in range(1, 14):
        assert len(list(generate_trees(n))) == free[n]
    uni = unicyclic_counts(12)
    for n in range(3, 13):
        assert len(list(generate_unicyclic(n))) == uni[n]


def test_generated_streams_have_no_duplicates():
    for n in range(1, 11):
        codes = [tree_code(g).text for g in generate_trees(n)]
        assert len(codes) == len(set(codes))
        assert codes == sorted(codes)
    for n in range(3, 11):
        codes = [unicyclic_code(g).text for g in generate_unicyclic(n)]
        assert len(codes) == len(set(codes))


def test_generated_unicyclic_classified():
    for n in range(3, 10):
        for g in generate_unicyclic(n):
            assert g.n == n
            assert classify(g).kind == "unicyclic"


def test_generate_unicyclic_3():
    out = list(generate_unicyclic(3))
    assert len(out) == 1 and out[0] == cycle(3)


def test_caterpillar_stream():
    for n in range(1, 9):
        cats = list(generate_caterpillars(n))
        for g in cats:
            assert is_caterpillar(g)
        assert len(cats) == sum(1 for g in generate_trees(n) if is_caterpillar(g))


def test_generator_caps():
    # generators take no cap and refuse only orders below 1; the store
    # refuses an order above its class's cap before generating anything
    for generate in GENERATORS.values():
        with pytest.raises(ValueError, match="n >= 1"):
            list(generate(0))
    caps = {"tree": DEFAULT_TREE_CAP, "caterpillar": DEFAULT_TREE_CAP, "unicyclic": DEFAULT_UNICYCLIC_CAP}
    for kind, cap in caps.items():
        with pytest.raises(ValueError, match=f"above its cap {cap}"):
            CorpusStore().graphs(kind, cap + 1, cap + 1)


def test_prufer_oracle_is_a_bijection():
    # sanity for the oracle itself: n^(n-2) labeled trees, all valid
    seen = set()
    n = 5
    from itertools import product as iproduct

    for seq in iproduct(range(n), repeat=n - 2):
        g = prufer_decode(seq, n)
        assert classify(g).kind == "tree"
        seen.add(g.adj)
    assert len(seen) == n ** (n - 2)


def test_iso_registry_counts_distinct_classes():
    reg = IsoClassRegistry()
    assert reg.add(path(4))
    assert not reg.add(_permuted(path(4), [3, 1, 2, 0]))
    assert reg.add(spider_T(3, 0))
    assert reg.count == 2
