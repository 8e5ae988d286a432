import pytest

from dissoc import (
    U_pq,
    U_rt,
    cycle,
    enumerate_U_rt_class,
    extremal_caterpillars,
    extremal_trees,
    extremal_unicyclic,
    is_caterpillar,
    leaves,
    parse_family,
    path,
    phi,
    spider_T,
    support_vertices,
    tree_code,
    unicyclic_code,
)
from oracles import classify


def test_spider_small_cases():
    assert tree_code(spider_T(1, 1)) == tree_code(path(3))
    assert tree_code(spider_T(2, 1)) == tree_code(path(4))
    star = spider_T(4, 0)
    assert star.n == 5
    assert sorted(star.adj[v].bit_count() for v in range(5)) == [1, 1, 1, 1, 4]
    assert spider_T(0, 0).n == 1


def test_spider_orders():
    for p in range(0, 7):
        for q in range(0, p + 1):
            g = spider_T(p, q)
            assert g.n == p + q + 1
            assert classify(g).kind == "tree"


def test_spider_rejects_bad_params():
    with pytest.raises(ValueError):
        spider_T(1, 2)
    with pytest.raises(ValueError):
        spider_T(2, -1)


def test_U_pq():
    assert U_pq(0, 0) == cycle(3)
    u31 = U_pq(1, 0)
    assert u31.n == 4
    assert unicyclic_code(u31) == unicyclic_code(U_rt(3, 1))
    g = U_pq(3, 2)
    assert classify(g).kind == "unicyclic" and g.n == 8


def test_U_rt():
    assert U_rt(6, 0) == cycle(6)
    g = U_rt(4, 4)
    assert g.n == 8 and classify(g).kind == "unicyclic"
    assert leaves(g).bit_count() == 4
    with pytest.raises(ValueError):
        U_rt(2, 0)
    with pytest.raises(ValueError):
        U_rt(4, 2, (0, 4))
    with pytest.raises(ValueError):
        U_rt(4, 2, (0,))


def test_U_rt_class_counts():
    assert len(enumerate_U_rt_class(4, 2)) == 2  # adjacent vs opposite pendants
    assert len(enumerate_U_rt_class(3, 2)) == 1
    assert len(enumerate_U_rt_class(5, 0)) == 1
    # every representative pair is non-isomorphic
    for r, t in [(4, 2), (5, 2), (6, 3)]:
        codes = [unicyclic_code(g).text for g in enumerate_U_rt_class(r, t)]
        assert len(codes) == len(set(codes))


def test_extremal_trees():
    assert [tree_code(g) for g in extremal_trees(4)] == [tree_code(path(4))]
    assert len(extremal_trees(5)) == 2
    assert {tree_code(g).text for g in extremal_trees(5)} == {
        tree_code(spider_T(2, 2)).text,
        tree_code(spider_T(3, 1)).text,
    }
    # both odd formulas coincide at n=3, deduplicated to one
    assert len(extremal_trees(3)) == 1
    with pytest.raises(ValueError):
        extremal_trees(2)


def test_extremal_unicyclic():
    assert [unicyclic_code(g) for g in extremal_unicyclic(3)] == [unicyclic_code(cycle(3))]
    six = extremal_unicyclic(6)
    assert len(six) == 3
    codes = {unicyclic_code(g).text for g in six}
    assert unicyclic_code(cycle(6)).text in codes
    assert unicyclic_code(U_rt(5, 1)).text in codes
    eight = extremal_unicyclic(8)
    assert len(eight) == 2
    assert unicyclic_code(U_rt(4, 4)).text in {unicyclic_code(g).text for g in eight}
    assert len(extremal_unicyclic(10)) == 1


def test_extremal_caterpillars():
    cats = extremal_caterpillars()
    assert len(cats) == 6
    for g in cats:
        assert is_caterpillar(g)
        assert phi(g) == (g.n + 1) // 2 + 1


def test_family_orders_and_kinds():
    for p, q in [(0, 0), (1, 0), (3, 2), (5, 5)]:
        assert U_pq(p, q).n == p + q + 3
        assert classify(U_pq(p, q)).kind == "unicyclic"
    for r, t in [(3, 0), (5, 2), (6, 6)]:
        assert U_rt(r, t).n == r + t
        assert classify(U_rt(r, t)).kind == "unicyclic"


def test_equality_direction_spot():
    for n in (3, 7, 15, 25):
        assert phi(U_pq((n - 3) // 2, (n - 3) // 2)) == n // 2 + 2
    for n in (4, 10, 18, 24):
        assert phi(U_pq((n - 2) // 2, (n - 4) // 2)) == n // 2 + 2


def test_extremal_trees_attain_bound_to_20():
    for n in range(3, 21):
        for g in extremal_trees(n):
            assert phi(g) == (n + 1) // 2 + 1, n


def test_parse_family():
    assert parse_family("T(2,1)") == spider_T(2, 1)
    assert parse_family("U(3,2)") == U_pq(3, 2)
    assert parse_family("Urt(5,2)") == U_rt(5, 2)
    assert parse_family("Urt(5,2,[0,2])") == U_rt(5, 2, (0, 2))
    assert parse_family("P(7)") == path(7)
    assert parse_family("C(6)") == cycle(6)
    for bad in ["T(1)", "X(2,2)", "Urt(5)", "U(1,2,3)", "garbage"]:
        with pytest.raises(ValueError):
            parse_family(bad)


def test_spider_center_support_when_short_leg_exists():
    g = spider_T(3, 1)
    assert support_vertices(g) >> 0 & 1
    g2 = spider_T(3, 3)
    assert not support_vertices(g2) >> 0 & 1
