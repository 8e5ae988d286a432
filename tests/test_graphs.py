import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dissoc import (
    Graph,
    closed_neighborhood,
    cycle,
    delete_vertices,
    disjoint_union,
    from_edges,
    generate_trees,
    generate_unicyclic,
    graph6_decode,
    graph6_encode,
    is_caterpillar,
    iter_bits,
    leaves,
    path,
    spider_T,
    support_vertices,
    vset,
)

from dissoc.graphs import _layout, _unicyclic_cycle
from oracles import classify, delete_vertices_bitwise, graph6_decode_bitwise, graph6_encode_bitwise, random_connected_graph
import random
from itertools import combinations


def test_from_edges_triangle_equals_cycle3():
    assert from_edges(3, [(0, 1), (1, 2), (0, 2)]) == cycle(3)


def test_from_edges_path4():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g == path(4)
    assert g.edge_count == 3


def test_from_edges_single_vertex():
    g = from_edges(1, [])
    assert g.n == 1 and g.edge_count == 0


def test_from_edges_collapses_duplicates():
    g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


@pytest.mark.parametrize(
    "n,edges",
    [
        (0, []),
        (65, []),
        (3, [(0, 0)]),
        (3, [(0, 3)]),
        (3, [(-1, 0)]),
    ],
)
def test_from_edges_rejects(n, edges):
    with pytest.raises(ValueError):
        from_edges(n, edges)


def test_from_edges_checks_the_order_before_reading_an_edge():
    # the family builders pass their edges lazily and rely on this order
    def unread():
        raise AssertionError("an edge was read")
        yield

    with pytest.raises(ValueError, match=r"order must be in \[1, 64\], got 65"):
        from_edges(65, unread())


def test_graph_init_rejects_asymmetry():
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])


@pytest.mark.parametrize(
    "n,rows,message",
    [
        (2, [0b01, 0b00], "self-loop at vertex 0"),
        (3, [0b010, 0b101, 0b110], "self-loop at vertex 2"),
        (2, [0b100, 0b00], "row 0 uses vertices >= order 2"),
        (3, [0b010, 0b001, 0b1000], "row 2 uses vertices >= order 3"),
        (64, [1 << 64] + [0] * 63, "row 0 uses vertices >= order 64"),
    ],
)
def test_graph_init_rejects_loops_and_out_of_range_rows(n, rows, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, rows)


def _random_graph(rng, n):
    """Any graph of order n: a random density, edges listed in random
    orientation with some repeated."""
    p = rng.random()
    edges = [(i, j) if rng.random() < 0.5 else (j, i)
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges + edges[: len(edges) // 3])


def _assert_validated(g):
    # Graph(...) re-checks symmetry, loops and range; equality needs the
    # rows stored as a tuple, as the constructor stores them
    assert isinstance(g.adj, tuple)
    assert Graph(g.n, g.adj) == g


def test_trusted_builders_keep_graph_invariants():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 64)
        g = _random_graph(rng, n)
        _assert_validated(g)
        _assert_validated(graph6_decode(graph6_encode(g)))
        keep = 1 << rng.randrange(n)
        h, _ = delete_vertices(g, rng.getrandbits(n) & ~keep)
        _assert_validated(h)
        if n < 64:
            _assert_validated(disjoint_union(g, _random_graph(rng, rng.randint(1, 64 - n))))


def test_delete_vertices_matches_bitwise_relabelling():
    # empty, single-vertex and random sets of every density, orders 1..64
    rng = random.Random(13)
    for i in range(600):
        n = rng.randint(1, 64)
        g = _random_graph(rng, n)
        density = rng.random()
        s = [0, 1 << rng.randrange(n), vset(v for v in range(n) if rng.random() < density)][i % 3]
        if s == g.full_mask:
            for delete in (delete_vertices, delete_vertices_bitwise):
                with pytest.raises(ValueError):
                    delete(g, s)
            continue
        h, relabel = delete_vertices(g, s)
        want, want_relabel = delete_vertices_bitwise(g, s)
        assert (h.n, h.adj, relabel) == (want.n, want.adj, want_relabel), (g.adj, s)


def test_path_and_cycle_basics():
    assert path(2).edge_count == 1
    assert cycle(3) == from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert cycle(6).edge_count == 6
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)


def test_delete_vertex_from_cycle_gives_path():
    g, relabel = delete_vertices(cycle(6), vset([0]))
    assert g == path(5)
    assert relabel == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}


def test_delete_nothing_keeps_graph():
    g, relabel = delete_vertices(path(4), 0)
    assert g == path(4)
    assert relabel == {v: v for v in range(4)}


def test_delete_middle_of_path_splits():
    g, _ = delete_vertices(path(4), vset([1]))
    assert g.n == 3
    assert classify(g).components == 2
    assert g.edge_count == 1


def test_delete_all_rejected():
    with pytest.raises(ValueError):
        delete_vertices(path(3), vset([0, 1, 2]))


def test_delete_preserves_preimage_edges():
    rng = random.Random(7)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randint(2, 9))
        s = 0
        for v in range(g.n - 1):
            if rng.random() < 0.4:
                s |= 1 << v
        h, relabel = delete_vertices(g, s)
        assert h.n == g.n - bin(s).count("1")
        for i, j in g.edges():
            if not (s >> i & 1 or s >> j & 1):
                assert h.adj[relabel[i]] >> relabel[j] & 1
        assert h.edge_count == sum(
            1 for i, j in g.edges() if not (s >> i & 1 or s >> j & 1)
        )


def test_neighborhoods_and_degree():
    c3 = cycle(3)
    assert closed_neighborhood(c3, 0) == vset([0, 1, 2])
    assert closed_neighborhood(path(4), 0) == vset([0, 1])
    assert closed_neighborhood(spider_T(5, 0), 0) == (1 << 6) - 1
    with pytest.raises(ValueError):
        closed_neighborhood(c3, 3)


def test_disjoint_union():
    k1 = from_edges(1, [])
    g = disjoint_union(k1, k1)
    assert g.n == 2 and g.edge_count == 0
    g = disjoint_union(cycle(3), path(2))
    assert g.n == 5 and g.edge_count == 4
    assert classify(g).components == 2
    with pytest.raises(ValueError):
        disjoint_union(path(60), path(10))


def test_classify_families():
    assert classify(cycle(6)) == ("unicyclic", 1)
    assert classify(path(5)) == ("tree", 1)
    for n in range(1, 15):
        assert classify(path(n)).kind == "tree"
    for n in range(3, 15):
        assert classify(cycle(n)).kind == "unicyclic"


def test_cycle_vertices():
    assert vset(_unicyclic_cycle(_layout(cycle(6).adj))) == (1 << 6) - 1
    tri_pendant = from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    assert vset(_unicyclic_cycle(_layout(tri_pendant.adj))) == vset([0, 1, 2])
    assert _unicyclic_cycle(_layout(path(4).adj)) is None


def test_layout_matches_component_cycle_counts():
    # the shared leaf peel and core walk: one connected core per component
    # with a cycle, with its k = m - n + 1; every vertex is peeled or walked
    # once; a unicyclic graph's walk is its cycle, in cyclic order; every
    # peeled vertex comes after its children
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 12)
        p = rng.choice((0.15, 0.25, 0.4))
        g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        components = []
        seen = 0
        for v in range(n):
            if not seen >> v & 1:
                comp = frontier = 1 << v
                while frontier:
                    nxt = 0
                    for u in iter_bits(frontier):
                        nxt |= g.adj[u]
                    frontier = nxt & ~comp
                    comp |= frontier
                seen |= comp
                components.append(comp)
        # m - n + 1 per component
        excess = {c: sum((g.adj[u] & c).bit_count() for u in iter_bits(c)) // 2 - c.bit_count() + 1 for c in components}
        layout = _layout(g.adj)
        assert (_unicyclic_cycle(layout) is not None) == (classify(g).kind == "unicyclic")
        order, parent, cores = layout
        assert sorted(order + [v for walk, _ in cores for v in walk]) == list(range(n))
        assert sorted(k for _, k in cores) == sorted(e for e in excess.values() if e)
        for walk, k in cores:
            core = vset(walk)
            assert k == excess[next(c for c in components if c & core)]
            assert walk[0] == (core & -core).bit_length() - 1
            # the core is connected and every vertex has two neighbors in it
            reached = 1 << walk[0]
            for _ in walk:
                for v in iter_bits(reached):
                    reached |= g.adj[v] & core
            assert reached == core
            assert all((g.adj[v] & core).bit_count() >= 2 for v in walk)
            if k == 1:
                assert len(walk) >= 3 and g.adj[walk[0]] >> walk[-1] & 1
                assert all(g.adj[u] >> v & 1 for u, v in zip(walk, walk[1:]))
            else:
                assert walk == sorted(walk)
        position = {v: i for i, v in enumerate(order)}
        for v in order:
            if parent[v] >= 0:
                assert g.adj[v] >> parent[v] & 1
                assert parent[v] not in position or position[parent[v]] > position[v]


def test_leaves_and_supports():
    p5 = path(5)
    assert leaves(p5) == vset([0, 4])
    assert support_vertices(p5) == vset([1, 3])
    tri_pendant = from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    assert leaves(tri_pendant) == vset([3])
    assert support_vertices(tri_pendant) == vset([0])


def test_caterpillar():
    assert is_caterpillar(path(5))
    assert is_caterpillar(spider_T(4, 2))
    assert not is_caterpillar(spider_T(3, 3))
    assert not is_caterpillar(cycle(4))
    assert is_caterpillar(from_edges(1, []))
    assert is_caterpillar(path(2))


def test_is_caterpillar_matches_its_definition():
    # a tree whose non-leaf vertices, split off by delete_vertices, form a
    # path or nothing; graphs with n - 1 edges that are no tree included
    graphs = [g for n in range(1, 11) for g in generate_trees(n)]
    graphs += [g for n in range(3, 9) for g in generate_unicyclic(n)]
    graphs += [disjoint_union(cycle(3), from_edges(1, [])), disjoint_union(path(3), path(2)), from_edges(2, [])]
    # graphs whose peel leaves a core with k >= 2 (K4, a theta graph, two
    # triangles joined by a path), and a tree beside a triangle, whose peel
    # leaves both a core and a root
    graphs += [
        from_edges(4, combinations(range(4), 2)),
        from_edges(6, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)]),
        from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 6), (6, 3)]),
        disjoint_union(spider_T(2, 1), cycle(3)),
    ]
    rng = random.Random(29)
    graphs += [random_connected_graph(rng, rng.randint(1, 10), rng.choice([0.0, 0.05, 0.25])) for _ in range(200)]
    for g in graphs:
        spine = g.full_mask & ~leaves(g)
        expect = classify(g).kind == "tree"
        if expect and spine.bit_count() > 1:
            h, _ = delete_vertices(g, leaves(g))
            expect = classify(h).kind == "tree" and all(row.bit_count() <= 2 for row in h.adj)
        assert is_caterpillar(g) == expect, g.adj


def test_graph6_k1_frozen():
    # one size byte 1+63='@', no data bytes
    assert graph6_encode(from_edges(1, [])) == b"@"


def test_graph6_known_small():
    # hand-packed upper triangles: P3 -> bits 101 -> 'g'; K3 -> 111 -> 'w'
    assert graph6_encode(path(3)) == b"Bg"
    assert graph6_encode(cycle(3)) == b"Bw"


def test_graph6_roundtrip_c6():
    assert graph6_decode(graph6_encode(cycle(6))) == cycle(6)


def test_graph6_label_sensitive():
    a = cycle(4)
    b = from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert a != b
    assert graph6_encode(a) != graph6_encode(b)


def test_graph6_large_order_prefix():
    g = path(64)
    data = graph6_encode(g)
    assert data[0] == 126 and len(data) == 4 + (64 * 63 // 2 + 5) // 6
    assert graph6_decode(data) == g


GRAPH6_REJECTS = [
    b"",
    b"?",        # order 0
    b"B",        # truncated body
    b"Bgg",      # oversized body
    b"B" + bytes([200]),  # byte out of range
    bytes([126, 63]),     # truncated long prefix
]


@pytest.mark.parametrize("data", GRAPH6_REJECTS)
def test_graph6_decode_rejects(data):
    with pytest.raises(ValueError):
        graph6_decode(data)


def _bad_padding():
    good = graph6_encode(path(3))
    return good[:-1] + bytes([((good[-1] - 63) | 0b000111) + 63])


def test_graph6_padding_must_be_zero():
    with pytest.raises(ValueError):
        graph6_decode(_bad_padding())


def _decoded(decode, data):
    try:
        return decode(data)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_graph6_codec_matches_bitwise_oracle():
    rng = random.Random(5)
    samples = GRAPH6_REJECTS + [
        _bad_padding(),
        "Bw",
        "B\u00e9",
        bytes([126, 126, 63]),
        bytes([126, 62, 64, 64]),
        bytes([126, 63, 64, 63]) + b"?" * 336,
        bytes([63 + 65]),
    ]
    # sparse graphs and the four-byte size prefix, each also with one body
    # byte changed and, where it has padding, its lowest padding bit set
    sparse = [g for n in range(1, 9) for g in generate_trees(n)]
    sparse += [g for n in range(3, 9) for g in generate_unicyclic(n)] + [path(63), cycle(64)]
    pick = random.Random(6)
    for g in sparse:
        data = graph6_encode(g)
        samples.append(data)
        head = 4 if g.n > 62 else 1
        if len(data) > head:
            i = pick.randrange(head, len(data))
            samples.append(data[:i] + bytes([(data[i] - 63 ^ pick.randrange(1, 64)) + 63]) + data[i + 1:])
        if g.n * (g.n - 1) // 2 % 6:
            samples.append(data[:-1] + bytes([(data[-1] - 63 | 1) + 63]))
    for _ in range(200):
        g = _random_graph(rng, rng.randint(1, 64))
        data = graph6_encode(g)
        assert data == graph6_encode_bitwise(g)
        i = rng.randrange(len(data))
        samples += [
            data,
            # another graph, set padding bits or another order
            data[:i] + bytes([rng.randrange(63, 127)]) + data[i + 1:],
            data[:-1] + bytes([rng.randrange(63, 127)]),
            data[:i] + bytes([rng.randrange(256)]) + data[i + 1:],
            data[:i],
            data + bytes([rng.randrange(63, 127)]),
        ]
    for data in samples:
        assert _decoded(graph6_decode, data) == _decoded(graph6_decode_bitwise, data), data


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_graph6_roundtrip_random(data):
    n = data.draw(st.integers(min_value=1, max_value=16))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just([]))
    g = from_edges(n, chosen)
    assert graph6_decode(graph6_encode(g)) == g


def test_iter_bits_ascending():
    assert list(iter_bits(0b101101)) == [0, 2, 3, 5]
    assert list(iter_bits(0)) == []
