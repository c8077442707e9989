import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from imtw.bits import bits
from imtw.decomp import heuristic_decomposition, validate_decomposition
from imtw.errors import InputError
from imtw.graphs import (
    INFINITY,
    MAX_VERTICES,
    Graph,
    chordal_power_gadget,
    complete_graph,
    corona,
    cycle_graph,
    distance_matrix,
    forked_version,
    graph_of_rows,
    graph_power,
    hypercube_graph,
    induced_subgraph,
    line_graph_square,
    matching_join,
    parse_graph,
    parse_weights,
    path_graph,
    random_graph,
    serialize_weights,
)
from imtw.oracles import chordality_test
from imtw.packing import SubgraphFamily, blob_graph, enumerate_small_connected_subgraphs
from imtw.verify import corona_keeps_original, fork_round_trip, round_trip

from conftest import expect


def test_parse_tiny_path():
    g = parse_graph("p edge 3 2\ne 1 2\ne 2 3\n")
    assert g == path_graph(3)


def test_parse_single_vertex():
    g = parse_graph("p edge 1 0\n")
    assert g.n == 1 and g.m == 0


def test_parse_comments_ignored():
    g = parse_graph("c hello\np edge 2 1\nc mid\ne 1 2\n")
    assert g == complete_graph(2)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p edge x 0\n", "header"),
        ("p edge 2 1\ne 1 3\n", "out of range"),
        ("p edge 2 2\ne 1 2\ne 2 1\n", "duplicate"),
        ("p edge 2 1\ne 1 1\n", "self-loop"),
        ("e 1 2\n", "before header"),
        ("p edge 2 2\ne 1 2\n", "declares"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_graph(text)


def test_parse_vertex_cap_refuses_before_allocating():
    assert parse_graph(f"p edge {MAX_VERTICES} 0\n").n == MAX_VERTICES
    # the larger value is tried only once the smaller one allocates nothing
    for n in (10**7, 10**9):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="line 1: .* above the cap"):
                parse_graph(f"p edge {n} 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_parse_error_carries_line_number():
    with pytest.raises(InputError, match="line 3"):
        parse_graph("c x\np edge 2 1\ne 1 1\n")


def test_round_trip_random():
    rng = Random(4)
    cases = []
    for _ in range(100):
        cases.append((random_graph(rng.randint(1, 12), rng.random(), seed=rng.randrange(2**32)),))
    expect(round_trip(cases))


def test_hypercube_2_is_c4():
    q2 = hypercube_graph(2)
    assert q2.n == 4 and q2.m == 4
    assert all(q2.degree(v) == 2 for v in range(4))
    assert q2.is_connected_within(q2.vertex_mask())


def test_hypercube_counts():
    for dim in (1, 2, 3, 4):
        q = hypercube_graph(dim)
        assert q.n == 2**dim
        assert q.m == dim * 2 ** (dim - 1)


def test_matching_join_1_edge_set():
    g = matching_join(1)
    expected = {(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)}
    assert set(g.edges) == expected


def test_matching_join_counts():
    g = matching_join(3)
    assert g.n == 12
    assert g.m == 3 + 3 + 36


def test_chordal_power_gadget_c5():
    base = cycle_graph(5)
    gadget, anchors = chordal_power_gadget(base, 2)
    ok, _ = chordality_test(gadget)
    assert ok
    power = graph_power(gadget, 2)
    for u in range(5):
        for v in range(u + 1, 5):
            assert power.has_edge(anchors[u], anchors[v]) == base.has_edge(u, v)


def test_chordal_power_gadget_r4():
    base = path_graph(4)
    gadget, anchors = chordal_power_gadget(base, 4)
    assert chordality_test(gadget)[0]
    power = graph_power(gadget, 4)
    for u in range(4):
        for v in range(u + 1, 4):
            assert power.has_edge(anchors[u], anchors[v]) == base.has_edge(u, v)


def test_chordal_power_gadget_rejects_odd():
    with pytest.raises(InputError):
        chordal_power_gadget(path_graph(2), 3)


def test_chordal_power_gadget_random_bases():
    rng = Random(47)
    for _ in range(12):
        base = random_graph(rng.randint(1, 6), rng.random(), seed=rng.randrange(2**32))
        for r in (2, 4):
            gadget, anchors = chordal_power_gadget(base, r)
            assert chordality_test(gadget)[0]
            power = graph_power(gadget, r)
            for u in range(base.n):
                for v in range(u + 1, base.n):
                    assert power.has_edge(anchors[u], anchors[v]) == base.has_edge(u, v)


def test_induced_subgraph_c5_p3():
    sub, mapping = induced_subgraph(cycle_graph(5), [0, 1, 2])
    assert sub == path_graph(3)
    assert mapping == {0: 0, 1: 1, 2: 2}


def test_induced_subgraph_empty():
    sub, _ = induced_subgraph(cycle_graph(5), [])
    assert sub.n == 0 and sub.m == 0


def test_induced_subgraph_random_edge_count():
    rng = Random(9)
    for _ in range(20):
        g = random_graph(10, 0.4, seed=rng.randrange(2**32))
        members = [v for v in range(10) if rng.random() < 0.5]
        sub, mapping = induced_subgraph(g, members)
        expected = sum(
            1 for i, u in enumerate(members) for v in members[i + 1 :] if g.has_edge(u, v)
        )
        assert sub.m == expected


def test_power_p4_cubed_complete():
    assert graph_power(path_graph(4), 3) == complete_graph(4)


def test_power_c6_squared_degrees():
    sq = graph_power(cycle_graph(6), 2)
    assert all(sq.degree(v) == 4 for v in range(6))


def test_power_two_is_common_neighbor_closure():
    rng = Random(13)
    for _ in range(25):
        g = random_graph(9, 0.3, seed=rng.randrange(2**32))
        sq = graph_power(g, 2)
        for u in range(9):
            for v in range(u + 1, 9):
                direct = g.has_edge(u, v)
                via = bool(g.adj_mask(u) & g.adj_mask(v))
                assert sq.has_edge(u, v) == (direct or via)


def test_power_requires_positive():
    with pytest.raises(InputError):
        graph_power(path_graph(2), 0)


def test_line_graph_square_small():
    sq, edge_map = line_graph_square(path_graph(3))
    assert sq == complete_graph(2)
    assert edge_map == ((0, 1), (1, 2))
    sq, _ = line_graph_square(path_graph(4))
    assert sq == complete_graph(3)
    sq, _ = line_graph_square(cycle_graph(5))
    assert sq == complete_graph(5)


def test_line_graph_square_disjoint_edges():
    g = Graph(4, [(0, 1), (2, 3)])
    sq, _ = line_graph_square(g)
    assert sq.m == 0


def test_corona_small():
    assert corona(complete_graph(1)) == complete_graph(2)
    c = corona(complete_graph(3))
    assert c.n == 6 and c.m == 6


def test_corona_preserves_original():
    rng = Random(2)
    cases = [(random_graph(7, 0.4, seed=rng.randrange(2**32)),) for _ in range(10)]
    expect(corona_keeps_original(cases))


def test_forked_k1_is_star():
    forked, roles = forked_version(complete_graph(1), [])
    assert forked.n == 4 and forked.m == 3
    assert forked.degree(0) == 3
    assert roles[0] == "original"


def test_forked_k2_both_marked_counts():
    forked, roles = forked_version(complete_graph(2), [0, 1])
    assert forked.n == 12
    assert roles.count("fork-mid") == 2 and roles.count("fork-tip") == 2


def test_forked_preserves_original():
    g = random_graph(6, 0.5, seed=8)
    forked, _ = forked_version(g, [1, 3])
    sub, _ = induced_subgraph(forked, range(6))
    assert sub == g


def test_fork_decode_round_trip():
    # isolated vertices must be marked for the degree rule to see them
    rng = Random(21)
    cases = []
    for _ in range(50):
        g = random_graph(rng.randint(1, 8), rng.random(), seed=rng.randrange(2**32))
        cases.append((g, {v for v in range(g.n) if rng.random() < 0.4 or g.degree(v) == 0}))
    expect(fork_round_trip(cases))


def test_distance_matrix_small():
    d = distance_matrix(path_graph(3))
    assert d[0][2] == 2 and d[0][1] == 1 and d[0][0] == 0
    d = distance_matrix(Graph(2, []))
    assert d[0][1] == INFINITY


def test_distance_matrix_vs_floyd_warshall():
    rng = Random(31)
    for _ in range(10):
        n = rng.randint(2, 9)
        g = random_graph(n, 0.3, seed=rng.randrange(2**32))
        got = distance_matrix(g)
        dist = [[0 if i == j else (1 if g.has_edge(i, j) else INFINITY) for j in range(n)] for i in range(n)]
        for mid in range(n):
            for i in range(n):
                for j in range(n):
                    alt = dist[i][mid] + dist[mid][j]
                    if alt < dist[i][j]:
                        dist[i][j] = alt
        assert got == dist


def test_graph_invariants_on_construction():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 5)])
    g = Graph(3, [(0, 1), (1, 0)])  # duplicates collapse silently off the wire
    assert g.m == 1
    for v in range(3):
        for u in g.neighbors(v):
            assert v in Graph.neighbors(g, u)


def assert_rows_graph(got, n, edges):
    """``got``, built from rows, is ``Graph(n, sorted(edges))`` in every
    respect, with symmetric, loop-free rows, and built no edge list."""
    assert got._edges is None
    want = Graph(n, sorted(edges))
    assert got == want and hash(got) == hash(want)
    assert [got.adj_mask(v) for v in range(n)] == [want.adj_mask(v) for v in range(n)]
    assert got.m == want.m == len(want.edges)
    for u in range(n):
        row = got.adj_mask(u)
        assert not row >> u & 1 and not row >> n
        assert all(got.adj_mask(v) >> u & 1 for v in bits(row))
    assert got.edges == want.edges == tuple(sorted(want.edges))


def test_rows_paths_equal_the_edge_list_constructor():
    rng = Random(33)
    graphs = [path_graph(1), Graph(4), cycle_graph(6), complete_graph(5), hypercube_graph(3), matching_join(2)]
    graphs += [random_graph(rng.randrange(2, 12), rng.choice((0.2, 0.5)), seed=rng.randrange(2**32)) for _ in range(12)]
    for g in graphs:
        n = g.n
        # the wire format with edge lines shuffled and oriented at random
        lines = [f"e {u + 1} {v + 1}" if rng.random() < 0.5 else f"e {v + 1} {u + 1}" for u, v in g.edges]
        rng.shuffle(lines)
        assert_rows_graph(parse_graph("\n".join([f"p edge {n} {len(lines)}", *lines])), n, g.edges)
        dist = distance_matrix(g)
        for k in (1, 2, 3):
            near = [(u, v) for v in range(n) for u in range(v) if dist[u][v] <= k]
            assert_rows_graph(graph_power(g, k), n, near)
        square, edge_of = line_graph_square(g)
        touching = [
            (i, j) for j, f in enumerate(edge_of) for i, e in enumerate(edge_of[:j])
            if g.is_connected_within(1 << e[0] | 1 << e[1] | 1 << f[0] | 1 << f[1])
        ]
        assert_rows_graph(square, g.m, touching)
        family = SubgraphFamily(enumerate_small_connected_subgraphs(g, 3))
        members = family.vertices
        joined = [
            (i, j) for j, b in enumerate(members) for i, a in enumerate(members[:j])
            if a & g.closed_neighborhood_of_set(b)
        ]
        assert_rows_graph(blob_graph(g, family), len(members), joined)
        # checking a decomposition reads the rows, not the edges
        if n:
            checked = parse_graph("\n".join([f"p edge {n} {len(lines)}", *lines]))
            assert validate_decomposition(checked, heuristic_decomposition(checked)) == []
            assert checked._edges is None


def test_rows_entry_point_refuses_loops_and_bits_out_of_range():
    assert graph_of_rows([0b10, 0b01]) == Graph(2, [(0, 1)])
    with pytest.raises(InputError, match="self-loop at vertex 2"):
        graph_of_rows([0b10, 0b01, 0b100])
    with pytest.raises(InputError, match=r"edge \(1, 3\) out of range for n=3"):
        graph_of_rows([0, 0b1000, 0])


def test_weight_parsing():
    w = parse_weights("w 1 3\nw 2 1/2\n", 3)
    assert w[0] == 3 and w[1] == Fraction(1, 2) and w[2] == 1
    assert w.of_set(0b111) == Fraction(9, 2)
    assert parse_weights(serialize_weights(w), 3) == w
    with pytest.raises(InputError):
        parse_weights("w 4 1\n", 3)
    with pytest.raises(InputError):
        parse_weights("w 1 -2\n", 3)


def test_duplicate_weight_line_is_rejected():
    with pytest.raises(InputError, match="line 3: duplicate weight for vertex 1"):
        parse_weights("w 1 3\nw 2 1\nw 1 5\n", 3)
