import time
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from imtw import packing
from imtw.bits import bit, mask_of, popcount, submasks
from imtw.corpus import random_family, shuffled_pieces
from imtw.decomp import heuristic_decomposition
from imtw.errors import InputError
from imtw.graphs import (
    Graph,
    WeightMap,
    complete_bipartite,
    cycle_graph,
    graph_power,
    matching_join,
    path_graph,
    random_graph,
)
from imtw.packing import (
    SubgraphFamily,
    blob_graph,
    enumerate_small_connected_subgraphs,
    is_valid_packing,
    max_weight_distance_packing,
    max_weight_independent_packing,
    parse_subgraph_family,
    ptas_bounded_treewidth_subgraph,
    serialize_subgraph_family,
    treewidth_at_most,
)

from imtw.oracles import brute_best, max_degree_within
from imtw.verify import (
    distance_packing_optimal,
    independent_packing_optimal,
    power_blob_identity,
    ptas_guarantee,
)

from conftest import expect, seeded_graphs


def family_cases(seed, count, n_lo, n_hi, size, max_piece=3):
    """(graph, td, random family) per seeded graph; families draw from their own seed."""
    rng = Random(seed)
    cases = []
    for g in seeded_graphs(seed, count, n_lo, n_hi):
        family = random_family(rng, shuffled_pieces(rng, g, max_piece), size)
        cases.append((g, heuristic_decomposition(g), family))
    return cases


def test_blob_singletons_give_back_graph():
    g = random_graph(8, 0.4, seed=3)
    fam = SubgraphFamily([bit(v) for v in range(8)])
    assert blob_graph(g, fam) == g


def test_blob_endpoints_of_path():
    g = path_graph(3)
    fam = SubgraphFamily([bit(0), bit(2)])
    assert blob_graph(g, fam) == Graph(2, [])


def test_blob_knn_duplicate_singletons():
    for n in (1, 2, 3):
        g = complete_bipartite(n, n)
        sets = []
        for v in range(2 * n):
            sets += [bit(v), bit(v)]
        assert blob_graph(g, SubgraphFamily(sets)) == matching_join(n)


def test_packing_reduction_equivalence():
    # a subfamily is an independent packing iff it is independent in the blob
    for g, _, fam in family_cases(55, 10, 4, 9, 8):
        blob = blob_graph(g, fam)
        for r in range(min(4, len(fam)) + 1):
            for combo in combinations(range(len(fam)), r):
                valid = is_valid_packing(g, fam, combo) is None
                independent = blob.is_independent(mask_of(combo))
                assert valid == independent


def test_packing_single_member():
    g = path_graph(4)
    fam = SubgraphFamily([0b0110], [Fraction(5)])
    sol = max_weight_independent_packing(g, heuristic_decomposition(g), fam)
    assert sol.chosen == (0,) and sol.weight == 5


def test_packing_reduces_to_mwis_on_singletons():
    from imtw.oracles import brute_mwis

    rng = Random(56)
    for g in seeded_graphs(56, 15, 3, 10):
        w = [rng.randint(0, 30) for _ in range(g.n)]
        fam = SubgraphFamily([bit(v) for v in range(g.n)], w)
        sol = max_weight_independent_packing(g, heuristic_decomposition(g), fam)
        assert sol.weight == brute_mwis(g, WeightMap(w))[0]


def test_packing_k2_family_is_induced_matching():
    rng = Random(57)
    for g in seeded_graphs(57, 12, 4, 10):
        if not g.m:
            continue
        fam = SubgraphFamily([mask_of(e) for e in g.edges], [1] * g.m)
        sol = max_weight_independent_packing(g, heuristic_decomposition(g), fam)
        best = 0
        for r in range(g.m + 1):
            for combo in combinations(range(g.m), r):
                masks = [mask_of(g.edges[i]) for i in combo]
                union = 0
                for m in masks:
                    union |= m
                if popcount(union) != 2 * len(combo):
                    continue
                if g.count_edges_within(union) == len(combo):
                    best = max(best, len(combo))
        assert sol.weight == best


def test_packing_duplicates_kept_heaviest():
    g = path_graph(4)
    fam = SubgraphFamily([bit(0), bit(0), bit(3)], [2, 7, 1])
    sol = max_weight_independent_packing(g, heuristic_decomposition(g), fam)
    assert sol.weight == 8 and 1 in sol.chosen


def test_packing_vs_brute_corpus():
    expect(independent_packing_optimal(family_cases(58, 12, 4, 11, 9)))


def test_distance_packing_p5_singletons():
    g = path_graph(5)
    fam = SubgraphFamily([bit(v) for v in range(5)], [1] * 5)
    td = heuristic_decomposition(g)
    assert max_weight_distance_packing(g, td, fam, 2).weight == 3
    sol4 = max_weight_distance_packing(g, td, fam, 4)
    assert sol4.weight == 2 and set(sol4.chosen) == {0, 4}


def test_packing_measures_only_the_host(monkeypatch):
    # the blob decomposition, and for d = 4 the power's, is bounded by the
    # host's measured metrics and never measured itself
    measured = []
    real = packing.decomposition_metrics

    def recorded(graph, td):
        measured.append(graph)
        return real(graph, td)

    monkeypatch.setattr(packing, "decomposition_metrics", recorded)
    g = path_graph(5)
    fam = SubgraphFamily([bit(v) for v in range(5)], [1] * 5)
    td = heuristic_decomposition(g)
    max_weight_independent_packing(g, td, fam)
    for d in (2, 4):
        max_weight_distance_packing(g, td, fam, d)
    ptas_bounded_treewidth_subgraph(g, td, 1, Fraction(4, 5))
    assert measured == [g] * 4


def test_distance_packing_rejects_odd():
    g = path_graph(3)
    fam = SubgraphFamily([bit(0)])
    with pytest.raises(InputError, match="even"):
        max_weight_distance_packing(g, heuristic_decomposition(g), fam, 3)


def test_distance_packing_vs_brute_corpus():
    cases = family_cases(59, 10, 4, 11, 8)
    expect(distance_packing_optimal([(g, td, fam, d) for g, td, fam in cases for d in (2, 4)]))


def test_distance_packing_d6():
    cases = family_cases(66, 6, 6, 10, 6, max_piece=2)
    expect(distance_packing_optimal([(g, td, fam, 6) for g, td, fam in cases]))


def test_distance_equivalence_observation():
    # distance-d packing in G is independent packing in the (d-1)-st power
    for g, _, fam in family_cases(60, 8, 4, 9, 6):
        for d in (2, 4):
            power = graph_power(g, d - 1) if d > 2 else g
            for r in range(min(3, len(fam)) + 1):
                for combo in combinations(range(len(fam)), r):
                    in_g = is_valid_packing(g, fam, combo, "distance", d=d) is None
                    in_power = is_valid_packing(power, fam, combo) is None
                    assert in_g == in_power


def test_power_blob_identity():
    graphs = seeded_graphs(61, 12, 3, 12)
    expect(power_blob_identity([(g, k, d) for g in graphs for k in (1, 2) for d in (1, 2)]))


def test_enumerate_small_connected_trivia():
    g = path_graph(3)
    assert enumerate_small_connected_subgraphs(g, 1) == [bit(0), bit(1), bit(2)]
    got = set(enumerate_small_connected_subgraphs(g, 2))
    assert got == {bit(0), bit(1), bit(2), 0b011, 0b110}


def test_enumerate_small_connected_counts():
    rng = Random(62)
    for g in seeded_graphs(62, 10, 3, 9):
        got = set(enumerate_small_connected_subgraphs(g, 3))
        expected = {
            m
            for m in submasks(g.vertex_mask())
            if 1 <= popcount(m) <= 3 and g.is_connected_within(m)
        }
        assert got == expected


def test_treewidth_at_most():
    assert treewidth_at_most(path_graph(5), path_graph(5).vertex_mask(), 1)
    c4 = cycle_graph(4)
    assert not treewidth_at_most(c4, c4.vertex_mask(), 1)
    assert treewidth_at_most(c4, c4.vertex_mask(), 2)
    from imtw.graphs import complete_graph

    k5 = complete_graph(5)
    assert not treewidth_at_most(k5, k5.vertex_mask(), 3)
    assert treewidth_at_most(k5, k5.vertex_mask(), 4)


def test_ptas_tree_keeps_everything():
    # the optimum of a tree is all 7 vertices
    tree = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    expect(ptas_guarantee([(tree, heuristic_decomposition(tree), eps) for eps in (0.5, 0.25)]))


def test_ptas_c5():
    c5 = cycle_graph(5)
    expect(ptas_guarantee([(c5, heuristic_decomposition(c5), 0.5)]))


def test_ptas_guarantee_corpus():
    graphs = seeded_graphs(63, 8, 4, 9)
    cases = [(g, heuristic_decomposition(g), eps) for g in graphs for eps in (0.25, 0.5)]
    expect(ptas_guarantee(cases))


def test_ptas_cycle_20_is_fast():
    # the trace families dominate here: grown one removed outside reach per
    # level they take well under a second, paired as every bag-wide hit set
    # times every maximal bag set they took about 2.3 s
    g = cycle_graph(20)
    td = heuristic_decomposition(g)
    start = time.perf_counter()
    result = ptas_bounded_treewidth_subgraph(g, td, 1, Fraction(4, 5))
    assert time.perf_counter() - start < 1.5
    assert popcount(result) == 16


def test_ptas_rejects_bad_eps():
    g = path_graph(3)
    with pytest.raises(InputError):
        ptas_bounded_treewidth_subgraph(g, heuristic_decomposition(g), 1, 0)


def test_dissociation_set_encoding():
    # pieces of one or two vertices with size weights: the optimum is the
    # largest induced subgraph of maximum degree at most one
    rng = Random(64)
    for g in seeded_graphs(64, 8, 4, 9):
        sets = [bit(v) for v in range(g.n)] + [mask_of(e) for e in g.edges]
        fam = SubgraphFamily(sets)
        sol = max_weight_independent_packing(g, heuristic_decomposition(g), fam)
        dissociation = lambda m: max_degree_within(g, m) <= 1
        assert sol.weight == brute_best(g, WeightMap.unit(g.n), dissociation)[0]


def test_k_separator_encoding():
    # keep the heaviest union of components of size at most c; the removed
    # complement is then a minimum weight c-separator
    rng = Random(65)
    c = 2
    for g in seeded_graphs(65, 6, 4, 8):
        w = WeightMap([rng.randint(1, 9) for _ in range(g.n)])
        pieces = enumerate_small_connected_subgraphs(g, c)
        fam = SubgraphFamily(pieces, [w.of_set(m) for m in pieces])
        sol = max_weight_independent_packing(g, heuristic_decomposition(g), fam)
        small = lambda m: all(popcount(comp) <= c for comp in g.components_within(m))
        assert sol.weight == brute_best(g, w, small)[0]


def test_is_valid_packing_trivia():
    g = path_graph(4)
    fam = SubgraphFamily([0b0011, 0b0110, bit(3)])
    assert is_valid_packing(g, fam, ()) is None
    assert is_valid_packing(g, fam, (0, 1)) == (0, 1)  # members share vertex 1
    assert is_valid_packing(g, fam, (0, 2)) is None
    assert is_valid_packing(g, fam, (1, 2)) == (1, 2)  # adjacent members
    assert is_valid_packing(g, fam, (0, 2), "distance", d=2) is None
    assert is_valid_packing(g, fam, (0, 2), "distance", d=4) == (0, 2)


def test_family_json_round_trip():
    fam = SubgraphFamily([0b011, 0b100], [Fraction(3, 2), 2])
    text = serialize_subgraph_family(fam)
    back = parse_subgraph_family(text)
    assert [m.vertices for m in back.members] == [0b011, 0b100]
    assert [m.weight for m in back.members] == [Fraction(3, 2), 2]
    with pytest.raises(InputError):
        parse_subgraph_family("{}")
    with pytest.raises(InputError):
        parse_subgraph_family('[{"id": 1, "vertices": [1]}]')
