from random import Random

import pytest

from imtw.bits import bit, bits, mask_of, popcount, submasks
from imtw.corpus import chordal_completion, random_minor_op
from imtw.errors import ResourceLimitError
from imtw.graphs import (
    Graph,
    WeightMap,
    chordal_power_gadget,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    line_graph_square,
    path_graph,
    petersen_graph,
    random_graph,
)
from imtw.oracles import (
    brute_best,
    brute_induced_matching_touching,
    brute_max_weight_induced_forest,
    brute_mwis,
    chordality_test,
    elimination_search,
    enumerate_maximal_induced_forests,
    exact_width_parameters,
    find_cycle_within,
    is_induced_forest,
    recognize_imtw_at_most_1,
)
from imtw.packing import treewidth_at_most
from imtw.verify import (
    chordal_alpha_one,
    corona_equality,
    degree_bounds,
    line_square_equality,
    minor_keeps_tree_mu,
    odd_power_strong,
    power_monotone,
    recognition_agrees,
    width_chain,
)

from conftest import (
    expect,
    reference_exact_width_parameters,
    reference_treewidth_at_most,
    seeded_graphs,
)


def with_widths(graphs):
    return [(g, exact_width_parameters(g)) for g in graphs]


def test_brute_mwis_small():
    assert brute_mwis(cycle_graph(5), WeightMap.unit(5))[0] == 2
    g = complete_graph(4)
    w = WeightMap([3, 9, 2, 5])
    assert brute_mwis(g, w)[0] == 9
    assert brute_mwis(petersen_graph(), WeightMap.unit(10))[0] == 4


def test_brute_mwis_matches_subset_scan():
    rng = Random(7)
    for g in seeded_graphs(70, 25, 2, 10):
        w = WeightMap([rng.randint(0, 30) for _ in range(g.n)])
        assert brute_mwis(g, w)[0] == brute_best(g, w, g.is_independent)[0]


def test_brute_mwis_cap():
    with pytest.raises(ResourceLimitError):
        brute_mwis(Graph(30, []), WeightMap.unit(30))


def test_forest_oracle_small():
    assert brute_max_weight_induced_forest(complete_graph(4), WeightMap.unit(4))[0] == 2
    assert brute_max_weight_induced_forest(cycle_graph(5), WeightMap.unit(5))[0] == 4
    # regression constant computed by this module, frozen
    assert brute_max_weight_induced_forest(petersen_graph(), WeightMap.unit(10))[0] == 7


def test_forest_oracle_returns_forest_and_weight():
    rng = Random(71)
    for g in seeded_graphs(71, 15, 3, 10):
        w = WeightMap([rng.randint(0, 30) for _ in range(g.n)])
        weight, sol = brute_max_weight_induced_forest(g, w)
        assert find_cycle_within(g, sol) is None
        assert w.of_set(sol) == weight
        assert weight == brute_best(g, w, lambda m: find_cycle_within(g, m) is None)[0]


def test_oracles_name_the_canonical_optimum():
    # on ties every oracle keeps the heaviest set whose indicator, read up
    # from vertex 0, is the largest: the optimum the dynamic programs return
    rng = Random(72)
    for g in seeded_graphs(72, 30, 2, 9):
        for w in (WeightMap.unit(g.n), WeightMap([rng.randint(0, 2) for _ in range(g.n)])):

            def canonical(predicate):
                def key(m):
                    return w.of_set(m), sum(1 << (g.n - 1 - v) for v in bits(m))

                best = max(filter(predicate, submasks(g.vertex_mask())), key=key)
                return w.of_set(best), best

            def forest(m):
                return find_cycle_within(g, m) is None

            mis = canonical(g.is_independent)
            assert brute_mwis(g, w) == mis == brute_best(g, w, g.is_independent)
            assert brute_max_weight_induced_forest(g, w) == canonical(forest)
            assert brute_best(g, w, forest) == canonical(forest)


def test_enumerate_maximal_forests_small():
    k3 = complete_graph(3)
    assert enumerate_maximal_induced_forests(k3) == [0b011, 0b101, 0b110]
    edgeless = Graph(4, [])
    assert enumerate_maximal_induced_forests(edgeless) == [0b1111]
    c4 = cycle_graph(4)
    got = enumerate_maximal_induced_forests(c4)
    assert len(got) == 4 and all(popcount(m) == 3 for m in got)


def test_maximal_forests_are_maximal():
    for g in seeded_graphs(5, 10, 3, 9):
        forests = enumerate_maximal_induced_forests(g)
        for f in forests:
            assert find_cycle_within(g, f) is None
            for v in bits(g.vertex_mask() & ~f):
                assert find_cycle_within(g, f | bit(v)) is not None


def test_matching_touching_small():
    g = path_graph(5)
    assert brute_induced_matching_touching(g, 0)[0] == 0
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert brute_induced_matching_touching(star, bit(0))[0] == 1
    assert brute_induced_matching_touching(path_graph(5), path_graph(5).vertex_mask())[0] == 2


def test_matching_touching_vs_line_graph_square():
    # second formulation: independent sets in the square of the line graph
    rng = Random(15)
    for g in seeded_graphs(15, 20, 3, 8):
        if not g.m:
            continue
        bag = mask_of(v for v in range(g.n) if rng.random() < 0.6)
        got, edges = brute_induced_matching_touching(g, bag)
        for i, e in enumerate(edges):
            for f in edges[i + 1 :]:
                joint = mask_of(e) | mask_of(f)
                assert not g.is_connected_within(joint)
        sq, edge_map = line_graph_square(g)
        candidates = [i for i, (u, v) in enumerate(edge_map) if bag & (bit(u) | bit(v))]
        best = 0
        for m in submasks(mask_of(candidates)):
            if sq.is_independent(m):
                best = max(best, popcount(m))
        assert got == best


def test_exact_widths_anchors():
    # the anchors claim covers K(3,3) and matching_join(2)
    c6 = exact_width_parameters(cycle_graph(6))
    assert c6.tree_mu == 2
    c5 = exact_width_parameters(cycle_graph(5))
    assert c5.tree_alpha == 2 and c5.tree_mu == 1 and c5.treewidth == 2


def test_exact_widths_chordal_corpus():
    rng = Random(12)
    cases = []
    for _ in range(12):
        g = random_graph(rng.randint(1, 8), 0.4, seed=rng.randrange(2**32))
        cases.append((chordal_completion(g),))
    expect(chordal_alpha_one(cases))


def test_exact_widths_chain():
    expect(width_chain(with_widths(seeded_graphs(4, 20, 1, 8))))


def test_exact_widths_witness_orderings_are_permutations():
    g = random_graph(7, 0.4, seed=2)
    ew = exact_width_parameters(g)
    for ordering in (ew.alpha_ordering, ew.mu_ordering, ew.treewidth_ordering):
        assert sorted(ordering) == list(range(7))


def test_exact_widths_equal_the_unshared_search():
    # the values and witness orderings of the oracle as it was before it
    # shared its search with the treewidth decision and kept bag costs
    graphs = seeded_graphs(32, 150, 1, 9, ps=(0.2, 0.4, 0.6))
    assert [exact_width_parameters(g) for g in graphs] == [reference_exact_width_parameters(g) for g in graphs]


def test_treewidth_decision_equals_its_own_search():
    # the ptas decision before it ran the shared search: 400 random induced
    # subgraphs at r = 0..6, and whole graphs of treewidth 6, 4, 11 and 2
    rng = Random(33)
    cases = []
    for i in range(400):
        n = 1 + i % 12
        g = random_graph(n, (0.2, 0.35, 0.5, 0.7)[i % 4], seed=rng.randrange(2**32))
        cases += [(g, rng.randrange(1 << n), r) for r in range(7)]
    for g in (hypercube_graph(4), petersen_graph(), complete_graph(12), cycle_graph(14)):
        cases += [(g, g.vertex_mask(), r) for r in range(12)]
    got = [treewidth_at_most(g, mask, r) for g, mask, r in cases]
    assert got == [reference_treewidth_at_most(g, mask, r) for g, mask, r in cases]
    assert 0 < sum(got) < len(got)


def test_elimination_search_bounds():
    # C5 has treewidth 2: no ordering keeps every bag within 1, and with
    # lower = upper = 2 the search stops at a completion of cost 2
    c5 = cycle_graph(5)

    def width(bag):
        return popcount(bag) - 1

    assert elimination_search(c5, width) == (2, (0, 1, 2, 3, 4))
    assert elimination_search(c5, width, upper=1) == (None, None)
    assert elimination_search(c5, width, 2, 2)[0] == 2
    # Petersen has treewidth 4; a lower bound above every completion stops
    # each state at its first vertex, so the search returns the natural
    # order, whose widest bag has 6 vertices
    assert elimination_search(petersen_graph(), width)[0] == 4
    assert elimination_search(petersen_graph(), width, lower=9) == (5, tuple(range(10)))


def test_prop_23_line_graph_square_equality():
    check = line_square_equality(with_widths(g for g in seeded_graphs(9, 40, 2, 8) if 0 < g.m <= 9))
    expect(check)
    assert check.instances >= 10


def test_prop_23_corona_equality():
    expect(corona_equality(with_widths(seeded_graphs(10, 16, 1, 4))))


def test_power_monotonicity():
    cases = with_widths(seeded_graphs(11, 12, 2, 8))
    expect(power_monotone(cases), odd_power_strong(cases))


def test_degree_bounds():
    expect(degree_bounds(with_widths(seeded_graphs(13, 20, 2, 8))))


def test_induced_minor_monotone_exact():
    rng = Random(16)
    cases = []
    for _ in range(30):  # three or more vertices, so no operation empties the graph
        g = random_graph(rng.randint(3, 8), rng.choice([0.3, 0.5]), seed=rng.randrange(2**32))
        cases.append((g, random_minor_op(rng, g)))
    expect(minor_keeps_tree_mu(cases))


def test_chordality_small():
    tree = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    ok, peo = chordality_test(tree)
    assert ok and sorted(peo) == list(range(5))
    ok, hole = chordality_test(cycle_graph(4))
    assert not ok and len(hole) == 4


def test_chordality_peo_is_perfect():
    rng = Random(19)
    for _ in range(15):
        g = chordal_completion(random_graph(rng.randint(2, 9), 0.4, seed=rng.randrange(2**32)))
        ok, peo = chordality_test(g)
        assert ok
        pos = {v: i for i, v in enumerate(peo)}
        for v in peo:
            later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
            for i, a in enumerate(later):
                for b in later[i + 1 :]:
                    assert g.has_edge(a, b)


def test_chordality_hole_witness_is_a_hole():
    rng = Random(20)
    found = 0
    for _ in range(40):
        g = random_graph(rng.randint(4, 9), 0.4, seed=rng.randrange(2**32))
        ok, witness = chordality_test(g)
        if ok:
            continue
        found += 1
        hole = list(witness)
        assert len(hole) >= 4
        cyc = hole + [hole[0]]
        for a, b in zip(cyc, cyc[1:]):
            assert g.has_edge(a, b)
        for i, a in enumerate(hole):
            for j in range(i + 2, len(hole)):
                if i == 0 and j == len(hole) - 1:
                    continue
                assert not g.has_edge(a, hole[j])
    assert found >= 5


def test_gadget_outputs_chordal():
    for base in (cycle_graph(5), path_graph(4), complete_graph(4)):
        for r in (2, 4):
            gadget, _ = chordal_power_gadget(base, r)
            assert chordality_test(gadget)[0]


def test_recognizer_small():
    assert recognize_imtw_at_most_1(cycle_graph(5))
    assert not recognize_imtw_at_most_1(cycle_graph(6))
    assert recognize_imtw_at_most_1(complete_bipartite(3, 3))


def test_recognizer_agrees_with_oracle():
    check = recognition_agrees(with_widths(g for g in seeded_graphs(21, 60, 2, 8) if g.m <= 9))
    expect(check)
    assert check.instances >= 20


def test_find_cycle_witness():
    g = cycle_graph(5)
    cyc = find_cycle_within(g, g.vertex_mask())
    assert cyc is not None and len(cyc) >= 3
    assert find_cycle_within(g, 0b01111) is None
    assert is_induced_forest(g, 0b01111)
    assert not is_induced_forest(g, g.vertex_mask())
