from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from imtw.bits import bit, submasks
from imtw.boundaried import (
    REJECT,
    BipartiteAlgebra,
    BoundariedGraph,
    ForestAlgebra,
    MaxDegreeAlgebra,
    builtin_type_algebra,
    forget_label,
    generic_structured_dp,
    glue,
    ramsey_upper,
)
from imtw.decomp import decomposition_metrics, heuristic_decomposition, make_nice
from imtw.errors import InputError
from imtw.forest import mwif_dp
from imtw.graphs import Graph, WeightMap, complete_graph, cycle_graph, path_graph, random_graph
from imtw.oracles import brute_max_weight_induced_forest, brute_mwis

from conftest import is_bipartite_within, max_degree_within, seeded_graphs


def test_ramsey_small_values():
    assert ramsey_upper(2, 2) == 2
    assert ramsey_upper(2, 7) == 7
    assert ramsey_upper(3, 3) == 6
    assert ramsey_upper(3, 4) == 9 and ramsey_upper(4, 3) == 9
    assert ramsey_upper(4, 4) == 18
    assert ramsey_upper(4, 5) == 35
    assert ramsey_upper(1, 9) == 1
    with pytest.raises(InputError):
        ramsey_upper(0, 2)


def test_ramsey_3_3_threshold_by_exhaustion():
    # every 2-coloring of the K6 edges has a monochromatic triangle, and some
    # coloring of K5 has none
    def has_mono_triangle(n, red_mask, edges):
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    i, j, k = edges[(a, b)], edges[(a, c)], edges[(b, c)]
                    colors = {bool(red_mask & bit(i)), bool(red_mask & bit(j)), bool(red_mask & bit(k))}
                    if len(colors) == 1:
                        return True
        return False

    edges5 = {e: i for i, e in enumerate(combinations(range(5), 2))}
    assert any(
        not has_mono_triangle(5, coloring, edges5) for coloring in range(1 << len(edges5))
    )
    edges6 = {e: i for i, e in enumerate(combinations(range(6), 2))}
    assert all(
        has_mono_triangle(6, coloring, edges6) for coloring in range(1 << len(edges6))
    )


def test_glue_trivia():
    b1 = BoundariedGraph.make(path_graph(2), {0: 1, 1: 2}, 3)
    unlabeled = BoundariedGraph.make(path_graph(2), {}, 3)
    merged = glue(b1, unlabeled)
    assert merged.graph.n == 4 and merged.graph.m == 2
    v1 = BoundariedGraph.make(Graph(1, []), {0: 2}, 3)
    v2 = BoundariedGraph.make(Graph(1, []), {0: 2}, 3)
    assert glue(v1, v2).graph.n == 1
    # gluing two copies of the same labeled edge collapses the double edge
    same = glue(b1, BoundariedGraph.make(path_graph(2), {0: 1, 1: 2}, 3))
    assert same.graph.n == 2 and same.graph.m == 1


def test_forget_label_trivia():
    b = BoundariedGraph.make(path_graph(2), {0: 1, 1: 2}, 3)
    assert forget_label(b, 3).labeling == b.labeling
    stripped = forget_label(forget_label(b, 1), 2)
    assert stripped.labeling == ()
    assert forget_label(forget_label(b, 1), 1).labeling == ((1, 2),)


def test_algebra_rejects():
    fa = ForestAlgebra()
    tri = BoundariedGraph.make(complete_graph(3), {0: 1}, 2)
    assert fa.type_of(tri) == REJECT
    ba = BipartiteAlgebra()
    assert ba.type_of(BoundariedGraph.make(cycle_graph(4), {}, 2)) != REJECT
    assert ba.type_of(BoundariedGraph.make(cycle_graph(5), {}, 2)) == REJECT
    md = MaxDegreeAlgebra(1)
    assert md.type_of(BoundariedGraph.make(path_graph(3), {}, 2)) == REJECT
    assert md.type_of(BoundariedGraph.make(path_graph(2), {}, 2)) != REJECT


def _random_boundaried(rng, ell):
    n = rng.randint(0, 6)
    g = random_graph(n, rng.random(), seed=rng.randrange(2**32))
    labels = {}
    for v in range(n):
        if rng.random() < 0.5:
            l = rng.randint(1, ell)
            if l not in labels.values():
                labels[v] = l
    return BoundariedGraph.make(g, labels, ell)


ALGEBRAS = [
    ForestAlgebra(),
    BipartiteAlgebra(),
    MaxDegreeAlgebra(0),
    MaxDegreeAlgebra(1),
    MaxDegreeAlgebra(2),
]


def test_compositionality_200_instances():
    rng = Random(99)
    for _ in range(200):
        ell = rng.randint(1, 4)
        b1, b2 = _random_boundaried(rng, ell), _random_boundaried(rng, ell)
        merged = glue(b1, b2)
        label = rng.randint(1, ell)
        for alg in ALGEBRAS:
            t1, t2 = alg.type_of(b1), alg.type_of(b2)
            assert alg.type_of(merged) == alg.glue(t1, t2)
            assert alg.type_of(forget_label(b1, label)) == alg.forget(t1, label)
            assert alg.accepting(t1) == alg.holds(b1.graph)
            assert alg.glue(t1, t2) == alg.glue(t2, t1)


def test_glue_associative_on_types():
    rng = Random(98)
    for _ in range(100):
        ell = rng.randint(1, 4)
        triple = [_random_boundaried(rng, ell) for _ in range(3)]
        for alg in ALGEBRAS:
            t1, t2, t3 = (alg.type_of(b) for b in triple)
            assert alg.glue(alg.glue(t1, t2), t3) == alg.glue(t1, alg.glue(t2, t3))


def test_builtin_lookup():
    assert builtin_type_algebra("forest").name == "forest"
    assert builtin_type_algebra("bipartite").name == "bipartite"
    assert builtin_type_algebra("max-degree:2").d == 2
    with pytest.raises(InputError):
        builtin_type_algebra("planar")


def clique_number_within(graph, mask):
    members = [v for v in range(graph.n) if mask >> v & 1]
    return max(
        (
            size
            for size in range(len(members) + 1)
            for combo in combinations(members, size)
            if all(graph.adj_mask(u) >> v & 1 for u, v in combinations(combo, 2))
        ),
        default=0,
    )


def brute_best(graph, weights, predicate):
    best = Fraction(0)
    for m in submasks(graph.vertex_mask()):
        if predicate(m):
            best = max(best, weights.of_set(m))
    return best


def test_structured_dp_three_way_forest():
    rng = Random(97)
    for g in seeded_graphs(97, 20, 2, 9):
        w = WeightMap([rng.randint(0, 50) for _ in range(g.n)])
        td = heuristic_decomposition(g)
        met = decomposition_metrics(g, td)
        nice = make_nice(g, td)
        res = generic_structured_dp(g, nice, w, ForestAlgebra(), r=2, k=met.alpha)
        via_forest, _ = mwif_dp(g, nice, w)
        oracle, _ = brute_max_weight_induced_forest(g, w)
        assert res is not None and res[0] == via_forest == oracle


def test_structured_dp_bipartite():
    rng = Random(96)
    for g in seeded_graphs(96, 15, 2, 9):
        w = WeightMap([rng.randint(0, 50) for _ in range(g.n)])
        td = heuristic_decomposition(g)
        met = decomposition_metrics(g, td)
        nice = make_nice(g, td)
        res = generic_structured_dp(g, nice, w, BipartiteAlgebra(), r=2, k=met.alpha)
        expected = brute_best(g, w, lambda m: is_bipartite_within(g, m))
        assert res is not None and res[0] == expected


def test_structured_dp_max_degree():
    rng = Random(95)
    for g in seeded_graphs(95, 12, 2, 9):
        w = WeightMap([rng.randint(0, 50) for _ in range(g.n)])
        td = heuristic_decomposition(g)
        met = decomposition_metrics(g, td)
        nice = make_nice(g, td)
        for d in (0, 1, 2):
            algebra = MaxDegreeAlgebra(d)
            # r = clique_bound leaves the degree bound in charge; smaller r
            # also caps the clique number, which the DP enforces as it goes
            for r in range(1, algebra.clique_bound + 1):
                res = generic_structured_dp(g, nice, w, algebra, r=r, k=met.alpha)
                expected = brute_best(
                    g,
                    w,
                    lambda m: max_degree_within(g, m) <= d and clique_number_within(g, m) <= r,
                )
                assert res is not None and res[0] == expected, (g.n, d, r)


def test_structured_dp_degree_zero_is_mwis():
    rng = Random(94)
    for g in seeded_graphs(94, 10, 2, 9):
        w = WeightMap([rng.randint(0, 50) for _ in range(g.n)])
        td = heuristic_decomposition(g)
        met = decomposition_metrics(g, td)
        nice = make_nice(g, td)
        res = generic_structured_dp(g, nice, w, MaxDegreeAlgebra(0), r=1, k=met.alpha)
        assert res is not None and res[0] == brute_mwis(g, w)[0]


def test_structured_dp_solution_self_checks():
    g = cycle_graph(6)
    w = WeightMap.unit(6)
    td = heuristic_decomposition(g)
    met = decomposition_metrics(g, td)
    nice = make_nice(g, td)
    weight, solution = generic_structured_dp(g, nice, w, BipartiteAlgebra(), r=2, k=met.alpha)
    assert weight == 6 and solution == g.vertex_mask()
