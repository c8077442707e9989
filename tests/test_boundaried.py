from itertools import combinations
from random import Random

import pytest

from imtw import boundaried, nicedp
from imtw.bits import bit, bits, mask_of
from imtw.boundaried import (
    REJECT,
    BipartiteAlgebra,
    BoundariedGraph,
    ForestAlgebra,
    MaxDegreeAlgebra,
    TypeAlgebra,
    builtin_type_algebra,
    forget_label,
    generic_structured_dp,
    glue,
    ramsey_upper,
)
from imtw.corpus import random_boundaried
from imtw.decomp import heuristic_decomposition, single_bag_decomposition
from imtw.errors import InputError, InvariantError
from imtw.graphs import Graph, WeightMap, complete_graph, cycle_graph, path_graph
from imtw.nicedp import run_nice_dp
from imtw.oracles import brute_mwis
from imtw.verify import (
    ALGEBRAS,
    algebra_compositional,
    per_algebra,
    structured_dp_matches_brute_force,
)

from conftest import expect, measured_nice, reference_introduce, seeded_graphs, solver_cases


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


GOLDEN_FIXTURES = {
    "path": (path_graph(4), {0: 1, 1: 2, 3: 3}),
    "edge": (path_graph(2), {0: 1, 1: 3}),
    "p3": (path_graph(3), {0: 2, 2: 3}),
    "c4": (cycle_graph(4), {0: 1, 1: 2, 2: 3}),
    "c5": (cycle_graph(5), {0: 1, 2: 2}),
    "triangle": (complete_graph(3), {0: 1, 1: 2, 2: 3}),
}
GOLDEN_RELABEL = {1: 3, 2: 1, 3: 2}
# "a" is type_of(a), "a+b" glue, "a-l" forget label l, "a@" relabel by
# GOLDEN_RELABEL; every ("ok", ...) value is (labels, boundary adjacency, part)
GOLDEN_TYPES = {
    "forest": {
        "path": ("ok", (1, 2, 3), ((1, 2),), ((1,), (2, 3))),
        "edge": ("ok", (1, 3), ((1, 3),), ((1,), (3,))),
        "p3": ("ok", (2, 3), (), ((2, 3),)),
        "c4": ("reject",),
        "c5": ("reject",),
        "triangle": ("reject",),
        "edge+p3": ("ok", (1, 2, 3), ((1, 3),), ((1,), (2, 3))),
        "path+edge": ("reject",),
        "path+c4": ("reject",),
        "triangle+edge": ("reject",),
        "path-2": ("ok", (1, 3), (), ((1, 3),)),
        "p3-3": ("ok", (2,), (), ((2,),)),
        "c4-2": ("reject",),
        "triangle-1": ("reject",),
        "path@": ("ok", (1, 2, 3), ((1, 3),), ((1, 2), (3,))),
        "c4@": ("reject",),
        "triangle@": ("reject",),
    },
    "bipartite": {
        "path": ("ok", (1, 2, 3), ((1, 2),), (((1, 0), (2, 1), (3, 1)),)),
        "edge": ("ok", (1, 3), ((1, 3),), (((1, 0), (3, 1)),)),
        "p3": ("ok", (2, 3), (), (((2, 0), (3, 0)),)),
        "c4": ("ok", (1, 2, 3), ((1, 2), (2, 3)), (((1, 0), (2, 1), (3, 0)),)),
        "c5": ("reject",),
        "triangle": ("reject",),
        "edge+p3": ("ok", (1, 2, 3), ((1, 3),), (((1, 0), (2, 1), (3, 1)),)),
        "path+edge": ("ok", (1, 2, 3), ((1, 2), (1, 3)), (((1, 0), (2, 1), (3, 1)),)),
        "path+c4": ("reject",),
        "triangle+edge": ("reject",),
        "path-2": ("ok", (1, 3), (), (((1, 0), (3, 1)),)),
        "p3-3": ("ok", (2,), (), (((2, 0),),)),
        "c4-2": ("ok", (1, 3), (), (((1, 0), (3, 0)),)),
        "triangle-1": ("reject",),
        "path@": ("ok", (1, 2, 3), ((1, 3),), (((1, 0), (2, 0), (3, 1)),)),
        "c4@": ("ok", (1, 2, 3), ((1, 2), (1, 3)), (((1, 0), (2, 1), (3, 1)),)),
        "triangle@": ("reject",),
    },
    "max-degree:2": {
        "path": ("ok", (1, 2, 3), ((1, 2),), ((1, 1), (2, 2), (3, 1))),
        "edge": ("ok", (1, 3), ((1, 3),), ((1, 1), (3, 1))),
        "p3": ("ok", (2, 3), (), ((2, 1), (3, 1))),
        "c4": ("ok", (1, 2, 3), ((1, 2), (2, 3)), ((1, 2), (2, 2), (3, 2))),
        "c5": ("ok", (1, 2), (), ((1, 2), (2, 2))),
        "triangle": ("ok", (1, 2, 3), ((1, 2), (1, 3), (2, 3)), ((1, 2), (2, 2), (3, 2))),
        "edge+p3": ("ok", (1, 2, 3), ((1, 3),), ((1, 1), (2, 1), (3, 2))),
        "path+edge": ("ok", (1, 2, 3), ((1, 2), (1, 3)), ((1, 2), (2, 2), (3, 2))),
        "path+c4": ("reject",),
        "triangle+edge": ("ok", (1, 2, 3), ((1, 2), (1, 3), (2, 3)), ((1, 2), (2, 2), (3, 2))),
        "path-2": ("ok", (1, 3), (), ((1, 1), (3, 1))),
        "p3-3": ("ok", (2,), (), ((2, 1),)),
        "c4-2": ("ok", (1, 3), (), ((1, 2), (3, 2))),
        "triangle-1": ("ok", (2, 3), ((2, 3),), ((2, 2), (3, 2))),
        "path@": ("ok", (1, 2, 3), ((1, 3),), ((1, 2), (2, 1), (3, 1))),
        "c4@": ("ok", (1, 2, 3), ((1, 2), (1, 3)), ((1, 2), (2, 2), (3, 2))),
        "triangle@": ("ok", (1, 2, 3), ((1, 2), (1, 3), (2, 3)), ((1, 2), (2, 2), (3, 2))),
    },
}


def test_golden_algebra_types():
    # DP tables key on these tuples, so their exact form decides which
    # states a table holds and is pinned, not just their meaning
    for alg in (ForestAlgebra(), BipartiteAlgebra(), MaxDegreeAlgebra(2)):
        types = {
            name: alg.type_of(BoundariedGraph.make(g, labels, 3))
            for name, (g, labels) in GOLDEN_FIXTURES.items()
        }
        got = dict(types)
        for key in GOLDEN_TYPES[alg.name]:
            if "+" in key:
                a, b = key.split("+")
                got[key] = alg.glue(types[a], types[b])
            elif "-" in key:
                a, label = key.split("-")
                got[key] = alg.forget(types[a], int(label))
            elif key.endswith("@"):
                got[key] = alg.relabel(types[key[:-1]], GOLDEN_RELABEL)
        assert got == GOLDEN_TYPES[alg.name], alg.name


def test_compositionality_200_instances():
    rng = Random(99)
    laws = []
    for _ in range(200):
        ell = rng.randint(1, 4)
        b1, b2 = random_boundaried(rng, ell), random_boundaried(rng, ell)
        label = rng.randint(1, ell)
        laws += [(alg, b1, b2, label) for alg in ALGEBRAS]
    expect(algebra_compositional(laws))
    for alg, b1, b2, _ in laws:
        t1, t2 = alg.type_of(b1), alg.type_of(b2)
        assert alg.glue(t1, t2) == alg.glue(t2, t1)


def test_glue_associative_on_types():
    rng = Random(98)
    for _ in range(100):
        ell = rng.randint(1, 4)
        triple = [random_boundaried(rng, ell) for _ in range(3)]
        for alg in ALGEBRAS:
            t1, t2, t3 = (alg.type_of(b) for b in triple)
            assert alg.glue(alg.glue(t1, t2), t3) == alg.glue(t1, alg.glue(t2, t3))


def test_builtin_lookup():
    assert builtin_type_algebra("forest").name == "forest"
    assert builtin_type_algebra("bipartite").name == "bipartite"
    assert builtin_type_algebra("max-degree:2").d == 2
    with pytest.raises(InputError):
        builtin_type_algebra("planar")


def test_structured_dp_three_way_forest():
    cases = solver_cases(seeded_graphs(97, 20, 2, 9), 97, 50)
    expect(structured_dp_matches_brute_force(per_algebra(cases)))


def test_structured_dp_bipartite():
    cases = solver_cases(seeded_graphs(96, 15, 2, 9), 96, 50)
    expect(structured_dp_matches_brute_force(per_algebra(cases)))


def test_structured_dp_max_degree():
    cases = solver_cases(seeded_graphs(95, 12, 2, 9), 95, 50)
    expect(structured_dp_matches_brute_force(per_algebra(cases)))


def test_structured_dp_never_relabels_a_state(monkeypatch):
    # solution vertex v carries label v + 1 in every state, so adding or
    # dropping a vertex leaves the other labels as they are
    def relabel(self, t, mapping):
        raise AssertionError("the structured DP relabelled a state")

    monkeypatch.setattr(TypeAlgebra, "relabel", relabel)
    cases = solver_cases(seeded_graphs(93, 12, 2, 9), 93, 50)
    expect(structured_dp_matches_brute_force(per_algebra(cases)))


def test_structured_dp_degree_zero_is_mwis():
    for g, w, _, _, nice in solver_cases(seeded_graphs(94, 10, 2, 9), 94, 50):
        res = generic_structured_dp(g, nice, w, MaxDegreeAlgebra(0), r=1)
        assert res is not None and res[0] == brute_mwis(g, w)[0]


def test_structured_dp_solution_self_checks():
    g = cycle_graph(6)
    w = WeightMap.unit(6)
    nice = measured_nice(g, heuristic_decomposition(g))
    weight, solution = generic_structured_dp(g, nice, w, BipartiteAlgebra(), r=2)
    assert weight == 6 and solution == g.vertex_mask()


def test_generic_dp_checks_the_ramsey_bound_on_the_decoded_solution(monkeypatch):
    # K5 has alpha 1, so at r = 1 at most ramsey_upper(2, 2) = 2 solution
    # vertices may share a bag; a root value forged to name all five passes
    # the weight check and must fail the bag check before any other
    g, w = complete_graph(5), WeightMap.unit(5)
    nice = measured_nice(g, single_bag_decomposition(g))
    assert generic_structured_dp(g, nice, w, ForestAlgebra(), 1)[0] == 1

    def forged(*args, **kwargs):
        tables = list(run_nice_dp(*args, **kwargs))
        tables[-1] = dict.fromkeys(tables[-1], sum(nicedp._values(w)))
        return iter(tables)

    monkeypatch.setattr(boundaried, "run_nice_dp", forged)
    with pytest.raises(InvariantError, match="bag intersection exceeds the Ramsey bound"):
        generic_structured_dp(g, nice, w, ForestAlgebra(), 1)


SPIED_ALGEBRAS = ("forest", "bipartite", "max-degree:2", "max-degree:3")


def spied_runs(method):
    """Run the generic DP on seeded graphs under both heuristics, for each
    algebra of ``SPIED_ALGEBRAS`` and r in (2, 3), with the algebra's
    ``method`` logged; yield (graph, algebra, calls) per run, each call an
    (arguments, result) pair."""
    for strategy in ("min-fill", "min-degree"):
        for g in seeded_graphs(92, 12, 3, 10, ps=(0.3, 0.5)):
            nice = measured_nice(g, heuristic_decomposition(g, strategy))
            for name in SPIED_ALGEBRAS:
                for r in (2, 3):
                    algebra, calls = builtin_type_algebra(name), []
                    real = getattr(algebra, method)

                    def spy(*args):
                        result = real(*args)
                        calls.append((args, result))
                        return result

                    setattr(algebra, method, spy)
                    generic_structured_dp(g, nice, WeightMap.unit(g.n), algebra, r)
                    yield g, algebra, calls


def test_introduce_equals_the_glue_of_the_induced_type():
    # every introduce the DP performs, REJECT included, is the type the
    # labelled G[S + v] glued onto the state's type would give
    seen = {name: [0, 0] for name in SPIED_ALGEBRAS}  # [kept, rejected]
    for g, algebra, calls in spied_runs("introduce"):
        for (tau, label, near), result in calls:
            s_mask, v = mask_of(l - 1 for l in tau[1]), label - 1
            assert sorted(near) == [u + 1 for u in bits(s_mask & g.adj_mask(v))]
            assert result == reference_introduce(algebra, g, s_mask, v, tau)
            seen[algebra.name][result == REJECT] += 1
    assert all(kept and rejected for kept, rejected in seen.values()), seen


def test_join_partners_share_labels_and_adjacency():
    # so ``join`` may take either side's labels and edges: its result is the
    # full glue of the two types at every join the DP performs
    seen = {name: [0, 0] for name in SPIED_ALGEBRAS}  # [kept, rejected]
    for _, algebra, calls in spied_runs("join"):
        for (t1, t2), result in calls:
            assert t1[1] == t2[1] and t1[2] == t2[2]
            assert result == algebra.glue(t1, t2)
            seen[algebra.name][result == REJECT] += 1
    assert all(kept for kept, _ in seen.values()), seen
    assert seen["forest"][1] and seen["max-degree:2"][1], seen
