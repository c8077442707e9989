"""Acceptance criteria, one test per criterion, exact comparisons throughout.

Each test builds its seeded corpus, hands it to the claims of ``imtw.verify``
and prints a single pass/fail line. Nothing is stored.
"""

import time
from fractions import Fraction
from random import Random

import pytest

from imtw.bits import popcount
from imtw.boundaried import BipartiteAlgebra, ForestAlgebra, MaxDegreeAlgebra
from imtw.corpus import (
    chordal_completion,
    random_boundaried,
    random_corpus,
    random_family,
    random_minor_op,
    shuffled_pieces,
)
from imtw.decomp import heuristic_decomposition, single_bag_decomposition
from imtw.forest import mwif_dp
from imtw.graphs import WeightMap, complete_bipartite, random_graph
from imtw.oracles import exact_width_parameters
from imtw.packing import SubgraphFamily
from imtw.traces import mwis_dp
from imtw.verify import (
    algebra_compositional,
    blob_transfer,
    chordal_alpha_one,
    corona_equality,
    degree_bounds,
    distance_packing_optimal,
    forest_matches_oracle,
    line_square_equality,
    minor_keeps_tree_mu,
    mwis_matches_oracle,
    odd_power_strong,
    odd_power_transfer,
    per_algebra,
    power_blob_identity,
    power_monotone,
    prepare,
    ptas_guarantee,
    recognition_agrees,
    signature_coverage,
    skeleton_bound,
    structured_dp_matches_brute_force,
    trace_coverage,
    trace_family_bound,
    width_anchors,
)

from conftest import at_each_threshold, measured_nice, seeded_graphs


def report(number, ok, text, *checks):
    failed = [c.as_dict() for c in checks if not c.ok]
    ok = ok and not failed
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text} {failed}"


@pytest.fixture(scope="module")
def corpus200():
    return [prepare(g, w, heuristic_decomposition(g)) for g, w in random_corpus(42, 200, 10)]


def test_criterion_1_mwis_oracle_equivalence(corpus200, monkeypatch):
    # at the default threshold and with every node filtered
    started = time.perf_counter()
    checks = [mwis_matches_oracle(corpus200) for _ in at_each_threshold(monkeypatch)]
    elapsed = time.perf_counter() - started
    text = f"200 instances, dp equals oracle exactly, {elapsed:.1f}s < 60s"
    report(1, elapsed < 60, text, *checks)


def test_criterion_2_forest_oracle_equivalence(corpus200, monkeypatch):
    started = time.perf_counter()
    checks = [forest_matches_oracle(corpus200) for _ in at_each_threshold(monkeypatch)]
    elapsed = time.perf_counter() - started
    text = f"200 instances, both providers equal oracle, {elapsed:.1f}s < 600s"
    report(2, elapsed < 600, text, *checks)


def test_criterion_3_trace_coverage(corpus200):
    checks = trace_coverage(corpus200), trace_family_bound(corpus200)
    report(3, True, "every maximal independent set trace covered, sizes within n^(3k)", *checks)


def test_criterion_4_signature_coverage(corpus200):
    small = [case for case in corpus200 if case[0].n <= 8]
    check = signature_coverage(small)
    text = f"signatures of all maximal forests covered on {len(small)} graphs"
    report(4, len(small) >= 100, text, check)


def test_criterion_5_skeleton_bound(corpus200):
    check = skeleton_bound(corpus200)
    report(5, True, "skeleton bag intersections within 8k on the full corpus", check)


def test_criterion_6_power_blob_identity():
    graphs = seeded_graphs(606, 24, 4, 12, ps=(0.25, 0.45))
    cases = [(g, k, d) for g in graphs for k in (1, 2) for d in (1, 2)]
    check = power_blob_identity(cases)
    report(6, True, "power k+2d equals blob of radius-d balls, vertex for vertex", check)


def test_criterion_7_transfer_inequalities():
    rng = Random(707)
    distinct, big, powers = [], [], []
    for i in range(25):
        g = random_graph(4 + (i % 7), (0.25, 0.5)[i % 2], seed=rng.randrange(2**32))
        td = heuristic_decomposition(g)
        pieces = shuffled_pieces(rng, g)
        if pieces[:8]:
            distinct.append((g, td, SubgraphFamily(pieces[:8])))
        two_plus = [m for m in pieces if popcount(m) >= 2][:6]
        if two_plus:
            big.append((g, td, SubgraphFamily(two_plus + two_plus[:2])))
        powers += [(g, td, r) for r in (3, 5)]
    assert all(family.duplicate_free for _, _, family in distinct)
    blobs, odd = blob_transfer(distinct + big), odd_power_transfer(powers)
    ok = len(distinct) >= 15 and len(big) >= 15 and odd.instances >= 2 * 15
    report(7, ok, "blob and odd-power transfers within their bounds on all instances", blobs, odd)


def test_criterion_8_packing_optimality():
    rng = Random(808)
    cases = []
    for i in range(16):
        g = random_graph(4 + (i % 9), (0.3, 0.5)[i % 2], seed=rng.randrange(2**32))
        pieces = shuffled_pieces(rng, g)
        if not pieces:
            continue
        family = random_family(rng, pieces, 12, max_weight=25)
        td = heuristic_decomposition(g)
        cases += [(g, td, family, d) for d in (2, 4)]
    instances = len(cases) // 2
    report(
        8,
        instances >= 12,
        f"packing optima equal subfamily brute force on {instances} instances",
        distance_packing_optimal(cases),
    )


def test_criterion_9_ptas_guarantee():
    graphs = seeded_graphs(909, 14, 4, 10, ps=(0.25, 0.5))
    epsilons = Fraction(1, 4), Fraction(1, 2)
    cases = [(g, heuristic_decomposition(g), eps) for g in graphs for eps in epsilons]
    check = ptas_guarantee(cases)
    report(9, True, "ptas within (1-eps) of the exhaustive optimum, pieces valid", check)


def test_criterion_10_structured_dp_agreement():
    rng = Random(1010)
    cases = []
    for i in range(12):
        g = random_graph(4 + (i % 7), (0.3, 0.5)[i % 2], seed=rng.randrange(2**32))
        w = WeightMap([rng.randint(0, 50) for _ in range(g.n)])
        cases.append(prepare(g, w, heuristic_decomposition(g)))
    laws = []
    algebras = ForestAlgebra(), BipartiteAlgebra(), MaxDegreeAlgebra(1)
    for _ in range(200):
        ell = rng.randint(1, 4)
        b1, b2 = random_boundaried(rng, ell), random_boundaried(rng, ell)
        label = rng.randint(1, ell)
        laws += [(alg, b1, b2, label) for alg in algebras]
    report(
        10,
        True,
        "structured dp agrees with oracles; 200 algebra law instances pass",
        structured_dp_matches_brute_force(per_algebra(cases)),
        algebra_compositional(laws),
    )


def test_criterion_11_exact_width_anchors():
    rng = Random(1111)
    chordal = [
        (chordal_completion(random_graph(rng.randint(1, 8), 0.4, seed=rng.randrange(2**32))),)
        for _ in range(10)
    ]
    recognized = []
    for _ in range(80):
        g = random_graph(rng.randint(2, 8), rng.uniform(0.15, 0.5), seed=rng.randrange(2**32))
        if g.m <= 9:
            recognized.append((g, exact_width_parameters(g)))
    agree = recognition_agrees(recognized)
    report(
        11,
        agree.instances >= 30,
        f"all width anchors hold; recognizer agreed on {agree.instances} graphs",
        width_anchors([()]),
        chordal_alpha_one(chordal),
        agree,
    )


def test_criterion_12_inequality_suite():
    rng = Random(1212)
    graphs = []
    for _ in range(60):
        g = random_graph(rng.randint(2, 8), rng.uniform(0.15, 0.5), seed=rng.randrange(2**32))
        graphs.append((g, exact_width_parameters(g)))
    minors = []
    for _ in range(100):  # two or more vertices, so no operation empties the graph
        g = random_graph(rng.randint(2, 8), rng.choice([0.3, 0.5]), seed=rng.randrange(2**32))
        minors.append((g, random_minor_op(rng, g)))
    line = line_square_equality([(g, ew) for g, ew in graphs if 0 < g.m <= 9])
    degree = degree_bounds(graphs)  # the graphs with an edge
    minor = minor_keeps_tree_mu(minors)
    checks = (
        line,
        corona_equality([(g, ew) for g, ew in graphs if g.n <= 4]),
        power_monotone(graphs),
        odd_power_strong(graphs),
        degree,
        minor,
    )
    ok = line.instances >= 20 and degree.instances >= 20 and minor.instances == 100
    text = f"equalities and bounds hold ({line.instances} line-square, {minor.instances} minor ops)"
    report(12, ok, text, *checks)


def test_criterion_13_polynomial_smoke(filter_everywhere):
    # every node filtered, as the paper's families bound the tables
    g = complete_bipartite(20, 20)
    nice = measured_nice(g, single_bag_decomposition(g))
    assert nice.metrics.mu == 1
    started = time.perf_counter()
    weight, _ = mwis_dp(g, nice, WeightMap.unit(40))
    mwis_elapsed = time.perf_counter() - started
    assert weight == 20

    g = complete_bipartite(8, 8)
    g, w, _, _, nice = prepare(g, WeightMap.unit(16), heuristic_decomposition(g))
    started = time.perf_counter()
    weight, _ = mwif_dp(g, nice, w, provider="paper")
    forest_elapsed = time.perf_counter() - started
    assert weight == 9

    ok = mwis_elapsed < 5 and forest_elapsed < 300
    report(
        13,
        ok,
        f"K(20,20) mwis {mwis_elapsed:.2f}s < 5s; K(8,8) forest {forest_elapsed:.1f}s < 300s",
    )
