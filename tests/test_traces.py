from fractions import Fraction
from random import Random
from time import perf_counter

import pytest

from imtw import forest, packing, traces
from imtw.bits import bit, bits, mask_of, popcount, submasks, to_tuple
from imtw.decomp import decomposition_metrics, heuristic_decomposition, single_bag_decomposition
from imtw.errors import ResourceLimitError
from imtw.forest import mwif_dp
from imtw.graphs import (
    Graph,
    WeightMap,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    graph_power,
    hypercube_graph,
    path_graph,
    random_graph,
)
from imtw.packing import ptas_bounded_treewidth_subgraph
from imtw.traces import (
    carried_trace_families,
    enumerate_maximal_independent_sets,
    mwis_dp,
    trace_family_for_bag,
)
from imtw.verify import mwis_matches_oracle, prepare, trace_coverage, trace_family_bound

from conftest import (
    driver_spy,
    expect,
    measured_nice,
    recorded_families,
    seeded_graphs,
    solver_cases,
)


def brute_maximal_independent_sets(graph, universe):
    out = []
    for m in submasks(universe):
        if not graph.is_independent(m):
            continue
        if all(
            not graph.is_independent(m | bit(v))
            for v in bits(universe & ~m)
        ):
            out.append(m)
    return set(out)


def distinct(sets):
    """The enumerated sets as a set, after checking that none came twice."""
    unique = set(sets)
    assert len(unique) == len(sets)
    return unique


def test_mis_enumeration_small():
    assert len(distinct(enumerate_maximal_independent_sets(cycle_graph(5)))) == 5
    kn = complete_graph(6)
    assert distinct(enumerate_maximal_independent_sets(kn)) == {bit(v) for v in range(6)}
    kab = complete_bipartite(2, 3)
    sides = enumerate_maximal_independent_sets(kab)
    assert distinct(sides) == {0b00011, 0b11100}


def test_mis_enumeration_vs_subset_scan():
    rng = Random(3)
    for g in seeded_graphs(3, 30, 1, 9):
        universe = mask_of(v for v in range(g.n) if rng.random() < 0.7)
        got = enumerate_maximal_independent_sets(g, universe=universe)
        assert distinct(got) == brute_maximal_independent_sets(g, universe)


def pivot_maximal_independent_sets(graph, universe):
    """The pivoting search without the one-step settle of an independent
    candidate set, as the enumerator ran before it had one."""
    nonadj = {v: universe & ~graph.adj_mask(v) & ~bit(v) for v in bits(universe)}
    out = []
    stack = [(0, universe, 0)]
    while stack:
        chosen, cand, excl = stack.pop()
        if cand == 0 and excl == 0:
            out.append(chosen)
            continue
        pivot, coverage = -1, -1
        for u in bits(cand | excl):
            c = popcount(cand & nonadj[u])
            if c > coverage:
                pivot, coverage = u, c
        for v in bits(cand & ~nonadj[pivot]):
            stack.append((chosen | bit(v), cand & nonadj[v], excl & nonadj[v]))
            cand &= ~bit(v)
            excl |= bit(v)
    return set(out)


def test_mis_enumeration_vs_pivot_search():
    rng = Random(12)
    for _ in range(400):
        n = rng.randint(0, 18)
        g = random_graph(n, rng.choice((0.05, 0.15, 0.3, 0.6)), seed=rng.randrange(2**32))
        universe = mask_of(v for v in range(n) if rng.random() < 0.8)
        got = enumerate_maximal_independent_sets(g, universe=universe)
        assert distinct(got) == pivot_maximal_independent_sets(g, universe)


def test_mis_enumeration_sparse_universe_is_fast():
    # an independent universe is one set, found without a pivot scan per
    # vertex; the MWIS run carries that one set along its 1001 nice nodes
    start = perf_counter()
    assert enumerate_maximal_independent_sets(Graph(2000)) == [(1 << 2000) - 1]
    assert perf_counter() - start < 2
    g = Graph(500)
    start = perf_counter()
    nice = measured_nice(g, single_bag_decomposition(g))
    weight, _ = mwis_dp(g, nice, WeightMap.unit(500))
    assert perf_counter() - start < 2
    assert weight == 500


def test_mis_enumeration_settles_independent_universe_first(monkeypatch):
    # an independent universe needs neither the universe-wide complement
    # masks nor a pivot scan, whose coverage counts are the popcounts here
    counted = []

    def counting_popcount(mask):
        counted.append(mask)
        return mask.bit_count()

    monkeypatch.setattr(traces, "popcount", counting_popcount)
    g = Graph(300, [(298, 299)])
    universe = (1 << 298) - 1
    assert enumerate_maximal_independent_sets(g, universe=universe) == [universe]
    assert enumerate_maximal_independent_sets(Graph(300)) == [(1 << 300) - 1]
    assert counted == []
    got = enumerate_maximal_independent_sets(g)
    assert distinct(got) == {universe | bit(298), universe | bit(299)}
    assert counted


def test_mis_enumeration_needs_no_recursion():
    # one set of 1100 vertices: a recursive search would go 1100 calls deep
    assert enumerate_maximal_independent_sets(Graph(1100)) == [(1 << 1100) - 1]


def test_trace_family_empty_bag():
    g = cycle_graph(4)
    fam = trace_family_for_bag(g, 0, 1)
    assert fam.members == {0}


def test_trace_family_k33_whole_bag():
    g = complete_bipartite(3, 3)
    fam = trace_family_for_bag(g, g.vertex_mask(), 1)
    assert 0b000111 in set(fam.members) and 0b111000 in set(fam.members)
    expect(trace_coverage([prepare(g, WeightMap.unit(6), single_bag_decomposition(g))]))


def test_trace_family_members_are_independent():
    for g in seeded_graphs(31, 20, 2, 9):
        td = heuristic_decomposition(g)
        met = decomposition_metrics(g, td)
        for bag in td.bags:
            for m in trace_family_for_bag(g, bag, met.mu).members:
                assert g.is_independent(m)
                assert m & ~bag == 0


def test_trace_coverage_on_corpus():
    cases = solver_cases(seeded_graphs(32, 25, 2, 9))
    expect(trace_coverage(cases), trace_family_bound(cases))


def test_trace_family_matches_naive_q_enumeration():
    # the levelwise hit-mask growth must produce exactly the naive family
    # obtained by trying every outside subset of size at most k
    from itertools import combinations

    rng = Random(30)
    for trial in range(40):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.uniform(0.2, 0.6), seed=rng.randrange(2**32))
        bag = mask_of(v for v in range(n) if rng.random() < 0.6)
        for k in (0, 1, 2):
            js = enumerate_maximal_independent_sets(g, universe=bag)
            outside = to_tuple(g.neighborhood_of_set(bag))
            naive = set()
            for size in range(min(k, len(outside)) + 1):
                for q in combinations(outside, size):
                    nq = 0
                    for x in q:
                        nq |= g.adj_mask(x)
                    for j_prime in js:
                        naive.add(j_prime & ~nq)
            fam = trace_family_for_bag(g, bag, k)
            assert set(fam.members) == naive, (trial, n, k)


def product_trace_family(graph, bag, k):
    """The trace family as a bag-wide product: every hit set N(Q) & bag over
    |Q| <= k, grown level by level, removed from every maximal set of the
    bag, as ``trace_family_for_bag`` built it before it grew the family one
    removed reach per level."""
    maximal_in_bag = enumerate_maximal_independent_sets(graph, universe=bag)
    outside = graph.neighborhood_of_set(bag)
    union_j = 0
    for j_prime in maximal_in_bag:
        union_j |= j_prime
    hits = {0}
    frontier = {0}
    for _ in range(k):
        grown = set()
        for h in frontier:
            for q in bits(outside):
                h2 = h | (graph.adj_mask(q) & union_j)
                if h2 not in hits:
                    grown.add(h2)
        frontier = grown
        hits |= grown
        if not frontier:
            break
    return {j_prime & ~h for h in hits for j_prime in maximal_in_bag}


def test_trace_family_matches_product_on_ptas_blob_bags(monkeypatch):
    # blob graphs of small pieces, where the bag-wide product pairs far more
    # (J', hit set) than the family has members; at the cycles' measured mu
    # of 2 their families equal their k = 1 families, so the corpus bags
    # below tell the levels apart
    asked = []

    def recorded(graph, bag, k, *carried):
        asked.append((graph, bag, k))
        return trace_family_for_bag(graph, bag, k, *carried)

    monkeypatch.setattr(traces, "trace_family_for_bag", recorded)
    for n in (10, 12, 14, 20):
        g = cycle_graph(n)
        asked.clear()
        ptas_bounded_treewidth_subgraph(g, heuristic_decomposition(g), 1, Fraction(4, 5))
        assert asked and {k for _, _, k in asked} == {2}
        for blob, bag, k in {(id(blob), bag): (blob, bag, k) for blob, bag, k in asked}.values():
            assert trace_family_for_bag(blob, bag, k).members == product_trace_family(blob, bag, k)


def test_trace_family_matches_product_on_corpus_bags():
    cases = [
        (g, bag)
        for g in seeded_graphs(33, 24, 2, 10)
        for bag in heuristic_decomposition(g).bags + (g.vertex_mask(),)
    ]
    # one side of three disjoint edges: each level up to k = 3 adds members
    cases.append((Graph(6, [(0, 3), (1, 4), (2, 5)]), 0b111))
    for g, bag in cases:
        for k in (0, 1, 2, 3):
            assert trace_family_for_bag(g, bag, k).members == product_trace_family(g, bag, k)


def test_trace_families_are_never_ordered(monkeypatch):
    # the DP filter and the checks only test membership, so neither the
    # enumeration nor the family build puts its sets in order
    asked = []

    def recorded(graph, bag, k, *carried):
        asked.append((graph, bag, k))
        return trace_family_for_bag(graph, bag, k, *carried)

    monkeypatch.setattr(traces, "trace_family_for_bag", recorded)
    g = cycle_graph(12)
    ptas_bounded_treewidth_subgraph(g, heuristic_decomposition(g), 1, Fraction(4, 5))
    blob, bag, k = max(asked, key=lambda a: popcount(a[1]))
    ordered = []

    def counting_to_tuple(mask):
        ordered.append(mask)
        return to_tuple(mask)

    monkeypatch.setattr(traces, "to_tuple", counting_to_tuple, raising=False)
    fam = trace_family_for_bag(blob, bag, k)
    cube = graph_power(path_graph(30), 3)
    mwis_dp(cube, measured_nice(cube, heuristic_decomposition(cube)), WeightMap.unit(30))
    assert ordered == []
    assert isinstance(fam.members, frozenset) and len(fam.members) > 1


def assert_carried_families_match(graph, nice, ks):
    """At every node, for every bound in ``ks``, the carried family equals
    the per-bag family, and a join yields its first child's family object."""
    for k in ks:
        per_bag = {}
        families = []
        for node, fam in zip(nice.nodes, carried_trace_families(graph, nice, k), strict=True):
            if node.bag not in per_bag:
                per_bag[node.bag] = trace_family_for_bag(graph, node.bag, k).members
            assert fam.members == per_bag[node.bag], (graph.n, graph.edges, node, k)
            if node.kind == "join":
                assert fam is families[node.children[0]]
            families.append(fam)


def test_carried_families_equal_per_bag_families():
    cases = [
        (g, heuristic_decomposition(g, strategy))
        for g in seeded_graphs(50, 300, 1, 12, ps=(0.1, 0.2, 0.4, 0.6))
        for strategy in ("min-fill", "min-degree")
    ]
    for g in (hypercube_graph(4), complete_bipartite(6, 6)):
        cases.append((g, heuristic_decomposition(g)))
    cases.append((Graph(300), single_bag_decomposition(Graph(300))))
    for g, td in cases:
        nice = measured_nice(g, td)
        mu = nice.metrics.mu
        assert_carried_families_match(g, nice, {0, 1, mu, mu + 1})


def test_carried_families_equal_per_bag_families_on_ptas_blobs(monkeypatch):
    # the blob decompositions ptas hands to mwis_dp, with bags of up to
    # dozens of pieces
    blobs = []

    def recorded(blob, nice, weights, **options):
        blobs.append((blob, nice))
        return mwis_dp(blob, nice, weights, **options)

    monkeypatch.setattr(packing, "mwis_dp", recorded)
    for n in range(10, 21):
        g = cycle_graph(n)
        ptas_bounded_treewidth_subgraph(g, heuristic_decomposition(g), 1, Fraction(4, 5))
    assert len(blobs) == 11
    for blob, nice in blobs:
        assert_carried_families_match(blob, nice, {nice.metrics.mu})


def test_mwis_dp_on_edgeless_single_bag_is_fast():
    # the carried family of each of the 4001 nice nodes is one set, found
    # without a walk over the bag; enumerating it per node took seconds
    g = Graph(2000)
    nice = measured_nice(g, single_bag_decomposition(g))
    start = perf_counter()
    weight, solution = mwis_dp(g, nice, WeightMap.unit(2000))
    assert perf_counter() - start < 1
    assert weight == 2000 and solution == g.vertex_mask()


def test_mwis_dp_small():
    c5 = cycle_graph(5)
    nice = measured_nice(c5, heuristic_decomposition(c5))
    assert mwis_dp(c5, nice, WeightMap.unit(5))[0] == 2
    k44 = complete_bipartite(4, 4)
    w = WeightMap([1, 2, 3, 4, 5, 6, 7, 8])
    nice = measured_nice(k44, single_bag_decomposition(k44))
    assert mwis_dp(k44, nice, w)[0] == 5 + 6 + 7 + 8


def test_mwis_dp_vs_oracle(monkeypatch):
    cases = solver_cases(seeded_graphs(40, 60, 2, 10), 40, 100, pick_strategy=True)
    expect(mwis_matches_oracle(cases))
    filled = []
    monkeypatch.setattr(traces, "run_nice_dp", driver_spy(lambda arguments: None, filled))
    for g, w, _, _, nice in cases:
        filled.clear()
        mwis_dp(g, nice, w)
        [(tables, _)] = filled
        assert all(g.is_independent(state) for table in tables for state in table)


def test_driver_pulls_one_family_per_node_in_node_order(monkeypatch):
    # both filtered solvers hand the driver one stream, and the i-th family
    # pulled from it filters node i's table: the states kept there are
    # exactly the states family i admitted
    asked, filled = [], []

    def wrap(arguments):
        arguments["families"] = recorded_families(arguments["families"], asked)

    solvers = (
        (traces, mwis_dp),
        (forest, lambda g, nice, w: mwif_dp(g, nice, w, provider="paper")),
    )
    cases = solver_cases(seeded_graphs(42, 10, 4, 10), 42, 20)
    for module, solve in solvers:
        with monkeypatch.context() as mp:
            mp.setattr(module, "run_nice_dp", driver_spy(wrap, filled))
            for g, w, _, _, nice in cases:
                asked.clear()
                filled.clear()
                solve(g, nice, w)
                [(tables, _)] = filled
                admitted = [set() for _ in range(nice.size)]
                for i, state, kept in asked:
                    if kept:
                        admitted[i].add(state)
                assert {i for i, _, _ in asked} == set(range(nice.size))
                assert admitted == [set(table) for table in tables]


def test_mwis_rescaling_invariance():
    rng = Random(41)
    for g in seeded_graphs(41, 10, 3, 9):
        w = WeightMap([rng.randint(1, 40) for _ in range(g.n)])
        nice = measured_nice(g, heuristic_decomposition(g))
        base, _ = mwis_dp(g, nice, w)
        for factor in (3, Fraction(1, 7)):
            scaled, _ = mwis_dp(g, nice, w.scaled(factor))
            assert scaled == base * factor


def test_mwis_state_budget():
    g = complete_bipartite(4, 4)
    nice = measured_nice(g, single_bag_decomposition(g))
    with pytest.raises(ResourceLimitError):
        mwis_dp(g, nice, WeightMap.unit(8), state_budget=2)
