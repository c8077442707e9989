from itertools import combinations
from random import Random
from time import perf_counter

import pytest

from imtw import forest, traces
from imtw.bits import bit, bits, lowest_bit, mask_of, popcount, to_tuple
from imtw.corpus import random_corpus
from imtw.decomp import decomposition_metrics, heuristic_decomposition, make_nice, single_bag_decomposition
from imtw.errors import InputError, ResourceLimitError
from imtw.forest import (
    canonical_blocks,
    forest_anatomy,
    merge_partitions,
    mwif_dp,
    signature_family_exhaustive,
    signature_family_paper,
    signature_in,
)
from imtw.graphs import (
    Graph,
    WeightMap,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
    random_graph,
)
from imtw.oracles import (
    enumerate_maximal_induced_forests,
    find_cycle_within,
    is_induced_forest,
)
from imtw.traces import trace_family_for_bag
from imtw.verify import (
    anatomy_partitions,
    forest_matches_oracle,
    prepare,
    signature_coverage,
    skeleton_bound,
)

from conftest import (
    driver_spy,
    expect,
    measured_nice,
    recorded_families,
    seeded_graphs,
    solver_cases,
)


def test_anatomy_path():
    an = forest_anatomy(path_graph(3), 0b111)
    assert an.skeleton == 0b010 and an.leaves == 0b101 and an.trivial == 0


def test_anatomy_k2_component_convention():
    g = Graph(8, [(3, 7)])
    an = forest_anatomy(g, bit(3) | bit(7))
    assert an.skeleton == bit(3) and an.leaves == bit(7)


def test_anatomy_single_vertex():
    g = Graph(3, [(0, 1)])
    an = forest_anatomy(g, bit(2))
    assert an.trivial == bit(2) and an.skeleton == 0 and an.leaves == 0


def test_anatomy_rejects_cycles():
    with pytest.raises(InputError, match="cycle"):
        forest_anatomy(cycle_graph(3), 0b111)


def test_anatomy_partition_properties():
    expect(anatomy_partitions([(g,) for g in seeded_graphs(50, 15, 3, 9)]))


def test_signature_single_bag_components():
    g = Graph(5, [(0, 1), (2, 3)])
    z, blocks = signature_in(g, 0b11011, g.vertex_mask(), g.vertex_mask())
    assert z == 0b11011
    assert blocks == (0b00011, 0b01000, 0b10000)


def test_signature_disjoint_forest():
    g = path_graph(4)
    z, blocks = signature_in(g, 0b0011, 0b1100, g.vertex_mask())
    assert (z, blocks) == (0, ())


def test_signature_union_find_vs_bfs():
    # independent connectivity recomputation through breadth first search
    for g in seeded_graphs(8, 20, 3, 9):
        # the nice nodes hold every bag of the decomposition, and more
        nice = measured_nice(g, heuristic_decomposition(g))
        forests = enumerate_maximal_induced_forests(g)
        for node, vt in zip(nice.nodes, nice.subtree_vertex_masks()):
            for f in forests[:6]:
                z, blocks = signature_in(g, f, node.bag, vt)
                assert z == f & node.bag
                inside = f & vt
                seen = {}
                for start in bits(inside):
                    if start in seen:
                        continue
                    comp = [start]
                    seen[start] = start
                    while comp:
                        v = comp.pop()
                        for u in bits(g.adj_mask(v) & inside):
                            if u not in seen:
                                seen[u] = start
                                comp.append(u)
                groups = {}
                for v in bits(z):
                    groups.setdefault(seen[v], 0)
                    groups[seen[v]] |= bit(v)
                assert blocks == canonical_blocks(groups.values())


def test_exhaustive_family_trivia():
    g = complete_graph(2)
    fam = signature_family_exhaustive(g, 0)
    assert fam.signatures == {(0, ())}
    fam = signature_family_exhaustive(g, 0b11)
    expected = {
        (0, ()),
        (0b01, (0b01,)),
        (0b10, (0b10,)),
        (0b11, (0b11,)),
    }
    assert fam.signatures == expected


def test_exhaustive_family_contains_all_maximal_signatures():
    # every bag of the decomposition is the bag of some nice node
    expect(signature_coverage(solver_cases(seeded_graphs(42, 10, 3, 8))))


def test_exhaustive_family_cap():
    g = Graph(17, [])
    with pytest.raises(ResourceLimitError):
        signature_family_exhaustive(g, g.vertex_mask())


def test_paper_family_c4_single_bag():
    g = cycle_graph(4)  # mu 1 on the single bag
    expect(signature_coverage([prepare(g, WeightMap.unit(4), single_bag_decomposition(g))]))


def test_paper_family_coverage_corpus():
    expect(signature_coverage(solver_cases(seeded_graphs(43, 12, 3, 8))))


def test_paper_family_members_are_sound():
    # every emitted signature is a forest-inducing bag subset with a
    # component-respecting partition, so the DP's state filters agree with it
    for g in seeded_graphs(45, 10, 3, 8):
        td = heuristic_decomposition(g)
        met = decomposition_metrics(g, td)
        nice = make_nice(g, td, met)
        vt = nice.subtree_vertex_masks()
        for i, node in enumerate(nice.nodes):
            traces = trace_family_for_bag(g, node.bag, met.mu).members
            fam = signature_family_paper(g, node.bag, vt[i], met.mu, traces)
            for z, blocks in fam.signatures:
                assert z & ~node.bag == 0
                assert is_induced_forest(g, z)
                union = 0
                for b in blocks:
                    assert b and b & union == 0
                    union |= b
                assert union == z
                for comp in g.components_within(z):
                    assert sum(1 for b in blocks if b & comp) == 1


def test_mwif_stress_beyond_acceptance_sizes():
    # n = 11..12 instances, outside the acceptance grid
    rng = Random(46)
    cases = []
    for trial in range(8):
        n = 11 + (trial % 2)
        g = random_graph(n, (0.25, 0.5)[trial % 2], seed=rng.randrange(2**32))
        w = WeightMap([rng.randint(0, 100) for _ in range(n)])
        cases.append(prepare(g, w, heuristic_decomposition(g)))
    expect(forest_matches_oracle(cases))


def test_skeleton_bag_bound():
    expect(skeleton_bound(solver_cases(seeded_graphs(44, 15, 3, 9))))


def test_merge_partitions_identity():
    g = Graph(4, [(0, 1)])
    z = 0b0111
    comps = g.components_within(z)
    singles = canonical_blocks(comps)
    assert merge_partitions(z, comps, singles, singles) == singles


def test_merge_partitions_double_connection_rejected():
    g = Graph(4, [])
    z = 0b0011
    comps = g.components_within(z)
    joined = (0b0011,)
    assert merge_partitions(z, comps, joined, joined) is None


def test_merge_partitions_star_is_fine():
    g = Graph(3, [])
    z = 0b111
    comps = g.components_within(z)
    joined = (0b111,)
    singles = canonical_blocks(comps)
    assert merge_partitions(z, comps, joined, singles) == joined


def test_merge_partitions_vs_brute_union():
    # corpus-generated pairs of forests over a shared separator: compatible
    # exactly when the union is acyclic
    rng = Random(77)
    agree = reject = 0
    for _ in range(300):
        n = rng.randint(4, 10)
        g = random_graph(n, rng.uniform(0.2, 0.6), seed=rng.randrange(2**32))
        verts = list(range(n))
        rng.shuffle(verts)
        cut = rng.randint(1, n - 2)
        bag = mask_of(verts[:cut])
        half = (n - cut) // 2
        side1 = mask_of(verts[cut : cut + half]) | bag
        side2 = mask_of(verts[cut + half :]) | bag
        # drop edges crossing the two private sides, as a separator would
        edges = [
            e
            for e in g.edges
            if not (
                (bit(e[0]) & side1 & ~bag and bit(e[1]) & side2 & ~bag)
                or (bit(e[0]) & side2 & ~bag and bit(e[1]) & side1 & ~bag)
            )
        ]
        g = Graph(n, edges)

        def random_forest(inside):
            f = 0
            for v in sorted(bits(inside), key=lambda _: rng.random()):
                if find_cycle_within(g, f | bit(v)) is None:
                    f |= bit(v)
            return f

        f1 = random_forest(side1)
        z = f1 & bag
        f2 = z
        for v in sorted(bits(side2 & ~bag), key=lambda _: rng.random()):
            if find_cycle_within(g, f2 | bit(v)) is None:
                f2 |= bit(v)
        if find_cycle_within(g, f2) is not None or f2 & bag != z:
            continue
        comps = g.components_within(z)
        b1 = signature_in(g, f1, bag, side1)[1]
        b2 = signature_in(g, f2, bag, side2)[1]
        merged = merge_partitions(z, comps, b1, b2)
        union_ok = find_cycle_within(g, f1 | f2) is None
        if merged is None:
            assert not union_ok
            reject += 1
        else:
            assert union_ok
            assert merged == signature_in(g, f1 | f2, bag, side1 | side2)[1]
            agree += 1
    assert agree >= 30 and reject >= 5


def test_mwif_small():
    k4 = complete_graph(4)
    nice = measured_nice(k4, single_bag_decomposition(k4))
    assert mwif_dp(k4, nice, WeightMap.unit(4))[0] == 2
    c5 = cycle_graph(5)
    nice = measured_nice(c5, heuristic_decomposition(c5))
    assert mwif_dp(c5, nice, WeightMap.unit(5))[0] == 4
    assert nice.metrics.mu == 1
    assert mwif_dp(c5, nice, WeightMap.unit(5), provider="paper")[0] == 4


def test_mwif_both_providers_vs_oracle():
    cases = solver_cases(seeded_graphs(90, 30, 2, 9), 90, 100, pick_strategy=True)
    expect(forest_matches_oracle(cases))


def test_mwif_zero_weights():
    g = cycle_graph(5)
    nice = measured_nice(g, heuristic_decomposition(g))
    w = WeightMap([0, 0, 3, 0, 0])
    assert mwif_dp(g, nice, w)[0] == 3


def test_paper_family_degenerate_edgeless_k0():
    # no edges means no skeleton and no Q; the family at a bag is the bag's
    # unique trace split into singletons, and the solver keeps everything
    g = Graph(4, [])
    bag = g.vertex_mask()
    traces = trace_family_for_bag(g, bag, 0).members
    assert traces == {bag}
    fam = signature_family_paper(g, bag, bag, 0, traces)
    assert fam.signatures == {(bag, (0b0001, 0b0010, 0b0100, 0b1000))}
    nice = measured_nice(g, single_bag_decomposition(g))
    assert nice.metrics.mu == 0
    weight, solution = mwif_dp(g, nice, WeightMap.unit(4), provider="paper")
    assert weight == 4 and solution == bag


def test_bounded_membership_equals_eager_family():
    # at every nice node, the states the solver's filter keeps are exactly the
    # generated states inside the eagerly built bounded family
    cases = random_corpus(7, 150, 11) + [(complete_bipartite(5, 5), WeightMap.unit(10))]
    queries = rejected = 0
    for g, w in cases:
        td = heuristic_decomposition(g)
        met = decomposition_metrics(g, td)
        nice = make_nice(g, td, met)
        asked = []

        def wrap(arguments):
            arguments["families"] = recorded_families(arguments["families"], asked)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "run_nice_dp", driver_spy(wrap))
            mwif_dp(g, nice, w, provider="paper")
        vt = nice.subtree_vertex_masks()
        families = {}
        for i, sig, kept in asked:
            if i not in families:
                bag = nice.nodes[i].bag
                traces = trace_family_for_bag(g, bag, met.mu).members
                families[i] = signature_family_paper(g, bag, vt[i], met.mu, traces)
            assert kept == (sig in families[i]), (g.n, g.edges, i, sig)
        queries += len(asked)
        rejected += sum(1 for _, _, kept in asked if not kept)
    # the filter is exercised: it rejects states the transitions generate
    assert (rejected, queries) == (208, 23407)


def test_paper_family_builds_no_trace_family_at_a_join(monkeypatch):
    # --family paper draws each node's trace family from the carry along the
    # nice chains: it enumerates no bag's maximal sets, builds one family per
    # non-join node through traces.trace_family_for_bag, each equal to the
    # per-bag oracle, and hands a join's membership its first child's members
    cases = [
        (g, heuristic_decomposition(g, strategy))
        for g in seeded_graphs(44, 40, 4, 11, ps=(0.15, 0.3, 0.5))
        for strategy in ("min-fill", "min-degree")
    ]
    cases += [(g, heuristic_decomposition(g)) for g in (complete_bipartite(4, 4), hypercube_graph(4))]
    built, handed = [], []

    def recorded(graph, bag, k, *carried):
        fam = trace_family_for_bag(graph, bag, k, *carried)
        built.append((bag, k, fam.members))
        return fam

    def refused(*args, **kwargs):
        raise AssertionError("a bag's maximal sets were enumerated afresh")

    class RecordedMembership(forest.BoundedFamilyMembership):
        def __init__(self, graph, bag, vt, k, traces):
            handed.append(traces)
            super().__init__(graph, bag, vt, k, traces)

    joins = 0
    for g, td in cases:
        nice = measured_nice(g, td)
        built.clear()
        handed.clear()
        with monkeypatch.context() as mp:
            mp.setattr(traces, "trace_family_for_bag", recorded)
            mp.setattr(traces, "enumerate_maximal_independent_sets", refused)
            mp.setattr(forest, "BoundedFamilyMembership", RecordedMembership)
            mwif_dp(g, nice, WeightMap.unit(g.n), provider="paper")
        non_joins = [i for i, node in enumerate(nice.nodes) if node.kind != "join"]
        assert [bag for bag, _, _ in built] == [nice.nodes[i].bag for i in non_joins]
        for bag, k, members in built:
            assert k == nice.metrics.mu
            assert members == trace_family_for_bag(g, bag, k).members, (g.n, g.edges, bag)
        assert len(handed) == nice.size
        assert all(handed[i] is members for i, (_, _, members) in zip(non_joins, built))
        for i, node in enumerate(nice.nodes):
            if node.kind == "join":
                assert handed[i] is handed[node.children[0]]
                joins += 1
    assert joins


def paper_queries(g, w):
    """The (node, signature) membership queries of one ``mwif_dp --family
    paper`` run, in the order asked, with the run's nice decomposition and k."""
    nice = measured_nice(g, heuristic_decomposition(g))
    asked = []

    def wrap(arguments):
        arguments["families"] = recorded_families(arguments["families"], asked)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest, "run_nice_dp", driver_spy(wrap))
        mwif_dp(g, nice, w, provider="paper")
    return nice, nice.metrics.mu, [(i, sig) for i, sig, _ in asked]


def test_bounded_membership_is_query_order_independent():
    # each Z's walk stops at its first covering tuple and resumes on a later
    # query, so the answers must not depend on the order of the queries;
    # sampled non-members of the exhaustive family walk their Z to the end
    cases = random_corpus(7, 150, 11) + [
        (complete_bipartite(5, 5), WeightMap.unit(10)),
        (hypercube_graph(4), WeightMap.unit(16)),
    ]
    rng = Random(5)
    queries = spent = 0
    for g, w in cases:
        nice, k, asked = paper_queries(g, w)
        vt = nice.subtree_vertex_masks()
        traces, eager = {}, {}
        for i in sorted({i for i, _ in asked}):
            bag = nice.nodes[i].bag
            traces[i] = trace_family_for_bag(g, bag, k).members
            eager[i] = signature_family_paper(g, bag, vt[i], k, traces[i])
            outside = sorted(signature_family_exhaustive(g, bag).signatures - eager[i].signatures)
            asked += [(i, sig) for sig in rng.sample(outside, min(3, len(outside)))]
        for order in (asked, asked[::-1], rng.sample(asked, len(asked))):
            fresh = {}
            for i, sig in order:
                if i not in fresh:
                    bag = nice.nodes[i].bag
                    fresh[i] = forest.BoundedFamilyMembership(g, bag, vt[i], k, traces[i])
                assert (sig in fresh[i]) == (sig in eager[i]), (g.n, g.edges, i, sig)
        queries += len(asked)
        spent += sum(1 for i, sig in asked if sig not in eager[i])
    assert spent and queries > spent


def test_bounded_membership_overrun_is_not_a_spent_walk(monkeypatch):
    # a query cut short by the budget must raise again when repeated: an
    # overrun on a walk's last tuple must not leave the walk looking spent
    g = complete_bipartite(3, 3)
    nice, k, asked = paper_queries(g, WeightMap.unit(6))
    vt = nice.subtree_vertex_masks()
    tried = 0
    for i, sig in dict.fromkeys(asked):
        bag = nice.nodes[i].bag
        traces = trace_family_for_bag(g, bag, k).members
        members = forest.BoundedFamilyMembership(g, bag, vt[i], k, traces)
        answer = sig in members
        visited = forest.DEFAULT_ENUM_BUDGET - members._budget_left
        if not visited:
            continue
        tried += 1
        with monkeypatch.context() as mp:
            mp.setattr(forest, "DEFAULT_ENUM_BUDGET", visited - 1)
            members = forest.BoundedFamilyMembership(g, bag, vt[i], k, traces)
            for _ in range(3):
                with pytest.raises(ResourceLimitError):
                    sig in members
            mp.setattr(forest, "DEFAULT_ENUM_BUDGET", visited)
            members = forest.BoundedFamilyMembership(g, bag, vt[i], k, traces)
            assert (sig in members) == answer
    assert tried


def test_bounded_family_budget_counts_only_tuples_visited(monkeypatch):
    # on Q4 the lazy walks visit at most 5,663 tuples at one node, where
    # walking every queried Z in full visits 130,560 at the busiest node, so
    # this budget only overran before the walks stopped at a covering tuple
    g = hypercube_graph(4)
    nice = measured_nice(g, heuristic_decomposition(g))
    w = WeightMap.unit(16)
    monkeypatch.setattr(forest, "DEFAULT_ENUM_BUDGET", 10_000)
    assert mwif_dp(g, nice, w, provider="paper")[0] == mwif_dp(g, nice, w)[0] == 10
    monkeypatch.setattr(forest, "DEFAULT_ENUM_BUDGET", 1)
    with pytest.raises(ResourceLimitError) as raised:
        mwif_dp(g, nice, w, provider="paper")
    assert raised.value.partial_count == 1  # members decided before the overrun


def test_eager_family_budget_ends_on_its_last_tuple(monkeypatch):
    # each tuple is charged one unit plus one per fertile class before its
    # partitions are expanded, so a budget of exactly the total passes and
    # one unit less overruns on the last tuple, whatever the witness order
    g = cycle_graph(4)
    bag = g.vertex_mask()
    traces = trace_family_for_bag(g, bag, 1).members
    charged = []
    blocks_of = forest._witness_blocks

    def counted(*args):
        fixed = blocks_of(*args)
        charged.append(1 if fixed is None else 1 + len(fixed[1]))
        return fixed

    monkeypatch.setattr(forest, "_witness_blocks", counted)
    family = signature_family_paper(g, bag, bag, 1, traces)
    tuples, total = len(charged), sum(charged)
    assert (tuples, total) == (64, 100) and charged[-1] > 1
    monkeypatch.setattr(forest, "DEFAULT_ENUM_BUDGET", total)
    assert signature_family_paper(g, bag, bag, 1, traces).signatures == family.signatures
    monkeypatch.setattr(forest, "DEFAULT_ENUM_BUDGET", total - 1)
    charged.clear()
    with pytest.raises(ResourceLimitError):
        signature_family_paper(g, bag, bag, 1, traces)
    assert len(charged) == tuples


def test_join_merges_only_equal_bag_parts(monkeypatch):
    g = hypercube_graph(4)
    nice = measured_nice(g, heuristic_decomposition(g))
    merged = []

    def wrap(arguments):
        bag_part, merge = arguments["bag_part"], arguments["merge"]

        def checked(left, right):
            assert bag_part(left) == bag_part(right)
            return merge(left, right)

        arguments["merge"] = checked

    def counted(*args):
        merged.append(args)
        return merge_partitions(*args)

    monkeypatch.setattr(forest, "run_nice_dp", driver_spy(wrap))
    monkeypatch.setattr(forest, "merge_partitions", counted)
    assert mwif_dp(g, nice, WeightMap.unit(16))[0] == 10
    # one merge_partitions call per pair of join partners with equal Z
    assert len(merged) == 5908


def test_bounded_family_k88_is_fast():
    g = complete_bipartite(8, 8)
    nice = measured_nice(g, heuristic_decomposition(g))
    start = perf_counter()
    weight, solution = mwif_dp(g, nice, WeightMap.unit(16), provider="paper")
    assert perf_counter() - start < 20
    assert weight == 9 and is_induced_forest(g, solution)


def counted_witnesses(graph, adj, bag, vt, k, traces):
    """The (I, Q) witnesses of ``forest._witnesses`` built from a dict of
    Q-neighbor counts per I-vertex, each as a dict of its ``_Witness`` slots:
    the reference for the mask construction."""
    closed_bag = graph.closed_neighborhood_of_set(bag)
    seen = set()
    for i_mask in traces:
        pool = [q for q in bits(closed_bag) if adj[q] & i_mask]
        i_members = to_tuple(i_mask)
        for q_size in range(min(4 * k, len(pool), 2 * len(i_members)) + 1):
            for q_tuple in combinations(pool, q_size):
                q_mask = mask_of(q_tuple)
                cnt = {v: popcount(adj[v] & q_mask) for v in i_members}
                if q_size and not all(
                    any(adj[q] & bit(v) and (cnt[v] == 1 or cnt[v] == 2) for v in i_members)
                    for q in q_tuple
                ):
                    continue
                leaf_q = tuple((v, lowest_bit(adj[v] & q_mask)) for v, c in cnt.items() if c == 1)
                trivial = mask_of(v for v, c in cnt.items() if c == 0)
                key = (leaf_q, trivial, q_mask & bag, q_mask & vt)
                if key in seen:
                    continue
                seen.add(key)
                z_base = trivial | mask_of(v for v, _ in leaf_q)
                trivial_adj = leaf_bad = 0
                for v in bits(trivial):
                    trivial_adj |= adj[v]
                for v, q in leaf_q:
                    leaf_bad |= adj[v] & ~bit(q)
                yield {
                    "leaf_q": leaf_q,
                    "trivial": trivial,
                    "z_base": z_base,
                    "q_in_bag": q_mask & bag,
                    "q_in_vt": q_mask & vt,
                    "trivial_adj": trivial_adj,
                    "leaf_bad": leaf_bad,
                    "need": z_base | q_mask & bag,
                }


def test_witnesses_equal_the_counted_construction():
    # the mask construction yields the same witnesses, in the same order and
    # with every slot equal, at k = mu and at k = mu + 1
    k17 = complete_graph(17)
    cases = [
        (g, heuristic_decomposition(g, strategy))
        for g, _ in random_corpus(7, 150, 11)
        for strategy in ("min-fill", "min-degree")
    ]
    cases += [(g, heuristic_decomposition(g)) for g in (complete_bipartite(8, 8), hypercube_graph(4))]
    cases.append((k17, single_bag_decomposition(k17)))
    checked, witnesses = set(), 0
    for g, td in cases:
        nice = measured_nice(g, td)
        adj = [g.adj_mask(v) for v in range(g.n)]
        vt = nice.subtree_vertex_masks()
        for k in (nice.metrics.mu, nice.metrics.mu + 1):
            for i, node in enumerate(nice.nodes):
                # the witnesses see the subtree only inside N[bag]
                key = (g, node.bag, vt[i] & g.closed_neighborhood_of_set(node.bag), k)
                if key in checked:
                    continue
                checked.add(key)
                traces = trace_family_for_bag(g, node.bag, k).members
                got = [
                    {slot: getattr(w, slot) for slot in forest._Witness.__slots__}
                    for w in forest._witnesses(g, adj, node.bag, vt[i], k, traces)
                ]
                assert got == list(counted_witnesses(g, adj, node.bag, vt[i], k, traces)), (
                    g.n, g.edges, node.bag, k,
                )
                witnesses += len(got)
    assert witnesses


def test_bounded_membership_walk_is_pinned(monkeypatch):
    # summed over every node of one run, the tuples the walks visit and the
    # witnesses they pull, so a faster walk cannot visit different tuples
    made = []

    class Recorded(forest.BoundedFamilyMembership):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(forest, "BoundedFamilyMembership", Recorded)
    for g, weight, visited, pulled in (
        (complete_bipartite(8, 8), 9, 65_789, 1_898),
        (hypercube_graph(4), 10, 15_376, 2_562),
    ):
        made.clear()
        nice = measured_nice(g, heuristic_decomposition(g))
        assert mwif_dp(g, nice, WeightMap.unit(g.n), provider="paper")[0] == weight
        assert sum(forest.DEFAULT_ENUM_BUDGET - m._budget_left for m in made) == visited
        assert sum(len(m._witness_list) for m in made) == pulled
