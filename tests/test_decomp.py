import hashlib
import time
import tracemalloc
from random import Random

import pytest

from imtw import decomp
from imtw.bits import bit, bits, mask_of, popcount, to_tuple
from imtw.corpus import chordal_completion, random_corpus, random_minor_op, relabelled, shuffled_pieces
from imtw.decomp import (
    TreeDecomposition,
    _elimination_order,
    blob_decomposition,
    closed_neighborhood_expansion,
    decomposition_metrics,
    find_bag_dominated_vertex,
    heuristic_decomposition,
    induced_minor_decomposition,
    make_nice,
    max_independent_set_in_bag,
    max_induced_matching_touching,
    odd_power_decomposition,
    parse_td,
    serialize_td,
    single_bag_decomposition,
    validate_decomposition,
)
from imtw.errors import Budget, InputError, InvariantError, ResourceLimitError
from imtw.graphs import (
    MAX_VERTICES,
    Graph,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    corona,
    cycle_graph,
    graph_power,
    hypercube_graph,
    line_graph_square,
    matching_join,
    path_graph,
    petersen_graph,
    random_graph,
    touch_rows,
)
from imtw.packing import SubgraphFamily, blob_graph
from imtw.traces import trace_family_for_bag
from imtw.verify import (
    STRATEGIES,
    bag_dominated_vertex,
    blob_transfer,
    closed_neighborhood_bound,
    decomposition_valid,
    metrics_match_oracle,
    metrics_searching_every_bag,
    minor_keeps_mu,
    nice_form_valid,
    odd_power_transfer,
    width_anchors,
)

from conftest import (
    expect,
    reference_blob_bags,
    reference_max_independent_set,
    reference_validate_decomposition,
    seeded_graphs,
)


def test_validate_single_bag():
    g = random_graph(6, 0.5, seed=1)
    assert validate_decomposition(g, single_bag_decomposition(g)) == []


def test_validate_p3_two_bags():
    g = path_graph(3)
    td = TreeDecomposition(3, [[0, 1], [1, 2]], [(0, 1)])
    assert validate_decomposition(g, td) == []
    bad = TreeDecomposition(3, [[0, 1], [2]], [(0, 1)])
    violations = validate_decomposition(g, bad)
    assert any("edge (1, 2)" in v for v in violations)


def test_validate_disconnected_trace():
    g = path_graph(3)
    td = TreeDecomposition(3, [[0, 1], [1], [1, 2]], [(0, 1), (1, 2)])
    assert validate_decomposition(g, td) == []
    td = TreeDecomposition(3, [[0, 1], [], [0, 2]], [(0, 1), (1, 2)])
    violations = validate_decomposition(g, td)
    assert any("trace" in v for v in violations) or any("edge" in v for v in violations)


def test_validate_non_tree():
    g = path_graph(2)
    td = TreeDecomposition(2, [[0, 1], [0, 1], [0, 1]], [(0, 1)])
    assert any("tree" in v for v in validate_decomposition(g, td))


def test_validate_violation_lists_are_pinned():
    # the exact wording and order of every kind of violation
    p4, bags = path_graph(4), [[0, 1], [1, 2], [2, 3]]
    cases = [
        (p4, 5, bags, [(0, 1), (1, 2)], ["decomposition is over n=5, graph has n=4"]),
        (p4, 4, bags, [(0, 1), (1, 0)], ["duplicate tree edges", "tree is not connected"]),
        (p4, 4, bags, [(0, 1), (2, 2)], ["tree is not connected"]),
        (p4, 4, bags, [(0, 1), (1, 2), (0, 2)], ["3 nodes need 2 tree edges, found 3"]),
        (p4, 4, bags, [(0, 1)], ["3 nodes need 2 tree edges, found 1", "tree is not connected"]),
        (p4, 4, bags + [[3]], [(0, 1), (1, 2), (0, 2)], ["tree is not connected"]),
        (Graph(4, [(0, 1)]), 4, [[0, 1], [2]], [(0, 1)], ["vertex 3 is in no bag"]),
        (p4, 4, [[0, 1], [1, 2], [3]], [(0, 1), (1, 2)], ["edge (2, 3) is covered by no bag"]),
        (p4, 4, [[0, 1], [2, 3], [1, 2]], [(0, 1), (1, 2)], ["trace of vertex 1 is disconnected"]),
        (
            cycle_graph(5), 5, [[0, 1], [2, 3], [1, 2], [0]], [(0, 1), (1, 2), (0, 3)],
            [
                "vertex 4 is in no bag",
                "edge (0, 4) is covered by no bag",
                "edge (3, 4) is covered by no bag",
                "trace of vertex 1 is disconnected",
            ],
        ),
    ]
    for g, n, case_bags, edges, expected in cases:
        assert validate_decomposition(g, TreeDecomposition(n, case_bags, edges)) == expected


def _split_trace(rng, td, bags):
    """Add some vertex to a bag that neither holds it nor neighbours a node
    holding it, so that its trace falls apart; False when there is none."""
    near = [bit(t) for t in range(td.size)]
    for u, v in td.tree_edges:
        near[u] |= bit(v)
        near[v] |= bit(u)
    options = []
    for v in range(td.graph_n):
        reach = 0
        for t, bag in enumerate(bags):
            if bag >> v & 1:
                reach |= near[t]
        if reach:
            options += [(v, t) for t in range(td.size) if not reach >> t & 1]
    if not options:
        return False
    v, t = rng.choice(options)
    bags[t] |= bit(v)
    return True


def test_validation_equals_the_reference_on_perturbed_decompositions():
    # the one-pass check returns the reference's violation list, in order,
    # under random roots, on valid decompositions and on ones with a bag
    # member dropped, a member added or a trace split in two
    rng = Random(24)
    kinds = {"keep": 0, "drop": 0, "add": 0, "split": 0}
    seen = set()
    for g in seeded_graphs(24, 80, 3, 14):
        td = heuristic_decomposition(g, rng.choice(STRATEGIES))
        for kind in kinds:
            bags = list(td.bags)
            t = rng.randrange(td.size)
            if kind == "drop" and bags[t]:
                bags[t] &= ~bit(rng.choice(to_tuple(bags[t])))
            elif kind == "add":
                bags[t] |= bit(rng.randrange(g.n))
            elif kind == "split" and not _split_trace(rng, td, bags):
                continue
            perturbed = TreeDecomposition(g.n, bags, td.tree_edges, root=rng.randrange(td.size))
            violations = validate_decomposition(g, perturbed)
            assert violations == reference_validate_decomposition(g, perturbed), (g.edges, bags)
            kinds[kind] += 1
            seen.update(v.split()[0] + " " + v.split()[-1] for v in violations)
    assert min(kinds.values()) >= 60, kinds
    # each per-vertex kind of violation was met
    assert {"vertex bag", "edge bag", "trace disconnected"} <= seen, seen


def test_path_3000_layers_are_near_linear():
    # validation, metrics, nice form and trace families on a width-1 path
    # decomposition of path(3000); each layer touches only its bags
    n = 3000
    g = path_graph(n)
    bags = [bit(i) | bit(i + 1) for i in range(n - 1)]
    td = TreeDecomposition(n, bags, [(i, i + 1) for i in range(n - 2)])
    started = time.perf_counter()
    assert validate_decomposition(g, td) == []
    met = decomposition_metrics(g, td)
    nice = make_nice(g, td, met)
    for node in nice.nodes:
        trace_family_for_bag(g, node.bag, met.mu)
    elapsed = time.perf_counter() - started
    assert (met.alpha, met.mu) == (1, 1)
    assert elapsed < 3, elapsed


def test_make_nice_k2_chain():
    g = complete_graph(2)
    td = single_bag_decomposition(g)
    met = decomposition_metrics(g, td)
    nice = make_nice(g, td, met)
    assert nice.metrics is met
    kinds = [node.kind for node in nice.nodes]
    assert kinds == ["leaf", "introduce", "introduce", "forget", "forget"]
    assert nice.nodes[-1].bag == 0
    assert validate_decomposition(g, nice.to_tree_decomposition()) == []


def test_make_nice_random_corpus():
    rng = Random(6)
    graphs = seeded_graphs(60, 100, 2, 9)
    cases = [(g, heuristic_decomposition(g, rng.choice(STRATEGIES))) for g in graphs]
    expect(nice_form_valid(cases))


def test_metrics_k33_single_bag():
    g = complete_bipartite(3, 3)
    met = decomposition_metrics(g, single_bag_decomposition(g))
    assert met.alpha == 3 and met.mu == 1


def test_metrics_edgeless_bag():
    g = Graph(5, [])
    met = decomposition_metrics(g, single_bag_decomposition(g))
    assert met.alpha == 5 and met.mu == 0


def test_bag_independent_set_needs_no_recursion():
    # a perfect matching of 1100 edges: the search includes 1100 vertices in
    # a row, and must not branch on every edge
    g = Graph(2200, [(2 * i, 2 * i + 1) for i in range(1100)])
    size, witness = max_independent_set_in_bag(g, g.vertex_mask())
    assert size == 1100 and witness == sum(bit(2 * i) for i in range(1100))


def test_bag_independent_set_on_disjoint_cliques():
    # forty disjoint triangles: each component is searched on its own, where
    # one search over all of them would branch into 2^41 - 1 nodes
    g = Graph(120, [(3 * i + a, 3 * i + b) for i in range(40) for a, b in ((0, 1), (0, 2), (1, 2))])
    start = time.perf_counter()
    size, witness = max_independent_set_in_bag(g, g.vertex_mask())
    assert time.perf_counter() - start < 0.1
    assert size == 40 and witness == sum(bit(3 * i) for i in range(40))


def test_bag_independent_set_splits_below_a_hub():
    # forty triangles with a hub joined to one corner of each: the pool falls
    # apart only once the hub is excluded, and each triangle is then searched
    # on its own
    t = 40
    hub = 3 * t
    triangles = [(3 * i + a, 3 * i + b) for i in range(t) for a, b in ((0, 1), (0, 2), (1, 2))]
    g = Graph(3 * t + 1, triangles + [(3 * i, hub) for i in range(t)])
    start = time.perf_counter()
    size, witness = max_independent_set_in_bag(g, g.vertex_mask())
    assert time.perf_counter() - start < 0.1
    assert size == t + 1 and witness == bit(hub) | sum(bit(3 * i + 1) for i in range(t))


def test_clique_pools_settle_in_one_step():
    # the single bag of K_40: alpha's pool and mu's pool of 780 pairwise
    # conflicting edges are cliques, so each search settles at its first
    # node and takes the lowest vertex or edge
    g = complete_graph(40)
    bag = g.vertex_mask()
    assert max_independent_set_in_bag(g, bag, Budget(2, "alpha")) == (1, 1)
    assert max_induced_matching_touching(g, bag, Budget(2, "mu")) == (1, ((0, 1),))


def _pairwise_conflicts(graph, members):
    """The touch rows by a pass over every pair of members, given as vertex
    tuples: j touches i when a vertex of j lies in the closed neighborhood
    of i's vertices."""
    k = len(members)
    rows = [0] * k
    masks = [mask_of(member) for member in members]
    for i in range(k):
        cover_i = graph.closed_neighborhood_of_set(masks[i])
        for j in range(i + 1, k):
            if cover_i & masks[j]:
                rows[i] |= bit(j)
                rows[j] |= bit(i)
    return rows


def _bfs_line_graph_square(graph):
    """The square of the line graph by one connectivity search per pair of
    edges: two edges are adjacent when their endpoints induce a connected
    subgraph."""
    edges = graph.edges
    return Graph(
        len(edges),
        [
            (i, j)
            for i in range(len(edges))
            for j in range(i + 1, len(edges))
            if graph.is_connected_within(mask_of(edges[i]) | mask_of(edges[j]))
        ],
    )


def test_conflict_rows_equal_the_pairwise_construction():
    # touch rows against the pairwise oracle on the touching edges of every
    # bag (the whole vertex set's first: every edge) and on the connected
    # pieces of at most three vertices in random order; the rows of every
    # edge and of the pieces must be symmetric, and the square of the line
    # graph must equal the one from a connectivity search per pair of edges
    rng = Random(13)
    graphs = [g for g, _ in random_corpus(4, 400, 16)]
    graphs += [
        hypercube_graph(4),
        complete_bipartite(8, 8),
        complete_graph(17),
        graph_power(path_graph(60), 3),
    ]
    for g in graphs:
        families = [
            [(u, v) for u, v in g.edges if (bit(u) | bit(v)) & bag]
            for bag in [g.vertex_mask()] + [b for s in STRATEGIES for b in heuristic_decomposition(g, s).bags]
        ]
        families.append([to_tuple(piece) for piece in shuffled_pieces(rng, g)])
        for members in families:
            assert touch_rows(g, members) == _pairwise_conflicts(g, members)
        for members in (families[0], families[-1]):
            rows = touch_rows(g, members)
            assert all(rows[i] >> j & 1 == rows[j] >> i & 1 for i in range(len(rows)) for j in range(i))
        assert line_graph_square(g) == (_bfs_line_graph_square(g), g.edges)


def test_metrics_match_oracle():
    graphs = seeded_graphs(15, 30, 3, 9)
    expect(metrics_match_oracle([(g, heuristic_decomposition(g)) for g in graphs]))


def _with_false_twins(graph, rng):
    """``graph`` with a false twin (same neighbors, not adjacent) added for
    about half of its vertices."""
    twins = [v for v in range(graph.n) if rng.random() < 0.5]
    edges = list(graph.edges)
    for i, v in enumerate(twins):
        edges += [(graph.n + i, w) for w in bits(graph.adj_mask(v))]
    return Graph(graph.n + len(twins), edges)


def _bound_corpus():
    """Graphs where the clique-cover bounds skip, settle or prune searches:
    random graphs, complete (multipartite) graphs, path cubes in natural and
    random labels, coronas, graphs with false twins and edgeless graphs."""
    rng = Random(22)
    graphs = [g for g, _ in random_corpus(21, 300, 14)]
    special = [
        hypercube_graph(4),
        complete_bipartite(8, 8),
        complete_bipartite(4, 5),
        complete_multipartite([2, 2, 3]),
        complete_multipartite([1, 1, 2, 3]),
        complete_graph(17),
        graph_power(path_graph(60), 3),
        cycle_graph(40),
        Graph(50, []),
    ]
    special += [corona(random_graph(rng.randint(3, 9), 0.4, seed=rng.randrange(2**32))) for _ in range(4)]
    special += [_with_false_twins(random_graph(rng.randint(3, 9), 0.4, seed=rng.randrange(2**32)), rng) for _ in range(4)]
    special += [relabelled(rng, graph_power(path_graph(n), 3)) for n in (12, 25, 40)]
    special += [relabelled(rng, complete_multipartite(parts)) for parts in ([2, 2, 3], [1, 1, 2, 3], [4, 5])]
    return graphs + special


def test_skipped_bag_searches_keep_the_maxima_and_witnesses():
    # a bag whose clique cover is at most mu, or at most alpha with a cover
    # of H at most mu, cannot raise either maximum, and a cover of H of 1
    # settles mu on the smallest touching edge, so skipping and settling
    # must return what searching every bag returns
    graphs = _bound_corpus()
    cases = [(g, heuristic_decomposition(g, s)) for g in graphs for s in STRATEGIES]
    cases += [(g, single_bag_decomposition(g)) for g in graphs]
    # an edgeless single bag of 2,000 vertices: its cover of H must skip the
    # isolated vertices, not pair them all
    edgeless = Graph(2000, [])
    cases.append((edgeless, single_bag_decomposition(edgeless)))
    for g, td in cases:
        met = decomposition_metrics(g, td)
        assert (met.alpha, met.mu, met.alpha_witness, met.mu_witness) == metrics_searching_every_bag(g, td)


def _units(search, adj, pool):
    """(size, witness, units) of one search over ``pool``."""
    budget = Budget(10**9, "counted")
    size, witness = search(adj, pool, budget)
    return size, witness, 10**9 - budget.left


def test_bounded_searches_spend_no_more_units_than_the_unbounded_search(monkeypatch):
    # every bag's alpha and mu pools, searched with the clique-cover prune
    # and with the search as it was before it, give the same size and
    # witness, and the pruned search never spends more budget units; the
    # searches decomposition_metrics runs spend what the unbounded search
    # spends on the same bag at most, and fewer in total
    spent = {}  # search -> units, of one decomposition_metrics call

    class Counted(Budget):
        def spend(self):
            what = self.message.rpartition(" while ")[2]
            spent[what] = spent.get(what, 0) + 1
            super().spend()

    monkeypatch.setattr(decomp, "Budget", Counted)
    graphs = _bound_corpus()
    cases = [(g, heuristic_decomposition(g, s)) for g in graphs for s in STRATEGIES]
    cases += [(g, single_bag_decomposition(g)) for g in graphs if g.n <= 30]
    pruned_total = reference_total = 0
    for g, td in cases:
        reference = {}
        for t, bag in enumerate(td.bags):
            inner = {v: g.adj_mask(v) & bag for v in bits(bag)}
            edges = sorted({(min(u, w), max(u, w)) for u in bits(bag) for w in bits(g.adj_mask(u))})
            rows = touch_rows(g, edges)
            for what, adj, pool in ((f"alpha of bag {t}", inner, bag), (f"mu of bag {t}", rows, (1 << len(edges)) - 1)):
                *pruned, units = _units(decomp._max_independent_set, adj, pool)
                *unpruned, reference[what] = _units(reference_max_independent_set, adj, pool)
                assert pruned == unpruned and units <= reference[what]
        spent.clear()
        decomposition_metrics(g, td)
        for what, units in spent.items():
            assert units <= reference[what], (g, td.bags, what)
        pruned_total += sum(spent.values())
        reference_total += sum(reference.values())
    assert pruned_total < reference_total


def test_mu_is_searched_only_where_alpha_can_raise_it(monkeypatch):
    # every bag of a path or a path cube is a clique, so its cover is 1: the
    # first bag is searched for alpha, its mu is settled on its smallest
    # edge because its cover of H is 1 as well, and no later bag's cover
    # exceeds mu = 1, so no other search runs. In a complete multipartite
    # graph the vertices of a part are false twins, so H is complete on
    # every bag, and after the first bag no cover of H exceeds mu = 1 and
    # no cover of the bag exceeds alpha
    searched = []

    def spy(search):
        def counted(graph, bag, budget=None):
            searched.append(search.__name__)
            return search(graph, bag, budget)

        return counted

    for search in (max_independent_set_in_bag, max_induced_matching_touching):
        monkeypatch.setattr(decomp, search.__name__, spy(search))
    for g, alpha in (
        (path_graph(200), 1),
        (graph_power(path_graph(60), 3), 1),
        (complete_multipartite([2, 3, 4]), 3),
        (complete_bipartite(4, 5), 4),
    ):
        searched.clear()
        met = decomposition_metrics(g, heuristic_decomposition(g, "min-fill"))
        assert (met.alpha, met.mu) == (alpha, 1)
        assert searched.count("max_independent_set_in_bag") == 1
        assert searched.count("max_induced_matching_touching") == 0


def test_mu_above_alpha_at_a_bag_is_an_invariant_error(monkeypatch):
    # a mu search that returns a matching larger than the bag's alpha breaks
    # mu(X) <= alpha(X), which the skipped searches rely on; the empty bag 0
    # is skipped, so bag 1, two disjoint edges whose cover of H is 2, is the
    # first searched
    def too_large(graph, bag, budget=None):
        return max_independent_set_in_bag(graph, bag)[0] + 1, ()

    monkeypatch.setattr(decomp, "max_induced_matching_touching", too_large)
    g = Graph(4, [(0, 1), (2, 3)])
    td = TreeDecomposition(4, [0, g.vertex_mask()], [(0, 1)])
    with pytest.raises(InvariantError, match=r"^mu=3 exceeds alpha=2 at bag 1$"):
        decomposition_metrics(g, td)


def test_metrics_budget_blows_loudly():
    g = random_graph(14, 0.5, seed=3)
    with pytest.raises(ResourceLimitError, match="bag"):
        decomposition_metrics(g, single_bag_decomposition(g), budget_limit=10)


def test_heuristic_on_tree_has_width_one():
    tree = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    for strategy in ("min-degree", "min-fill"):
        td = heuristic_decomposition(tree, strategy)
        assert validate_decomposition(tree, td) == []
        assert td.width() == 1


def test_heuristic_min_fill_on_chordal_gives_cliques():
    rng = Random(25)
    for _ in range(15):
        g = chordal_completion(random_graph(rng.randint(2, 8), 0.4, seed=rng.randrange(2**32)))
        td = heuristic_decomposition(g, "min-fill")
        assert validate_decomposition(g, td) == []
        for b in td.bags:
            members = to_tuple(b)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert g.has_edge(u, v)
        assert decomposition_metrics(g, td).alpha <= 1


def test_heuristic_random_corpus_validates():
    graphs = seeded_graphs(77, 40, 2, 10)
    cases = [(g, heuristic_decomposition(g, s)) for g in graphs for s in STRATEGIES]
    expect(decomposition_valid(cases))


def _scan_elimination_order(graph, strategy):
    """The greedy order by a full scan that re-costs every alive vertex at
    every step; the heap-driven order must reproduce it exactly."""
    work = [graph.adj_mask(v) for v in range(graph.n)]
    alive = graph.vertex_mask()
    order = []
    while alive:
        best_v, best_cost = -1, None
        for v in to_tuple(alive):
            nbrs = work[v] & alive
            if strategy == "min-degree":
                cost = popcount(nbrs)
            else:  # min-fill
                cost = 0
                nbr_list = to_tuple(nbrs)
                for i, u in enumerate(nbr_list):
                    cost += len(nbr_list) - 1 - i - popcount(work[u] & nbrs & ~((bit(u) << 1) - 1))
            if best_cost is None or cost < best_cost:
                best_v, best_cost = v, cost
        v = best_v
        nbrs = work[v] & alive
        for u in to_tuple(nbrs):
            work[u] |= nbrs & ~bit(u)
        order.append(v)
        alive &= ~bit(v)
    return order, work


def _relabelled(graph, seed):
    perm = list(range(graph.n))
    Random(seed).shuffle(perm)
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


def _sparse_relabelled():
    """Relabelled paths, cycles, trees and path cubes: nearly every min-fill
    elimination there is simplicial (cost 0)."""
    graphs = []
    for s, n in enumerate((7, 20, 45)):
        graphs += [
            _relabelled(path_graph(n), s),
            _relabelled(cycle_graph(n), s),
            _relabelled(_random_tree(n, s), s),
            _relabelled(graph_power(path_graph(n), 3), s),
        ]
    return graphs


def test_elimination_order_equals_full_scan():
    graphs = [g for g, _ in random_corpus(12, 150, 16)]
    graphs += [random_graph(30, p, seed=s) for s in range(5) for p in (0.1, 0.3, 0.7)]
    graphs += _sparse_relabelled()
    for g in graphs:
        for strategy in STRATEGIES:
            assert _elimination_order(g, strategy) == _scan_elimination_order(g, strategy)


def test_simplicial_eliminations_re_cost_only_their_neighbors(monkeypatch):
    # a min-fill elimination of cost 0 adds no fill edge, so only the
    # neighbors of the eliminated vertex are re-costed, not their
    # neighbors as well; re-costing those too after every elimination
    # makes 1379 cost evaluations here
    calls = []
    cost = decomp._cost
    monkeypatch.setattr(decomp, "_cost", lambda *args: calls.append(args) or cost(*args))
    _elimination_order(_relabelled(graph_power(path_graph(200), 3), 7), "min-fill")
    assert len(calls) == 794


def _grid(a, b):
    edges = [(a * i + j, a * i + j + 1) for i in range(b) for j in range(a - 1)]
    edges += [(a * i + j, a * (i + 1) + j) for i in range(b - 1) for j in range(a)]
    return Graph(a * b, edges)


def _random_tree(n, seed):
    rng = Random(seed)
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


# graphs full of cost ties, where the lowest-id tie-break decides most steps
TIE_HEAVY = {
    "cycle(12)": cycle_graph(12),
    "K(3,3)": complete_bipartite(3, 3),
    "K_6": complete_graph(6),
    "Q4": hypercube_graph(4),
    "petersen": petersen_graph(),
    "grid(5,5)": _grid(5, 5),
    "path(50)": path_graph(50),
    "tree(30)": _random_tree(30, 8),
}

# sha256 of serialize_td(heuristic_decomposition(graph, strategy))
PINNED_TD_DIGESTS = {
    ("cycle(12)", "min-fill"): "29dd2d67fe03bdbf17024c55a0b9550c761f456f6b053acc155d2c0f8b3d14a9",
    ("cycle(12)", "min-degree"): "29dd2d67fe03bdbf17024c55a0b9550c761f456f6b053acc155d2c0f8b3d14a9",
    ("K(3,3)", "min-fill"): "b9cdccc61685168e4588ccbccfe80f113a1a09b274dc843b610171d701c8eb64",
    ("K(3,3)", "min-degree"): "b9cdccc61685168e4588ccbccfe80f113a1a09b274dc843b610171d701c8eb64",
    ("K_6", "min-fill"): "275551447e5ee322d08c5b6ee10c9ebbd67bb23d25e9b9b86288a025c1f74a69",
    ("K_6", "min-degree"): "275551447e5ee322d08c5b6ee10c9ebbd67bb23d25e9b9b86288a025c1f74a69",
    ("Q4", "min-fill"): "0d0ff8961b4aefb9c4e24dfad88090406a0e56ac1664cf57a398e02be0056b47",
    ("Q4", "min-degree"): "0d0ff8961b4aefb9c4e24dfad88090406a0e56ac1664cf57a398e02be0056b47",
    ("petersen", "min-fill"): "acf3e75914c318f69fdffbfbcdd37850a9677021d657130c53988f99858938dd",
    ("petersen", "min-degree"): "acf3e75914c318f69fdffbfbcdd37850a9677021d657130c53988f99858938dd",
    ("grid(5,5)", "min-fill"): "94e34a682733e8ba8829671b77116f692ccf0dd13d7c6817f68c266b1c6d39d8",
    ("grid(5,5)", "min-degree"): "40130674d1a3fe2f8d2b399bc23c20ea9ae8b0aea5e434279c17aea996593dc1",
    ("path(50)", "min-fill"): "ca6a7ab331de761820caaba701b3ad57fd9c1a44aa4b52a44b5fc4e15a3b943e",
    ("path(50)", "min-degree"): "ca6a7ab331de761820caaba701b3ad57fd9c1a44aa4b52a44b5fc4e15a3b943e",
    ("tree(30)", "min-fill"): "88bc37220924e3b10d7636574c25dad726d7540fc1203a73ae11cb413a6bc7e3",
    ("tree(30)", "min-degree"): "88bc37220924e3b10d7636574c25dad726d7540fc1203a73ae11cb413a6bc7e3",
}


def test_heuristic_decompositions_are_pinned():
    for (name, strategy), digest in PINNED_TD_DIGESTS.items():
        text = serialize_td(heuristic_decomposition(TIE_HEAVY[name], strategy))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, strategy)


def test_heuristic_path_3000_is_fast():
    # both strategies eliminate the path from one end: a chain of 2-vertex
    # bags, found without re-costing every alive vertex at every step
    g = path_graph(3000)
    for strategy in STRATEGIES:
        start = time.perf_counter()
        td = heuristic_decomposition(g, strategy)
        assert time.perf_counter() - start < 1, strategy
        text = serialize_td(td)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ebf28519cc92afa018c23b39de268897afadf78b713a6321004cd12c38563edc"
        )
        assert td.bags[:-1] == tuple(bit(i) | bit(i + 1) for i in range(2999))


def test_closed_neighborhood_expansion_small():
    g = path_graph(3)
    td = TreeDecomposition(3, [[0, 1], [1, 2]], [(0, 1)])
    grown = closed_neighborhood_expansion(g, td)
    assert grown.bags == (0b111, 0b111)
    full = single_bag_decomposition(g)
    assert closed_neighborhood_expansion(g, full).bags == full.bags


def test_closed_neighborhood_expansion_bound():
    graphs = seeded_graphs(18, 30, 2, 9)
    expect(closed_neighborhood_bound([(g, heuristic_decomposition(g)) for g in graphs]))


def test_blob_decomposition_singletons():
    g = random_graph(7, 0.4, seed=5)
    td = heuristic_decomposition(g)
    fam = SubgraphFamily([bit(v) for v in range(7)])
    td2 = blob_decomposition(g, td, fam)
    assert blob_graph(g, fam) == g
    assert td2.bags == td.bags and td2.tree_edges == td.tree_edges


def test_blob_decomposition_duplicate_singletons_alpha_blows():
    # duplicated one-vertex members break the alpha transfer: the blob of
    # K_{n,n} becomes the joined double matching whose single-bag alpha is n
    n = 3
    g = complete_bipartite(n, n)
    sets = []
    for v in range(2 * n):
        sets += [bit(v), bit(v)]
    fam = SubgraphFamily(sets)
    assert not fam.duplicate_free
    td = single_bag_decomposition(g)
    td2 = blob_decomposition(g, td, fam)
    blob = blob_graph(g, fam)
    assert blob == matching_join(n)
    assert validate_decomposition(blob, td2) == []
    met = decomposition_metrics(g, td)
    met2 = decomposition_metrics(blob, td2)
    assert met.mu == 1
    assert met2.alpha == n  # not bounded by mu: the hypothesis is needed


def test_blob_decomposition_transfer_bounds():
    rng = Random(33)
    cases = []
    for g in seeded_graphs(90, 20, 4, 9):
        td = heuristic_decomposition(g)
        pieces = shuffled_pieces(rng, g)
        cases.append((g, td, SubgraphFamily(pieces[:8])))
        big = [m for m in pieces if popcount(m) >= 2][:8]
        if big:
            cases.append((g, td, SubgraphFamily(big + big[:2])))  # duplicates allowed here
    expect(blob_transfer(cases))


def test_blob_bags_equal_the_member_scan():
    # the bags built from per-vertex member masks equal the scan of every
    # member for every bag, on seeded families with and without duplicates,
    # under both heuristics and on single bags
    rng = Random(71)
    for g in seeded_graphs(72, 40, 2, 12):
        pieces = shuffled_pieces(rng, g)
        for family in (SubgraphFamily(pieces[: rng.randint(1, 30)]), SubgraphFamily(pieces[:6] + pieces[:3])):
            for td in [heuristic_decomposition(g, s) for s in STRATEGIES] + [single_bag_decomposition(g)]:
                blob = blob_decomposition(g, td, family)
                assert list(blob.bags) == reference_blob_bags(td, family)
                assert (blob.graph_n, blob.tree_edges, blob.root) == (len(family), td.tree_edges, td.root)


def test_blob_decomposition_rejects_bad_members():
    g = path_graph(4)
    td = heuristic_decomposition(g)
    with pytest.raises(InputError):
        blob_decomposition(g, td, SubgraphFamily([0]))
    with pytest.raises(InputError):
        blob_decomposition(g, td, SubgraphFamily([mask_of([0, 3])]))


def test_odd_power_decomposition_p5():
    g = path_graph(5)
    expect(odd_power_transfer([(g, heuristic_decomposition(g), 3)]))


def test_odd_power_decomposition_edgeless():
    g = Graph(4, [])
    td = single_bag_decomposition(g)
    td3 = odd_power_decomposition(g, td, 3)
    assert validate_decomposition(g, td3) == []
    met = decomposition_metrics(g, td3)
    assert met.alpha == 1


def test_odd_power_decomposition_corpus():
    graphs = seeded_graphs(52, 25, 2, 10)
    expect(odd_power_transfer([(g, heuristic_decomposition(g), r) for g in graphs for r in (3, 5)]))


def test_odd_power_rejects_even():
    g = path_graph(3)
    with pytest.raises(InputError, match="even"):
        odd_power_decomposition(g, single_bag_decomposition(g), 2)


def test_induced_minor_small():
    g = complete_graph(3)
    td = single_bag_decomposition(g)
    h, td2, _ = induced_minor_decomposition(g, td, ("contract", 0, 1))
    assert h == complete_graph(2)
    assert validate_decomposition(h, td2) == []
    g2 = Graph(3, [(0, 1)])
    h2, td3, _ = induced_minor_decomposition(g2, single_bag_decomposition(g2), ("delete", 2))
    assert h2 == complete_graph(2)
    assert validate_decomposition(h2, td3) == []


def test_induced_minor_rejects_non_edge():
    g = path_graph(3)
    with pytest.raises(InputError):
        induced_minor_decomposition(g, single_bag_decomposition(g), ("contract", 0, 2))


def test_induced_minor_mu_monotone():
    rng = Random(44)
    graphs = seeded_graphs(66, 30, 3, 9)
    cases = [(g, heuristic_decomposition(g), random_minor_op(rng, g)) for g in graphs]
    expect(minor_keeps_mu(cases))


def test_find_bag_dominated_vertex_small():
    g = path_graph(3)
    td = TreeDecomposition(3, [[0, 1], [1, 2]], [(0, 1)])
    assert find_bag_dominated_vertex(g, td) == (0, 0)
    assert find_bag_dominated_vertex(g, single_bag_decomposition(g))[1] == 0
    with pytest.raises(InputError):
        find_bag_dominated_vertex(Graph(0, []), TreeDecomposition(0, [0], []))


def test_find_bag_dominated_vertex_corpus():
    rng = Random(3)
    graphs = seeded_graphs(8, 200, 1, 9)
    cases = [(g, heuristic_decomposition(g, rng.choice(STRATEGIES))) for g in graphs]
    expect(bag_dominated_vertex(cases))


def test_hypercube4_heuristics_mu_at_least_2():
    expect(width_anchors([()]))  # the anchors include Q4 under both heuristics


def test_matching_join_2_decompositions_mu_at_least_2():
    g = matching_join(2)
    for strategy in ("min-fill", "min-degree"):
        td = heuristic_decomposition(g, strategy)
        assert decomposition_metrics(g, td).mu >= 2
    assert decomposition_metrics(g, single_bag_decomposition(g)).mu >= 2


def test_td_round_trip():
    g = random_graph(8, 0.4, seed=77)
    td = heuristic_decomposition(g)
    text = serialize_td(td)
    back = parse_td(text)
    assert back.bags == td.bags
    assert set(back.tree_edges) == set(td.tree_edges)
    assert serialize_td(back) == text


def test_td_parse_errors():
    with pytest.raises(InputError, match="header"):
        parse_td("b 1 1\n")
    with pytest.raises(InputError, match="line 2: malformed bag line 'b'"):
        parse_td("s td 1 1 2\nb\n")
    with pytest.raises(InputError, match="out of range"):
        parse_td("s td 1 1 2\nb 1 3\n")
    with pytest.raises(InputError, match="declares"):
        parse_td("s td 2 1 2\nb 1 1\n")


def test_td_bag_count_checked_before_allocating():
    # the declared bag count is compared with the bag lines read before any
    # per-bag list is built; the larger value is tried only once the smaller
    # one is known to allocate nothing
    for count in (10**7, 10**9):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=f"declares {count} bags, found 1"):
                parse_td(f"s td {count} 5 5\nb 1 1 2\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_td_vertex_count_checked_before_allocating():
    # a header declaring more vertices than a graph file may declare is
    # refused in parse_graph's words before the bag line's mask is built
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=r"^line 1: header declares 20000000 vertices, above the cap of 32768$"):
            parse_td("s td 1 1 20000000\nb 1 20000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert parse_td(f"s td 1 1 {MAX_VERTICES}\nb 1 {MAX_VERTICES}\n").graph_n == MAX_VERTICES
