"""Shared helpers: seeded test corpora, the assertion that a claim held,
spies on the DP driver and its family callable, a fixture and a loop that
make run_nice_dp filter every node, and the references: the per-state DP
driver, the forest join,
the generic DP's introduce, the decomposition check, the blob bags, the
bag search, the exact-width oracle, the treewidth decision and the chordal
completion."""

from functools import cache
from inspect import signature
from math import inf
from random import Random

import pytest

from imtw import nicedp
from imtw.bits import bit, bits, lowest_bit, mask_of, popcount
from imtw.boundaried import BoundariedGraph
from imtw.forest import canonical_blocks
from imtw.decomp import decomposition_metrics, heuristic_decomposition, make_nice
from imtw.graphs import Graph, WeightMap, induced_subgraph, random_graph
from imtw.nicedp import run_nice_dp
from imtw.oracles import (
    MATCHING_EDGE_CAP,
    ExactWidths,
    _exact_mis_size,
    brute_induced_matching_touching,
    is_induced_forest,
)
from imtw.verify import STRATEGIES, prepare


def expect(*checks):
    """Assert that every check ran at least once and never failed."""
    for check in checks:
        assert check.ok, check.as_dict()


def seeded_graphs(seed, count, n_lo, n_hi, ps=(0.2, 0.5)):
    rng = Random(seed)
    out = []
    for i in range(count):
        n = n_lo + (i % (n_hi - n_lo + 1))
        out.append(random_graph(n, ps[i % len(ps)], seed=rng.randrange(2**32)))
    return out


def measured_nice(graph, td):
    """The nice form of ``td``, bounded by the metrics measured on ``td``."""
    return make_nice(graph, td, decomposition_metrics(graph, td))


def solver_cases(graphs, weight_seed=None, max_weight=None, pick_strategy=False):
    """Prepared (graph, weights, td, metrics, nice) cases.

    Unit weights and min-fill unless a weight seed is given; then each graph
    draws its weights, and its strategy when ``pick_strategy``, from that seed.
    """
    rng = Random(weight_seed)
    cases = []
    for g in graphs:
        if weight_seed is None:
            w = WeightMap.unit(g.n)
        else:
            w = WeightMap([rng.randint(0, max_weight) for _ in range(g.n)])
        strategy = rng.choice(STRATEGIES) if pick_strategy else "min-fill"
        cases.append(prepare(g, w, heuristic_decomposition(g, strategy)))
    return cases


def driver_spy(wrap, results=None, driver=run_nice_dp):
    """A stand-in for ``run_nice_dp`` that runs ``driver``: ``wrap`` sees its
    arguments by name and may replace them. When ``results`` is given, each
    run appends the list of every table the driver yields, one per node in
    node order: the spy keeps the tables that the driver lets go of."""

    def spy(*args, **kwargs):
        arguments = signature(run_nice_dp).bind(*args, **kwargs).arguments
        wrap(arguments)
        tables = driver(**arguments)
        if results is not None:
            results.append(tables := list(tables))
        return iter(tables)

    return spy


class RecordedFamily:
    """A node's family that logs each membership test as (node, state, kept)."""

    def __init__(self, i, members, log):
        self.i, self.members, self.log = i, members, log

    def __contains__(self, state):
        kept = state in self.members
        self.log.append((self.i, state, kept))
        return kept


def recorded_families(families, log):
    """The driver's family callable with node i's family wrapped in a
    ``RecordedFamily`` that logs to ``log`` as node i."""
    return lambda i: RecordedFamily(i, families(i), log)


def reference_run_nice_dp(nice_td, empty, bag_part, add, drop, merge, weights, budget, families=None):
    """The DP driver that enters every candidate state one at a time, the
    reference for ``nicedp.run_nice_dp``: a node's candidates come from a
    generator of its kind, and each new state is tested against the node's
    family once that is built and charged one budget unit as it enters. The
    family is built when a new state would take the table past
    ``nicedp.FILTER_FROM`` states, or at the first state when a child was
    filtered, and the states it rejects are then dropped from the table."""
    ints = nicedp._values(weights)
    frontier, filtered = {}, set()
    for i, node in enumerate(nice_td.nodes):
        children = [frontier.pop(c) for c in node.children]
        if node.kind == "join":
            candidates = nicedp._join_candidates(*children, bag_part, merge, ints)
        elif node.kind == "leaf":
            candidates = ((empty, 0),)
        elif node.kind == "introduce":
            candidates = _introduce_candidates(*children, node.vertex, add, ints)
        else:
            candidates = _forget_candidates(*children, node.vertex, bag_part, drop)
        table = frontier[i] = {}
        members = None
        if families is None:
            limit = inf
        elif not filtered.isdisjoint(node.children):
            limit = 0
        else:
            limit = nicedp.FILTER_FROM
        for state, value in candidates:
            if members is not None and state not in members:
                continue
            cur = table.get(state)
            if cur is None:
                if len(table) >= limit:
                    members, limit = families(i), inf
                    filtered.add(i)
                    for rejected in [s for s in table if s not in members]:
                        del table[rejected]
                    if state not in members:
                        continue
                budget.spend()
            elif value <= cur:
                continue
            table[state] = value
        yield table


def _introduce_candidates(child, v, add, ints):
    for state, value in child.items():
        yield state, value
        grown = add(v, state)
        if grown is not None:
            yield grown, value + ints[v]


def _forget_candidates(child, v, bag_part, drop):
    for state, value in child.items():
        yield (drop(v, state) if bag_part(state) & bit(v) else state), value


def at_each_threshold(monkeypatch):
    """Set ``nicedp.FILTER_FROM`` to its default and then to 0, yielding
    after each, so a test's checks run both as shipped and on the filtered
    path that small instances never reach at the default."""
    for filter_from in (nicedp.FILTER_FROM, 0):
        monkeypatch.setattr(nicedp, "FILTER_FROM", filter_from)
        yield filter_from


@pytest.fixture
def filter_everywhere(monkeypatch):
    """Every node's family built before its first state: the filtered path
    that tests pinning filter work measure."""
    monkeypatch.setattr(nicedp, "FILTER_FROM", 0)


def reference_merge_partitions(z, components, blocks1, blocks2):
    """The forest join on blocks, the reference for the mask merge of
    ``forest.merge_partitions``: union-find on the bipartite incidence graph
    with one node per block on each side and one edge per component of G[Z].
    Any repeated edge or cycle means the two partial forests close a cycle
    together, and the result is None; otherwise the blocks are the unions of
    the components falling in one incidence component."""
    index1 = {}
    for i, b in enumerate(blocks1):
        for v in bits(b):
            index1[v] = i
    index2 = {}
    for i, b in enumerate(blocks2):
        for v in bits(b):
            index2[v] = i
    size = len(blocks1) + len(blocks2)
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp_side1 = []
    for comp in components:
        v = lowest_bit(comp)
        a, b = index1[v], len(blocks1) + index2[v]
        ra, rb = find(a), find(b)
        if ra == rb:
            return None
        parent[ra] = rb
        comp_side1.append((comp, a))
    merged = {}
    for comp, a in comp_side1:
        merged.setdefault(find(a), 0)
        merged[find(a)] |= comp
    return canonical_blocks(merged.values())


def reference_introduce(algebra, graph, s_mask, v, tau):
    """The generic DP's introduce of v into the state (S, tau) built from a
    graph, the reference for ``TypeAlgebra.introduce``: glue onto ``tau``
    the type of G[S + v], each vertex u labelled u + 1."""
    g, mapping = induced_subgraph(graph, s_mask | bit(v))
    labeling = {i: u + 1 for u, i in mapping.items()}
    return algebra.glue(algebra.type_of(BoundariedGraph.make(g, labeling, max(graph.n, 1))), tau)


def reference_validate_decomposition(graph, td):
    """The violations of ``td``, the reference for the one-pass check of
    ``decomp.validate_decomposition``: a breadth-first search over the tree
    for its connectivity and, per vertex, over the |T|-bit mask of the
    nodes holding it for the connectivity of its trace."""
    violations = []
    size = td.size
    if td.graph_n != graph.n:
        violations.append(f"decomposition is over n={td.graph_n}, graph has n={graph.n}")
        return violations
    tree = Graph(size, [(u, v) for u, v in td.tree_edges if u != v])
    if len(set(td.tree_edges)) != len(td.tree_edges):
        violations.append("duplicate tree edges")
    if len(td.tree_edges) != size - 1:
        violations.append(f"{size} nodes need {size - 1} tree edges, found {len(td.tree_edges)}")
    if not tree.is_connected_within(tree.vertex_mask()):
        violations.append("tree is not connected")
    if violations:
        return violations
    nodes_of = [0] * graph.n
    for t, b in enumerate(td.bags):
        for v in bits(b):
            nodes_of[v] |= bit(t)
    for v in range(graph.n):
        if not nodes_of[v]:
            violations.append(f"vertex {v} is in no bag")
    for u, v in graph.edges:
        if not nodes_of[u] & nodes_of[v]:
            violations.append(f"edge ({u}, {v}) is covered by no bag")
    for v in range(graph.n):
        if nodes_of[v] and not tree.is_connected_within(nodes_of[v]):
            violations.append(f"trace of vertex {v} is disconnected")
    return violations


def reference_blob_bags(td, family):
    """The bags of ``decomp.blob_decomposition`` by a scan of every member
    for every bag: bag t holds the indices of the members meeting bag t."""
    return [mask_of(j for j, mask in enumerate(family.vertices) if mask & b) for b in td.bags]


# The bag search without the clique-cover bounds, as it was before they
# were added, kept unchanged: the searches with the bounds must return its
# size and witness and spend no more budget units.
def reference_max_independent_set(adj, candidates, budget):
    """Exact maximum independent set over the ``candidates`` mask.

    adj maps vertex -> adjacency mask. Returns (size, witness mask). Wherever
    the pool of a search node falls apart, each connected piece is searched
    on its own, so t disjoint cliques, at the top or below a hub vertex, cost
    t small searches, not one with 2^t leaves. A pick never changes another
    piece's pool, so the union of the pieces' witnesses is the witness one
    search over the whole pool would find.
    """
    # The search in progress: (chosen, found, pool) nodes, the best set so
    # far and its size. The include branch is pushed last, so it is searched
    # before the exclude branch, and the first of several maximum sets found
    # is the witness. A piece split off a pool gets a search of its own,
    # which starts at the size the piece must beat to matter, with best_set
    # None, and suspends the searches below it in ``outer``; when it ends,
    # its witness completes the node ``resume`` = (chosen, found, rest) of
    # the search it was split from.
    nodes, best_size, best_set, resume = [(0, 0, candidates)], 0, 0, None
    outer = []
    while True:
        if not nodes:
            if resume is None:
                return best_size, best_set
            piece_size, piece_set, (chosen, found, rest) = best_size, best_set, resume
            nodes, best_size, best_set, resume = outer.pop()
            if piece_set is not None:
                nodes.append((chosen | piece_set, found + piece_size, rest))
            continue
        chosen, found, pool = nodes.pop()
        budget.spend()
        size = popcount(pool)
        if found + size <= best_size:
            continue
        pick, pick_deg, least_deg = -1, -1, size
        for v in bits(pool):
            d = popcount(adj[v] & pool)
            if d > pick_deg:
                pick, pick_deg = v, d
            if d < least_deg:
                least_deg = d
        if pick_deg <= 1:
            # the pool is a matching plus isolated vertices: the search
            # would first take the lower end of every edge and every
            # isolated vertex, and nothing later in this branch is larger
            for v in bits(pool):
                if adj[v] & pool & (bit(v) - 1):
                    pool &= ~bit(v)
            total = found + popcount(pool)
            if total > best_size:
                best_size, best_set = total, chosen | pool
            continue
        if least_deg == size - 1:
            # the pool is a clique of at least three vertices: the include
            # branch ends at once with the pick alone, and nothing later in
            # this branch is larger
            if found + 1 > best_size:
                best_size, best_set = found + 1, chosen | bit(pick)
            continue
        # the piece of the pool around the pick, grown layer by layer from
        # the new layer's neighbors or from the unreached vertices' (the
        # smaller side), until the pool is all reached or a layer is empty
        frontier = adj[pick] & pool
        piece = frontier | bit(pick)
        rest = pool & ~piece
        while frontier and rest:
            grow = 0
            if popcount(frontier) < popcount(rest):
                for v in bits(frontier):
                    grow |= adj[v]
                frontier = grow & rest
            else:
                for v in bits(rest):
                    if adj[v] & frontier:
                        grow |= bit(v)
                frontier = grow
            piece |= frontier
            rest &= ~frontier
        if rest:
            outer.append((nodes, best_size, best_set, resume))
            bar = best_size - found - popcount(rest)
            nodes, best_size, best_set, resume = [(0, 0, piece)], bar, None, (chosen, found, rest)
            continue
        nodes.append((chosen, found, pool & ~bit(pick)))
        nodes.append((chosen | bit(pick), found + 1, pool & ~(adj[pick] | bit(pick))))


# The exact-width oracle and the ptas treewidth decision as they were before
# both ran ``oracles.elimination_search``, kept unchanged: the shared search
# must return their values, witness orderings included.
def reference_elimination_bag(graph, eliminated, v):
    """{v} plus vertices reachable from v via paths inside ``eliminated``."""
    bag = bit(v)
    frontier = graph.adj_mask(v)
    seen = bit(v)
    while frontier:
        fresh = frontier & ~seen
        seen |= fresh
        bag |= fresh & ~eliminated
        nxt = 0
        for u in bits(fresh & eliminated):
            nxt |= graph.adj_mask(u)
        frontier = nxt & ~seen
    return bag


def reference_min_over_orderings(graph, bag_cost):
    """min over elimination orderings of the max bag cost, plus a witness."""
    n = graph.n
    full = graph.vertex_mask()
    memo = {full: 0}
    choice = {}

    def best(eliminated):
        if eliminated in memo:
            return memo[eliminated]
        value = None
        arg = None
        for v in bits(full & ~eliminated):
            cost = max(bag_cost(reference_elimination_bag(graph, eliminated, v)), best(eliminated | bit(v)))
            if value is None or cost < value:
                value, arg = cost, v
        memo[eliminated] = value
        choice[eliminated] = arg
        return value

    result = best(0)
    ordering = []
    s = 0
    while s != full:
        v = choice[s]
        ordering.append(v)
        s |= bit(v)
    return result, tuple(ordering)


def reference_exact_width_parameters(graph):
    """``oracles.exact_width_parameters`` on ``reference_min_over_orderings``,
    for a graph with at least one vertex. The bag costs are cached per bag
    only to keep the test fast: a cost depends on its bag alone."""

    @cache
    def alpha_cost(bag):
        size, _ = _exact_mis_size(graph, bag)
        return size

    @cache
    def mu_cost(bag):
        size, _ = brute_induced_matching_touching(graph, bag, cap=max(MATCHING_EDGE_CAP, graph.m))
        return size

    alpha, alpha_ord = reference_min_over_orderings(graph, alpha_cost)
    mu, mu_ord = reference_min_over_orderings(graph, mu_cost)
    tw, tw_ord = reference_min_over_orderings(graph, lambda bag: popcount(bag) - 1)
    return ExactWidths(alpha, mu, tw, alpha_ord, mu_ord, tw_ord)


def reference_treewidth_at_most(graph, mask, r):
    """Decide treewidth <= r for the induced subgraph on ``mask``.

    Fast paths for r <= 1; otherwise the subset elimination recurrence on the
    (small) member set.
    """
    k = popcount(mask)
    if k == 0:
        return True
    if r <= 0:
        return graph.count_edges_within(mask) == 0
    if r == 1:
        return is_induced_forest(graph, mask)
    if k <= r + 1:
        return True
    sub, _ = induced_subgraph(graph, mask)
    adj = [sub.adj_mask(i) for i in range(k)]
    full = sub.vertex_mask()
    memo = {full: True}

    def ok(eliminated):
        if eliminated in memo:
            return memo[eliminated]
        result = False
        for i in bits(full & ~eliminated):
            reach = bit(i)
            frontier = adj[i]
            seen = bit(i)
            bagsize = 1
            while frontier:
                fresh = frontier & ~seen
                seen |= fresh
                bagsize += popcount(fresh & ~eliminated)
                nxt = 0
                for j in bits(fresh & eliminated):
                    nxt |= adj[j]
                frontier = nxt & ~seen
            if bagsize <= r + 1 and ok(eliminated | bit(i)):
                result = True
                break
        memo[eliminated] = result
        return result

    return ok(0)


# The chordal completion as it was before ``corpus.chordal_completion`` took
# the fill graph of ``heuristic_decomposition``, kept unchanged: a replay of
# the greedy min-fill elimination, lowest vertex first among equal fill.
def reference_chordal_completion(graph):
    """Greedy min-fill completion; the result is chordal by construction."""
    adj = {v: set(graph.neighbors(v)) for v in range(graph.n)}
    alive = set(range(graph.n))
    extra = []
    while alive:
        def fill_cost(v):
            nbrs = [u for u in adj[v] if u in alive]
            return sum(
                1
                for i, a in enumerate(nbrs)
                for b in nbrs[i + 1 :]
                if b not in adj[a]
            )
        v = min(sorted(alive), key=fill_cost)
        nbrs = [u for u in adj[v] if u in alive]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    extra.append((a, b))
        alive.remove(v)
    return Graph(graph.n, list(graph.edges) + extra)
