"""Brute-force references and exact small-instance computations.

Everything here is written for trust, not speed: exhaustive searches with hard
caps, used to anchor the acceptance suite. The elimination-ordering oracle for
the exact width parameters runs a subset dynamic program equivalent to trying
all n! orderings: the bag created by eliminating v after the set S is
{v} plus the vertices reachable from v through S, which depends only on
(S, v), so orderings collapse into 2^n states. ``elimination_search`` runs
it for the oracle and for ``packing.treewidth_at_most``, computing each
bag's cost once per bag mask; it skips a vertex whose bag costs more than
``upper``, and a state stops at its first completion costing at most ``lower``.

Correctness of the ordering oracle: completing the bags of any tree
decomposition yields a chordal supergraph whose maximal cliques sit inside
original bags; both bag metrics are monotone under taking subsets, and the
elimination fill of the graph along a perfect elimination ordering of that
supergraph stays inside its cliques. Hence the minimum over orderings equals
the minimum over all decompositions, for each metric independently.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import inf

from .bits import bit, bits, mask_of, popcount, submasks, to_tuple
from .errors import InvariantError, ResourceLimitError
from .graphs import line_graph_square

MWIS_CAP = 24
FOREST_CAP = 20
FOREST_ENUM_CAP = 15
WIDTH_CAP = 9
MATCHING_EDGE_CAP = 28


def brute_mwis(graph, weights, cap=MWIS_CAP):
    """Exact maximum weight independent set by branching on the lowest
    vertex: the canonical optimum, since a tie keeps the branch that holds
    that vertex."""
    if graph.n > cap:
        raise ResourceLimitError(f"brute MWIS capped at n={cap}, got {graph.n}")
    adj = [graph.adj_mask(v) for v in range(graph.n)]

    def solve(pool):
        if pool == 0:
            return Fraction(0), 0
        v = (pool & -pool).bit_length() - 1
        w_out, s_out = solve(pool & ~bit(v))
        w_in, s_in = solve(pool & ~(adj[v] | bit(v)))
        w_in += weights[v]
        if w_in >= w_out:
            return w_in, s_in | bit(v)
        return w_out, s_out

    return solve(graph.vertex_mask())


def is_induced_forest(graph, mask):
    """Acyclicity of the induced subgraph: edges = vertices - components."""
    return graph.count_edges_within(mask) == popcount(mask) - len(graph.components_within(mask))


def find_cycle_within(graph, mask):
    """Vertices of some cycle in the induced subgraph, or None."""
    parent = {}
    for start in bits(mask):
        if start in parent:
            continue
        parent[start] = -1
        stack = [(start, -1)]
        while stack:
            v, p = stack.pop()
            for u in bits(graph.adj_mask(v) & mask):
                if u == p:
                    continue
                if u in parent:
                    # walk both branches up to the root; the cycle closes at u
                    path_v = [v]
                    x = v
                    while x != start:
                        x = parent[x]
                        path_v.append(x)
                    path_u = [u]
                    x = u
                    while x != start:
                        x = parent[x]
                        path_u.append(x)
                    common = set(path_v) & set(path_u)
                    cut_v = next(i for i, x in enumerate(path_v) if x in common)
                    join = path_v[cut_v]
                    cut_u = path_u.index(join)
                    return path_v[: cut_v + 1] + path_u[:cut_u][::-1]
                parent[u] = v
                stack.append((u, v))
    return None


def is_bipartite_within(graph, mask):
    """Two-colouring of the induced subgraph by search, independent of the type algebras."""
    color = {}
    for start in bits(mask):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in bits(graph.adj_mask(v) & mask):
                if u not in color:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def max_degree_within(graph, mask):
    return max((popcount(graph.adj_mask(v) & mask) for v in bits(mask)), default=0)


def clique_number_within(graph, mask):
    """Largest clique of the induced subgraph, by trying every vertex subset."""
    members = to_tuple(mask)
    return max(
        (
            size
            for size in range(len(members) + 1)
            for combo in combinations(members, size)
            if all(graph.has_edge(u, v) for u, v in combinations(combo, 2))
        ),
        default=0,
    )


def brute_best(graph, weights, predicate):
    """(weight, mask) of the heaviest vertex set satisfying ``predicate``,
    by scanning every subset; (0, 0) when none does. Of equally heavy sets
    it keeps the canonical one, whose indicator read up from vertex 0 is the
    largest: the one holding the lowest vertex that only one of them holds."""
    best, best_set = Fraction(0), 0
    for m in submasks(graph.vertex_mask()):
        if predicate(m):
            w = weights.of_set(m)
            differ = m ^ best_set
            if w > best or (w == best and m & differ & -differ):
                best, best_set = w, m
    return best, best_set


def brute_max_weight_induced_forest(graph, weights, cap=FOREST_CAP):
    """Exact maximum weight vertex set inducing a forest, the canonical one.

    Branches vertex by vertex; including a vertex must not close a cycle among
    the chosen set, tracked with a union-find snapshot per level. The branch
    that includes a vertex goes first, so sets are reached in the canonical
    order and the first of the heaviest is kept.
    """
    if graph.n > cap:
        raise ResourceLimitError(f"brute induced forest capped at n={cap}, got {graph.n}")
    n = graph.n
    total = [Fraction(0)] * (n + 1)
    for v in range(n - 1, -1, -1):
        total[v] = total[v + 1] + weights[v]
    best_w = Fraction(-1)
    best_set = 0

    def rec(v, chosen, weight, uf):
        nonlocal best_w, best_set
        if weight + total[v] <= best_w:
            return
        if v == n:
            if weight > best_w:
                best_w, best_set = weight, chosen
            return
        # include v when its chosen neighbors sit in distinct components
        nbrs = graph.adj_mask(v) & chosen
        roots = set()
        ok = True
        for u in bits(nbrs):
            r = u
            while uf[r] != r:
                r = uf[r]
            if r in roots:
                ok = False
                break
            roots.add(r)
        if ok:
            uf2 = dict(uf)
            uf2[v] = v
            for r in roots:
                uf2[r] = v
            rec(v + 1, chosen | bit(v), weight + weights[v], uf2)
        rec(v + 1, chosen, weight, uf)

    rec(0, 0, Fraction(0), {})
    return best_w, best_set


def enumerate_maximal_induced_forests(graph, cap=FOREST_ENUM_CAP):
    """All inclusion-maximal forest-inducing vertex sets, canonically ordered."""
    if graph.n > cap:
        raise ResourceLimitError(f"forest enumeration capped at n={cap}, got {graph.n}")
    full = graph.vertex_mask()
    forests = [m for m in submasks(full) if is_induced_forest(graph, m)]
    forest_set = set(forests)
    out = []
    for m in forests:
        if all(m | bit(v) not in forest_set for v in bits(full & ~m)):
            out.append(m)
    return sorted(out, key=to_tuple)


def brute_induced_matching_touching(graph, bag, cap=MATCHING_EDGE_CAP):
    """Maximum induced matching among edges with an endpoint in ``bag``.

    Straight include/exclude recursion over the touching edges. Returns
    (size, tuple of edges).
    """
    bag_mask = bag if isinstance(bag, int) else mask_of(bag)
    cands = [e for e in graph.edges if (bit(e[0]) | bit(e[1])) & bag_mask]
    if len(cands) > cap:
        raise ResourceLimitError(f"matching oracle capped at {cap} candidate edges, got {len(cands)}")
    masks = [bit(u) | bit(v) for u, v in cands]
    covers = [graph.neighborhood_of_set(m) | m for m in masks]
    k = len(cands)
    best = (0, ())

    def rec(i, chosen_idx, blocked):
        nonlocal best
        if len(chosen_idx) + (k - i) <= best[0]:
            return
        if i == k:
            if len(chosen_idx) > best[0]:
                best = (len(chosen_idx), tuple(cands[j] for j in chosen_idx))
            return
        if not masks[i] & blocked:
            rec(i + 1, chosen_idx + [i], blocked | covers[i])
        rec(i + 1, chosen_idx, blocked)

    rec(0, [], 0)
    return best


# ---------------------------------------------------------------------------
# Exact width parameters


@dataclass(frozen=True)
class ExactWidths:
    tree_alpha: int
    tree_mu: int
    treewidth: int
    alpha_ordering: tuple
    mu_ordering: tuple
    treewidth_ordering: tuple

    def __post_init__(self):
        if not self.tree_mu <= self.tree_alpha <= self.treewidth + 1:
            raise InvariantError(
                f"width chain violated: mu={self.tree_mu} alpha={self.tree_alpha} tw={self.treewidth}"
            )


def _elimination_bag(adj, eliminated, v):
    """{v} plus vertices reachable from v via paths inside ``eliminated``;
    ``adj`` lists each vertex's adjacency mask."""
    bag = seen = bit(v)
    frontier = adj[v]
    while frontier:
        fresh = frontier & ~seen
        seen |= fresh
        bag |= fresh & ~eliminated
        nxt = 0
        for u in bits(fresh & eliminated):
            nxt |= adj[u]
        frontier = nxt & ~seen
    return bag


def elimination_search(graph, bag_cost, lower=-1, upper=inf):
    """(cost, ordering): the least maximum bag cost over the elimination
    orderings whose every bag costs at most ``upper``, with a witness, or
    (None, None) if there is none. A prefix stops at its first completion
    of cost at most ``lower``. Of equally cheap vertices the lowest is kept."""
    adj = [graph.adj_mask(v) for v in range(graph.n)]
    full = graph.vertex_mask()
    costs = {}
    memo = {full: 0}
    choice = {}

    def best(eliminated):
        if eliminated in memo:
            return memo[eliminated]
        value = arg = None
        for v in bits(full & ~eliminated):
            bag = _elimination_bag(adj, eliminated, v)
            cost = costs.get(bag)
            if cost is None:
                cost = costs[bag] = bag_cost(bag)
            if cost > upper:
                continue
            rest = best(eliminated | bit(v))
            if rest is None:
                continue
            if rest > cost:
                cost = rest
            if value is None or cost < value:
                value, arg = cost, v
                if value <= lower:
                    break
        memo[eliminated] = value
        choice[eliminated] = arg
        return value

    result = best(0)
    if result is None:
        return None, None
    ordering = []
    s = 0
    while s != full:
        v = choice[s]
        ordering.append(v)
        s |= bit(v)
    return result, tuple(ordering)


def exact_width_parameters(graph, cap=WIDTH_CAP):
    """Exact tree-alpha, tree-mu, and treewidth by the ordering oracle."""
    if graph.n > cap:
        raise ResourceLimitError(f"exact widths capped at n={cap}, got {graph.n}")
    if graph.n == 0:
        return ExactWidths(0, 0, -1, (), (), ())

    def alpha_cost(bag):
        size, _ = _exact_mis_size(graph, bag)
        return size

    def mu_cost(bag):
        # the n <= 9 cap on this oracle is the real guard; a K9 input has 36
        # edges, above the matching helper's default candidate cap
        size, _ = brute_induced_matching_touching(graph, bag, cap=max(MATCHING_EDGE_CAP, graph.m))
        return size

    alpha, alpha_ord = elimination_search(graph, alpha_cost)
    mu, mu_ord = elimination_search(graph, mu_cost)
    tw, tw_ord = elimination_search(graph, lambda bag: popcount(bag) - 1)
    return ExactWidths(alpha, mu, tw, alpha_ord, mu_ord, tw_ord)


def _exact_mis_size(graph, mask):
    """Small exact MIS by lowest-vertex branching (independent of decomp's search)."""

    def solve(pool):
        if pool == 0:
            return 0, 0
        v = (pool & -pool).bit_length() - 1
        out_sz, out_set = solve(pool & ~bit(v))
        in_sz, in_set = solve(pool & ~(graph.adj_mask(v) | bit(v)))
        in_sz += 1
        if in_sz > out_sz:
            return in_sz, in_set | bit(v)
        return out_sz, out_set

    return solve(mask)


# ---------------------------------------------------------------------------
# Chordality and the recognition of induced matching treewidth <= 1


def chordality_test(graph):
    """Maximum cardinality search plus the standard elimination check.

    Returns (True, perfect elimination ordering) or (False, hole) where the
    hole is an induced cycle with at least four vertices.
    """
    n = graph.n
    if n == 0:
        return True, ()
    weight = [0] * n
    visited = 0
    mcs = []
    for _ in range(n):
        v = max((u for u in range(n) if not visited & bit(u)), key=lambda u: (weight[u], -u))
        mcs.append(v)
        visited |= bit(v)
        for u in bits(graph.adj_mask(v) & ~visited):
            weight[u] += 1
    peo = mcs[::-1]
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [u for u in graph.neighbors(v) if pos[u] > pos[v]]
        if not later:
            continue
        w = min(later, key=lambda u: pos[u])
        for u in later:
            if u != w and not graph.has_edge(u, w):
                return False, _find_hole(graph)
    return True, tuple(peo)


def _find_hole(graph):
    """Some induced cycle with at least four vertices; the graph must have one.

    For every path u-v-w with uw a non-edge, a shortest u-w path that avoids
    the rest of N[v] is induced, and closing it through v gives a hole. Any
    hole of the graph is found this way from three consecutive hole vertices.
    """
    for v in range(graph.n):
        nbrs = graph.neighbors(v)
        for u, w in combinations(nbrs, 2):
            if graph.has_edge(u, w):
                continue
            banned = graph.closed_mask(v) & ~(bit(u) | bit(w))
            prev = {u: None}
            queue = [u]
            while queue and w not in prev:
                nxt = []
                for x in queue:
                    for y in bits(graph.adj_mask(x) & ~banned):
                        if y not in prev:
                            prev[y] = x
                            nxt.append(y)
                queue = nxt
            if w not in prev:
                continue
            path = []
            x = w
            while x is not None:
                path.append(x)
                x = prev[x]
            return tuple([v] + path[::-1])
    raise InvariantError("failed elimination check but no hole found; search is buggy")


def recognize_imtw_at_most_1(graph):
    """Induced matching treewidth <= 1 iff the square of the line graph is chordal."""
    square, _ = line_graph_square(graph)
    ok, _ = chordality_test(square)
    return ok
