"""Tree decompositions: validation, nice form, exact bag metrics, heuristic
construction from elimination orderings, and the decomposition transfers
(blob graph, odd powers, closed neighborhoods, induced minors).

Bag metrics are computed exactly by branch and bound. ``alpha`` is the largest
independent set inside a single bag; ``mu`` is the largest induced matching
whose every edge touches a single bag (edges may have one endpoint outside).
Both searches charge one unit per search node to an ``imtw.errors.Budget``
and fail loudly when it is exhausted, so a caller never silently receives an
under-approximated parameter. The nice form carries the metrics that bound
its bags, and the solvers read their bound from there.
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .bits import bit, bits, lowest_bit, mask_of, popcount, to_tuple
from .errors import Budget, InputError, InvariantError
from .graphs import MAX_VERTICES, Graph, ball_mask, induced_subgraph, touch_rows

DEFAULT_SEARCH_BUDGET = 10**7


class TreeDecomposition:
    """A rooted tree of bags. Nodes are 0..size-1; bags are vertex masks;
    ``tree_edges`` are the tree's edges as (low, high) node pairs."""

    __slots__ = ("graph_n", "bags", "tree_edges", "root", "_order")

    def __init__(self, graph_n, bags, tree_edges, root=0):
        norm = []
        for b in bags:
            m = b if isinstance(b, int) else mask_of(b)
            if m < 0 or m >> graph_n:
                raise InputError(f"bag {m:#x} has members outside 0..{graph_n - 1}")
            norm.append(m)
        if not norm:
            raise InputError("a tree decomposition needs at least one node")
        size = len(norm)
        edges = []
        for u, v in tree_edges:
            if not (0 <= u < size and 0 <= v < size):
                raise InputError(f"tree edge ({u}, {v}) out of range")
            edges.append((u, v) if u <= v else (v, u))
        if not 0 <= root < size:
            raise InputError(f"root {root} out of range")
        self.graph_n = graph_n
        self.bags = tuple(norm)
        self.tree_edges = tuple(edges)
        self.root = root
        self._order = None

    @property
    def size(self):
        return len(self.bags)

    def rooted_order(self):
        """(node, parent) pairs in a DFS preorder from the root that visits
        children in ascending order, computed once per decomposition. Only
        the nodes the root reaches appear."""
        if self._order is None:
            nbrs = [[] for _ in self.bags]
            for u, v in self.tree_edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            out = []
            stack = [(self.root, -1)]
            seen = {self.root}
            while stack:
                t, p = stack.pop()
                out.append((t, p))
                for c in sorted(nbrs[t], reverse=True):
                    if c not in seen:
                        seen.add(c)
                        stack.append((c, t))
            self._order = tuple(out)
        return self._order

    def width(self):
        return max(popcount(b) for b in self.bags) - 1


def validate_decomposition(graph, td):
    """All violated axioms, with witnesses. Empty list means valid.

    One pass over the rooted tree settles coverage and traces: on a
    connected tree, the nodes holding v form a connected subtree exactly
    when one of them has a parent that does not hold v (its top), so a
    vertex with no top is in no bag and one with two or more tops has a
    disconnected trace.
    """
    violations = []
    size = td.size
    if td.graph_n != graph.n:
        violations.append(f"decomposition is over n={td.graph_n}, graph has n={graph.n}")
        return violations
    # tree structure
    if len(set(td.tree_edges)) != len(td.tree_edges):
        violations.append("duplicate tree edges")
    if len(td.tree_edges) != size - 1:
        violations.append(f"{size} nodes need {size - 1} tree edges, found {len(td.tree_edges)}")
    order = td.rooted_order()
    if len(order) != size:
        violations.append("tree is not connected")
    if violations:
        return violations
    # per vertex: the number of tops of its trace, and the union of its bags
    tops = [0] * graph.n
    reach = [0] * graph.n
    bags = td.bags
    for t, p in order:
        bag = bags[t]
        new = bag if p < 0 else bag & ~bags[p]
        for v in bits(bag):
            reach[v] |= bag
            if new >> v & 1:
                tops[v] += 1
    for v in range(graph.n):
        if not tops[v]:
            violations.append(f"vertex {v} is in no bag")
    for u, v in graph.edges:
        if not reach[u] >> v & 1:
            violations.append(f"edge ({u}, {v}) is covered by no bag")
    for v in range(graph.n):
        if tops[v] > 1:
            violations.append(f"trace of vertex {v} is disconnected")
    return violations


# ---------------------------------------------------------------------------
# Nice form

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


class NiceNode(NamedTuple):
    kind: str
    vertex: object  # vertex id for introduce/forget, None otherwise
    bag: int
    children: tuple


class NiceTreeDecomposition:
    """Nice decomposition with leaf/introduce/forget/join nodes.

    ``nodes`` is in bottom-up order: children precede their parent, the root
    is last. Leaf and root bags are empty. ``metrics`` is the
    ``DecompositionMetrics`` that bounds every bag: the solvers read their
    matching or independence bound from it.
    """

    __slots__ = ("graph_n", "nodes", "metrics")

    def __init__(self, graph_n, nodes, metrics):
        self.graph_n = graph_n
        self.nodes = tuple(nodes)
        self.metrics = metrics

    @property
    def size(self):
        return len(self.nodes)

    @property
    def root(self):
        return len(self.nodes) - 1

    def subtree_vertex_masks(self):
        vt = []
        for node in self.nodes:
            m = node.bag
            for c in node.children:
                m |= vt[c]
            vt.append(m)
        return vt

    def to_tree_decomposition(self):
        edges = []
        for i, node in enumerate(self.nodes):
            for c in node.children:
                edges.append((c, i))
        return TreeDecomposition(self.graph_n, [nd.bag for nd in self.nodes], edges, root=self.root)


def make_nice(graph, td, metrics):
    """Convert a valid decomposition to nice form, bounded by ``metrics``.

    ``td`` must be valid for ``graph``: this function does not check it, so
    the caller validates, as ``cli`` does once per command when it loads a
    ``.td`` file; the heuristic and the transfers build valid ones.
    ``metrics`` must bound alpha and mu of td's bags, as
    ``decomposition_metrics(graph, td)`` does. Every produced bag is a subset
    of some original bag, so neither metric can increase and ``metrics``
    bounds the nice form too. Chains introduce/forget vertices in ascending
    id order.
    """
    nodes = []

    def chain(cur_id, cur, to_bag):
        """Forget then introduce, one vertex at a time, to reach to_bag."""
        for kind, rest in ((FORGET, cur & ~to_bag), (INTRODUCE, to_bag & ~cur)):
            while rest:
                low = rest & -rest
                rest ^= low
                cur ^= low
                nodes.append(NiceNode(kind, low.bit_length() - 1, cur, (cur_id,)))
                cur_id = len(nodes) - 1
        return cur_id

    order = td.rooted_order()
    children_map = [[] for _ in range(td.size)]
    for t, p in order:
        if p >= 0:
            children_map[p].append(t)
    top_of = [None] * td.size
    for t, p in reversed(order):
        bag = td.bags[t]
        child_tops = []
        for c in children_map[t]:
            child_tops.append(chain(top_of[c], td.bags[c], bag))
        if not child_tops:
            nodes.append(NiceNode(LEAF, None, 0, ()))
            top_of[t] = chain(len(nodes) - 1, 0, bag)
        else:
            cur = child_tops[0]
            for other in child_tops[1:]:
                nodes.append(NiceNode(JOIN, None, bag, (cur, other)))
                cur = len(nodes) - 1
            top_of[t] = cur
    chain(top_of[td.root], td.bags[td.root], 0)
    return NiceTreeDecomposition(graph.n, nodes, metrics)


# ---------------------------------------------------------------------------
# Exact bag metrics


def clique_cover(adj, pool, limit):
    """The number of cliques in a greedy clique cover of ``pool``, or, as
    soon as the cover passes ``limit``, a count above ``limit``; never more
    than ``|pool|``.

    adj maps vertex -> adjacency mask; only its bits inside ``pool`` are
    read. An independent set has at most one vertex in each clique, so a
    cover of at most ``limit`` cliques proves that the pool's independence
    number is at most ``limit``. Each clique starts from a vertex of least
    degree among those not yet covered, the lowest id among ties, and takes
    the lowest common neighbor until none is left. On the bags of path
    powers, whatever their labels, a vertex of least degree is an end
    vertex, which is simplicial, so the cover is exact there; an order by
    label is not. Each clique costs one pass over the uncovered vertices,
    and at most ``limit + 1`` cliques are taken.
    """
    count = 0
    while pool:
        if count >= limit:
            return count + 1
        start, least, rest = 0, -1, pool
        while rest:
            low = rest & -rest
            rest ^= low
            d = (adj[low.bit_length() - 1] & pool).bit_count()
            if d < least or least < 0:
                start, least = low, d
                if not d:
                    break
        clique = start
        common = adj[start.bit_length() - 1] & pool
        while common:
            low = common & -common
            clique |= low
            common &= adj[low.bit_length() - 1]
        pool &= ~clique
        count += 1
    return count


def _max_independent_set(adj, candidates, budget):
    """Exact maximum independent set over the ``candidates`` mask.

    adj maps vertex -> adjacency mask. Returns (size, witness mask). Wherever
    the pool of a search node falls apart, each connected piece is searched
    on its own, so t disjoint cliques, at the top or below a hub vertex, cost
    t small searches, not one with 2^t leaves. A pick never changes another
    piece's pool, so the union of the pieces' witnesses is the witness one
    search over the whole pool would find.

    A node is pruned when ``found + |pool| <= best``, and otherwise, unless
    a settle below ends it, when ``found + cover(pool) <= best``, with the
    greedy ``clique_cover`` of the pool: an independent set takes at most
    one vertex of each clique. A split piece must likewise beat ``best -
    found - cover(rest)``. Either way the cut subtree holds no set larger
    than the best so far, and a witness changes only on a strictly larger
    set, so the nodes that remain are visited in the same order, the witness
    is the one the search without the cover finds, and no search spends
    more budget units.
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
        if found + clique_cover(adj, pool, best_size - found) <= best_size:
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
            # a cover that passes best - found leaves a negative bar, and
            # every negative bar lets the piece search run in full alike
            bar = best_size - found - clique_cover(adj, rest, best_size - found)
            nodes, best_size, best_set, resume = [(0, 0, piece)], bar, None, (chosen, found, rest)
            continue
        nodes.append((chosen, found, pool & ~bit(pick)))
        nodes.append((chosen | bit(pick), found + 1, pool & ~(adj[pick] | bit(pick))))


def max_independent_set_in_bag(graph, bag, budget=None):
    budget = budget or Budget(DEFAULT_SEARCH_BUDGET, "search budget exhausted while bag independent set")
    masked = {v: graph.adj_mask(v) & bag for v in bits(bag)}
    return _max_independent_set(masked, bag, budget)


def max_induced_matching_touching(graph, bag, budget=None):
    """Largest induced matching all of whose edges touch ``bag``.

    Reduces to a maximum independent set among the touching edges, where two
    edges conflict when their four endpoints induce a connected subgraph:
    the independent sets of the square of the line graph, with the conflict
    rows from ``touch_rows``. Returns (size, tuple of edges).
    """
    budget = budget or Budget(DEFAULT_SEARCH_BUDGET, "search budget exhausted while bag induced matching")
    # sorted, the touching edges come in the order of ``graph.edges``
    cands = sorted({(min(u, w), max(u, w)) for u in bits(bag) for w in bits(graph.adj_mask(u))})
    size, chosen = _max_independent_set(touch_rows(graph, cands), (1 << len(cands)) - 1, budget)
    return size, tuple(cands[i] for i in bits(chosen))


@dataclass(frozen=True)
class DecompositionMetrics:
    alpha: int
    mu: int
    alpha_witness: tuple  # (node, vertex mask)
    mu_witness: tuple  # (node, edge tuple)


def _matching_rows(adj, held):
    """Rows of the graph H on ``held``, the vertices of a bag X that have a
    neighbor: H adds to the graph, whose rows are ``adj``, an edge st
    wherever N(s) lies inside N[t]. One endpoint in X of each edge of an
    induced matching touching X gives an independent set of H, so a clique
    cover of H on these vertices bounds mu(X). Rows may hold bits outside
    ``held``.

    For s and t not adjacent, N(s) lies inside N[t] when t is adjacent to
    every vertex of N(s), so the vertices over s are the meet of the rows
    of N(s). It is taken once for each class of vertices with one open
    neighborhood (false twins, adjacent in H): a star's leaves cost one
    meet, not one each.
    """
    twins = {}  # open neighborhood -> the held vertices with it
    for v in bits(held):
        twins[adj[v]] = twins.get(adj[v], 0) | bit(v)
    above = {}  # open neighborhood -> the held vertices whose N holds it
    below = {}  # vertex -> the held vertices whose N it holds
    for nbrs, same in twins.items():
        over = held & ~same & ~nbrs
        for y in bits(nbrs):
            if not over:
                break
            over &= adj[y]
        above[nbrs] = over
        for t in bits(over):
            below[t] = below.get(t, 0) | same
    rows = {}
    for nbrs, same in twins.items():
        for v in bits(same):
            rows[v] = nbrs | above[nbrs] | below.get(v, 0) | same & ~bit(v)
    return rows


def _least_touching_edge(adj, held):
    """The smallest edge, as a sorted pair, with an endpoint in ``held``: the
    smallest of the edges from each held vertex to its lowest neighbor."""
    edges = []
    for v in bits(held):
        w = lowest_bit(adj[v])
        edges.append((min(v, w), max(v, w)))
    return min(edges)


def decomposition_metrics(graph, td, budget_limit=DEFAULT_SEARCH_BUDGET):
    """Exact alpha and mu of a decomposition, with witnesses.

    Runs only the bag searches that can raise a running maximum. Three
    bounds hold for every bag X: alpha(G[X]) <= cover(G[X]), the size of a
    greedy ``clique_cover``; mu(X) <= alpha(G[X]), since one endpoint in X
    of each edge of an induced matching touching X gives an independent set
    of G[X]; and mu(X) <= cover(H[X]) for the graph H of ``_matching_rows``.
    So a bag with cover(G[X]) <= mu is skipped (neither maximum can rise);
    its alpha is searched only when cover(G[X]) > alpha or a mu search may
    follow, and its mu only when alpha(G[X]) > mu and cover(H[X]) > mu.
    Where cover(H[X]) is 1, every two touching edges conflict, and the mu
    search would settle at its first node on the smallest touching edge, so
    that edge is returned without a search. Within a search,
    ``_max_independent_set`` prunes with the same cover. A witness changes
    only on a strictly larger value, so the maxima and witnesses are those
    of searching every bag. Every search that runs would also run with the
    covers left out (skipping only bags with |X| <= mu, and mu searches
    where alpha(G[X]) <= mu), and spends no more units there, so none can
    newly blow its budget.

    Each search runs on a ``Budget`` of its own of ``budget_limit`` units,
    one per search node, whose overrun raises ResourceLimitError naming the
    bag and the search; a bag's mu exceeding its alpha raises
    InvariantError.
    """
    alpha, mu = 0, 0
    alpha_witness, mu_witness = (0, 0), (0, ())
    adj = [graph.adj_mask(v) for v in range(graph.n)]
    linked = mask_of(v for v, nbrs in enumerate(adj) if nbrs)
    for t, bag in enumerate(td.bags):
        # until a bag is searched (alpha 0), a cover is 0 only on an empty bag
        cover = clique_cover(adj, bag, alpha) if alpha else min(bag, 1)
        if cover <= mu:
            continue
        held = bag & linked
        matching_cover = clique_cover(_matching_rows(adj, held), held, max(mu, 1))
        if cover <= alpha and matching_cover <= mu:
            continue
        overrun = f"bag {t} too large for exact search: search budget exhausted while"
        a, a_set = max_independent_set_in_bag(graph, bag, Budget(budget_limit, f"{overrun} alpha of bag {t}"))
        if a <= mu or matching_cover <= mu:
            m, m_edges = 0, ()
        elif matching_cover == 1:
            m, m_edges = 1, (_least_touching_edge(adj, held),)
        else:
            m, m_edges = max_induced_matching_touching(graph, bag, Budget(budget_limit, f"{overrun} mu of bag {t}"))
        if m > a:
            raise InvariantError(f"mu={m} exceeds alpha={a} at bag {t}")
        if a > alpha:
            alpha, alpha_witness = a, (t, a_set)
        if m > mu:
            mu, mu_witness = m, (t, m_edges)
    return DecompositionMetrics(alpha, mu, alpha_witness, mu_witness)


# ---------------------------------------------------------------------------
# Heuristic construction


def _cost(work, alive, v, strategy):
    """Greedy cost of eliminating v now: its alive degree for min-degree, the
    number of non-adjacent pairs among its alive neighbors for min-fill,
    counted by peeling the lowest neighbor off and counting the higher ones
    it misses."""
    nbrs = work[v] & alive
    if strategy == "min-degree":
        return popcount(nbrs)
    fill = 0
    while nbrs:
        low = nbrs & -nbrs
        nbrs ^= low
        fill += popcount(nbrs & ~work[low.bit_length() - 1])
    return fill


def _elimination_order(graph, strategy):
    work = [graph.adj_mask(v) for v in range(graph.n)]
    alive = graph.vertex_mask()
    cost = [_cost(work, alive, v, strategy) for v in range(graph.n)]
    # every alive vertex has an entry holding its current cost, so the first
    # live entry popped is the lowest-cost vertex, lowest id among ties
    heap = [(c, v) for v, c in enumerate(cost)]
    heapify(heap)
    order = []
    while heap:
        c, v = heappop(heap)
        if not alive >> v & 1 or c != cost[v]:
            continue
        nbrs = work[v] & alive
        for u in bits(nbrs):
            work[u] |= nbrs & ~bit(u)
        order.append(v)
        alive &= ~bit(v)
        # only the neighbors lose v and gain fill edges; a min-fill cost also
        # counts the edges among a vertex's neighbors, so the new fill edges
        # reach every alive neighbor of a neighbor as well. A min-fill cost
        # of 0 means N(v) is a clique: no fill edge, and only N(v) changes.
        dirty = nbrs
        if strategy == "min-fill" and c:
            for u in bits(nbrs):
                dirty |= work[u]
            dirty &= alive
        for u in bits(dirty):
            c = _cost(work, alive, u, strategy)
            if c != cost[u]:
                cost[u] = c
                heappush(heap, (c, u))
    return order, work


def heuristic_decomposition(graph, strategy="min-fill"):
    """Decomposition from a greedy elimination ordering.

    Bag i holds vertex order[i] plus its not-yet-eliminated fill neighbors;
    node i hangs below the node of its earliest-eliminated such neighbor.
    Each step eliminates an alive vertex of least cost, the lowest vertex id
    among ties. Costs sit in a heap with lazy deletion and are recomputed
    only where an elimination can change them: for min-degree at the
    neighbors N(v) of the eliminated vertex v, for min-fill at N(v) and the
    alive neighbors of N(v), taken after v's fill edges are added. A
    min-fill elimination of cost 0 (v simplicial: N(v) is a clique) adds no
    fill edge, so there only N(v), which loses v, is re-costed.
    """
    if strategy not in ("min-degree", "min-fill"):
        raise InputError(f"unknown strategy {strategy!r}")
    if graph.n == 0:
        raise InputError("cannot decompose the null graph")
    order, fill_adj = _elimination_order(graph, strategy)
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    edges = []
    for i, v in enumerate(order):
        later = [u for u in bits(fill_adj[v]) if pos[u] > i]
        bags.append(bit(v) | mask_of(later))
        if later:
            edges.append((i, min(pos[u] for u in later)))
        elif i + 1 < len(order):
            edges.append((i, i + 1))
    return TreeDecomposition(graph.n, bags, edges, root=0)


def single_bag_decomposition(graph):
    return TreeDecomposition(graph.n, [graph.vertex_mask()], [], root=0)


# ---------------------------------------------------------------------------
# Transfers


def closed_neighborhood_expansion(graph, td):
    """Replace every bag X by N[X]; stays a valid decomposition."""
    bags = [graph.closed_neighborhood_of_set(b) for b in td.bags]
    return TreeDecomposition(graph.n, bags, td.tree_edges, td.root)


def blob_decomposition(graph, td, family):
    """Transfer a decomposition of the graph to its blob graph.

    Bag t of the result holds the indices of members meeting bag t: the OR,
    over bag t's vertices, of the members holding each vertex. When the
    family has no duplicates the mu metric cannot grow; when every member has
    at least two vertices the alpha of the result is at most the original mu.
    """
    family.require_valid_members(graph)
    holding = [0] * graph.n  # vertex -> mask of the members holding it
    for j, member in enumerate(family.members):
        for v in bits(member.vertices):
            holding[v] |= bit(j)
    bags = []
    for b in td.bags:
        members = 0
        for v in bits(b):
            members |= holding[v]
        bags.append(members)
    return TreeDecomposition(len(family.members), bags, td.tree_edges, td.root)


def odd_power_decomposition(graph, td, r):
    """Decomposition of the r-th power (odd r) with alpha bounded by mu.

    Bags of non-isolated vertices grow to their distance-(r-1)/2 balls around
    the old bags; every isolated vertex moves to a private bag hung off the
    root, which keeps the alpha bound intact on graphs that have an edge.
    """
    if r < 1 or r % 2 == 0:
        raise InputError(
            f"power transfer needs odd r, got {r}: even powers admit no such transfer"
        )
    d = (r - 1) // 2
    isolated = mask_of(v for v in range(graph.n) if graph.degree(v) == 0)
    ball = [ball_mask(graph, v, d) for v in range(graph.n)]
    bags = []
    for b in td.bags:
        grown = 0
        for u in bits(b & ~isolated):
            grown |= ball[u]
        # a ball around a non-isolated vertex stays inside its component,
        # so no isolated vertex can enter this way
        bags.append(grown)
    edges = list(td.tree_edges)
    for w in bits(isolated):
        bags.append(bit(w))
        edges.append((td.root, len(bags) - 1))
    return TreeDecomposition(graph.n, bags, edges, td.root)


def induced_minor_decomposition(graph, td, op):
    """Apply a vertex deletion or edge contraction to graph and decomposition.

    op is ("delete", v) or ("contract", u, v) with uv an edge. Returns the new
    graph, its decomposition on the same tree, and the old->new vertex map
    (contractions map both endpoints to the merged vertex, placed last).
    """
    if op[0] == "delete":
        v = op[1]
        if not 0 <= v < graph.n:
            raise InputError(f"vertex {v} out of range")
        new_graph, mapping = induced_subgraph(graph, graph.vertex_mask() & ~bit(v))
        bags = [mask_of(mapping[u] for u in to_tuple(b) if u != v) for b in td.bags]
    elif op[0] == "contract":
        u, v = op[1], op[2]
        if not graph.has_edge(u, v):
            raise InputError(f"cannot contract non-edge ({u}, {v})")
        keep = [w for w in range(graph.n) if w not in (u, v)]
        mapping = {old: new for new, old in enumerate(keep)}
        z = graph.n - 2
        mapping[u] = mapping[v] = z
        edges = []
        for a, b in graph.edges:
            na, nb = mapping[a], mapping[b]
            if na != nb:
                edges.append((na, nb))
        new_graph = Graph(graph.n - 1, edges)
        bags = []
        for b in td.bags:
            members = {mapping[w] for w in to_tuple(b)}
            bags.append(mask_of(members))
    else:
        raise InputError(f"unknown induced-minor operation {op!r}")
    return new_graph, TreeDecomposition(new_graph.n, bags, td.tree_edges, td.root), mapping


def find_bag_dominated_vertex(graph, td):
    """Some (vertex, node) with N[v] inside the node's bag.

    Every valid decomposition has one; scanning order makes the witness
    deterministic (lowest node, then lowest vertex).
    """
    if graph.n == 0:
        raise InputError("null graph has no vertices")
    for t, bag in enumerate(td.bags):
        for v in bits(bag):
            if graph.closed_mask(v) & ~bag == 0:
                return v, t
    raise InvariantError("no bag contains a closed neighborhood; decomposition must be invalid")


# ---------------------------------------------------------------------------
# PACE-style text format


def parse_td(text):
    """Parse the ``s td`` format; bag ids are 1-based, root is bag 1. A
    header declaring more than ``graphs.MAX_VERTICES`` vertices is refused,
    as ``parse_graph`` refuses it, before any bag mask is built."""
    header = None
    bags = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise InputError("duplicate header", line=lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise InputError(f"malformed header {line!r}", line=lineno)
            try:
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError:
                raise InputError(f"malformed header {line!r}", line=lineno) from None
            if header[2] > MAX_VERTICES:
                raise InputError(
                    f"header declares {header[2]} vertices, above the cap of {MAX_VERTICES}", line=lineno
                )
        elif parts[0] == "b":
            if header is None:
                raise InputError("bag line before header", line=lineno)
            if len(parts) < 2:
                raise InputError(f"malformed bag line {line!r}", line=lineno)
            try:
                bag_id = int(parts[1])
                members = [int(x) for x in parts[2:]]
            except ValueError:
                raise InputError(f"malformed bag line {line!r}", line=lineno) from None
            if bag_id in bags:
                raise InputError(f"duplicate bag id {bag_id}", line=lineno)
            if not 1 <= bag_id <= header[0]:
                raise InputError(f"bag id {bag_id} out of range", line=lineno)
            for v in members:
                if not 1 <= v <= header[2]:
                    raise InputError(f"bag member {v} out of range", line=lineno)
            bags[bag_id] = mask_of(v - 1 for v in members)
        else:
            if header is None:
                raise InputError("edge line before header", line=lineno)
            if len(parts) != 2:
                raise InputError(f"malformed tree edge {line!r}", line=lineno)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"malformed tree edge {line!r}", line=lineno) from None
            if not (1 <= a <= header[0] and 1 <= b <= header[0]):
                raise InputError(f"tree edge endpoint out of range in {line!r}", line=lineno)
            edges.append((a - 1, b - 1))
    if header is None:
        raise InputError("missing 's td' header")
    count = header[0]
    # bag ids are distinct and within 1..count, so this also means every id
    # from 1 to count has its bag line
    if len(bags) != count:
        raise InputError(f"header declares {count} bags, found {len(bags)}")
    return TreeDecomposition(header[2], [bags[i + 1] for i in range(count)], edges, root=0)


def serialize_td(td):
    width = max(popcount(b) for b in td.bags)
    lines = [f"s td {td.size} {width} {td.graph_n}"]
    for i, b in enumerate(td.bags):
        members = " ".join(str(v + 1) for v in to_tuple(b))
        lines.append(f"b {i + 1} {members}".rstrip())
    for u, v in td.tree_edges:
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
