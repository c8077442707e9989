"""Boundaried graphs, finite type algebras, and the generic structured DP.

A boundaried graph carries an injective partial labeling of its vertices into
1..ell. Gluing identifies equal labels across two graphs; forgetting a label
keeps the vertex but strips the label. A type algebra compresses a boundaried
graph into a finite value that composes under both operations, so a bottom-up
dynamic program over a nice tree decomposition can optimize any property the
algebra recognizes.

Each algebra's non-rejecting type records the used labels, the adjacency
among labeled vertices, and property-specific state. Recording the boundary
adjacency matters: the two sides of a join both contain the bag-induced
edges, and gluing must not count them twice. A rejecting type is absorbing,
which is sound here because all three properties are closed under taking
subgraphs, so no later gluing can repair a violation.

Connectivity bookkeeping for the forest and bipartite algebras follows the
same star trick: a block of boundary vertices connected through one side's
interior behaves, for cycle and parity purposes, exactly like a star through
a virtual hub vertex.
"""

from dataclasses import dataclass
from math import comb

from .bits import bit, bits, popcount, to_tuple
from .errors import InputError, InvariantError
from .graphs import Graph
from .nicedp import DEFAULT_STATE_BUDGET, chosen_vertices, run_nice_dp
from .oracles import is_induced_forest

REJECT = ("reject",)


def ramsey_upper(a, b):
    """An upper bound on the Ramsey number, exact where small values are known.

    Any upper bound keeps the structured DP sound; it only widens the bound on
    how much of a solution can sit inside one bag.
    """
    if a < 1 or b < 1:
        raise InputError("Ramsey arguments must be positive")
    lo, hi = min(a, b), max(a, b)
    if lo == 1:
        return 1
    if lo == 2:
        return hi
    exact = {(3, 3): 6, (3, 4): 9, (4, 4): 18}
    if (lo, hi) in exact:
        return exact[(lo, hi)]
    return comb(a + b - 2, a - 1)


@dataclass(frozen=True)
class BoundariedGraph:
    graph: Graph
    labeling: tuple  # sorted (vertex, label) pairs
    ell: int

    @classmethod
    def make(cls, graph, labeling, ell):
        pairs = tuple(sorted(dict(labeling).items()))
        labels = [l for _, l in pairs]
        if len(set(labels)) != len(labels):
            raise InputError("labeling must be injective")
        for v, l in pairs:
            if not 0 <= v < graph.n:
                raise InputError(f"labeled vertex {v} outside the graph")
            if not 1 <= l <= ell:
                raise InputError(f"label {l} outside 1..{ell}")
        return cls(graph, pairs, ell)


def glue(b1, b2):
    """Disjoint union with same-label identification; parallel edges collapse."""
    if b1.ell != b2.ell:
        raise InputError("cannot glue boundaried graphs with different label ranges")
    lab1 = dict(b1.labeling)
    lab2 = dict(b2.labeling)
    by_label1 = {l: v for v, l in b1.labeling}
    mapping2 = {}
    next_id = b1.graph.n
    for v in range(b2.graph.n):
        l = lab2.get(v)
        if l is not None and l in by_label1:
            mapping2[v] = by_label1[l]
        else:
            mapping2[v] = next_id
            next_id += 1
    edges = list(b1.graph.edges)
    edges += [(mapping2[u], mapping2[v]) for u, v in b2.graph.edges]
    merged = Graph(next_id, edges)
    labeling = dict(b1.labeling)
    for v, l in b2.labeling:
        labeling[mapping2[v]] = l
    return BoundariedGraph.make(merged, labeling, b1.ell)


def forget_label(b, label):
    labeling = {v: l for v, l in b.labeling if l != label}
    return BoundariedGraph.make(b.graph, labeling, b.ell)


# ---------------------------------------------------------------------------
# Type algebras


def _blocks_canonical(groups):
    return tuple(sorted(tuple(sorted(g)) for g in groups))


def _uf_make():
    return {}


def _uf_find(parent, x):
    root = x
    while parent.setdefault(root, root) != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _uf_union(parent, x, y):
    """Returns False if x and y were already joined (a cycle)."""
    rx, ry = _uf_find(parent, x), _uf_find(parent, y)
    if rx == ry:
        return False
    parent[rx] = ry
    return True


class ForestAlgebra:
    """Accepts exactly the acyclic graphs.

    Type: labels, boundary adjacency, and the partition of labels by
    connectivity avoiding boundary-boundary edges (paths through interiors).
    """

    name = "forest"
    clique_bound = 2

    def holds(self, graph):
        return is_induced_forest(graph, graph.vertex_mask())

    def type_of(self, b):
        if not self.holds(b.graph):
            return REJECT
        lab = dict(b.labeling)
        labels = tuple(sorted(lab[v] for v in lab))
        label_verts = set(lab)
        adj_pairs = set()
        for u, v in b.graph.edges:
            if u in label_verts and v in label_verts:
                adj_pairs.add(tuple(sorted((lab[u], lab[v]))))
        # connectivity without the boundary-boundary edges
        parent = _uf_make()
        for u, v in b.graph.edges:
            if u in label_verts and v in label_verts:
                continue
            _uf_union(parent, u, v)
        groups = {}
        for v, l in b.labeling:
            groups.setdefault(_uf_find(parent, v), []).append(l)
        return ("ok", labels, tuple(sorted(adj_pairs)), _blocks_canonical(groups.values()))

    def glue(self, t1, t2):
        if t1 == REJECT or t2 == REJECT:
            return REJECT
        _, labels1, a1, p1 = t1
        _, labels2, a2, p2 = t2
        labels = tuple(sorted(set(labels1) | set(labels2)))
        adj = tuple(sorted(set(a1) | set(a2)))
        parent = _uf_make()
        acyclic = True
        for side, blocks in enumerate((p1, p2)):
            for bi, block in enumerate(blocks):
                hub = ("hub", side, bi)
                for l in block:
                    acyclic &= _uf_union(parent, ("l", l), hub)
        # A edges close the model; any repeated connection is a cycle
        for a, c in adj:
            acyclic &= _uf_union(parent, ("l", a), ("l", c))
        if not acyclic:
            return REJECT
        # partition without A edges: recompute from the stars alone
        parent2 = _uf_make()
        for side, blocks in enumerate((p1, p2)):
            for bi, block in enumerate(blocks):
                hub = ("hub", side, bi)
                for l in block:
                    _uf_union(parent2, ("l", l), hub)
        groups = {}
        for l in labels:
            groups.setdefault(_uf_find(parent2, ("l", l)), []).append(l)
        return ("ok", labels, adj, _blocks_canonical(groups.values()))

    def forget(self, t, label):
        if t == REJECT:
            return REJECT
        _, labels, adj, blocks = t
        if label not in labels:
            return t
        # the vertex stays: its boundary edges become interior, merging blocks
        parent = _uf_make()
        for bi, block in enumerate(blocks):
            for l in block:
                _uf_union(parent, ("l", l), ("hub", bi))
        for a, c in adj:
            if label in (a, c):
                _uf_union(parent, ("l", a), ("l", c))
        groups = {}
        for l in labels:
            if l != label:
                groups.setdefault(_uf_find(parent, ("l", l)), []).append(l)
        new_labels = tuple(l for l in labels if l != label)
        new_adj = tuple((a, c) for a, c in adj if label not in (a, c))
        return ("ok", new_labels, new_adj, _blocks_canonical(groups.values()))

    def relabel(self, t, mapping):
        if t == REJECT:
            return REJECT
        _, labels, adj, blocks = t
        return (
            "ok",
            tuple(sorted(mapping[l] for l in labels)),
            tuple(sorted(tuple(sorted((mapping[a], mapping[c]))) for a, c in adj)),
            _blocks_canonical(tuple(mapping[l] for l in block) for block in blocks),
        )

    def accepting(self, t):
        return t != REJECT


class BipartiteAlgebra:
    """Accepts exactly the graphs with no odd cycle.

    Type: labels, boundary adjacency, and the blocks of full-graph
    connectivity with each label's color parity relative to its block's
    smallest label.
    """

    name = "bipartite"
    clique_bound = 2

    def holds(self, graph):
        color = {}
        for start in range(graph.n):
            if start in color:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                v = queue.pop()
                for u in bits(graph.adj_mask(v)):
                    if u not in color:
                        color[u] = color[v] ^ 1
                        queue.append(u)
                    elif color[u] == color[v]:
                        return False
        return True

    def type_of(self, b):
        if not self.holds(b.graph):
            return REJECT
        lab = dict(b.labeling)
        label_verts = set(lab)
        labels = tuple(sorted(lab[v] for v in lab))
        adj_pairs = set()
        for u, v in b.graph.edges:
            if u in label_verts and v in label_verts:
                adj_pairs.add(tuple(sorted((lab[u], lab[v]))))
        color = {}
        for start in range(b.graph.n):
            if start in color:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                v = queue.pop()
                for u in bits(b.graph.adj_mask(v)):
                    if u not in color:
                        color[u] = color[v] ^ 1
                        queue.append(u)
        parent = _uf_make()
        for u, v in b.graph.edges:
            _uf_union(parent, u, v)
        groups = {}
        for v, l in b.labeling:
            groups.setdefault(_uf_find(parent, v), []).append((l, color[v]))
        return ("ok", labels, tuple(sorted(adj_pairs)), self._blocks(groups.values()))

    @staticmethod
    def _blocks(groups):
        out = []
        for group in groups:
            group = sorted(group)
            base = group[0][1]
            out.append(tuple((l, p ^ base) for l, p in group))
        return tuple(sorted(out))

    def glue(self, t1, t2):
        if t1 == REJECT or t2 == REJECT:
            return REJECT
        _, labels1, a1, p1 = t1
        _, labels2, a2, p2 = t2
        labels = tuple(sorted(set(labels1) | set(labels2)))
        adj = tuple(sorted(set(a1) | set(a2)))
        # weighted union-find over labels and hubs; weight = parity to root
        parent = {}
        rank_parity = {}

        def find_with_parity(x):
            if x not in parent:
                parent[x] = x
                rank_parity[x] = 0
                return x, 0
            stack = []
            while parent[x] != x:
                stack.append(x)
                x = parent[x]
            parity = 0
            for y in reversed(stack):
                parity ^= rank_parity[y]
                rank_parity[y] = parity
                parent[y] = x
            return x, rank_parity[stack[0]] if stack else 0

        def union(x, y, w):
            rx, px = find_with_parity(x)
            ry, py = find_with_parity(y)
            if rx == ry:
                return (px ^ py) == w
            parent[rx] = ry
            rank_parity[rx] = px ^ py ^ w
            return True

        ok = True
        for side, blocks in enumerate((p1, p2)):
            for bi, block in enumerate(blocks):
                hub = ("hub", side, bi)
                for l, par in block:
                    ok &= union(("l", l), hub, par)
        for a, c in adj:
            ok &= union(("l", a), ("l", c), 1)
        if not ok:
            return REJECT
        groups = {}
        for l in labels:
            root, par = find_with_parity(("l", l))
            groups.setdefault(root, []).append((l, par))
        return ("ok", labels, adj, self._blocks(groups.values()))

    def forget(self, t, label):
        if t == REJECT:
            return REJECT
        _, labels, adj, blocks = t
        if label not in labels:
            return t
        new_labels = tuple(l for l in labels if l != label)
        new_adj = tuple((a, c) for a, c in adj if label not in (a, c))
        groups = []
        for block in blocks:
            kept = [(l, p) for l, p in block if l != label]
            if kept:
                groups.append(kept)
        return ("ok", new_labels, new_adj, self._blocks(groups))

    def relabel(self, t, mapping):
        if t == REJECT:
            return REJECT
        _, labels, adj, blocks = t
        return (
            "ok",
            tuple(sorted(mapping[l] for l in labels)),
            tuple(sorted(tuple(sorted((mapping[a], mapping[c]))) for a, c in adj)),
            self._blocks([[(mapping[l], p) for l, p in block] for block in blocks]),
        )

    def accepting(self, t):
        return t != REJECT


class MaxDegreeAlgebra:
    """Accepts exactly the graphs of maximum degree at most d.

    Type: labels, boundary adjacency, exact degree per label. Gluing adds the
    two degrees and subtracts edges recorded on both sides; unlabeled
    vertices never change degree, so one early check settles them for good.
    """

    def __init__(self, d):
        if d < 0:
            raise InputError("degree bound must be nonnegative")
        self.d = d
        self.name = f"max-degree:{d}"
        self.clique_bound = d + 1

    def holds(self, graph):
        return graph.max_degree() <= self.d

    def type_of(self, b):
        if not self.holds(b.graph):
            return REJECT
        lab = dict(b.labeling)
        label_verts = set(lab)
        labels = tuple(sorted(lab[v] for v in lab))
        adj_pairs = set()
        for u, v in b.graph.edges:
            if u in label_verts and v in label_verts:
                adj_pairs.add(tuple(sorted((lab[u], lab[v]))))
        degs = tuple(sorted((lab[v], b.graph.degree(v)) for v in lab))
        return ("ok", labels, tuple(sorted(adj_pairs)), degs)

    def glue(self, t1, t2):
        if t1 == REJECT or t2 == REJECT:
            return REJECT
        _, labels1, a1, d1 = t1
        _, labels2, a2, d2 = t2
        deg = dict(d1)
        shared = set(a1) & set(a2)
        for l, d in d2:
            if l in deg:
                overlap = sum(1 for a, c in shared if l in (a, c))
                deg[l] = deg[l] + d - overlap
            else:
                deg[l] = d
        if any(v > self.d for v in deg.values()):
            return REJECT
        labels = tuple(sorted(set(labels1) | set(labels2)))
        adj = tuple(sorted(set(a1) | set(a2)))
        return ("ok", labels, adj, tuple(sorted(deg.items())))

    def forget(self, t, label):
        if t == REJECT:
            return REJECT
        _, labels, adj, degs = t
        if label not in labels:
            return t
        return (
            "ok",
            tuple(l for l in labels if l != label),
            tuple((a, c) for a, c in adj if label not in (a, c)),
            tuple((l, d) for l, d in degs if l != label),
        )

    def relabel(self, t, mapping):
        if t == REJECT:
            return REJECT
        _, labels, adj, degs = t
        return (
            "ok",
            tuple(sorted(mapping[l] for l in labels)),
            tuple(sorted(tuple(sorted((mapping[a], mapping[c]))) for a, c in adj)),
            tuple(sorted((mapping[l], d) for l, d in degs)),
        )

    def accepting(self, t):
        return t != REJECT


def builtin_type_algebra(name, ell=None):
    """Algebra by CLI-style name: forest | bipartite | max-degree:<d>."""
    if name == "forest":
        return ForestAlgebra()
    if name == "bipartite":
        return BipartiteAlgebra()
    if name.startswith("max-degree:"):
        try:
            bound = int(name.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad degree bound in {name!r}") from None
        return MaxDegreeAlgebra(bound)
    raise InputError(f"unknown property {name!r}")


# ---------------------------------------------------------------------------
# The generic DP


def generic_structured_dp(
    graph, nice_td, weights, algebra, r, k, state_budget=DEFAULT_STATE_BUDGET
):
    """Maximum weight F with the algebra's property and clique number <= r.

    k must be at least the decomposition's independence number; states keep at
    most ramsey_upper(k+1, r+1) solution vertices per bag, which is enough
    because a solution with small cliques meets every small-independence bag
    in few vertices. Returns (weight, mask) or None when no accepting state
    survives at the root.
    """
    ell = ramsey_upper(k + 1, r + 1)
    empty_type = algebra.type_of(BoundariedGraph.make(Graph(0, []), {}, ell))

    def type_of_induced(members):
        sub_edges = []
        index = {v: i for i, v in enumerate(members)}
        for i, v in enumerate(members):
            for u in bits(graph.adj_mask(v)):
                if u in index and index[u] > i:
                    sub_edges.append((i, index[u]))
        g = Graph(len(members), sub_edges)
        labeling = {i: i + 1 for i in range(len(members))}
        return algebra.type_of(BoundariedGraph.make(g, labeling, ell))

    def introduce(v, state, value):
        yield state, value
        s_mask, tau = state
        new_mask = s_mask | bit(v)
        # every clique lies inside one bag, so refusing v next to an r-clique
        # of S keeps each solution's clique number at most r
        if popcount(new_mask) > ell or _has_clique(graph, s_mask & graph.adj_mask(v), r):
            return
        old_members = to_tuple(s_mask)
        new_members = to_tuple(new_mask)
        new_label = {u: j + 1 for j, u in enumerate(new_members)}
        mapping = {j + 1: new_label[u] for j, u in enumerate(old_members)}
        tau_s = type_of_induced(new_members)
        glued = algebra.glue(tau_s, algebra.relabel(tau, mapping))
        yield (new_mask, glued), value + weights[v]

    def forget(v, state, value):
        s_mask, tau = state
        if not s_mask & bit(v):
            yield state, value
            return
        old_members = to_tuple(s_mask)
        label_v = old_members.index(v) + 1
        new_mask = s_mask & ~bit(v)
        new_members = to_tuple(new_mask)
        mapping = {j + 1: new_members.index(u) + 1 for j, u in enumerate(old_members) if u != v}
        yield (new_mask, algebra.relabel(algebra.forget(tau, label_v), mapping)), value

    def join(left, right):
        by_mask = {}
        for (s_mask, tau), value in left.items():
            by_mask.setdefault(s_mask, []).append((tau, value))
        for (s_mask, tau2), value2 in sorted(right.items()):
            if s_mask not in by_mask:
                continue
            ws = weights.of_set(s_mask)
            for tau1, value1 in by_mask[s_mask]:
                glued = algebra.glue(tau1, tau2)
                yield (s_mask, glued), value1 + value2 - ws, ((s_mask, tau1), (s_mask, tau2))

    def check(state):
        if popcount(state[0]) > ell:
            raise InvariantError("bag intersection exceeds the Ramsey bound")

    tables, backptr = run_nice_dp(
        nice_td, (0, empty_type), introduce, forget, join,
        keep=lambda i, state: state[1] != REJECT,
        budget=state_budget,
        budget_message=f"structured DP budget {state_budget} exceeded",
    )
    best = None
    best_state = None
    for (s_mask, tau), value in sorted(tables[nice_td.root].items()):
        if s_mask == 0 and algebra.accepting(tau):
            if best is None or value > best:
                best, best_state = value, (s_mask, tau)
    if best is None:
        return None
    solution = chosen_vertices(nice_td, backptr, best_state, lambda state: state[0], check)

    sub_members = to_tuple(solution)
    index = {v: i for i, v in enumerate(sub_members)}
    sub_edges = [
        (index[u], index[v]) for u, v in graph.edges if u in index and v in index
    ]
    induced = Graph(len(sub_members), sub_edges)
    if not algebra.holds(induced):
        raise InvariantError("reconstructed solution violates the property")
    if _has_clique(induced, induced.vertex_mask(), r + 1):
        raise InvariantError(f"reconstructed solution has a clique larger than {r}")
    if weights.of_set(solution) != best:
        raise InvariantError("reconstructed weight differs from the table optimum")
    return best, solution


def _has_clique(graph, pool, size):
    """True when the vertices of ``pool`` contain a clique of ``size`` vertices."""
    stack = [(0, pool)]
    while stack:
        found, cand = stack.pop()
        if found >= size:
            return True
        if found + popcount(cand) < size:
            continue
        for v in bits(cand):
            cand &= ~bit(v)
            stack.append((found + 1, cand & graph.adj_mask(v)))
    return False
