"""Boundaried graphs, finite type algebras, and the generic structured DP.

A boundaried graph carries an injective partial labeling of its vertices into
1..ell. Gluing identifies equal labels across two graphs; forgetting a label
keeps the vertex but strips the label. A type algebra compresses a boundaried
graph into a finite value that composes under both operations, so a bottom-up
dynamic program over a nice tree decomposition can optimize any property the
algebra recognizes.

The generic DP works on types alone, one transition per nice-node kind:
``introduce`` adds a labelled vertex joined to labels already present (the
glue of a star onto the type), ``forget`` strips a label, and ``join``
glues two types over the same labels and boundary edges. No transition
builds a graph; ``type_of`` and ``glue`` on boundaried graphs stay as the
definitions the transitions are checked against.

Every algebra shares one type shape. A non-rejecting type is the tuple
``("ok", labels, adjacency, part)``: the sorted used labels, the sorted
label pairs of boundary edges, and the algebra's own part (forest: blocks of
labels; bipartite: blocks of (label, parity); max-degree: (label, degree)
pairs). ``TypeAlgebra`` owns everything but the part. Recording the boundary
adjacency matters: the two sides of a join both contain the bag-induced
edges, and gluing must not count them twice. The rejecting type ``REJECT``
is absorbing, which is sound here because all three properties are closed
under taking subgraphs, so no later gluing can repair a violation. Types are
compared as plain tuples; the DP only looks them up, so they need no order,
and the solution it reports is the canonical optimum whatever form they
take.

Connectivity bookkeeping for the forest and bipartite algebras follows the
same star trick: a block of boundary vertices connected through one side's
interior behaves, for cycle and parity purposes, exactly like a star through
a virtual hub vertex. One parity union-find serves both: a link between
already joined elements closes a cycle, an odd one when their parity differs
from the link's.
"""

from collections import deque
from dataclasses import dataclass
from math import comb

from .bits import bit, bits, popcount
from .errors import InputError, InvariantError
from .graphs import Graph, induced_subgraph
from .nicedp import DEFAULT_STATE_BUDGET, best_solution, run_nice_dp
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


def _uf_find(uf, x):
    """Root of x's class and the parity of x relative to it.

    ``uf`` maps each non-root element to (parent, parity to parent); an
    element absent from it is the root of its own class.
    """
    path = []
    while x in uf:
        path.append(x)
        x = uf[x][0]
    parity = 0
    for y in reversed(path):
        parity ^= uf[y][1]
        uf[y] = (x, parity)
    return x, parity


def _uf_link(uf, x, y, parity):
    """Join x and y at ``parity``; if they were already joined, return their parity."""
    rx, px = _uf_find(uf, x)
    ry, py = _uf_find(uf, y)
    if rx == ry:
        return px ^ py
    uf[rx] = (ry, px ^ py ^ parity)
    return None


def _classes(uf, pairs):
    """The labels of (element, label) pairs grouped by class, as (label, parity) lists."""
    groups = {}
    for x, l in pairs:
        root, parity = _uf_find(uf, x)
        groups.setdefault(root, []).append((l, parity))
    return groups.values()


def _hubs(parts):
    """Every block entry of both parts paired with its block's hub.

    Hubs are negative, so they never meet a label.
    """
    hub = 0
    for blocks in parts:
        for block in blocks:
            hub -= 1
            for entry in block:
                yield entry, hub


def _blocks_canonical(groups):
    return tuple(sorted(tuple(sorted(g)) for g in groups))


class TypeAlgebra:
    """What every algebra shares: labels, boundary adjacency and REJECT.

    A subclass supplies ``holds`` and its part of the type: ``_part_of`` a
    boundaried graph, ``_glue_parts`` of two types and ``_introduce_part``
    (both return None to reject), ``_forget_part`` and ``_relabel_part``.
    """

    def type_of(self, b):
        if not self.holds(b.graph):
            return REJECT
        lab = dict(b.labeling)
        adj = {tuple(sorted((lab[u], lab[v]))) for u, v in b.graph.edges if u in lab and v in lab}
        return ("ok", tuple(sorted(lab.values())), tuple(sorted(adj)), self._part_of(b, lab))

    def glue(self, t1, t2):
        if t1 == REJECT or t2 == REJECT:
            return REJECT
        labels = tuple(sorted(set(t1[1]) | set(t2[1])))
        adj = tuple(sorted(set(t1[2]) | set(t2[2])))
        part = self._glue_parts(t1, t2, labels, adj)
        return REJECT if part is None else ("ok", labels, adj, part)

    def join(self, t1, t2):
        """``glue(t1, t2)`` for two types with equal labels and equal boundary
        adjacency, as at a join of the DP: both partners carry the bag part S
        as labels and the edges of G[S] as boundary edges, so the union of
        labels and of edges is either side's and only the parts merge."""
        if t1 == REJECT or t2 == REJECT:
            return REJECT
        _, labels, adj, _ = t1
        part = self._glue_parts(t1, t2, labels, adj)
        return REJECT if part is None else ("ok", labels, adj, part)

    def introduce(self, t, label, near):
        """``glue(type_of(star), t)``, the star joining the new ``label`` to
        the labels ``near``, all of which are in ``t``; ``label`` is not.

        The new label and its boundary edges are inserted here; the
        algebra's ``_introduce_part`` updates the part, reading the set
        ``near`` and the old boundary adjacency."""
        if t == REJECT:
            return REJECT
        _, labels, adj, part = t
        near = frozenset(near)
        part = self._introduce_part(part, label, near, adj)
        if part is None:
            return REJECT
        new_edges = [(u, label) if u < label else (label, u) for u in near]
        return ("ok", tuple(sorted(labels + (label,))), tuple(sorted(adj + tuple(new_edges))), part)

    def forget(self, t, label):
        if t == REJECT:
            return REJECT
        _, labels, adj, part = t
        if label not in labels:
            return t
        return (
            "ok",
            tuple(l for l in labels if l != label),
            tuple((a, c) for a, c in adj if label not in (a, c)),
            self._forget_part(part, label, adj),
        )

    def relabel(self, t, mapping):
        if t == REJECT:
            return REJECT
        _, labels, adj, part = t
        return (
            "ok",
            tuple(sorted(mapping[l] for l in labels)),
            tuple(sorted(tuple(sorted((mapping[a], mapping[c]))) for a, c in adj)),
            self._relabel_part(part, mapping),
        )

    def accepting(self, t):
        return t != REJECT


class ForestAlgebra(TypeAlgebra):
    """Accepts exactly the acyclic graphs.

    Part: the partition of labels by connectivity avoiding boundary-boundary
    edges (paths through interiors).
    """

    name = "forest"
    clique_bound = 2

    def holds(self, graph):
        return is_induced_forest(graph, graph.vertex_mask())

    def _part_of(self, b, lab):
        uf = {}
        for u, v in b.graph.edges:
            if u not in lab or v not in lab:
                _uf_link(uf, u, v, 1)
        return _blocks_canonical([l for l, _ in g] for g in _classes(uf, b.labeling))

    def _glue_parts(self, t1, t2, labels, adj):
        # joining two elements that are already joined closes a cycle; the
        # partition is read before the boundary edges come in
        uf = {}
        for l, hub in _hubs((t1[3], t2[3])):
            if _uf_link(uf, l, hub, 0) is not None:
                return None
        part = _blocks_canonical([l for l, _ in g] for g in _classes(uf, zip(labels, labels)))
        for a, c in adj:
            if _uf_link(uf, a, c, 1) is not None:
                return None
        return part

    def _introduce_part(self, blocks, label, near, adj):
        # the new vertex closes a cycle exactly when two of its neighbours
        # are already connected through the blocks and the boundary edges
        if len(near) > 1:
            uf = {}
            for block in blocks:
                for l in block[1:]:
                    _uf_link(uf, block[0], l, 0)
            for a, c in adj:
                _uf_link(uf, a, c, 0)
            if len({_uf_find(uf, l)[0] for l in near}) < len(near):
                return None
        return tuple(sorted(blocks + ((label,),)))

    def _forget_part(self, blocks, label, adj):
        # the vertex stays: its boundary edges become interior, merging its
        # block with its neighbours' blocks
        near = {label}.union(*(e for e in adj if label in e))
        merged = [l for block in blocks if near.intersection(block) for l in block if l != label]
        rest = [block for block in blocks if not near.intersection(block)]
        return _blocks_canonical(rest + [merged] if merged else rest)

    def _relabel_part(self, blocks, mapping):
        return _blocks_canonical(tuple(mapping[l] for l in block) for block in blocks)


class BipartiteAlgebra(TypeAlgebra):
    """Accepts exactly the graphs with no odd cycle.

    Part: the blocks of full-graph connectivity, each label with its colour
    parity relative to its block's smallest label.
    """

    name = "bipartite"
    clique_bound = 2

    def holds(self, graph):
        uf = {}
        return all(_uf_link(uf, u, v, 1) != 0 for u, v in graph.edges)

    def _part_of(self, b, lab):
        uf = {}
        for u, v in b.graph.edges:
            _uf_link(uf, u, v, 1)
        return self._blocks(_classes(uf, b.labeling))

    @staticmethod
    def _blocks(groups):
        out = []
        for group in groups:
            group = sorted(group)
            base = group[0][1]
            out.append(tuple((l, p ^ base) for l, p in group))
        return tuple(sorted(out))

    def _glue_parts(self, t1, t2, labels, adj):
        uf = {}
        links = [(l, hub, parity) for (l, parity), hub in _hubs((t1[3], t2[3]))]
        for x, y, parity in links + [(a, c, 1) for a, c in adj]:
            if _uf_link(uf, x, y, parity) not in (None, parity):
                return None
        return self._blocks(_classes(uf, zip(labels, labels)))

    def _introduce_part(self, blocks, label, near, adj):
        # each block holding a neighbour joins the new vertex's block, with
        # the new vertex at parity 0 and the neighbours at parity 1; a block
        # whose neighbours sit at both parities closes an odd cycle
        joined, rest = [(label, 0)], []
        for block in blocks:
            parities = {p for l, p in block if l in near}
            if not parities:
                rest.append(block)
            elif len(parities) > 1:
                return None
            else:
                flip = parities.pop() ^ 1
                joined += [(l, p ^ flip) for l, p in block]
        return self._blocks(rest + [joined])

    def _forget_part(self, blocks, label, adj):
        kept = [[(l, p) for l, p in block if l != label] for block in blocks]
        return self._blocks([group for group in kept if group])

    def _relabel_part(self, blocks, mapping):
        return self._blocks([(mapping[l], p) for l, p in block] for block in blocks)


class MaxDegreeAlgebra(TypeAlgebra):
    """Accepts exactly the graphs of maximum degree at most d.

    Part: the exact degree of each label. Gluing adds the two degrees and
    subtracts edges recorded on both sides; unlabeled vertices never change
    degree, so one early check settles them for good.
    """

    def __init__(self, d):
        if d < 0:
            raise InputError("degree bound must be nonnegative")
        self.d = d
        self.name = f"max-degree:{d}"
        self.clique_bound = d + 1

    def holds(self, graph):
        return graph.max_degree() <= self.d

    def _part_of(self, b, lab):
        return tuple(sorted((lab[v], b.graph.degree(v)) for v in lab))

    def _glue_parts(self, t1, t2, labels, adj):
        deg = dict(t1[3])
        for l, d in t2[3]:
            deg[l] = deg.get(l, 0) + d
        # an edge recorded on both sides was counted at both its ends twice
        for a, c in set(t1[2]).intersection(t2[2]):
            deg[a] -= 1
            deg[c] -= 1
        if any(v > self.d for v in deg.values()):
            return None
        return tuple(sorted(deg.items()))

    def _introduce_part(self, degs, label, near, adj):
        # the new vertex has degree |near|, and each neighbour gains one
        out = [(label, len(near))]
        out += [(l, d + 1) if l in near else (l, d) for l, d in degs]
        if any(d > self.d for _, d in out):
            return None
        return tuple(sorted(out))

    def _forget_part(self, degs, label, adj):
        return tuple((l, d) for l, d in degs if l != label)

    def _relabel_part(self, degs, mapping):
        return tuple(sorted((mapping[l], d) for l, d in degs))


def builtin_type_algebra(name):
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


def generic_structured_dp(graph, nice_td, weights, algebra, r, state_budget=DEFAULT_STATE_BUDGET):
    """Maximum weight F with the algebra's property and clique number <= r.

    With k = ``nice_td.metrics.alpha``, states keep at most
    ramsey_upper(k+1, r+1) solution vertices per bag, which is enough
    because a solution with small cliques meets every small-independence bag
    in few vertices. A state is (S, type of the partial solution with S
    labelled), and every transition acts on the type alone: an introduced v
    enters S by ``algebra.introduce`` with its neighbours in S, a forgotten
    v leaves by ``algebra.forget``, and a join merges two types over the
    same S by ``algebra.join``. Returns (weight, mask) or None when no
    accepting state survives at the root.
    """
    cap = ramsey_upper(nice_td.metrics.alpha + 1, r + 1)
    # solution vertex v carries label v + 1, so adding or dropping a vertex
    # never renames the others
    ell = max(graph.n, 1)
    empty_type = algebra.type_of(BoundariedGraph.make(Graph(0, []), {}, ell))

    def add(v, state):
        s_mask, tau = state
        new_mask = s_mask | bit(v)
        near = s_mask & graph.adj_mask(v)
        # every clique lies inside one bag, so refusing v next to an r-clique
        # of S keeps each solution's clique number at most r
        if popcount(new_mask) > cap or _has_clique(graph, near, r):
            return None
        grown = algebra.introduce(tau, v + 1, [u + 1 for u in bits(near)])
        return None if grown == REJECT else (new_mask, grown)

    def drop(v, state):
        s_mask, tau = state
        return s_mask & ~bit(v), algebra.forget(tau, v + 1)

    def merge(left, right):
        # join partners share S, so both types label S and record G[S]
        joined = algebra.join(left[1], right[1])
        return None if joined == REJECT else (left[0], joined)

    [root] = deque(run_nice_dp(
        nice_td, (0, empty_type), lambda state: state[0], add, drop, merge, weights,
        budget=state_budget,
        budget_message=f"structured DP budget {state_budget} exceeded",
    ), maxlen=1)
    found = best_solution(
        root, weights, lambda state: state[0] == 0 and algebra.accepting(state[1])
    )
    if found is None:
        return None
    if any(popcount(found[1] & node.bag) > cap for node in nice_td.nodes):
        raise InvariantError("bag intersection exceeds the Ramsey bound")
    induced, _ = induced_subgraph(graph, found[1])
    if not algebra.holds(induced):
        raise InvariantError("reconstructed solution violates the property")
    if _has_clique(induced, induced.vertex_mask(), r + 1):
        raise InvariantError(f"reconstructed solution has a clique larger than {r}")
    return found


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
