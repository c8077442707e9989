"""Independent and distance-d packings of connected subgraphs.

A packing instance is a family of connected induced subgraphs given by their
vertex sets, each with a nonnegative rational weight. Packing reduces to a
maximum weight independent set on the blob graph, whose vertices are the
family members and whose edges join members that share a vertex or are
connected by an edge. The decomposition of the host graph transfers to the
blob graph bag by bag, and for even distance d the problem first moves to the
(d-1)-st power of the host.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .bits import bit, bits, mask_of, popcount, to_tuple
from .decomp import blob_decomposition, decomposition_metrics, make_nice, odd_power_decomposition
from .errors import Budget, InputError, InvariantError, ResourceLimitError
from .graphs import (
    MAX_VERTICES, WeightMap, distance_matrix, graph_of_rows, graph_power, induced_subgraph,
    parse_rational, touch_rows,
)
from .nicedp import DEFAULT_STATE_BUDGET
from .oracles import elimination_search, is_induced_forest
from .traces import mwis_dp

# connected vertex sets one enumeration may produce; on Q5, whose connected
# sets no run could list, `solve ptas` overruns it after about 2 s at under
# 100 MiB (2-core VM, Python 3.11)
PIECE_BUDGET = 10**6


class SubgraphFamily:
    """Weighted family of connected induced subgraphs. Member i is known by
    its position: ``vertices[i]`` is its vertex mask in the host graph and
    ``weights[i]`` its Fraction weight, by default its vertex count."""

    __slots__ = ("vertices", "weights", "duplicate_free")

    def __init__(self, vertex_sets, weights=None):
        self.vertices = tuple(vs if isinstance(vs, int) else mask_of(vs) for vs in vertex_sets)
        self.weights = tuple(
            Fraction(popcount(mask) if weights is None else weights[i]) for i, mask in enumerate(self.vertices)
        )
        for i, weight in enumerate(self.weights):
            if weight < 0:
                raise InputError(f"member {i} has negative weight {weight}")
        self.duplicate_free = len(set(self.vertices)) == len(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def require_valid_members(self, graph):
        for i, mask in enumerate(self.vertices):
            if mask == 0:
                raise InputError(f"member {i} is the null subgraph")
            if mask >> graph.n:
                raise InputError(f"member {i} has vertices outside the graph")
            if not graph.is_connected_within(mask):
                raise InputError(f"member {i} does not induce a connected subgraph")

    def min_member_size(self):
        return min(map(popcount, self.vertices), default=0)

    def deduplicated(self):
        """One copy per vertex set, the heaviest (lowest position on ties):
        the family of the kept members and their positions, in order."""
        best = {}
        for i, mask in enumerate(self.vertices):
            j = best.get(mask)
            if j is None or self.weights[i] > self.weights[j]:
                best[mask] = i
        kept = tuple(sorted(best.values()))
        return SubgraphFamily([self.vertices[i] for i in kept], [self.weights[i] for i in kept]), kept


def parse_subgraph_family(text):
    """JSON array of {"id": int, "vertices": [1-based ints], "weight": "num[/den]"}.
    An id or vertex that is not a JSON integer (a bool, a float, a string),
    and ``vertices`` that are not a list, make a bad entry."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise InputError(f"family file is not valid JSON: {exc}") from None
    if not isinstance(data, list):
        raise InputError("family file must hold a JSON array")
    rows = []
    for item in data:
        try:
            ident, vertices = item["id"], item["vertices"]
            if type(vertices) is not list or any(type(x) is not int for x in (ident, *vertices)):
                raise TypeError("ids and vertices must be integers, vertices a list")
            rows.append((ident, vertices, parse_rational(str(item.get("weight", len(vertices))))))
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"bad family entry {item!r}: {exc}") from None
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(len(rows))):
        raise InputError("family ids must be 0,1,... without gaps")
    for _, vs, _ in rows:
        if any(v < 1 for v in vs):
            raise InputError("family vertices are 1-based")
        # checked before any member mask is built: no graph has such a vertex
        if any(v > MAX_VERTICES for v in vs):
            raise InputError(f"family vertex {max(vs)} is above the vertex cap of {MAX_VERTICES}")
    return SubgraphFamily([[v - 1 for v in vs] for _, vs, _ in rows], [w for _, _, w in rows])


def serialize_subgraph_family(family):
    data = [
        {"id": i, "vertices": [v + 1 for v in to_tuple(mask)], "weight": str(weight)}
        for i, (mask, weight) in enumerate(zip(family.vertices, family.weights))
    ]
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


@dataclass(frozen=True)
class PackingSolution:
    chosen: tuple  # member positions
    weight: Fraction


def blob_graph(graph, family, budget=DEFAULT_STATE_BUDGET):
    """Graph on the member positions; adjacency is shared vertex or joining edge.
    Its edges are counted from the rows and never listed; more than
    ``budget`` of them raise ResourceLimitError."""
    family.require_valid_members(graph)
    blob = graph_of_rows(touch_rows(graph, [to_tuple(mask) for mask in family.vertices]))
    if blob.m > budget:
        raise ResourceLimitError(f"blob graph of {blob.n} pieces has {blob.m} edges, above the budget {budget}")
    return blob


def is_valid_packing(graph, family, chosen):
    """None if the chosen members are an independent packing (no two share a
    vertex or are joined by an edge), else a violating pair witness. A
    distance-d packing is one whose ``packing_distance`` is at least d."""
    idxs = sorted(chosen)
    for i in idxs:
        if not 0 <= i < len(family):
            raise InputError(f"chosen index {i} outside the family")
    covers = {i: graph.closed_neighborhood_of_set(family.vertices[i]) for i in idxs}
    for a_pos, i in enumerate(idxs):
        for j in idxs[a_pos + 1 :]:
            if covers[i] & family.vertices[j]:
                return (i, j)
    return None


def packing_distance(graph, family, chosen, dist=None):
    """Minimum pairwise distance between chosen members (INF when fewer
    than two).

    ``dist`` is the host's distance matrix. An empty list is filled with it
    on first use, so that a caller shares one matrix between its checks and
    builds none when no check runs.
    """
    if not dist:
        matrix = distance_matrix(graph)
        if dist is None:
            dist = matrix
        else:
            dist.extend(matrix)
    members = [to_tuple(family.vertices[i]) for i in chosen]
    best = float("inf")
    for a_pos, us in enumerate(members):
        for vs in members[a_pos + 1 :]:
            for u in us:
                row = dist[u]
                for v in vs:
                    if row[v] < best:
                        best = row[v]
    return best


def _pack_blobs(graph, td, family, host_metrics, state_budget):
    """MWIS on the blob graph of ``family``, over td transferred to it.

    Duplicate members are dropped keeping the heaviest copy. The blob
    decomposition is bounded by ``host_metrics``, measured on the host, and
    is not measured itself: the blob transfer of a duplicate-free family and
    the odd-power transfer keep mu at most the host's (``verify`` checks
    both). Returns a PackingSolution over original member positions.
    """
    reduced, kept = family.deduplicated()
    blob = blob_graph(graph, reduced, state_budget)
    blob_td = blob_decomposition(graph, td, reduced)
    nice = make_nice(blob, blob_td, host_metrics)
    weights = WeightMap(reduced.weights)
    weight, mask = mwis_dp(blob, nice, weights, state_budget=state_budget)
    return PackingSolution(tuple(kept[i] for i in bits(mask)), weight)


def max_weight_independent_packing(graph, td, family, state_budget=DEFAULT_STATE_BUDGET):
    """Optimal independent packing via the blob reduction, with the host
    decomposition's measured bound."""
    family.require_valid_members(graph)
    solution = _pack_blobs(graph, td, family, decomposition_metrics(graph, td), state_budget)
    witness = is_valid_packing(graph, family, solution.chosen)
    if witness is not None:
        raise InvariantError(f"solver returned a non-packing, members {witness} conflict")
    return solution


def max_weight_distance_packing(graph, td, family, d, state_budget=DEFAULT_STATE_BUDGET, dist=None):
    """Optimal distance-d packing for even d.

    d = 2 is independent packing. Larger even d first moves to the (d-1)-st
    power with the matching odd-power decomposition transfer, and checks the
    packing's distance with ``dist`` as ``packing_distance`` reads it.
    """
    if d < 2 or d % 2 != 0:
        raise InputError(
            f"packing distance must be even and >= 2, got {d}; "
            "odd distances are NP-hard already for chordal inputs"
        )
    if d == 2:
        return max_weight_independent_packing(graph, td, family, state_budget)
    family.require_valid_members(graph)
    host_metrics = decomposition_metrics(graph, td)
    power = graph_power(graph, d - 1)
    power_td = odd_power_decomposition(graph, td, d - 1)
    solution = _pack_blobs(power, power_td, family, host_metrics, state_budget)
    got = packing_distance(graph, family, solution.chosen, dist)
    if got < d:
        raise InvariantError(f"distance-{d} packing has a pair at distance {got}")
    return solution


def enumerate_small_connected_subgraphs(graph, max_size, predicate=None):
    """All connected vertex sets of size at most max_size, each exactly once.

    Grows sets layer by layer: every connected set of size s extends some
    connected set of size s-1 by a neighbor, and a hash set removes the
    duplicates. ``predicate`` filters the results by vertex mask. Each set
    charges one unit of a ``PIECE_BUDGET`` as it is first produced, so an
    enumeration too large to finish fails fast with ResourceLimitError.
    """
    if max_size < 1:
        raise InputError("subgraph size bound must be at least 1")
    spend = Budget(PIECE_BUDGET, f"piece enumeration budget {PIECE_BUDGET} exceeded").spend
    layer = [bit(v) for v in range(graph.n)]
    spend(len(layer), len(layer))
    seen = set(layer)
    for _ in range(max_size - 1):
        grown = []
        for m in layer:
            for u in bits(graph.neighborhood_of_set(m)):
                bigger = m | bit(u)
                if bigger not in seen:
                    seen.add(bigger)
                    grown.append(bigger)
                    spend(1, len(seen))
        layer = grown
        if not layer:
            break
    out = [m for m in seen if predicate is None or predicate(m)]
    return sorted(out, key=to_tuple)


def treewidth_at_most(graph, mask, r):
    """Decide treewidth <= r for the induced subgraph on ``mask``.

    Fast paths for r <= 1 and for at most r + 1 vertices; otherwise the
    oracles' elimination search on the induced subgraph with lower = upper = r.
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
    return elimination_search(sub, lambda bag: popcount(bag) - 1, r, r)[0] is not None


def component_size_cap(r, eps):
    """Piece size that sacrifices at most an eps fraction of any treewidth-r set.

    Removing every (c+1)-st layer of a width-r decomposition deletes at most
    (r+1)/c of the vertices, so pieces of size c = ceil(2(r+1)/eps) suffice
    with room to spare; the guarantee is checked against the exhaustive
    optimum in the tests rather than trusted.
    """
    return ceil(2 * (r + 1) / eps)


def ptas_bounded_treewidth_subgraph(graph, td, r, eps, state_budget=DEFAULT_STATE_BUDGET):
    """A vertex set inducing treewidth <= r of size at least (1-eps) * OPT.

    Enumerates all connected pieces up to the size cap whose induced subgraph
    has treewidth at most r, then packs them independently with cardinality
    weights. Components of the returned set are exactly the chosen pieces.
    """
    if not 0 < eps < 1:
        raise InputError(f"accuracy must satisfy 0 < eps < 1, got {eps}")
    if r < 0:
        raise InputError(f"treewidth bound must be nonnegative, got {r}")
    cap = component_size_cap(r, eps)
    pieces = enumerate_small_connected_subgraphs(
        graph, min(cap, max(graph.n, 1)), predicate=lambda m: treewidth_at_most(graph, m, r)
    )
    if not pieces:
        return 0
    family = SubgraphFamily(pieces)
    solution = max_weight_independent_packing(graph, td, family, state_budget)
    result = 0
    for i in solution.chosen:
        result |= family.vertices[i]
    for comp in graph.components_within(result):
        if popcount(comp) > cap or not treewidth_at_most(graph, comp, r):
            raise InvariantError("packing produced an invalid piece")
    return result
