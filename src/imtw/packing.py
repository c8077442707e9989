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


@dataclass(frozen=True)
class SubgraphMember:
    index: int
    vertices: int  # vertex mask in the host graph
    weight: Fraction


class SubgraphFamily:
    """Indexed weighted family of connected induced subgraphs."""

    __slots__ = ("members", "duplicate_free")

    def __init__(self, vertex_sets, weights=None):
        members = []
        seen = set()
        for idx, vs in enumerate(vertex_sets):
            mask = vs if isinstance(vs, int) else mask_of(vs)
            weight = Fraction(weights[idx]) if weights is not None else Fraction(popcount(mask))
            if weight < 0:
                raise InputError(f"member {idx} has negative weight {weight}")
            members.append(SubgraphMember(idx, mask, weight))
            seen.add(mask)
        self.members = tuple(members)
        self.duplicate_free = len(seen) == len(members)

    def __len__(self):
        return len(self.members)

    def require_valid_members(self, graph):
        for member in self.members:
            if member.vertices == 0:
                raise InputError(f"member {member.index} is the null subgraph")
            if member.vertices >> graph.n:
                raise InputError(f"member {member.index} has vertices outside the graph")
            if not graph.is_connected_within(member.vertices):
                raise InputError(f"member {member.index} does not induce a connected subgraph")

    def min_member_size(self):
        return min((popcount(m.vertices) for m in self.members), default=0)

    def deduplicated(self):
        """Keep one copy per vertex set, the heaviest (lowest index on ties)."""
        best = {}
        for member in self.members:
            cur = best.get(member.vertices)
            if cur is None or member.weight > cur.weight:
                best[member.vertices] = member
        chosen = sorted(best.values(), key=lambda m: m.index)
        fam = SubgraphFamily([m.vertices for m in chosen], [m.weight for m in chosen])
        return fam, tuple(m.index for m in chosen)


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
    data = []
    for m in family.members:
        w = str(m.weight.numerator) if m.weight.denominator == 1 else f"{m.weight.numerator}/{m.weight.denominator}"
        data.append({"id": m.index, "vertices": [v + 1 for v in to_tuple(m.vertices)], "weight": w})
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


@dataclass(frozen=True)
class PackingSolution:
    chosen: tuple  # member indices
    weight: Fraction


def blob_graph(graph, family, budget=DEFAULT_STATE_BUDGET):
    """Graph on the member indices; adjacency is shared vertex or joining edge.
    Its edges are counted from the rows and never listed; more than
    ``budget`` of them raise ResourceLimitError."""
    family.require_valid_members(graph)
    blob = graph_of_rows(touch_rows(graph, [to_tuple(m.vertices) for m in family.members]))
    if blob.m > budget:
        raise ResourceLimitError(f"blob graph of {blob.n} pieces has {blob.m} edges, above the budget {budget}")
    return blob


def is_valid_packing(graph, family, chosen, mode="independent", d=None, dist=None):
    """None if the selection is a packing, else a violating pair witness."""
    idxs = sorted(chosen)
    for i in idxs:
        if not 0 <= i < len(family.members):
            raise InputError(f"chosen index {i} outside the family")
    if mode == "independent":
        covers = {i: graph.closed_neighborhood_of_set(family.members[i].vertices) for i in idxs}
        for a_pos, i in enumerate(idxs):
            for j in idxs[a_pos + 1 :]:
                if covers[i] & family.members[j].vertices:
                    return (i, j)
        return None
    if mode == "distance":
        if d is None:
            raise InputError("distance mode needs d")
        if dist is None:
            dist = distance_matrix(graph)
        for a_pos, i in enumerate(idxs):
            for j in idxs[a_pos + 1 :]:
                sep = min(
                    dist[u][v]
                    for u in bits(family.members[i].vertices)
                    for v in bits(family.members[j].vertices)
                )
                if sep < d:
                    return (i, j)
        return None
    raise InputError(f"unknown packing mode {mode!r}")


def packing_distance(graph, family, chosen, dist=None):
    """Minimum pairwise distance between chosen members (INF when none)."""
    if dist is None:
        dist = distance_matrix(graph)
    best = float("inf")
    idxs = sorted(chosen)
    for a_pos, i in enumerate(idxs):
        for j in idxs[a_pos + 1 :]:
            for u in bits(family.members[i].vertices):
                for v in bits(family.members[j].vertices):
                    if dist[u][v] < best:
                        best = dist[u][v]
    return best


def _pack_blobs(graph, td, family, host_metrics, state_budget):
    """MWIS on the blob graph of ``family``, over td transferred to it.

    Duplicate members are dropped keeping the heaviest copy. The blob
    decomposition is bounded by ``host_metrics``, measured on the host, and
    is not measured itself: the blob transfer of a duplicate-free family and
    the odd-power transfer keep mu at most the host's (``verify`` checks
    both). Returns a PackingSolution over original member indices.
    """
    reduced, kept = family.deduplicated()
    blob = blob_graph(graph, reduced, state_budget)
    blob_td = blob_decomposition(graph, td, reduced)
    nice = make_nice(blob, blob_td, host_metrics)
    weights = WeightMap([m.weight for m in reduced.members])
    weight, mask = mwis_dp(blob, nice, weights, state_budget=state_budget)
    return PackingSolution(tuple(kept[i] for i in bits(mask)), weight)


def max_weight_independent_packing(graph, td, family, state_budget=DEFAULT_STATE_BUDGET):
    """Optimal independent packing via the blob reduction, with the host
    decomposition's measured bound."""
    family.require_valid_members(graph)
    solution = _pack_blobs(graph, td, family, decomposition_metrics(graph, td), state_budget)
    witness = is_valid_packing(graph, family, solution.chosen, "independent")
    if witness is not None:
        raise InvariantError(f"solver returned a non-packing, members {witness} conflict")
    return solution


def max_weight_distance_packing(graph, td, family, d, state_budget=DEFAULT_STATE_BUDGET):
    """Optimal distance-d packing for even d.

    d = 2 is independent packing. Larger even d first moves to the (d-1)-st
    power with the matching odd-power decomposition transfer.
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
    dist = distance_matrix(graph)
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
        result |= family.members[i].vertices
    for comp in graph.components_within(result):
        if popcount(comp) > cap or not treewidth_at_most(graph, comp, r):
            raise InvariantError("packing produced an invalid piece")
    return result
