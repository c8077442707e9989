"""Maximal-independent-set traces and the MWIS dynamic program.

The bag family construction: every maximal independent set I of the whole
graph meets a bag X in a set of the form J' minus N(Q), where J' is some
maximal independent set of the bag-induced subgraph and Q is a small subset
of the bag's outside neighborhood (at most k vertices when induced matchings
touching the bag have size at most k), with at most n^(3k) distinct outcomes.
Since J' minus N(Q) is J' with the reaches N(q) & X of the members of Q
removed one at a time, the family is grown from the maximal sets of the bag
by removing one distinct reach per level, k levels deep. Each member is
expanded once, at the level where it first appears, so the work is the family
size times the number of distinct reaches. The MWIS DP takes k from the
metrics its nice decomposition carries, so no caller supplies the bound.

No solver enumerates each bag's maximal sets afresh. Along the nice chains
a bag differs from its child's by one vertex, so ``carried_trace_families``
carries them from child to parent by the incremental step of Tsukiyama,
Ide, Ariyoshi and Shirakawa (SIAM J. Comput. 6(3), 1977) and yields the one
family stream of the MWIS DP and the bounded forest family; the reaches are
read off each bag. ``trace_family_for_bag`` without carried sets stays the
per-bag oracle.
"""

from .bits import bit, bits, popcount
from .errors import InvariantError
from .nicedp import DEFAULT_STATE_BUDGET, best_solution, run_nice_dp


def enumerate_maximal_independent_sets(graph, universe=None):
    """All inclusion-maximal independent subsets of ``universe`` (default all).

    Pivoting Bron-Kerbosch search on the complement graph, run on an explicit
    stack; each set is produced once. An independent ``cand`` is settled in
    one step instead of one level per member: when no vertex misses all of
    it, ``chosen | cand`` is its only result. An independent universe is
    settled before any universe-wide complement mask is built, by a check
    that stops at the first edge, so an edgeless bag costs one pass. The
    sets come in the search's discovery order, which is deterministic.
    """
    if universe is None:
        universe = graph.vertex_mask()
    if graph.is_independent(universe):
        nonadj, stack = {}, [(universe, 0, 0)]
    else:
        nonadj = {v: universe & ~graph.adj_mask(v) & ~bit(v) for v in bits(universe)}
        stack = [(0, universe, 0)]
    out = []
    while stack:
        chosen, cand, excl = stack.pop()
        if cand or excl:
            pivot, coverage = -1, -1
            for u in bits(cand | excl):
                c = popcount(cand & nonadj[u])
                if c > coverage:
                    pivot, coverage = u, c
            # An excluded vertex missing all of cand would cover all of it,
            # so this holds only when cand is independent and maximal as is.
            if coverage == popcount(cand) - 1 and all(
                cand & ~nonadj[v] == bit(v) for v in bits(cand)
            ):
                chosen |= cand
            else:
                for v in bits(cand & ~nonadj[pivot]):
                    stack.append((chosen | bit(v), cand & nonadj[v], excl & nonadj[v]))
                    cand &= ~bit(v)
                    excl |= bit(v)
                continue
        out.append(chosen)
    return out


class TraceFamily:
    """Candidate traces of maximal independent sets at one bag, as the
    frozenset ``members``: the DP and the checks only test membership."""

    __slots__ = ("members",)

    def __init__(self, members):
        self.members = members


def trace_family_for_bag(graph, bag, k, maximal_in_bag=None):
    """The family of candidate traces at one bag, for matching bound ``k``.

    The members are J' minus N(Q) for every maximal independent set J' of
    the bag and every set Q of at most k vertices outside it. Level l holds
    the sets first reached by removing l distinct reaches N(q) & X; it comes
    from removing each reach from level l - 1 alone, since removing one from
    an earlier level gives a set already found.
    Coverage: if every induced matching touching the bag has size at most k,
    the trace of every maximal independent set of the graph is in the family.
    The solvers pass their decomposition's measured mu; a smaller ``k``
    reaches this function only from a direct call.
    A caller that carries the bag's maximal independent sets passes them in;
    left None they are enumerated from the bag.
    """
    if maximal_in_bag is None:
        maximal_in_bag = enumerate_maximal_independent_sets(graph, universe=bag)
    bag_size = popcount(bag)
    # above Alekseev's |X|^(2k) maximal sets an induced matching larger than
    # k touches the bag, so the n^(3k) bound below need not hold
    alekseev_ok = not bag_size or len(maximal_in_bag) <= bag_size ** (2 * k)
    # with k = 0 no reach is removed, so none is needed
    keeps = _reach_complements(graph, bag) if k else ()
    members = set(maximal_in_bag)
    frontier = members
    for _ in range(k):
        frontier = {m & keep for keep in keeps for m in frontier} - members
        if not frontier:
            break
        members |= frontier
    if alekseev_ok and graph.n > 0 and len(members) > max(graph.n, 1) ** (3 * k):
        raise InvariantError(
            f"trace family has {len(members)} members, above the n^(3k) bound"
        )
    return TraceFamily(frozenset(members))


def _reach_complements(graph, bag):
    """The complement of each distinct reach N(q) & X of an outside vertex q,
    so removing a reach is one AND. One pass over the bag's rows gives N(X)
    and one over N(X)'s rows the reaches; both peel the lowest bit in place
    of a bit generator."""
    adj = graph.adj_mask
    outside, rest = 0, bag
    while rest:
        low = rest & -rest
        outside |= adj(low.bit_length() - 1)
        rest ^= low
    outside &= ~bag
    keeps = set()
    while outside:
        low = outside & -outside
        keeps.add(~(adj(low.bit_length() - 1) & bag))
        outside ^= low
    return keeps


def _forget(graph, bag, v, maximal):
    """Carry the maximal sets of ``bag`` + v to ``bag``.

    A set without v stays maximal. A set J with v leaves J - v, which is
    maximal exactly when each neighbour of v left in the bag has a neighbour
    in J - v.
    """
    adj, vb = graph.adj_mask, bit(v)
    rows = [adj(u) for u in bits(adj(v) & bag)]
    carried = set()
    for j in maximal:
        if j & vb:
            j ^= vb
            if not all(row & j for row in rows):
                continue
        carried.add(j)
    return carried


def _introduce(graph, bag, v, maximal):
    """Carry the maximal sets of ``bag`` - v to ``bag``.

    A set J that misses N(v) becomes J + v. A J that meets N(v) stays, and
    (J minus N(v)) + v joins when every vertex of the old bag outside N(v)
    and J still has a neighbour in J minus N(v). That check depends on J
    minus N(v) alone, which many sets J share, so it runs once per distinct
    one. Only a vertex next to a removed one can have lost its neighbour,
    so the check walks whichever is smaller: those neighbours or the rest
    of the bag.
    """
    adj, vb = graph.adj_mask, bit(v)
    nv = adj(v)
    old = bag & ~vb
    carried = set()
    checked = set()
    for j in maximal:
        removed = j & nv
        if not removed:
            carried.add(j | vb)
            continue
        carried.add(j)
        kept = j & ~nv
        if kept in checked:
            continue
        checked.add(kept)
        rest = old & ~nv & ~j
        if popcount(removed) < popcount(rest):
            touched = 0
            for d in bits(removed):
                touched |= adj(d)
            rest &= touched
        if all(adj(u) & kept for u in bits(rest)):
            carried.add(kept | vb)
    return carried


def carried_trace_families(graph, nice_td, k):
    """Yield every nice node's ``TraceFamily`` for bound ``k``, in node order.

    A node takes over its child's maximal independent sets of the bag and
    updates them for the vertex introduced or forgotten (a leaf's one is the
    empty set). A join yields its first child's family, since the bags are
    equal; any other node that of ``trace_family_for_bag`` on its sets.
    """
    carried = {}  # node -> (maximal sets, family), until its parent takes it
    for i, node in enumerate(nice_td.nodes):
        children = [carried.pop(c) for c in node.children]
        if node.kind == "join":
            carried[i] = children[0]
        else:
            maximal = children[0][0] if children else {0}
            if node.kind != "leaf":
                step = _forget if node.kind == "forget" else _introduce
                maximal = step(graph, node.bag, node.vertex, maximal)
            carried[i] = maximal, trace_family_for_bag(graph, node.bag, k, maximal)
        yield carried[i][1]


def mwis_dp(graph, nice_td, weights, state_budget=DEFAULT_STATE_BUDGET):
    """Max weight independent set over a nice decomposition.

    A state is the solution's part of the bag. Each node's trace family for
    the bound ``nice_td.metrics.mu``, carried along the nice chains as the
    DP reaches the node, filters its table; anything outside a family is
    treated as minus infinity. Returns the exact optimum (weight, vertex
    mask); the result is re-validated before return.
    """
    families = carried_trace_families(graph, nice_td, nice_td.metrics.mu)
    tables, backptr = run_nice_dp(
        nice_td,
        empty=0,
        bag_part=lambda state: state,
        add=lambda v, state: None if graph.adj_mask(v) & state else state | bit(v),
        drop=lambda v, state: state & ~bit(v),
        merge=lambda left, right: left,
        weights=weights,
        budget=state_budget,
        budget_message=f"MWIS state budget {state_budget} exceeded",
        families=(family.members for family in families),
    )
    found = best_solution(
        nice_td, tables, backptr, weights, lambda state: state, lambda state: state == 0
    )
    if found is None:
        raise InvariantError("empty state missing at the root; families are broken")
    if not graph.is_independent(found[1]):
        raise InvariantError("reconstructed MWIS solution is not independent")
    return found
