"""The bottom-up dynamic program over a nice tree decomposition.

The MWIS, induced-forest and structured solvers are one leaf / introduce /
forget / join recursion (Kloks, Treewidth, 1994) that differs only in its
state type and in the family filtering the states. A solver supplies the
state algebra and a per-node family builder; this module owns the rest: the
transitions and their value arithmetic, the pass over the nodes, when a
family is built, the state budget, the tie-break and the backpointer walk. A
table maps each kept state to its best value; equal values go to the
smallest origin, the tuple of child states it came from, so every table and
every reconstruction is deterministic. Table values are integers: the
rational weights are scaled once by the lcm of their denominators, which
keeps every comparison, and only the optimum is turned back into a Fraction.

The families keep tables polynomial; exactness does not rest on them, since
every kept state is a real partial solution. So a node's family is built
only once its table would hold more than ``FILTER_FROM`` states, or from its
first state on when a child was filtered; the states already in the table
that the family rejects are then dropped. With positive weights the reported
solution is the same whichever nodes filter: every optimum is maximal, so
each of its states lies in every family, and any route that ties an optimal
state's value is itself an optimum, so the tie-break sees the same
candidates. A zero weight breaks that (a non-maximal optimum may win the
tie-break), so then every node filters from its first state, as if
``FILTER_FROM`` were 0. The state budget charges every state that enters a
table, also one dropped later.
"""

from fractions import Fraction
from itertools import repeat
from math import inf, lcm

from .bits import bit, bits
from .errors import InvariantError, ResourceLimitError

DEFAULT_STATE_BUDGET = 10**7
FILTER_FROM = 1024


def _scale(weights):
    """The lcm of the weights' denominators: the least factor that makes
    every weight an integer."""
    return lcm(*(w.denominator for w in weights.values))


def run_nice_dp(
    nice_td, empty, bag_part, add, drop, merge, weights, budget, budget_message, families=None
):
    """Fill one table per node bottom-up and return (tables, backpointers).

    The state algebra: the leaf state ``empty``; ``bag_part(state)``, the
    solution's mask inside the bag; ``add(v, state)``, the state with the
    introduced v in the solution; ``drop(v, state)``, the state with the
    forgotten v out of its bag part; ``merge(left, right)`` of two join
    partners with equal bag parts. ``add`` and ``merge`` return None to
    refuse. An added v gains ``weights[v]``; a join is worth left + right
    minus the weight of their bag part. Values are integers: the weights
    times the lcm of their denominators. ``families`` yields one item per
    node, in node order: a zero-argument builder of the node's member set,
    or None to keep every state; no stream keeps every state everywhere.
    The driver calls a node's builder at most once: when the table would
    grow past ``FILTER_FROM`` states, or at the first state when a child
    was filtered or a weight is zero. From then on only members enter.
    More than ``budget`` states entering tables over all nodes raise
    ResourceLimitError(budget_message).
    """
    scale = _scale(weights)
    ints = [w.numerator * (scale // w.denominator) for w in weights.values]
    filter_from = FILTER_FROM if all(ints) else 0
    tables = [None] * nice_td.size
    backptr = [None] * nice_td.size
    filtered = [False] * nice_td.size
    states_seen = 0
    if families is None:
        families = repeat(None, nice_td.size)
    for i, (node, build) in enumerate(zip(nice_td.nodes, families, strict=True)):
        table = {}
        bp = {}
        members = None
        # the table size at which the next new state builds the family
        if build is None:
            limit = inf
        elif any(filtered[c] for c in node.children):
            limit = 0
        else:
            limit = filter_from

        def push(state, value, origin):
            nonlocal states_seen, members, limit
            if members is not None and state not in members:
                return
            cur = table.get(state)
            if cur is None:
                if len(table) >= limit:
                    members, limit = build(), inf
                    for rejected in [s for s in table if s not in members]:
                        del table[rejected], bp[rejected]
                    if state not in members:
                        return
                states_seen += 1
                if states_seen > budget:
                    raise ResourceLimitError(budget_message)
            if cur is None or value > cur or (value == cur and origin < bp[state]):
                table[state] = value
                bp[state] = origin

        if node.kind == "leaf":
            push(empty, 0, ())
        elif node.kind == "join":
            left, right = (tables[c] for c in node.children)
            by_part = {}
            for s1 in left:
                by_part.setdefault(bag_part(s1), []).append(s1)
            for s2 in sorted(right):
                part = bag_part(s2)
                if part in by_part:
                    part_weight = sum(ints[u] for u in bits(part))
                    for s1 in by_part[part]:
                        merged = merge(s1, s2)
                        if merged is not None:
                            push(merged, left[s1] + right[s2] - part_weight, (s1, s2))
        else:
            v = node.vertex
            child = tables[node.children[0]]
            for state in sorted(child):
                value = child[state]
                if node.kind == "forget" and bag_part(state) & bit(v):
                    push(drop(v, state), value, (state,))
                    continue
                push(state, value, (state,))
                if node.kind == "introduce":
                    grown = add(v, state)
                    if grown is not None:
                        push(grown, value + ints[v], (state,))
        tables[i] = table
        backptr[i] = bp
        filtered[i] = members is not None
    return tables, backptr


def best_solution(nice_td, tables, backptr, weights, bag_mask, accept, check=None):
    """(value, vertex mask) of the best root state ``accept`` admits (the
    first in sorted order on ties), or None when it admits none.
    The value is a Fraction: the integer table value over the weights' scale.
    The mask comes from the backpointer walk down from the root, where
    ``bag_mask(state)`` is the state's part of the solution and ``check``
    sees every non-leaf state; a mask whose weight is not the value raises
    InvariantError."""
    best = root_state = None
    for state, value in sorted(tables[nice_td.root].items()):
        if accept(state) and (best is None or value > best):
            best, root_state = value, state
    if best is None:
        return None
    best = Fraction(best, _scale(weights))
    solution = 0
    stack = [(nice_td.root, root_state)]
    while stack:
        i, state = stack.pop()
        node = nice_td.nodes[i]
        if node.kind == "leaf":
            continue
        if check is not None:
            check(state)
        if node.kind == "introduce" and bag_mask(state) & bit(node.vertex):
            solution |= bit(node.vertex)
        stack.extend(zip(node.children, backptr[i][state]))
    if weights.of_set(solution) != best:
        raise InvariantError(
            f"reconstructed weight {weights.of_set(solution)} differs from optimum {best}"
        )
    return best, solution
