"""The bottom-up dynamic program over a nice tree decomposition.

The MWIS, induced-forest and structured solvers are one leaf / introduce /
forget / join recursion (Kloks, Treewidth, 1994) that differs only in its
state type and in the family filtering the states. A solver supplies the
state algebra and a per-node family; this module owns the rest: the
transitions and their value arithmetic, the pass over the nodes, the family
lifetime, the state budget, the tie-break and the backpointer walk. A table
maps each kept state to its best value; equal values go to the smallest
origin, the tuple of child states it came from, so every table and every
reconstruction is deterministic. Table values are integers: the rational
weights are scaled once by the lcm of their denominators, which keeps every
comparison, and only the optimum is turned back into a Fraction.
"""

from fractions import Fraction
from itertools import repeat
from math import lcm

from .bits import bit, bits
from .errors import InvariantError, ResourceLimitError

DEFAULT_STATE_BUDGET = 10**7


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
    times the lcm of their denominators. ``families`` yields one member set
    per node, in node order, and only its members enter that node's table;
    a None set, or no stream, keeps every state. The driver pulls the next
    set when it reaches the node.
    More than ``budget`` table entries over all nodes raise
    ResourceLimitError(budget_message).
    """
    scale = _scale(weights)
    ints = [w.numerator * (scale // w.denominator) for w in weights.values]
    tables = [None] * nice_td.size
    backptr = [None] * nice_td.size
    states_seen = 0
    if families is None:
        families = repeat(None, nice_td.size)
    for i, (node, members) in enumerate(zip(nice_td.nodes, families, strict=True)):
        table = {}
        bp = {}

        def push(state, value, origin):
            nonlocal states_seen
            if members is not None and state not in members:
                return
            cur = table.get(state)
            if cur is None:
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
