"""The bottom-up dynamic program over a nice tree decomposition.

The MWIS, induced-forest and structured solvers are one leaf / introduce /
forget / join recursion (Kloks, Treewidth, 1994) that differs only in its
state type and in the family filtering the states. This module owns what
they share: the pass over the nodes, the state budget, the tie-break and the
backpointer walk. A table maps each kept state to its best value; equal
values go to the smallest origin, the tuple of child states it came from, so
every table and every reconstruction is deterministic.
"""

from fractions import Fraction

from .bits import bit
from .errors import ResourceLimitError

DEFAULT_STATE_BUDGET = 10**7


def run_nice_dp(nice_td, leaf, introduce, forget, join, keep, budget, budget_message):
    """Fill one table per node bottom-up and return (tables, backpointers).

    ``introduce(v, state, value)`` and ``forget(v, state, value)`` yield
    (state, value) pairs for each child state, visited in sorted order;
    ``join(left, right)`` yields (state, value, origin) triples. Only states
    with ``keep(node index, state)`` enter a table. More than ``budget``
    table entries over all nodes raise ResourceLimitError(budget_message).
    """
    tables = [None] * nice_td.size
    backptr = [None] * nice_td.size
    states_seen = 0
    for i, node in enumerate(nice_td.nodes):
        table = {}
        bp = {}

        def push(state, value, origin):
            nonlocal states_seen
            if not keep(i, state):
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
            push(leaf, Fraction(0), ())
        elif node.kind == "join":
            for state, value, origin in join(*(tables[c] for c in node.children)):
                push(state, value, origin)
        else:
            step = introduce if node.kind == "introduce" else forget
            child = tables[node.children[0]]
            for state in sorted(child):
                for new_state, value in step(node.vertex, state, child[state]):
                    push(new_state, value, (state,))
        tables[i] = table
        backptr[i] = bp
    return tables, backptr


def chosen_vertices(nice_td, backptr, root_state, bag_mask, check=None):
    """Vertex mask of the solution behind ``root_state``, found by walking the
    backpointers down from the root; ``bag_mask(state)`` is the state's part
    of the solution and ``check(state)``, if given, sees every non-leaf state
    on the way."""
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
    return solution
