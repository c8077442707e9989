"""The bottom-up dynamic program over a nice tree decomposition.

The MWIS, induced-forest and structured solvers are one leaf / introduce /
forget / join recursion (Kloks, Treewidth, 1994) that differs only in its
state type and in the family filtering the states. A solver supplies the
state algebra and a family callable, ``families(i)`` for node i's member
set; this module owns the rest: the transitions and their value
arithmetic, the pass over the nodes, when a family is built, the state
budget and the decoding of the optimum.

Table values are integers that name their partial solution. The rational
weights are scaled once by the lcm of their denominators, and vertex v of n
is worth its scaled weight shifted left by n bits, plus the bonus bit
1 << (n - 1 - v). The bonus bits of a set never carry into its weight, so a
value fixes its vertex set, and of two sets the heavier has the larger
value, with ties going to the one whose indicator, read up from vertex 0, is
larger. The optimum is therefore unique: the canonical optimum, whatever the
decomposition, the family provider or the order in which states arrive.
Only the optimum is turned back into a Fraction.

The value is the certificate: the root value's bonus bits are the
optimum's vertex set, so no state records where it came from and no walk
goes back down the tree. The pass therefore keeps only its frontier, the
tables whose parent is not filled yet: a child's table is let go once its
parent's is filled, and when the pass ends only the root table is alive.

The families keep tables polynomial; exactness does not rest on them, since
every kept state is a real partial solution. So a node's family is built
only for a table that would hold more than ``FILTER_FROM`` states, or below
a filtered child; an introduce or forget node fills its table in one tight
pass first and filters it only then. Which nodes filter never changes the
reported solution: every vertex carries a positive bonus, so the canonical
optimum is inclusion-maximal, and each of its states lies in every family.
The state budget charges every state that enters a table, also one dropped
later, as though each entered one at a time (see ``run_nice_dp``).
"""

from fractions import Fraction
from math import inf, lcm

from .bits import bits
from .errors import InvariantError

DEFAULT_STATE_BUDGET = 10**7
FILTER_FROM = 1024


def _scale(weights):
    """The lcm of the weights' denominators: the least factor that makes
    every weight an integer."""
    return lcm(*(w.denominator for w in weights.values))


def _values(weights):
    """Each vertex's integer value: its weight times the scale, shifted
    left by n bits, plus its bonus bit 1 << (n - 1 - v)."""
    scale, n = _scale(weights), len(weights.values)
    return [
        (w.numerator * (scale // w.denominator)) << n | 1 << (n - 1 - v)
        for v, w in enumerate(weights.values)
    ]


def run_nice_dp(nice_td, empty, bag_part, add, drop, merge, weights, budget, families=None):
    """Fill one table per node bottom-up and yield each table, in node
    order, once it is filled; the root's comes last.

    The state algebra: the leaf state ``empty``; ``bag_part(state)``, the
    solution's mask inside the bag; ``add(v, state)``, the state with the
    introduced v in the solution; ``drop(v, state)``, for a state whose bag
    part holds the forgotten v, the state without it; ``merge(left, right)``
    of two join partners with equal bag parts. ``add`` and ``merge`` return
    None to refuse. An added v gains its value; a join is worth left + right
    minus the value of their bag part. Values are integers that fix their
    vertex sets (see the module docstring), so two routes to one state with
    one value are one partial solution.

    An introduce node fills its table in one loop over its child's (each
    child state, then its extension by v), a forget node projects each
    child state and keeps the larger value, and a table of at most
    ``FILTER_FROM`` states below no filtered child is charged its size at
    once. Any other table, and a join's merged pairs, enter state by state,
    each charged one unit of ``budget`` (an ``imtw.errors.Budget``) as it
    enters: ``families(i)`` gives node i's member set when a new state
    would take the table past ``FILTER_FROM``, or at the first state below
    a filtered child, and from then on only members enter. So ``families``
    (None keeps every state) is called at most once per node, in node
    order, only where a node filters, and the pass stops with the budget's
    ResourceLimitError at the node that overruns it. Only the frontier is
    kept: a child's table is let go once its parent's is filled, so the
    last table yielded, the root's, is the only one alive at the end.
    """
    ints = _values(weights)
    frontier = {}  # node -> its table, until its parent's table is filled
    filtered = set()  # the nodes whose family was built
    spend = budget.spend
    for i, (kind, v, _, children) in enumerate(nice_td.nodes):
        if kind == "introduce":
            gain = ints[v]
            table = {}
            # a child state lacks v and its extension holds it, so only
            # extensions can meet again
            for state, value in frontier.pop(children[0]).items():
                table[state] = value
                grown = add(v, state)
                if grown is not None:
                    value += gain
                    if table.get(grown, -1) < value:
                        table[grown] = value
        elif kind == "forget":
            b = 1 << v
            table = {}
            for state, value in frontier.pop(children[0]).items():
                if bag_part(state) & b:
                    state = drop(v, state)
                if table.get(state, -1) < value:
                    table[state] = value
        elif kind == "leaf":
            table = {empty: 0}
        else:
            table = None
        limit = inf if families is None else FILTER_FROM if filtered.isdisjoint(children) else 0
        if table is not None and len(table) <= limit:
            spend(len(table))
        else:
            kept, members = {}, None
            # only the loop holds the filled table or the join's generator,
            # which holds the children's tables, so both go when it ends
            for state, value in (
                table.items() if table is not None
                else _join_candidates(*map(frontier.pop, children), bag_part, merge, ints)
            ):
                if members is not None and state not in members:
                    continue
                cur = kept.get(state)
                if cur is None:
                    if len(kept) >= limit:
                        members, limit = families(i), inf
                        filtered.add(i)
                        for rejected in [s for s in kept if s not in members]:
                            del kept[rejected]
                        if state not in members:
                            continue
                    spend()
                elif value <= cur:
                    continue
                kept[state] = value
            table = kept
        frontier[i] = table
        yield table


def _join_candidates(left, right, bag_part, merge, ints):
    """(state, value) of every merged pair of join partners, one pair at a
    time: the pairs are never listed."""
    by_part = {}
    for s1 in left:
        by_part.setdefault(bag_part(s1), []).append(s1)
    part_values = {}  # each shared bag part's value, summed once
    for s2 in right:
        part = bag_part(s2)
        if part in by_part:
            part_value = part_values.get(part)
            if part_value is None:
                part_value = part_values[part] = sum(ints[u] for u in bits(part))
            for s1 in by_part[part]:
                merged = merge(s1, s2)
                if merged is not None:
                    yield merged, left[s1] + right[s2] - part_value


def best_solution(root_table, weights, accept):
    """(value, vertex mask) of the best root state ``accept`` admits, or
    None when it admits none. Values fix their vertex sets, so the best is
    unique: the canonical optimum. The value is a Fraction: the integer
    table value without its bonus bits, over the weights' scale. The mask
    is the value's bonus bits, the certificate every value carries: vertex
    v is in the solution when bit n - 1 - v is set. A mask whose weight is
    not the value raises InvariantError."""
    best = max((value for state, value in root_table.items() if accept(state)), default=None)
    if best is None:
        return None
    n = len(weights.values)
    # the n bonus bits read backwards: bit n - 1 - v of the value is vertex v
    solution = int(format(best & ((1 << n) - 1), f"0{n}b")[::-1], 2)
    best = Fraction(best >> n, _scale(weights))
    if weights.of_set(solution) != best:
        raise InvariantError(
            f"reconstructed weight {weights.of_set(solution)} differs from optimum {best}"
        )
    return best, solution
