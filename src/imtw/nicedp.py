"""The bottom-up dynamic program over a nice tree decomposition.

The MWIS, induced-forest and structured solvers are one leaf / introduce /
forget / join recursion (Kloks, Treewidth, 1994) that differs only in its
state type and in the family filtering the states. A solver supplies the
state algebra and a per-node family builder; this module owns the rest: the
transitions and their value arithmetic, the pass over the nodes, when a
family is built, the state budget and the decoding of the optimum.

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
only once its table would hold more than ``FILTER_FROM`` states, or from its
first state on when a child was filtered; the states already in the table
that the family rejects are then dropped. Which nodes filter never changes
the reported solution: every vertex carries a positive bonus, so the
canonical optimum is inclusion-maximal, and each of its states lies in every
family. The state budget, an ``imtw.errors.Budget``, charges every state
that enters a table, also one dropped later.
"""

from fractions import Fraction
from itertools import repeat
from math import inf, lcm

from .bits import bit, bits
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
    introduced v in the solution; ``drop(v, state)``, the state with the
    forgotten v out of its bag part; ``merge(left, right)`` of two join
    partners with equal bag parts. ``add`` and ``merge`` return None to
    refuse. An added v gains its value; a join is worth left + right minus
    the value of their bag part. Values are integers that fix their vertex
    sets (see the module docstring), so two routes to one state with one
    value are one partial solution. ``families`` yields one item per
    node, in node order: a zero-argument builder of the node's member set,
    or None to keep every state; no stream keeps every state everywhere.
    The driver calls a node's builder at most once: when the table would
    grow past ``FILTER_FROM`` states, or at the first state when a child
    was filtered. From then on only members enter.
    ``budget``, an ``imtw.errors.Budget``, is charged one unit per state
    entering a table, so the pass stops with its ResourceLimitError at the
    state that overruns it. A node's candidate states come
    from a generator of its kind, a join's pair by pair, so no join lists
    its pairs, and one loop enters them into the node's table.
    Only the frontier is kept: a child's table is let go once its parent's
    is filled, so a consumer that keeps only the last table yielded holds
    just the root's when the pass ends.
    """
    ints = _values(weights)
    frontier = {}  # node -> its table, until its parent's table is filled
    filtered = set()  # the nodes whose family was built
    spend = budget.spend
    if families is None:
        families = repeat(None, nice_td.size)
    for i, (node, build) in enumerate(zip(nice_td.nodes, families, strict=True)):
        # each child's table leaves the frontier for the node's candidate
        # generator, which holds the only reference and drops it once exhausted
        kind = node.kind
        children = map(frontier.pop, node.children)
        if kind == "join":
            candidates = _join_candidates(*children, bag_part, merge, ints)
        elif kind == "leaf":
            candidates = ((empty, 0),)
        elif kind == "introduce":
            candidates = _introduce_candidates(*children, node.vertex, add, ints)
        else:
            candidates = _forget_candidates(*children, node.vertex, bag_part, drop)
        table = frontier[i] = {}
        members = None
        # the table size at which the next new state builds the family
        if build is None:
            limit = inf
        elif not filtered.isdisjoint(node.children):
            limit = 0
        else:
            limit = FILTER_FROM
        for state, value in candidates:
            if members is not None and state not in members:
                continue
            cur = table.get(state)
            if cur is None:
                if len(table) >= limit:
                    members, limit = build(), inf
                    for rejected in [s for s in table if s not in members]:
                        del table[rejected]
                    if state not in members:
                        continue
                spend()
            elif value <= cur:
                continue
            table[state] = value
        if members is not None:
            filtered.add(i)
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


def _introduce_candidates(child, v, add, ints):
    """Each child state without v, then with v when ``add`` allows it."""
    gain = ints[v]
    for state, value in child.items():
        yield state, value
        grown = add(v, state)
        if grown is not None:
            yield grown, value + gain


def _forget_candidates(child, v, bag_part, drop):
    """Each child state, with v dropped from its bag part where it holds v."""
    b = bit(v)
    for state, value in child.items():
        yield (drop(v, state) if bag_part(state) & b else state), value


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
