"""Max Weight Induced Forest over decompositions with small bag matchings.

The solver state at a node is a signature (Z, pi): Z is the solution's
intersection with the bag and pi groups Z by connectivity inside the subtree's
vertex set. Signatures are canonical tuples: Z as a bitmask, pi as a tuple of
block masks sorted by lowest member.

Two family enumerators describe the states. The exhaustive one lists all
forest-inducing Z with every component-respecting partition; it is the oracle
superset. The bounded one reproduces the witness structure of maximal induced
forests: a forest partitions into skeleton (degree two or more, plus one
designated vertex per two-vertex component), leaves, and trivial vertices.
At a bag X with touching matchings of size at most k,

  * the skeleton meets X in at most 8k vertices (the set S),
  * leaves and trivial vertices extend to a maximal independent set whose
    trace I on X comes from a polynomial trace family,
  * a set Q of at most 4k skeleton vertices near X classifies I minus S:
    exactly one Q-neighbor makes a leaf, none makes a trivial vertex, two or
    more marks an impostor that is not in the solution at all,
  * a partition of S and Q by subtree connectivity determines pi.

Enumerating (S, I, Q, partition) and reconstructing (Z, pi) covers the
signature of every maximal induced forest. The enumerator prunes tuples that
cannot arise from any such witness (each pruning rule is justified by a
structural fact about maximal forests, see inline notes); every emitted pair
is still one of the unrestricted construction's outputs, so the family bound
(12k)^(12k) * n^(14k+2) continues to hold.
"""

from itertools import combinations

from .bits import bit, bits, lowest_bit, mask_of, popcount, to_tuple
from .errors import InputError, InvariantError, ResourceLimitError
from .nicedp import DEFAULT_STATE_BUDGET, chosen_vertices, run_nice_dp
from .oracles import find_cycle_within, is_induced_forest
from .traces import trace_family_for_bag

DEFAULT_ENUM_BUDGET = 10**8
EXHAUSTIVE_BAG_CAP = 16


# ---------------------------------------------------------------------------
# Forest anatomy and signatures


class ForestAnatomy:
    """Partition of an induced forest into skeleton, leaves, trivial vertices."""

    __slots__ = ("skeleton", "leaves", "trivial")

    def __init__(self, skeleton, leaves, trivial):
        self.skeleton = skeleton
        self.leaves = leaves
        self.trivial = trivial


def forest_anatomy(graph, forest_mask):
    """Anatomy of an induced forest; two-vertex components put their lower
    vertex into the skeleton and the higher one among the leaves."""
    if not is_induced_forest(graph, forest_mask):
        cycle = find_cycle_within(graph, forest_mask)
        raise InputError(f"set does not induce a forest; cycle {tuple(cycle)}")
    skeleton = leaves = trivial = 0
    for comp in graph.components_within(forest_mask):
        size = popcount(comp)
        if size == 1:
            trivial |= comp
        elif size == 2:
            low = bit(lowest_bit(comp))
            skeleton |= low
            leaves |= comp & ~low
        else:
            for v in bits(comp):
                if popcount(graph.adj_mask(v) & comp) >= 2:
                    skeleton |= bit(v)
                else:
                    leaves |= bit(v)
    return ForestAnatomy(skeleton, leaves, trivial)


def canonical_blocks(blocks):
    return tuple(sorted((b for b in blocks if b), key=lowest_bit))


def signature_in(graph, forest_mask, bag, vt):
    """Signature of a forest at a bag, connectivity taken inside ``vt``."""
    z = forest_mask & bag
    return z, canonical_blocks(comp & z for comp in graph.components_within(forest_mask & vt))


# ---------------------------------------------------------------------------
# Families


class SignatureFamily:
    __slots__ = ("signatures", "provider")

    def __init__(self, signatures, provider):
        self.signatures = frozenset(signatures)
        self.provider = provider

    def __contains__(self, sig):
        return sig in self.signatures

    def __len__(self):
        return len(self.signatures)


def set_partitions(items):
    """All partitions of ``items`` as tuples of tuples, each exactly once."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield ((first,),) + sub
        for i in range(len(sub)):
            yield sub[:i] + ((first,) + sub[i],) + sub[i + 1 :]


_PARTITION_PATTERNS = {}


def _partition_patterns(size):
    """Partitions of range(size), cached; reused across enumeration calls."""
    if size not in _PARTITION_PATTERNS:
        _PARTITION_PATTERNS[size] = tuple(set_partitions(range(size)))
    return _PARTITION_PATTERNS[size]


def signature_family_exhaustive(graph, bag):
    """Every forest-inducing subset of the bag with every partition whose
    blocks are unions of its components. Superset of all true signatures."""
    if popcount(bag) > EXHAUSTIVE_BAG_CAP:
        raise ResourceLimitError(f"exhaustive families capped at bag size {EXHAUSTIVE_BAG_CAP}")
    budget_left = DEFAULT_ENUM_BUDGET
    sigs = set()
    members = to_tuple(bag)
    for r in range(len(members) + 1):
        for chosen in combinations(members, r):
            z = mask_of(chosen)
            if not is_induced_forest(graph, z):
                continue
            comps = graph.components_within(z)
            for parts in set_partitions(comps):
                blocks = canonical_blocks(
                    sum(part[1:], start=part[0]) if len(part) > 1 else part[0] for part in parts
                )
                sigs.add((z, blocks))
                budget_left -= 1
                if budget_left < 0:
                    raise ResourceLimitError(
                        "exhaustive signature budget exceeded", partial_count=len(sigs)
                    )
    return SignatureFamily(sigs, "exhaustive")


def signature_family_paper(graph, bag, vt, k, traces):
    """Bounded signature family covering every maximal induced forest.

    traces: the bag's trace family members (candidate I sets), built with the
    same k. vt: the subtree vertex set of the node.
    """
    n = graph.n
    budget_left = DEFAULT_ENUM_BUDGET
    adj = [graph.adj_mask(v) for v in range(n)]
    closed_bag = graph.closed_neighborhood_of_set(bag)
    s_cap = 8 * k
    q_cap = 4 * k

    # candidate skeleton traces: forest-inducing subsets of the bag, size <= 8k
    s_candidates = []
    members = to_tuple(bag)
    for r in range(min(s_cap, len(members)) + 1):
        for chosen in combinations(members, r):
            s = mask_of(chosen)
            if is_induced_forest(graph, s):
                s_candidates.append(s)

    sigs = set()
    for i_mask in traces:
        # Q lives in the closed neighborhood of the bag, inside the skeleton.
        # A minimal Q gives every member q a private job: some I-vertex whose
        # only Q-neighbor is q, or one with exactly two Q-neighbors.
        pool = [q for q in bits(closed_bag) if adj[q] & i_mask]
        i_members = to_tuple(i_mask)
        for q_size in range(min(q_cap, len(pool)) + 1):
            for q_tuple in combinations(pool, q_size):
                q_mask = mask_of(q_tuple)
                cnt = {v: popcount(adj[v] & q_mask) for v in i_members}
                if q_size and not all(
                    any(
                        adj[q] & bit(v) and (cnt[v] == 1 or cnt[v] == 2)
                        for v in i_members
                    )
                    for q in q_tuple
                ):
                    continue
                budget_left = _emit_for_witness(
                    graph, adj, bag, vt, s_candidates, i_mask, q_mask, cnt, sigs, budget_left
                )

    bound = ((12 * k) ** (12 * k) if k else 1) * max(n, 1) ** (14 * k + 2)
    if len(sigs) > bound:
        raise InvariantError(f"signature family has {len(sigs)} members, above the stated bound")
    return SignatureFamily(sigs, "paper")


def _emit_for_witness(graph, adj, bag, vt, s_candidates, i_mask, q_mask, cnt, sigs, budget_left):
    """Emit the signatures of all (S, I, Q) tuples for one fixed (I, Q).

    Classification of I minus S by Q-neighbor count: 1 puts the vertex among
    the leaves, 0 among the trivial vertices, 2 or more marks an impostor.
    In a true witness a leaf's single solution neighbor is its unique
    Q-neighbor, so a leaf has no other neighbor inside Z, and trivial
    vertices have none at all; tuples violating that cannot come from a
    maximal forest and are skipped. Everything that does not depend on S is
    hoisted out of the S loop.
    """
    full_leaves = []
    full_trivial = 0
    for v, c in cnt.items():
        if c == 1:
            full_leaves.append(v)
        elif c == 0:
            full_trivial |= bit(v)
    leaf_q = {v: lowest_bit(adj[v] & q_mask) for v in full_leaves}
    # masks that let most S candidates pass or fail with O(1) work
    trivial_adj_union = 0
    for v in bits(full_trivial):
        trivial_adj_union |= adj[v]
    leaf_bad_union = 0
    for v in full_leaves:
        leaf_bad_union |= adj[v] & ~bit(leaf_q[v])
    full_leaf_mask = mask_of(full_leaves)
    z_base = full_leaf_mask | full_trivial
    q_in_bag = q_mask & bag
    q_in_vt = q_mask & vt

    for s_mask in s_candidates:
        if q_in_bag & ~s_mask:
            continue  # skeleton members of Q inside the bag must lie in S
        budget_left -= 1
        if budget_left < 0:
            raise ResourceLimitError(
                "signature enumeration budget exceeded", partial_count=len(sigs)
            )
        # trivial vertices may not see S; leaves may only see their Q-neighbor
        if s_mask & trivial_adj_union and any(
            adj[v] & s_mask for v in bits(full_trivial & ~s_mask)
        ):
            continue
        if s_mask & leaf_bad_union and any(
            adj[v] & s_mask & ~bit(leaf_q[v]) for v in full_leaves if not s_mask & bit(v)
        ):
            continue
        z = s_mask | z_base
        # group S and the in-subtree part of Q by adjacency: adjacent members
        # are connected inside the subtree forest, so they share a block
        classes = graph.components_within(s_mask | q_in_vt)
        singles = []
        attached = [0] * len(classes)
        for v in full_leaves:
            vb = bit(v)
            if vb & s_mask:
                continue
            qb = bit(leaf_q[v])
            if not qb & vt:
                singles.append(vb)
                continue
            for idx, cls in enumerate(classes):
                if cls & qb:
                    attached[idx] |= vb
                    break
        for v in bits(full_trivial & ~s_mask):
            singles.append(bit(v))
        fertile = [
            (classes[idx] & s_mask) | attached[idx]
            for idx in range(len(classes))
            if classes[idx] & s_mask or attached[idx]
        ]
        base_blocks = canonical_blocks(singles)
        for pattern in _partition_patterns(len(fertile)):
            blocks = list(base_blocks)
            for part in pattern:
                blk = 0
                for idx in part:
                    blk |= fertile[idx]
                blocks.append(blk)
            sigs.add((z, canonical_blocks(blocks)))
        budget_left -= len(fertile)
    return budget_left


# ---------------------------------------------------------------------------
# Partition merge for join nodes


def merge_partitions(z, components, blocks1, blocks2):
    """Combine the two children's partitions at a join node, or None.

    Builds the bipartite incidence graph with one node per block on each side
    and one edge per component of the bag solution; any repeated edge or cycle
    means the two partial forests close a cycle together. On success the
    result's blocks are the unions of components falling in one incidence
    component.
    """
    index1 = {}
    for i, b in enumerate(blocks1):
        for v in bits(b):
            index1[v] = i
    index2 = {}
    for i, b in enumerate(blocks2):
        for v in bits(b):
            index2[v] = i
    size = len(blocks1) + len(blocks2)
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp_side1 = []
    for comp in components:
        v = lowest_bit(comp)
        a, b = index1[v], len(blocks1) + index2[v]
        ra, rb = find(a), find(b)
        if ra == rb:
            return None
        parent[ra] = rb
        comp_side1.append((comp, a))
    merged = {}
    for comp, a in comp_side1:
        merged.setdefault(find(a), 0)
        merged[find(a)] |= comp
    return canonical_blocks(merged.values())


# ---------------------------------------------------------------------------
# The dynamic program


def mwif_dp(
    graph, nice_td, weights, provider="exhaustive", k=None, state_budget=DEFAULT_STATE_BUDGET
):
    """Max weight induced forest; exact for either family provider.

    provider "paper" needs k at least the decomposition's measured mu.
    Returns (weight, vertex mask); the solution is re-checked for acyclicity
    and weight before returning.
    """
    if provider not in ("exhaustive", "paper"):
        raise InputError(f"unknown family provider {provider!r}")
    if provider == "paper" and k is None:
        raise InputError("the bounded family provider needs the matching bound k")
    # the exhaustive provider runs unfiltered: introduce keeps Z
    # forest-inducing and every block stays a union of components of G[Z],
    # so every state the transitions reach lies in the exhaustive family
    family_sets = None
    if provider == "paper":
        vt = nice_td.subtree_vertex_masks()
        family_sets = [
            signature_family_paper(
                graph, node.bag, vt[i], k, trace_family_for_bag(graph, node.bag, k, node=i).members
            ).signatures
            for i, node in enumerate(nice_td.nodes)
        ]

    def introduce(v, sig, value):
        yield sig, value
        z, blocks = sig
        # v joins: its neighbors in Z must sit in pairwise distinct blocks,
        # which then merge around v
        nv = graph.adj_mask(v)
        untouched = []
        merged = bit(v)
        for b in blocks:
            hit = b & nv
            if not hit:
                untouched.append(b)
            elif popcount(hit) == 1:
                merged |= b
            else:
                return
        yield (z | bit(v), canonical_blocks(untouched + [merged])), value + weights[v]

    def forget(v, sig, value):
        z, blocks = sig
        if z & bit(v):
            keep = ~bit(v)
            yield (z & keep, canonical_blocks(b & keep for b in blocks)), value
        else:
            yield sig, value

    def join(left, right):
        by_z = {}
        for sig in left:
            by_z.setdefault(sig[0], []).append(sig)
        comp_cache = {}
        for sig2 in sorted(right):
            z = sig2[0]
            if z not in by_z:
                continue
            if z not in comp_cache:
                comp_cache[z] = (graph.components_within(z), weights.of_set(z))
            comps, wz = comp_cache[z]
            for sig1 in by_z[z]:
                blocks = merge_partitions(z, comps, sig1[1], sig2[1])
                if blocks is not None:
                    yield (z, blocks), left[sig1] + right[sig2] - wz, (sig1, sig2)

    empty = (0, ())
    tables, backptr = run_nice_dp(
        nice_td, empty, introduce, forget, join,
        keep=lambda i, sig: family_sets is None or sig in family_sets[i],
        budget=state_budget,
        budget_message=f"forest DP state budget {state_budget} exceeded",
    )
    root_table = tables[nice_td.root]
    if empty not in root_table:
        raise InvariantError("empty signature missing at the root; families are broken")
    best = root_table[empty]
    solution = chosen_vertices(nice_td, backptr, empty, lambda sig: sig[0])

    if not is_induced_forest(graph, solution):
        raise InvariantError("reconstructed solution does not induce a forest")
    if weights.of_set(solution) != best:
        raise InvariantError(
            f"reconstructed weight {weights.of_set(solution)} differs from optimum {best}"
        )
    return best, solution
