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

The signatures of all (S, I, Q, partition) tuples cover the signature of
every maximal induced forest. Tuples that cannot arise from any such witness
are pruned (each rule is justified by a structural fact about maximal
forests, see inline notes); every remaining signature is still one of the
unrestricted construction's outputs, so the family bound
(12k)^(12k) * n^(14k+2) continues to hold. The solver never lists the
family, and builds one only where the DP driver calls ``families(i)``: for a
table that outgrows ``nicedp.FILTER_FROM`` states or whose child was
filtered. The DP's canonical optimum is a maximal forest, since every vertex
carries a positive bonus (``imtw.nicedp``), so its signatures lie in every
family and the reported solution does not depend on which nodes filter;
``--budget`` is charged as ``imtw.nicedp`` describes. Each family
enumeration charges an ``imtw.errors.Budget`` of ``DEFAULT_ENUM_BUDGET``
units of its own: the exhaustive one a unit per signature, the eager bounded
one a unit per (witness, S) tuple and per fertile class, and a membership a
unit per tuple its walks visit. A built family decides each signature it is
asked about at the first (witness, S) tuple that covers it
(BoundedFamilyMembership). Per Z it resumes a walk over only the tuples that
emit Z, pulling witnesses from one shared generator as far as some walk
needs them and expanding no partition; only a non-member walks all of its
Z's tuples. The generator counts each I-vertex's Q-neighbors with three
running masks and drops a duplicate witness by its key before building it;
each witness carries a ``need`` mask (its leaves, trivial vertices and Q's
bag members), so a walk passes over a witness that cannot emit Z with one
AND. The eager enumerator signature_family_paper runs the same witness
generator and the same rules and expands every partition; it is the coverage
oracle for tests and ``imtw verify``.

A join merges two children's signatures with one Z (Bodlaender, Cygan,
Kratsch and Nederlof, Inf. Comput. 243, 2015) on component labels: for each
component of G[Z], in order, the index of the child's block that holds it.
Whether the merge closes a cycle, and which components each merged block
unites, depend only on the two label tuples, not on Z. So each signature is
labelled once per ``mwif_dp`` run, a memo that lives for the run maps each
label pair to its merged labels (or None on a cycle), and only a pair not
seen before runs the union-find; a repeated pair ORs Z's components into
its blocks.
"""

from collections import deque
from itertools import combinations

from .bits import bit, bits, lowest_bit, mask_of, popcount, to_tuple
from .errors import Budget, InputError, InvariantError, ResourceLimitError
from .nicedp import DEFAULT_STATE_BUDGET, best_solution, run_nice_dp
from .oracles import find_cycle_within, is_induced_forest
from .traces import trace_families
# not called here: the benchmark's span recorder patches it under this name
from .traces import trace_family_for_bag  # noqa: F401

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
    spend = Budget(DEFAULT_ENUM_BUDGET, "exhaustive signature budget exceeded").spend
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
                spend(1, len(sigs))
    return SignatureFamily(sigs, "exhaustive")


def _family_bound(n, k):
    """The stated size bound (12k)^(12k) n^(14k+2) of the bounded family."""
    return ((12 * k) ** (12 * k) if k else 1) * max(n, 1) ** (14 * k + 2)


class _Witness:
    """What one (I, Q) witness at a node fixes before S is chosen.

    I splits by Q-neighbor count: 1 puts a vertex among the leaves (``leaf_q``
    pairs it with that neighbor), 0 among the trivial vertices, 2 or more
    marks an impostor that is not in the solution. ``z_base`` is the leaves
    and trivial vertices; the two unions let most S pass or fail the leaf and
    trivial rules with O(1) work. ``need`` is z_base and Q's bag members,
    which every Z the witness emits holds: those members must lie in S, and
    since Q avoids I they lie in Z minus z_base exactly when they lie in Z.
    """

    __slots__ = (
        "leaf_q", "trivial", "z_base", "q_in_bag", "q_in_vt", "trivial_adj", "leaf_bad", "need"
    )

    def __init__(self, adj, leaf_q, trivial, leaves, q_in_bag, q_in_vt):
        self.leaf_q = leaf_q
        self.trivial = trivial
        self.z_base = trivial | leaves
        self.q_in_bag = q_in_bag
        self.q_in_vt = q_in_vt
        self.need = self.z_base | q_in_bag
        self.trivial_adj = 0
        for v in bits(trivial):
            self.trivial_adj |= adj[v]
        self.leaf_bad = 0
        for v, q in leaf_q:
            self.leaf_bad |= adj[v] & ~(1 << q)


def _witnesses(graph, adj, bag, vt, k, traces):
    """Every (I, Q) witness at a node: I a member of the bag's trace family,
    Q at most 4k skeleton vertices of the bag's closed neighborhood.

    Q-neighbor counts are three running masks over Q's members: ``one``,
    ``two`` and ``three`` hold the I-vertices with at least that many
    Q-neighbors. A minimal Q gives every member q a job: some I-vertex whose
    only Q-neighbor is q, or one with exactly two Q-neighbors. One I-vertex
    has jobs for at most two members, so no Q larger than 2|I| passes.
    Witnesses that fix the same leaves, trivial vertices and Q within the
    subtree admit the same S and give the same blocks, so only the first one
    is yielded, and a later one is recognised by its key before it is built.
    """
    closed_bag = to_tuple(graph.closed_neighborhood_of_set(bag))
    seen = set()
    for i_mask in traces:
        # each pool member with its I-neighbors; Q avoids I, which is independent
        pool = [(q, adj[q] & i_mask) for q in closed_bag if adj[q] & i_mask]
        for q_size in range(min(4 * k, len(pool), 2 * popcount(i_mask)) + 1):
            for chosen in combinations(pool, q_size):
                q_mask = one = two = three = 0
                for q, hit in chosen:
                    q_mask |= 1 << q
                    three |= two & hit
                    two |= one & hit
                    one |= hit
                leaves = one & ~two
                jobs = leaves | two & ~three
                if not all(hit & jobs for _, hit in chosen):
                    continue
                # a leaf's one Q-neighbor is the one bit of adj[v] & q_mask
                leaf_q = tuple((v, (adj[v] & q_mask).bit_length() - 1) for v in bits(leaves))
                trivial = i_mask & ~one
                q_in_bag, q_in_vt = q_mask & bag, q_mask & vt
                key = (leaf_q, trivial, q_in_bag, q_in_vt)
                if key not in seen:
                    seen.add(key)
                    yield _Witness(adj, leaf_q, trivial, leaves, q_in_bag, q_in_vt)


def _witness_blocks(adj, components, w, s_mask, vt):
    """The blocks one (S, I, Q) tuple fixes, as (singles, fertile), or None.

    In a true witness a leaf's single solution neighbor is its unique
    Q-neighbor, so a leaf has no other neighbor inside Z, and trivial
    vertices have none at all; an S violating that cannot come from a maximal
    forest. Otherwise S and the in-subtree part of Q group by adjacency into
    classes (adjacent members are connected inside the subtree forest, so
    they share a block), and each leaf joins its Q-neighbor's class. The
    fertile classes, sorted, are those holding S or leaves; ``singles`` masks
    the trivial vertices outside S and the leaves outside S whose Q-neighbor
    lies outside the subtree. The tuple's signatures are Z = S | z_base with
    the singles as one-vertex blocks plus any coarsening of the fertile
    classes.
    """
    singles = w.trivial & ~s_mask
    if s_mask & w.trivial_adj:
        rest = singles
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & s_mask:
                return None
            rest ^= low
    if s_mask & w.leaf_bad and any(
        adj[v] & s_mask & ~(1 << q) for v, q in w.leaf_q if not s_mask >> v & 1
    ):
        return None
    classes = components(s_mask | w.q_in_vt)
    attached = [0] * len(classes)
    for v, q in w.leaf_q:
        if s_mask >> v & 1:
            continue
        if not vt >> q & 1:
            singles |= 1 << v
            continue
        for idx, cls in enumerate(classes):
            if cls >> q & 1:
                attached[idx] |= 1 << v
                break
    fertile = tuple(sorted(
        (cls & s_mask) | leaves for cls, leaves in zip(classes, attached) if cls & s_mask or leaves
    ))
    return singles, fertile


def signature_family_paper(graph, bag, vt, k, traces):
    """Bounded signature family covering every maximal induced forest.

    traces: the bag's trace family members (candidate I sets), built with the
    same k. vt: the subtree vertex set of the node. Every (I, Q) witness is
    tried with every forest-inducing S of at most 8k bag vertices that holds
    Q's bag members, and each surviving tuple's partitions are expanded.
    """
    spend = Budget(DEFAULT_ENUM_BUDGET, "signature enumeration budget exceeded").spend
    adj = [graph.adj_mask(v) for v in range(graph.n)]
    s_candidates = []
    members = to_tuple(bag)
    for r in range(min(8 * k, len(members)) + 1):
        for chosen in combinations(members, r):
            s = mask_of(chosen)
            if is_induced_forest(graph, s):
                s_candidates.append(s)

    sigs = set()
    expanded = set()  # (Z, pair): tuples that agree on these emit the same signatures
    for w in _witnesses(graph, adj, bag, vt, k, traces):
        for s_mask in s_candidates:
            if w.q_in_bag & ~s_mask:
                continue  # skeleton members of Q inside the bag must lie in S
            # one unit per tuple and one per fertile class, all charged
            # before the tuple's partitions are expanded
            fixed = _witness_blocks(adj, graph.components_within, w, s_mask, vt)
            spend(1 if fixed is None else 1 + len(fixed[1]), len(sigs))
            z = s_mask | w.z_base
            if fixed is None or (z, fixed) in expanded:
                continue
            expanded.add((z, fixed))
            singles, fertile = fixed
            base_blocks = [bit(v) for v in bits(singles)]
            for pattern in _partition_patterns(len(fertile)):
                blocks = list(base_blocks)
                for part in pattern:
                    blk = 0
                    for idx in part:
                        blk |= fertile[idx]
                    blocks.append(blk)
                sigs.add((z, canonical_blocks(blocks)))

    if len(sigs) > _family_bound(graph.n, k):
        raise InvariantError(f"signature family has {len(sigs)} members, above the stated bound")
    return SignatureFamily(sigs, "paper")


def _coarsens(blocks, singles, fertile):
    """Whether ``blocks``, a partition of singles | union(fertile), keeps each
    single vertex as its own block and each fertile class inside one block."""
    for b in blocks:
        if b & singles and b & (b - 1):
            return False
    for cls in fertile:
        low = cls & -cls
        for b in blocks:
            if b & low:
                if cls & ~b:
                    return False
                break
    return True


class BoundedFamilyMembership:
    """Membership in ``signature_family_paper(graph, bag, vt, k, traces)``,
    decided per signature at its first covering tuple.

    Asked only about DP states: Z is a forest-inducing subset of the bag and
    the blocks partition it. A signature is a member exactly when some
    (witness, S) tuple emitting its Z (z_base within Z and Z minus z_base
    within S within Z) yields a (singles, fertile) pair whose singles and a
    coarsening of whose fertile classes are its blocks, whatever order the
    tuples are visited in. So each Z keeps a resumable walk over its tuples,
    a (witness index, S index) cursor, and the distinct pairs found so far:
    a query first tries those pairs, then pulls tuples until one covers (a
    member) or the walk is spent (a non-member). A witness whose ``need`` is
    not within Z emits none of Z's tuples, so the walk steps over it. The
    walks share one witness generator, pulled into a growing list only as far
    as some walk has reached. The enumeration budget is charged per tuple
    visited; a query that overruns it leaves its cursor on that tuple, so
    repeating the query overruns again instead of reading the walk as spent.
    The family size bound is checked on the members decided.
    """

    def __init__(self, graph, bag, vt, k, traces):
        self._components = graph.components_within
        self._vt = vt
        self._adj = [graph.adj_mask(v) for v in range(graph.n)]
        self._s_cap = 8 * k
        self._bound = _family_bound(graph.n, k)
        self._witness_source = _witnesses(graph, self._adj, bag, vt, k, traces)
        self._witness_list = []
        self._walks = {}  # Z -> [pairs found, witness index or None once spent, S index]
        self._decided = {}  # signature -> membership
        self._members = 0
        self._budget = Budget(DEFAULT_ENUM_BUDGET, "signature enumeration budget exceeded")

    def __contains__(self, sig):
        hit = self._decided.get(sig)
        if hit is None:
            hit = self._decided[sig] = self._covered(*sig)
            if hit:
                self._members += 1
                if self._members > self._bound:
                    raise InvariantError(
                        f"signature family has {self._members} members, above the stated bound"
                    )
        return hit

    def _covered(self, z, blocks):
        walk = self._walks.get(z)
        if walk is None:
            walk = self._walks[z] = [set(), 0, 0]
        pairs, i, j = walk
        for singles, fertile in pairs:
            if _coarsens(blocks, singles, fertile):
                return True
        witnesses = self._witness_list
        while i is not None:
            w = witnesses[i] if i < len(witnesses) else self._pull_witness()
            if w is None:
                walk[1] = None
                return False
            if not w.need & ~z:
                s_masks = self._s_masks(w, z)
                for j in range(j, len(s_masks)):
                    try:
                        self._budget.spend(1, self._members)
                    except ResourceLimitError:
                        walk[1], walk[2] = i, j
                        raise
                    fixed = _witness_blocks(self._adj, self._components, w, s_masks[j], self._vt)
                    if fixed is not None and fixed not in pairs:
                        pairs.add(fixed)
                        if _coarsens(blocks, *fixed):
                            walk[1], walk[2] = i, j + 1
                            return True
            i, j = i + 1, 0
        return False

    def _pull_witness(self):
        w = next(self._witness_source, None)
        if w is not None:
            self._witness_list.append(w)
        return w

    def _s_masks(self, w, z):
        """The S with which witness w, its ``need`` within Z, emits Z: Z minus
        z_base (which holds Q's bag members) plus any part of z_base that fits
        the 8k cap."""
        required = z & ~w.z_base
        room = self._s_cap - popcount(required)
        if room < 0:
            return ()
        if not room or not w.z_base:
            return (required,)
        optional = to_tuple(w.z_base)
        return [
            required | mask_of(extra)
            for r in range(min(room, len(optional)) + 1)
            for extra in combinations(optional, r)
        ]


# ---------------------------------------------------------------------------
# Partition merge for join nodes


def component_labels(components, blocks):
    """For each component of G[Z], in order, the index of the block holding it.

    ``components`` is ``components_within(Z)`` and ``blocks`` a canonical
    partition of Z into unions of them; both are ordered by lowest vertex, so
    the labels number the blocks in order of first appearance.
    """
    index = {}
    for i, b in enumerate(blocks):
        for v in bits(b):
            index[v] = i
    return tuple(index[lowest_bit(comp)] for comp in components)


def _merge_labels(labels1, labels2):
    """The label join behind ``merge_partitions``, or None on a cycle.

    Union-find on the bipartite incidence graph with one node per block on
    each side and one edge per component: a repeated edge or a cycle means
    the two partial forests close a cycle together. Each component is then
    labelled by its incidence class, numbered in order of first appearance.
    """
    offset = len(labels1)
    parent = list(range(2 * offset))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(labels1, labels2):
        ra, rb = find(a), find(offset + b)
        if ra == rb:
            return None
        parent[ra] = rb
    number = {}
    return tuple(number.setdefault(find(a), len(number)) for a in labels1)


_UNSEEN = object()


def merge_partitions(components, labels1, labels2, memo):
    """Combine the two children's partitions at a join node, or None.

    The children share Z; ``components`` is ``components_within(Z)`` and the
    labels are each child's ``component_labels``. Whether the partial forests
    close a cycle, and which components the merged blocks group, depend only
    on the two label tuples, so ``memo`` maps each label pair to its merged
    labels (None on a cycle) and only a pair not seen before runs the
    union-find. Each merged block is the OR of its components; labels
    numbered by first appearance give the blocks in canonical order.
    """
    key = (labels1, labels2)
    merged = memo.get(key, _UNSEEN)
    if merged is _UNSEEN:
        merged = memo[key] = _merge_labels(labels1, labels2)
    if merged is None:
        return None
    blocks = []
    for comp, label in zip(components, merged):
        if label == len(blocks):
            blocks.append(comp)
        else:
            blocks[label] |= comp
    return tuple(blocks)


# ---------------------------------------------------------------------------
# The dynamic program


def mwif_dp(graph, nice_td, weights, provider="exhaustive", state_budget=DEFAULT_STATE_BUDGET):
    """Max weight induced forest; exact for either family provider.

    provider "paper" bounds its families by ``nice_td.metrics.mu``.
    Returns (weight, vertex mask); the solution is re-checked for acyclicity
    and weight before returning.
    """
    if provider not in ("exhaustive", "paper"):
        raise InputError(f"unknown family provider {provider!r}")
    if provider == "paper":
        k, vt = nice_td.metrics.mu, nice_td.subtree_vertex_masks()
        traces = trace_families(graph, nice_td, k)

        def families(i):
            return BoundedFamilyMembership(graph, nice_td.nodes[i].bag, vt[i], k, traces(i))
    else:
        # the exhaustive provider runs unfiltered: add keeps Z forest-inducing
        # and every block stays a union of components of G[Z], so every state
        # the transitions reach lies in the family
        families = None

    adj = [graph.adj_mask(v) for v in range(graph.n)]

    def add(v, sig):
        z, blocks = sig
        # v joins: its neighbors in Z must sit in pairwise distinct blocks,
        # which merge around v; the merged block goes where its lowest
        # vertex puts it, so the blocks stay sorted
        nv, merged, untouched = adj[v], 1 << v, []
        for b in blocks:
            hit = b & nv
            if not hit:
                untouched.append(b)
            elif hit & (hit - 1):
                return None
            else:
                merged |= b
        low, at = merged & -merged, 0
        while at < len(untouched) and untouched[at] & -untouched[at] < low:
            at += 1
        untouched.insert(at, merged)
        return z | 1 << v, tuple(untouched)

    def drop(v, sig):
        z, blocks = sig
        # only v's block changes: it goes when v was all of it, and else
        # moves up past the blocks whose lowest vertex is now below its own
        vb, at = 1 << v, 0
        while not blocks[at] & vb:
            at += 1
        b, rest = blocks[at] ^ vb, blocks[:at] + blocks[at + 1 :]
        if not b:
            return z ^ vb, rest
        low = b & -b
        while at < len(rest) and rest[at] & -rest[at] < low:
            at += 1
        return z ^ vb, rest[:at] + (b,) + rest[at:]

    # per-run join caches: Z -> components of G[Z], signature -> its
    # component labels, label pair -> merged labels (None on a cycle)
    components = {}
    labels = {}
    memo = {}

    def labels_of(sig, comps):
        found = labels.get(sig)
        if found is None:
            found = labels[sig] = component_labels(comps, sig[1])
        return found

    def merge(sig1, sig2):
        z = sig1[0]
        comps = components.get(z)
        if comps is None:
            comps = components[z] = graph.components_within(z)
        blocks = merge_partitions(comps, labels_of(sig1, comps), labels_of(sig2, comps), memo)
        return None if blocks is None else (z, blocks)

    empty = (0, ())
    [root] = deque(run_nice_dp(
        nice_td, empty, lambda sig: sig[0], add, drop, merge, weights,
        budget=Budget(state_budget, f"forest DP state budget {state_budget} exceeded"),
        families=families,
    ), maxlen=1)
    found = best_solution(root, weights, lambda sig: sig == empty)
    if found is None:
        raise InvariantError("empty signature missing at the root; families are broken")
    if not is_induced_forest(graph, found[1]):
        raise InvariantError("reconstructed solution does not induce a forest")
    return found
