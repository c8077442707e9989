"""The paper's claims as seeded checks, shared by ``imtw verify`` and the tests.

Each claim is a predicate over one case that yields ``(ok, witness)``
verdicts, one per sub-case it checks (a nice node, a maximal forest, a
property). A claim with several verdicts per case yields each as a function
that returns it, so a solver self-check that fails while one verdict is
computed costs that verdict alone. ``claim(name)`` turns a predicate into a
function from a list of cases to a ``Check``. Every caller keeps its own
corpus: the ``suite_*`` functions behind ``imtw verify``, the acceptance
criteria and the corpus unit tests all build their cases and hand them to the
same claims. Reference answers come from the brute-force searches of
``imtw.oracles``.
"""

from fractions import Fraction
from functools import cache, partial, wraps
from random import Random

from .bits import popcount, submasks
from .boundaried import (
    BipartiteAlgebra,
    BoundariedGraph,
    ForestAlgebra,
    MaxDegreeAlgebra,
    forget_label,
    generic_structured_dp,
    glue,
)
from .corpus import (
    chordal_completion,
    random_boundaried,
    random_corpus,
    random_family,
    random_minor_op,
    relabelled,
    shuffled_pieces,
    sparse_corpus,
    tied_corpus,
)
from .decomp import (
    blob_decomposition,
    closed_neighborhood_expansion,
    decomposition_metrics,
    find_bag_dominated_vertex,
    heuristic_decomposition,
    induced_minor_decomposition,
    make_nice,
    max_independent_set_in_bag,
    max_induced_matching_touching,
    odd_power_decomposition,
    single_bag_decomposition,
    validate_decomposition,
)
from .errors import InvariantError
from .forest import (
    forest_anatomy,
    mwif_dp,
    signature_family_exhaustive,
    signature_family_paper,
    signature_in,
)
from .graphs import (
    ball_mask,
    complete_bipartite,
    complete_multipartite,
    corona,
    decode_forked,
    distance_matrix,
    forked_version,
    graph_power,
    hypercube_graph,
    induced_subgraph,
    line_graph_square,
    matching_join,
    parse_graph,
    path_graph,
    random_graph,
    serialize_graph,
)
from .oracles import (
    MATCHING_EDGE_CAP,
    MWIS_CAP,
    brute_best,
    brute_induced_matching_touching,
    brute_max_weight_induced_forest,
    brute_mwis,
    chordality_test,
    clique_number_within,
    enumerate_maximal_induced_forests,
    exact_width_parameters,
    find_cycle_within,
    is_bipartite_within,
    max_degree_within,
    recognize_imtw_at_most_1,
)
from .packing import (
    SubgraphFamily,
    blob_graph,
    component_size_cap,
    is_valid_packing,
    max_weight_distance_packing,
    max_weight_independent_packing,
    packing_distance,
    ptas_bounded_treewidth_subgraph,
    treewidth_at_most,
)
from .traces import enumerate_maximal_independent_sets, mwis_dp, trace_family_for_bag

STRATEGIES = ("min-fill", "min-degree")
ALGEBRAS = (
    ForestAlgebra(),
    BipartiteAlgebra(),
    MaxDegreeAlgebra(0),
    MaxDegreeAlgebra(1),
    MaxDegreeAlgebra(2),
)
MIN_MAX_N = 4  # the packing suite draws graphs of 4..max_n vertices
MAX_MAX_N = MWIS_CAP  # the brute MWIS oracle refuses larger graphs


class Check:
    def __init__(self, name):
        self.name = name
        self.instances = 0
        self.failures = []

    def record(self, ok, witness=None):
        self.instances += 1
        if not ok:
            self.failures.append(witness)

    @property
    def ok(self):
        return not self.failures and self.instances > 0

    def as_dict(self):
        return {
            "check": self.name,
            "instances": self.instances,
            "ok": self.ok,
            "failures": [str(w) for w in self.failures[:5]],
        }


def claim(name):
    """Turn a predicate over one case into a check over a list of case tuples.

    A solver self-check that fails (``InvariantError``) inside a verdict
    function is that verdict's failure; one that fails in the predicate
    itself is its case's failed verdict. Either way the remaining verdicts
    and cases still run.
    """

    def wrap(predicate):
        @wraps(predicate)
        def run(cases):
            check = Check(name)
            for case in cases:
                try:
                    for verdict in predicate(*case):
                        check.record(*_settle(verdict))
                except InvariantError as exc:
                    check.record(*_failed(exc))
            return check

        return run

    return wrap


def _failed(exc):
    return False, f"{type(exc).__name__}: {exc}"


def _settle(verdict):
    """The (ok, witness) of a verdict, calling it first when it is a function."""
    if not callable(verdict):
        return verdict
    try:
        return verdict()
    except InvariantError as exc:
        return _failed(exc)


def prepare(graph, weights, td):
    """One solver case: graph, weights, decomposition, its metrics and its nice
    form, which those metrics bound."""
    met = decomposition_metrics(graph, td)
    return graph, weights, td, met, make_nice(graph, td, met)


# ---------------------------------------------------------------------------
# Graphs


@claim("parse-serialize round trip")
def round_trip(g):
    text = serialize_graph(g)
    yield parse_graph(text) == g and serialize_graph(parse_graph(text)) == text, text


@claim("power definition")
def power_definition(g, k):
    power = graph_power(g, k)
    dist = distance_matrix(g)
    ok = all(
        power.has_edge(u, v) == (1 <= dist[u][v] <= k)
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )
    yield ok, (g.n, k)


@claim("corona keeps original")
def corona_keeps_original(g):
    cg = corona(g)
    sub, _ = induced_subgraph(cg, range(g.n))
    yield sub == g and all(cg.degree(g.n + v) == 1 for v in range(g.n)), g.n


@claim("fork decode round trip")
def fork_round_trip(g, marked):
    forked, _ = forked_version(g, marked)
    back_g, back_m = decode_forked(forked)
    yield back_g == g and set(back_m) == set(marked), (g.n, sorted(marked))


# ---------------------------------------------------------------------------
# Decompositions and their transfers


@claim("heuristic decompositions validate")
def decomposition_valid(g, td):
    yield validate_decomposition(g, td) == [], (g.n, td.bags)


@claim("nice form validates, bags shrink")
def nice_form_valid(g, td):
    met = decomposition_metrics(g, td)
    nice = make_nice(g, td, met)
    as_td = nice.to_tree_decomposition()
    met_nice = decomposition_metrics(g, as_td)
    ok = (
        validate_decomposition(g, as_td) == []
        and all(any(b & ~orig == 0 for orig in td.bags) for b in as_td.bags)
        and nice.size <= g.n * td.size + 2 * g.n + 2
        and met_nice.mu <= met.mu
        and met_nice.alpha <= met.alpha
    )
    yield ok, (g.n, td.bags)


@claim("metrics match matching oracle")
def metrics_match_oracle(g, td):
    met = decomposition_metrics(g, td)
    cap = max(MATCHING_EDGE_CAP, g.m)
    oracle_mu = max(brute_induced_matching_touching(g, b, cap=cap)[0] for b in td.bags)
    yield met.mu == oracle_mu and met.mu <= met.alpha, (met.mu, oracle_mu, met.alpha)


def metrics_searching_every_bag(graph, td):
    """Reference for ``decomposition_metrics``: alpha and mu searched at
    every bag, the first strict maximum of each kept as its witness."""
    alpha, mu = 0, 0
    alpha_witness, mu_witness = (0, 0), (0, ())
    for t, bag in enumerate(td.bags):
        a, a_set = max_independent_set_in_bag(graph, bag)
        m, m_edges = max_induced_matching_touching(graph, bag)
        if a > alpha:
            alpha, alpha_witness = a, (t, a_set)
        if m > mu:
            mu, mu_witness = m, (t, m_edges)
    return alpha, mu, alpha_witness, mu_witness


@claim("bounded metrics equal every-bag search")
def bounded_metrics_exact(g):
    """The searches skipped or settled by the clique-cover bounds change no
    maximum and no witness, under both heuristics and on the single bag."""
    tds = {strategy: heuristic_decomposition(g, strategy) for strategy in STRATEGIES}
    tds["single bag"] = single_bag_decomposition(g)
    for name, td in tds.items():
        met = decomposition_metrics(g, td)
        got = (met.alpha, met.mu, met.alpha_witness, met.mu_witness)
        yield got == metrics_searching_every_bag(g, td), (g.n, g.edges, name, got)


@claim("closed neighborhood degree bound")
def closed_neighborhood_bound(g, td):
    if not g.m:  # the bound 2 mu Delta^2 needs an edge
        return
    expanded = closed_neighborhood_expansion(g, td)
    alpha = decomposition_metrics(g, expanded).alpha
    bound = 2 * decomposition_metrics(g, td).mu * g.max_degree() ** 2
    yield validate_decomposition(g, expanded) == [] and alpha <= bound, (alpha, bound)


@claim("bag-dominated vertex exists")
def bag_dominated_vertex(g, td):
    v, t = find_bag_dominated_vertex(g, td)
    yield g.closed_mask(v) & ~td.bags[t] == 0, (v, t)


@claim("induced-minor mu monotone")
def minor_keeps_mu(g, td, op):
    h, td2, _ = induced_minor_decomposition(g, td, op)
    mu, mu2 = decomposition_metrics(g, td).mu, decomposition_metrics(h, td2).mu
    yield validate_decomposition(h, td2) == [] and mu2 <= mu, (op, mu2, mu)


@claim("blob transfer inequalities")
def blob_transfer(g, td, family):
    """A duplicate-free family keeps mu; members of two or more vertices bring alpha down to mu."""
    blob = blob_graph(g, family)
    bd = blob_decomposition(g, td, family)
    mu = decomposition_metrics(g, td).mu
    met = decomposition_metrics(blob, bd)
    ok = validate_decomposition(blob, bd) == []
    if family.duplicate_free:
        ok = ok and met.mu <= mu
    if family.min_member_size() >= 2:
        ok = ok and met.alpha <= mu
    yield ok, (g.n, met.mu, met.alpha, mu)


@claim("odd power transfer inequality")
def odd_power_transfer(g, td, r):
    if not g.m:  # an edgeless graph has mu 0 but bags of independent vertices
        return
    tdr = odd_power_decomposition(g, td, r)
    gr = graph_power(g, r)
    alpha, mu = decomposition_metrics(gr, tdr).alpha, decomposition_metrics(g, td).mu
    yield validate_decomposition(gr, tdr) == [] and alpha <= mu, (g.n, r, alpha, mu)


# ---------------------------------------------------------------------------
# The three dynamic programs, their families and the forest anatomy


@claim("mwis equals oracle")
def mwis_matches_oracle(g, w, td, met, nice):
    got = mwis_dp(g, nice, w)
    expected = brute_mwis(g, w)
    yield got == expected, (g.n, got, expected)


@claim("trace coverage")
def trace_coverage(g, w, td, met, nice):
    maximal = enumerate_maximal_independent_sets(g)

    def covered(i, bag):
        members = trace_family_for_bag(g, bag, met.mu).members
        return all(ind & bag in members for ind in maximal), (g.n, i)

    for i, node in enumerate(nice.nodes):
        yield partial(covered, i, node.bag)


@claim("family size bound")
def trace_family_bound(g, w, td, met, nice):
    bound = max(g.n, 1) ** (3 * met.mu)

    def bounded(i, bag):
        size = len(trace_family_for_bag(g, bag, met.mu).members)
        return size <= bound, (size, bound)

    for i, node in enumerate(nice.nodes):
        yield partial(bounded, i, node.bag)


@claim("forest optimum equals oracle, both providers")
def forest_matches_oracle(g, w, td, met, nice):
    expected = brute_max_weight_induced_forest(g, w)
    results = [
        mwif_dp(g, nice, w, provider="exhaustive"),
        mwif_dp(g, nice, w, provider="paper"),
    ]
    yield all(got == expected for got in results), (g.n, results, expected)


@claim("signature coverage")
def signature_coverage(g, w, td, met, nice):
    """Each maximal forest's signature lies in the exhaustive family and in a
    bounded family of at most (12k)^(12k) n^(14k+2) members."""
    k = met.mu
    bound = ((12 * k) ** (12 * k) if k else 1) * max(g.n, 1) ** (14 * k + 2)
    forests = enumerate_maximal_induced_forests(g)
    vt = nice.subtree_vertex_masks()

    def families(i, bag):
        traces = trace_family_for_bag(g, bag, k).members
        return signature_family_paper(g, bag, vt[i], k, traces), signature_family_exhaustive(g, bag)

    def covered(node_families, i, bag, f):
        family, exhaustive = node_families()
        sig = signature_in(g, f, bag, vt[i])
        return len(family) <= bound and sig in family and sig in exhaustive, (g.n, i, f)

    for i, node in enumerate(nice.nodes):
        # built once per node, unless building raised
        node_families = cache(partial(families, i, node.bag))
        for f in forests:
            yield partial(covered, node_families, i, node.bag, f)


@claim("skeleton bag bound 8k")
def skeleton_bound(g, w, td, met, nice):
    # every bag of td is also the bag of some nice node
    def bounded(anatomy, i, bag, f):
        return popcount(anatomy().skeleton & bag) <= 8 * met.mu, (g.n, i, f)

    for f in enumerate_maximal_induced_forests(g):
        anatomy = cache(partial(forest_anatomy, g, f))
        for i, node in enumerate(nice.nodes):
            yield partial(bounded, anatomy, i, node.bag, f)


@claim("anatomy partitions maximal forests")
def anatomy_partitions(g):
    def partitioned(f):
        a = forest_anatomy(g, f)
        ok = (
            a.skeleton | a.leaves | a.trivial == f
            and a.skeleton & a.leaves == 0
            and a.skeleton & a.trivial == 0
            and a.leaves & a.trivial == 0
            and g.is_independent(a.leaves | a.trivial)
        )
        return ok, (g.n, f)

    for f in enumerate_maximal_induced_forests(g):
        yield partial(partitioned, f)


@claim("structured DP equals brute force")
def structured_dp_matches_brute_force(g, w, td, met, nice, algebra):
    """One algebra's canonical optimum: forest (also against mwif_dp),
    bipartite, or max-degree d for every clique bound r. Cases come from
    ``per_algebra``."""

    def solve(r):
        return generic_structured_dp(g, nice, w, algebra, r=r)

    if algebra.name == "forest":
        ok = solve(2) == mwif_dp(g, nice, w) == brute_max_weight_induced_forest(g, w)
    elif algebra.name == "bipartite":
        ok = solve(2) == brute_best(g, w, lambda m: is_bipartite_within(g, m))
    else:
        # r = clique_bound leaves the degree bound in charge; a smaller r also
        # caps the clique number, which the DP enforces as it goes
        d = algebra.d
        ok = all(
            solve(r)
            == brute_best(
                g, w, lambda m: max_degree_within(g, m) <= d and clique_number_within(g, m) <= r
            )
            for r in range(1, algebra.clique_bound + 1)
        )
    yield ok, (algebra.name, g.n)


@claim("one canonical solution across decompositions")
def canonical_solution(g, w):
    """MWIS, forest under both providers, and the generic DP for forests and
    for bipartite sets return the canonical optimum of brute force on the
    min-fill, min-degree and single-bag decompositions alike."""
    mis = brute_mwis(g, w)
    forest = brute_max_weight_induced_forest(g, w)
    bipartite = brute_best(g, w, lambda m: is_bipartite_within(g, m))
    solvers = (
        ("mwis", mis, mwis_dp),
        ("forest exhaustive", forest, partial(mwif_dp, provider="exhaustive")),
        ("forest paper", forest, partial(mwif_dp, provider="paper")),
        ("generic forest", forest, partial(generic_structured_dp, algebra=ForestAlgebra(), r=2)),
        (
            "generic bipartite",
            bipartite,
            partial(generic_structured_dp, algebra=BipartiteAlgebra(), r=2),
        ),
    )
    tds = {strategy: heuristic_decomposition(g, strategy) for strategy in STRATEGIES}
    tds["single bag"] = single_bag_decomposition(g)

    def nice_form(td):
        return prepare(g, w, td)[4]

    def canonical(nice, name, expected, solve):
        got = solve(g, nice(), w)
        return got == expected, (g.n, name, got, expected)

    for strategy, td in tds.items():
        # made once per decomposition, unless making it raised
        nice = cache(partial(nice_form, td))
        for name, expected, solve in solvers:
            yield partial(canonical, nice, f"{name} on {strategy}", expected, solve)


def per_algebra(cases):
    """Each solver case once per algebra of ``ALGEBRAS``: one verdict per
    case, so a case that raises costs no other algebra its verdict."""
    return [case + (algebra,) for case in cases for algebra in ALGEBRAS]


@claim("algebra compositionality")
def algebra_compositional(alg, b1, b2, label):
    t1, t2 = alg.type_of(b1), alg.type_of(b2)
    ok = (
        alg.type_of(glue(b1, b2)) == alg.glue(t1, t2)
        and alg.type_of(forget_label(b1, label)) == alg.forget(t1, label)
        and alg.accepting(t1) == alg.holds(b1.graph)
    )
    yield ok, alg.name


@claim("introduce equals glue with the star")
def introduce_is_glue_with_star(alg, b, label, near):
    """Introducing ``label`` next to the labels ``near`` of ``b`` is the glue
    of the labelled star K(1, |near|) onto b's type."""
    star = BoundariedGraph.make(
        complete_bipartite(1, len(near)), dict(enumerate((label, *near))), max(b.ell, label)
    )
    t = alg.type_of(b)
    yield alg.introduce(t, label, near) == alg.glue(alg.type_of(star), t), alg.name


# ---------------------------------------------------------------------------
# Packings


def _brute_packing(graph, family, d):
    """Heaviest distance-d packing (d = 2 is independent) over every subset
    of members. A subset of a packing is a packing, so the search grows
    packings only, each by a later member."""
    dist = distance_matrix(graph)
    best = Fraction(0)
    stack = [((), Fraction(0))]
    while stack:
        combo, weight = stack.pop()
        best = max(best, weight)
        for j in range(combo[-1] + 1 if combo else 0, len(family)):
            if packing_distance(graph, family, combo + (j,), dist) >= d:
                stack.append((combo + (j,), weight + family.weights[j]))
    return best


@claim("blob packing equals subfamily brute force")
def independent_packing_optimal(g, td, family):
    sol = max_weight_independent_packing(g, td, family)
    ok = is_valid_packing(g, family, sol.chosen) is None
    yield ok and sol.weight == _brute_packing(g, family, 2), (g.n, sol.weight)


@claim("distance packing equals brute force")
def distance_packing_optimal(g, td, family, d):
    sol = max_weight_distance_packing(g, td, family, d)
    ok = packing_distance(g, family, sol.chosen) >= d
    yield ok and sol.weight == _brute_packing(g, family, d), (g.n, d, sol.weight)


@claim("power-blob identity")
def power_blob_identity(g, k, d):
    balls = SubgraphFamily([ball_mask(g, v, d) for v in range(g.n)])
    gk = graph_power(g, k) if k > 1 else g
    yield graph_power(g, k + 2 * d) == blob_graph(gk, balls), (g.n, k, d)


@claim("ptas guarantee")
def ptas_guarantee(g, td, eps):
    """Within (1 - eps) of the largest induced forest, in small pieces of treewidth 1."""
    opt = max(popcount(m) for m in submasks(g.vertex_mask()) if find_cycle_within(g, m) is None)
    got = ptas_bounded_treewidth_subgraph(g, td, 1, eps)
    cap = component_size_cap(1, eps)
    pieces_ok = all(
        popcount(c) <= cap and treewidth_at_most(g, c, 1) and find_cycle_within(g, c) is None
        for c in g.components_within(got)
    )
    yield pieces_ok and popcount(got) >= (1 - eps) * opt, (g.n, eps, popcount(got), opt)


# ---------------------------------------------------------------------------
# Exact width parameters; ``ew`` is exact_width_parameters(g)


@claim("width chain on random graphs")
def width_chain(g, ew):
    yield ew.tree_mu <= ew.tree_alpha <= ew.treewidth + 1, g.n


@claim("line graph square equality")
def line_square_equality(g, ew):
    square, _ = line_graph_square(g)
    yield exact_width_parameters(square).tree_alpha == ew.tree_mu, (g.n, g.m)


@claim("corona equality")
def corona_equality(g, ew):
    yield exact_width_parameters(corona(g)).tree_mu == ew.tree_alpha, g.n


@claim("power monotonicity")
def power_monotone(g, ew):
    def monotone(r):
        er = exact_width_parameters(graph_power(g, r)) if r > 1 else ew
        er2 = exact_width_parameters(graph_power(g, r + 2))
        return er2.tree_alpha <= er.tree_alpha and er2.tree_mu <= er.tree_mu, (g.n, r)

    for r in (1, 2):
        yield partial(monotone, r)


@claim("odd power strong inequality")
def odd_power_strong(g, ew):
    alpha3 = exact_width_parameters(graph_power(g, 3)).tree_alpha
    yield alpha3 <= ew.tree_alpha and (not g.m or alpha3 <= ew.tree_mu), (g.n, alpha3)


@claim("degree bounds")
def degree_bounds(g, ew):
    if not g.m:  # with no edge the bounds read 0
        return
    delta = g.max_degree()
    ok = (
        ew.tree_alpha <= 2 * ew.tree_mu * delta**2
        and ew.treewidth <= 2 * ew.tree_mu * delta**2 * (delta + 1)
    )
    yield ok, g.n


@claim("recognition agrees with oracle")
def recognition_agrees(g, ew):
    yield recognize_imtw_at_most_1(g) == (ew.tree_mu <= 1), (g.n, g.m)


@claim("induced minors keep tree-mu")
def minor_keeps_tree_mu(g, op):
    h, _, _ = induced_minor_decomposition(g, single_bag_decomposition(g), op)
    yield exact_width_parameters(h).tree_mu <= exact_width_parameters(g).tree_mu, (g.n, op)


@claim("chordal graphs have tree-alpha 1")
def chordal_alpha_one(g):
    yield chordality_test(g)[0] and exact_width_parameters(g).tree_alpha == 1, g.n


@claim("anchors")
def width_anchors():
    def k33():
        ew = exact_width_parameters(complete_bipartite(3, 3))
        return ew.tree_alpha == 3 and ew.tree_mu == 1, "K33"

    def joined_matching():
        return exact_width_parameters(matching_join(2)).tree_mu >= 2, "matching_join(2)"

    def q4(strategy):
        g = hypercube_graph(4)
        td = heuristic_decomposition(g, strategy)
        ok = validate_decomposition(g, td) == [] and decomposition_metrics(g, td).mu >= 2
        return ok, f"Q4 {strategy}"

    yield k33
    yield joined_matching
    for strategy in STRATEGIES:
        yield partial(q4, strategy)


# ---------------------------------------------------------------------------
# The suites behind ``imtw verify``


def suite_graphs(seed, max_n):
    rng = Random(seed)
    graphs, powers, forks = [], [], []
    for _ in range(60):
        n = rng.randint(1, max_n)
        g = random_graph(n, rng.choice([0.2, 0.5]), seed=rng.randrange(2**32))
        graphs.append((g,))
        powers.append((g, rng.randint(1, 3)))
        forks.append((g, {v for v in range(n) if rng.random() < 0.5 or g.degree(v) == 0}))
    return [
        round_trip(graphs),
        power_definition(powers),
        corona_keeps_original(graphs),
        fork_round_trip(forks),
    ]


def suite_decomp(seed, max_n):
    rng = Random(seed)
    cases, minors = [], []
    for _ in range(40):
        n = rng.randint(2, max_n)
        g = random_graph(n, rng.choice([0.2, 0.5]), seed=rng.randrange(2**32))
        td = heuristic_decomposition(g, rng.choice(STRATEGIES))
        cases.append((g, td))
        if n >= 3:
            minors.append((g, td, random_minor_op(rng, g)))
    # the searches the bounds skip most: complete multipartite graphs, whose
    # mu is 1, and relabelled path cubes, whose bags are interval graphs
    bounded = [(g,) for g, _ in cases]
    for _ in range(8):
        parts = [rng.randint(1, max(1, max_n // 2)) for _ in range(rng.randint(2, 4))]
        bounded.append((relabelled(rng, complete_multipartite(parts)),))
        bounded.append((relabelled(rng, graph_power(path_graph(rng.randint(4, 3 * max_n)), 3)),))
    return [
        decomposition_valid(cases),
        nice_form_valid(cases),
        metrics_match_oracle(cases),
        closed_neighborhood_bound(cases),
        bag_dominated_vertex(cases),
        minor_keeps_mu(minors),
        bounded_metrics_exact(bounded),
    ]


def suite_traces(seed, max_n):
    cases = [prepare(g, w, heuristic_decomposition(g)) for g, w in random_corpus(seed, 40, max_n)]
    return [mwis_matches_oracle(cases), trace_coverage(cases), trace_family_bound(cases)]


def suite_forest(seed, max_n):
    corpus = random_corpus(seed, 18, min(max_n, 8), n_min=3)
    cases = [prepare(g, w, heuristic_decomposition(g)) for g, w in corpus]
    return [
        forest_matches_oracle(cases),
        signature_coverage(cases),
        skeleton_bound(cases),
        anatomy_partitions([(g,) for g, _ in corpus]),
    ]


def suite_packing(seed, max_n):
    rng = Random(seed)
    packings, distance, balls, blobs, powers, ptas = [], [], [], [], [], []
    for _ in range(12):
        n = rng.randint(4, max_n)
        g = random_graph(n, rng.choice([0.3, 0.5]), seed=rng.randrange(2**32))
        td = heuristic_decomposition(g)
        pieces = shuffled_pieces(rng, g)
        family = random_family(rng, pieces, 9)
        packings.append((g, td, family))
        distance += [(g, td, family, d) for d in (2, 4)]
        balls += [(g, k, d) for k, d in ((1, 1), (2, 1), (1, 2))]
        blobs.append((g, td, family))
        big = [m for m in pieces if popcount(m) >= 2][:9]
        if big:  # an edgeless graph has no connected piece of two vertices
            blobs.append((g, td, SubgraphFamily(big)))
        powers += [(g, td, r) for r in (3, 5)]
        if n <= 9:
            ptas += [(g, td, eps) for eps in (0.25, 0.5)]
    return [
        independent_packing_optimal(packings),
        distance_packing_optimal(distance),
        power_blob_identity(balls),
        blob_transfer(blobs),
        odd_power_transfer(powers),
        ptas_guarantee(ptas),
    ]


def suite_boundaried(seed, max_n):
    rng = Random(seed)
    laws = []
    for _ in range(200):
        ell = rng.randint(1, 4)
        b1, b2 = random_boundaried(rng, ell), random_boundaried(rng, ell)
        label = rng.randint(1, ell)
        laws += [(alg, b1, b2, label) for alg in ALGEBRAS]
    # a new label, from 1..ell + 1, next to a random subset of b1's labels
    introduces = []
    for alg, b1, _, _ in laws:
        used = [l for _, l in b1.labeling]
        label = rng.choice([l for l in range(1, b1.ell + 2) if l not in used])
        introduces.append((alg, b1, label, rng.sample(used, rng.randint(0, len(used)))))
    corpus = random_corpus(seed + 1, 10, min(max_n, 9))
    cases = [prepare(g, w, heuristic_decomposition(g)) for g, w in corpus]
    return [
        algebra_compositional(laws),
        introduce_is_glue_with_star(introduces),
        structured_dp_matches_brute_force(per_algebra(cases)),
    ]


def suite_oracles(seed, max_n):
    # sparse_corpus keeps at most 9 edges, so every line graph square stays small
    graphs = [(g, exact_width_parameters(g)) for g in sparse_corpus(seed, 15, min(max_n, 8))]
    rng = Random(seed)
    chordal, minors = [], []
    for _ in range(12):
        g = random_graph(rng.randint(1, min(max_n, 8)), 0.4, seed=rng.randrange(2**32))
        chordal.append((chordal_completion(g),))
        # three or more vertices, so no operation empties the graph
        g = random_graph(rng.randint(3, min(max_n, 8)), 0.4, seed=rng.randrange(2**32))
        minors.append((g, random_minor_op(rng, g)))
    return [
        width_chain(graphs),
        line_square_equality(graphs),
        corona_equality([(g, ew) for g, ew in graphs if g.n <= 4]),
        power_monotone(graphs),
        odd_power_strong(graphs),
        degree_bounds(graphs),
        recognition_agrees(graphs),
        width_anchors([()]),
        chordal_alpha_one(chordal),
        minor_keeps_tree_mu(minors),
    ]


def suite_canonical(seed, max_n):
    return [canonical_solution(tied_corpus(seed, 16, min(max_n, 8)))]


SUITES = {
    "graphs": suite_graphs,
    "decomp": suite_decomp,
    "traces": suite_traces,
    "forest": suite_forest,
    "packing": suite_packing,
    "boundaried": suite_boundaried,
    "oracles": suite_oracles,
    "canonical": suite_canonical,
}


def run_suites(names, seed, max_n):
    results = []
    all_ok = True
    for name in names:
        checks = SUITES[name](seed, max_n)
        ok = all(c.ok for c in checks)
        all_ok &= ok
        results.append({"suite": name, "ok": ok, "checks": [c.as_dict() for c in checks]})
    return all_ok, results
