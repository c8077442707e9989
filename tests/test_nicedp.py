"""The DP driver keeps its table values as integers, with the weights scaled
by the lcm of their denominators and a bonus bit per vertex, and turns only
the optimum back into a Fraction; the bonus bits make that optimum the
canonical one. It builds a node's family only once the table outgrows
``FILTER_FROM`` or a child was filtered, and that choice leaves every
solution as it is. It keeps only its frontier of tables, and the root value
alone names the solution."""

import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from imtw import boundaried, forest, nicedp, traces
from imtw.boundaried import ForestAlgebra, MaxDegreeAlgebra, generic_structured_dp
from imtw.corpus import tied_corpus
from imtw.decomp import heuristic_decomposition, single_bag_decomposition
from imtw.errors import Budget, ResourceLimitError
from imtw.forest import mwif_dp
from imtw.graphs import WeightMap, complete_bipartite, hypercube_graph, path_graph
from imtw.nicedp import run_nice_dp
from imtw.oracles import brute_max_weight_induced_forest, brute_mwis
from imtw.traces import mwis_dp
from imtw.verify import canonical_solution

from conftest import (
    at_each_threshold,
    driver_spy,
    expect,
    measured_nice,
    reference_run_nice_dp,
    seeded_graphs,
    solver_cases,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

# The tracemalloc peak, in bytes, of the unit-weight path(1000) MWIS solve in
# test_only_the_frontier_of_tables_is_kept under the driver that kept every
# node's table and a backpointer dict per node: CPython 3.11 read 1,447,156
# to 1,547,924 (the first call in a process is the larger); the lower is kept.
KEEP_EVERY_TABLE_PEAK = 1_447_156


def coprime_weighted_cases(seed, count):
    """Solver cases whose vertex v weighs a/p_v, with p_v the v-th prime, so
    the denominators are pairwise coprime and their lcm is their product."""
    rng = Random(seed)
    cases = []
    for g, _, _, _, nice in solver_cases(seeded_graphs(seed, count, 2, 10)):
        w = WeightMap([Fraction(rng.randint(1, 40), PRIMES[v]) for v in range(g.n)])
        cases.append((g, w, nice))
    return cases


def test_every_solver_is_exact_with_coprime_denominators(filter_everywhere):
    for g, w, nice in coprime_weighted_cases(60, 40):
        mis = brute_mwis(g, w)[0]
        forest = brute_max_weight_induced_forest(g, w)[0]
        found = [
            (mwis_dp(g, nice, w)[0], mis),
            (mwif_dp(g, nice, w, provider="exhaustive")[0], forest),
            (mwif_dp(g, nice, w, provider="paper")[0], forest),
            (generic_structured_dp(g, nice, w, MaxDegreeAlgebra(0), r=1)[0], mis),
            # every forest has clique number at most 2
            (generic_structured_dp(g, nice, w, ForestAlgebra(), r=2)[0], forest),
        ]
        for got, want in found:
            assert type(got) is Fraction
            assert got == want, (g.n, g.edges, got, want)


def paper_dp(g, nice, w):
    return mwif_dp(g, nice, w, provider="paper")


def test_filtering_only_large_tables_keeps_every_solution(monkeypatch):
    # every vertex carries a positive bonus bit, so the canonical optimum is
    # maximal, lies in every family and wins however many nodes filter;
    # unit weights tie often, and weights from {0, 1, 2} hold zeros, where
    # without the bonus a non-maximal optimum could win before a filter
    rng = Random(21)
    cases = []
    for g in seeded_graphs(21, 20, 4, 11, ps=(0.2, 0.4, 0.6)):
        for td in (
            heuristic_decomposition(g, "min-fill"),
            heuristic_decomposition(g, "min-degree"),
            single_bag_decomposition(g),
        ):
            nice = measured_nice(g, td)
            cases.append((g, nice, WeightMap.unit(g.n)))
            rational = [Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(g.n)]
            cases.append((g, nice, WeightMap(rational)))
            cases.append((g, nice, WeightMap([rng.randint(0, 2) for _ in range(g.n)])))
    found = []
    for filter_from in (nicedp.FILTER_FROM, 4, 0):
        monkeypatch.setattr(nicedp, "FILTER_FROM", filter_from)
        found.append([solve(g, nice, w) for g, nice, w in cases for solve in (mwis_dp, paper_dp)])
    assert found[0] == found[1] == found[2]


def test_every_solver_returns_the_canonical_optimum(monkeypatch):
    # MWIS, forest under both providers and the generic DP return brute
    # force's canonical optimum on every decomposition, whether no node or
    # every node filters
    cases = tied_corpus(22, 20, 9)
    for _ in at_each_threshold(monkeypatch):
        expect(canonical_solution(cases))


def filtered_run(module, solve, g, nice, filter_from):
    """The tables of one unit-weight run at ``filter_from`` and the set of
    nodes whose family the driver built."""
    built, filled = set(), []

    def wrap(arguments):
        families = arguments["families"]

        def logged(i):
            built.add(i)
            return families(i)

        arguments["families"] = logged

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nicedp, "FILTER_FROM", filter_from)
        mp.setattr(module, "run_nice_dp", driver_spy(wrap, filled))
        solve(g, nice, WeightMap.unit(g.n))
    [tables] = filled
    assert len(tables) == nice.size and all(type(table) is dict for table in tables)
    return tables, built


def test_tables_past_the_threshold_are_filtered():
    # a node filters once its table outgrows the threshold, and so does every
    # ancestor, so each table is small or the table of a run that filters
    # every node
    for g in (complete_bipartite(8, 8), hypercube_graph(4)):
        nice = measured_nice(g, heuristic_decomposition(g))
        for module, solve in ((traces, mwis_dp), (forest, paper_dp)):
            everywhere, _ = filtered_run(module, solve, g, nice, 0)
            tables, built = filtered_run(module, solve, g, nice, 64)
            assert built
            for table, full in zip(tables, everywhere, strict=True):
                assert table == full or len(table) <= 64
            for i, node in enumerate(nice.nodes):
                if any(c in built for c in node.children):
                    assert i in built, (g.n, i)


class RecordedBudget(Budget):
    """A ``Budget`` that lists itself in ``made`` as it is created."""

    made = None

    def __init__(self, limit, message):
        super().__init__(limit, message)
        self.limit = limit
        self.made.append(self)


def recorded_run(driver, solve, g, nice, w):
    """One run of ``solve`` under ``driver``: every table it yields, as its
    items in insertion order; the nodes whose family it asked for, in the
    order asked; and the units charged to each ``Budget`` made, the DP's and
    each bounded membership's, in the order made."""
    filled, built, made = [], [], []

    def wrap(arguments):
        families = arguments.get("families")
        if families is not None:

            def logged(i):
                built.append(i)
                return families(i)

            arguments["families"] = logged

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RecordedBudget, "made", made)
        for module in (traces, forest, boundaried):
            mp.setattr(module, "Budget", RecordedBudget)
            mp.setattr(module, "run_nice_dp", driver_spy(wrap, filled, driver))
        found = solve(g, nice, w)
    [tables] = filled
    return (
        found,
        [list(table.items()) for table in tables],
        built,
        [(budget.message, budget.limit - budget.left) for budget in made],
    )


EQUIVALENCE_SOLVERS = (
    mwis_dp,
    lambda g, nice, w: mwif_dp(g, nice, w, provider="exhaustive"),
    paper_dp,
    lambda g, nice, w: generic_structured_dp(g, nice, w, ForestAlgebra(), r=2),
    lambda g, nice, w: generic_structured_dp(g, nice, w, MaxDegreeAlgebra(1), r=2),
)


def test_driver_equals_the_per_state_reference(monkeypatch):
    # filling an introduce or forget node in one pass and filtering it once
    # full gives the tables of the driver that enters states one at a time,
    # insertion order included, asks the same nodes for their family, and
    # charges the DP budget and every membership's enumeration budget the
    # same units
    rng = Random(31)
    cases = []
    for g in seeded_graphs(31, 12, 2, 11, ps=(0.2, 0.4, 0.6)):
        rational = WeightMap([Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(g.n)])
        zeros = WeightMap([rng.randint(0, 2) for _ in range(g.n)])
        for td in (
            heuristic_decomposition(g, "min-fill"),
            heuristic_decomposition(g, "min-degree"),
            single_bag_decomposition(g),
        ):
            nice = measured_nice(g, td)
            cases += [(g, nice, rational), (g, nice, zeros)]
    runs = filtering = memberships = 0
    for filter_from in (nicedp.FILTER_FROM, 4, 0):
        monkeypatch.setattr(nicedp, "FILTER_FROM", filter_from)
        for g, nice, w in cases:
            for solve in EQUIVALENCE_SOLVERS:
                got = recorded_run(run_nice_dp, solve, g, nice, w)
                want = recorded_run(reference_run_nice_dp, solve, g, nice, w)
                assert got == want, (g.n, g.edges, filter_from)
                runs += 1
                filtering += bool(got[2])
                memberships += len(got[3]) - 1
    assert runs == 1080 and filtering > 200 and memberships > 1000, (runs, filtering, memberships)


def test_budget_overruns_as_the_reference_does(monkeypatch):
    # the DP budget is charged per node once its table is full, so at a
    # run's total the run passes and below it the run overruns with the
    # message the per-state driver raises
    monkeypatch.setattr(nicedp, "FILTER_FROM", 4)
    solvers = (mwis_dp, lambda g, nice, w, **budget: mwif_dp(g, nice, w, provider="paper", **budget))
    checked = 0
    for g in seeded_graphs(32, 6, 6, 11, ps=(0.3, 0.5)):
        nice = measured_nice(g, heuristic_decomposition(g))
        w = WeightMap.unit(g.n)
        for solve in solvers:
            units = recorded_run(run_nice_dp, solve, g, nice, w)[3][0][1]
            outcomes = []
            for driver in (run_nice_dp, reference_run_nice_dp):
                outcomes.append([])
                with pytest.MonkeyPatch.context() as mp:
                    for module in (traces, forest):
                        mp.setattr(module, "run_nice_dp", driver_spy(lambda arguments: None, None, driver))
                    for state_budget in (units, units - 1, units // 2):
                        try:
                            outcomes[-1].append(solve(g, nice, w, state_budget=state_budget))
                        except ResourceLimitError as exc:
                            outcomes[-1].append(str(exc))
            assert outcomes[0] == outcomes[1], (g.n, g.edges)
            assert outcomes[0][0] == solve(g, nice, w)
            assert all("state budget" in outcome for outcome in outcomes[0][1:])
            checked += 1
    assert checked == 12


def test_k88_paper_builds_no_family_at_the_default_threshold(monkeypatch):
    # no table of the K(8,8) paper run outgrows FILTER_FROM, so no trace
    # family and no bounded membership is built
    def refused(*args, **kwargs):
        raise AssertionError("a family was built")

    monkeypatch.setattr(traces, "trace_family_for_bag", refused)
    monkeypatch.setattr(forest, "BoundedFamilyMembership", refused)
    g = complete_bipartite(8, 8)
    nice = measured_nice(g, heuristic_decomposition(g))
    assert paper_dp(g, nice, WeightMap.unit(16))[0] == 9



def test_only_the_frontier_of_tables_is_kept():
    # path(1000)'s 2,001 nice nodes each fill a table; a driver that lets go
    # of each child's table once its parent is filled, and records no
    # backpointers, peaks well below one that keeps them all
    g = path_graph(1000)
    nice = measured_nice(g, heuristic_decomposition(g))
    w = WeightMap.unit(g.n)
    tracemalloc.start()
    try:
        weight, _ = mwis_dp(g, nice, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weight == 500
    assert peak <= KEEP_EVERY_TABLE_PEAK // 2, peak
