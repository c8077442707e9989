"""The DP driver keeps its table values as integers, with the weights scaled
by the lcm of their denominators, and turns only the optimum back into a
Fraction."""

from fractions import Fraction
from random import Random

from imtw.boundaried import ForestAlgebra, MaxDegreeAlgebra, generic_structured_dp
from imtw.forest import mwif_dp
from imtw.graphs import WeightMap
from imtw.oracles import brute_max_weight_induced_forest, brute_mwis
from imtw.traces import mwis_dp

from conftest import seeded_graphs, solver_cases

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def coprime_weighted_cases(seed, count):
    """Solver cases whose vertex v weighs a/p_v, with p_v the v-th prime, so
    the denominators are pairwise coprime and their lcm is their product."""
    rng = Random(seed)
    cases = []
    for g, _, _, _, nice in solver_cases(seeded_graphs(seed, count, 2, 10)):
        w = WeightMap([Fraction(rng.randint(1, 40), PRIMES[v]) for v in range(g.n)])
        cases.append((g, w, nice))
    return cases


def test_every_solver_is_exact_with_coprime_denominators():
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
