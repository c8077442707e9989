"""Shared helpers: seeded test corpora, the assertion that a claim held and
spies on the DP driver and its family stream."""

from inspect import signature
from random import Random

from imtw.decomp import decomposition_metrics, heuristic_decomposition, make_nice
from imtw.graphs import Graph, WeightMap, random_graph
from imtw.nicedp import run_nice_dp
from imtw.verify import STRATEGIES, prepare


def expect(*checks):
    """Assert that every check ran at least once and never failed."""
    for check in checks:
        assert check.ok, check.as_dict()


def chordal_completion(graph, rng=None):
    """Greedy min-fill completion; the result is chordal by construction."""
    adj = {v: set(graph.neighbors(v)) for v in range(graph.n)}
    alive = set(range(graph.n))
    extra = []
    while alive:
        def fill_cost(v):
            nbrs = [u for u in adj[v] if u in alive]
            return sum(
                1
                for i, a in enumerate(nbrs)
                for b in nbrs[i + 1 :]
                if b not in adj[a]
            )
        v = min(sorted(alive), key=fill_cost)
        nbrs = [u for u in adj[v] if u in alive]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    extra.append((a, b))
        alive.remove(v)
    return Graph(graph.n, list(graph.edges) + extra)


def seeded_graphs(seed, count, n_lo, n_hi, ps=(0.2, 0.5)):
    rng = Random(seed)
    out = []
    for i in range(count):
        n = n_lo + (i % (n_hi - n_lo + 1))
        out.append(random_graph(n, ps[i % len(ps)], seed=rng.randrange(2**32)))
    return out


def measured_nice(graph, td):
    """The nice form of ``td``, bounded by the metrics measured on ``td``."""
    return make_nice(graph, td, decomposition_metrics(graph, td))


def solver_cases(graphs, weight_seed=None, max_weight=None, pick_strategy=False):
    """Prepared (graph, weights, td, metrics, nice) cases.

    Unit weights and min-fill unless a weight seed is given; then each graph
    draws its weights, and its strategy when ``pick_strategy``, from that seed.
    """
    rng = Random(weight_seed)
    cases = []
    for g in graphs:
        if weight_seed is None:
            w = WeightMap.unit(g.n)
        else:
            w = WeightMap([rng.randint(0, max_weight) for _ in range(g.n)])
        strategy = rng.choice(STRATEGIES) if pick_strategy else "min-fill"
        cases.append(prepare(g, w, heuristic_decomposition(g, strategy)))
    return cases


def driver_spy(wrap, results=None):
    """A stand-in for ``run_nice_dp``: ``wrap`` sees its arguments by name
    and may replace them, and each (tables, backpointers) result is appended
    to ``results`` when given."""

    def spy(*args, **kwargs):
        arguments = signature(run_nice_dp).bind(*args, **kwargs).arguments
        wrap(arguments)
        result = run_nice_dp(**arguments)
        if results is not None:
            results.append(result)
        return result

    return spy


class RecordedFamily:
    """A node's family that logs each membership test as (node, state, kept)."""

    def __init__(self, i, members, log):
        self.i, self.members, self.log = i, members, log

    def __contains__(self, state):
        kept = state in self.members
        self.log.append((self.i, state, kept))
        return kept


def recorded_families(families, log):
    """The driver's family stream with the i-th family pulled wrapped in a
    ``RecordedFamily`` that logs to ``log`` as node i."""
    return (RecordedFamily(i, members, log) for i, members in enumerate(families))
