"""Seeded corpora for the verification harness and the tests.

Corpora are always regenerated from (seed, size grid); nothing is stored.
"""

from random import Random

from .graphs import WeightMap, random_graph


def random_corpus(seed, count, n_max, n_min=2, ps=(0.2, 0.5)):
    """Deterministic list of (graph, weights) pairs cycling sizes and densities."""
    rng = Random(seed)
    out = []
    for i in range(count):
        n = n_min + (i % (n_max - n_min + 1))
        p = ps[i % len(ps)]
        g = random_graph(n, p, seed=rng.randrange(2**32))
        w = WeightMap([rng.randint(0, 100) for _ in range(n)])
        out.append((g, w))
    return out


def sparse_corpus(seed, count, n_max, max_edges=9, n_min=2):
    """Graphs with few edges, for checks that build the line graph square."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(n_min, n_max)
        g = random_graph(n, rng.uniform(0.15, 0.45), seed=rng.randrange(2**32))
        if g.m <= max_edges:
            out.append(g)
    return out
