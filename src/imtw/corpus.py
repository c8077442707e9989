"""Seeded corpora for the verification harness and the tests.

Corpora are always regenerated from (seed, size grid); nothing is stored.
"""

from fractions import Fraction
from random import Random

from .boundaried import BoundariedGraph
from .graphs import Graph, WeightMap, random_graph
from .packing import SubgraphFamily, enumerate_small_connected_subgraphs


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


def tied_corpus(seed, count, n_max, n_min=4, ps=(0.2, 0.4, 0.6)):
    """(graph, weights) pairs whose optima tie often: each of ``count`` random
    graphs once with unit weights, once with rational weights and once with
    weights from {0, 1, 2}."""
    rng = Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(n_min, n_max)
        g = random_graph(n, ps[i % len(ps)], seed=rng.randrange(2**32))
        rational = [Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(n)]
        small = [rng.randint(0, 2) for _ in range(n)]
        out += [(g, WeightMap.unit(n)), (g, WeightMap(rational)), (g, WeightMap(small))]
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


def relabelled(rng, graph):
    """``graph`` with its vertices renamed by a random permutation."""
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


def random_minor_op(rng, graph):
    """Contract a random edge or delete a random vertex, even odds when there are edges."""
    if graph.m and rng.random() < 0.5:
        u, v = graph.edges[rng.randrange(graph.m)]
        return ("contract", u, v)
    return ("delete", rng.randrange(graph.n))


def shuffled_pieces(rng, graph, max_piece=3):
    """Every connected vertex set of at most ``max_piece`` vertices, in random order."""
    pieces = enumerate_small_connected_subgraphs(graph, max_piece)
    rng.shuffle(pieces)
    return pieces


def random_family(rng, pieces, size, max_weight=20):
    """The first ``size`` pieces with random integer weights."""
    sets = pieces[:size]
    return SubgraphFamily(sets, [rng.randint(0, max_weight) for _ in sets])


def random_boundaried(rng, ell):
    """A random graph on at most six vertices, about half of them labelled from 1..ell."""
    n = rng.randint(0, 6)
    g = random_graph(n, rng.random(), seed=rng.randrange(2**32))
    labels = {}
    for v in range(n):
        if rng.random() < 0.5:
            label = rng.randint(1, ell)
            if label not in labels.values():
                labels[v] = label
    return BoundariedGraph.make(g, labels, ell)


def chordal_completion(graph):
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
