"""Seeded instance generation for the three benchmark workloads.

A workload is a fixed list of instance specs, the round. Random base graphs
(trees, G(n, p), packing families) are drawn from ``Random(workload)``, so
they are the same for every seed: their cost would otherwise swing the tail
percentiles from seed to seed. Every round then draws each instance afresh
from ``Random(f"{seed}:{workload}:{round}")``: a new vertex relabelling and
new positive rational weights, so no instance repeats even when its graph
does. Graphs are built here, not with ``imtw.graphs``, so that generation
does not depend on the program under test.

Each generated instance keeps its base structure (the graph before
relabelling, weights in base labels) so that ``reference.py`` can compute the
optimum from a closed form or a linear DP without trusting the solver.
"""

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

WORKLOADS = ("forest-bounded", "mwis-sparse", "solver-mix")

# ---------------------------------------------------------------------------
# Base graphs: (n, edge list) on vertices 0..n-1


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def path_power(n, k):
    return n, [(i, j) for i in range(n) for j in range(i + 1, min(n, i + k + 1))]


def random_tree(n, rng):
    """Tree by random attachment; parent[i] < i, so edges run (parent, child)."""
    return n, [(rng.randrange(i), i) for i in range(1, n)]


def multipartite(parts):
    """Complete multipartite graph; parts are consecutive vertex ranges."""
    starts = [sum(parts[:i]) for i in range(len(parts))]
    edges = []
    for i, (si, pi) in enumerate(zip(starts, parts)):
        for sj, pj in zip(starts[i + 1 :], parts[i + 1 :]):
            edges += [(u, v) for u in range(si, si + pi) for v in range(sj, sj + pj)]
    return sum(parts), edges


def hypercube(dim):
    n = 1 << dim
    return n, [(v, v ^ (1 << d)) for v in range(n) for d in range(dim) if v < v ^ (1 << d)]


def gnp(n, p, rng):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def adjacency(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def clique_number(adj, mask):
    """Size of a largest clique inside ``mask``."""
    best = 0

    def grow(size, pool):
        nonlocal best
        best = max(best, size)
        while pool and size + bin(pool).count("1") > best:
            low = pool & -pool
            pool ^= low
            grow(size + 1, pool & adj[low.bit_length() - 1])

    grow(0, mask)
    return best


def connected_sets(n, adj, max_size):
    """Connected vertex sets of 2..max_size vertices, as sorted masks."""
    layer = {1 << v for v in range(n)}
    found = set()
    for _ in range(max_size - 1):
        grown = set()
        for m in layer:
            nbrs = 0
            for v in range(n):
                if m >> v & 1:
                    nbrs |= adj[v]
            nbrs &= ~m
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                grown.add(m | low)
        layer = grown - found
        found |= layer
    return sorted(found)


# ---------------------------------------------------------------------------
# Instances


@dataclass
class Instance:
    ident: str  # round/position, stable for a seed
    label: str  # class and size, e.g. "K(3,4)"
    problem: str  # mwis | forest | pack | dpack | ptas | generic
    n: int
    base_edges: list
    base_weights: list  # Fractions in base labels
    perm: list  # base vertex -> file vertex (0-based)
    solve_flags: list = field(default_factory=list)
    structure: dict = field(default_factory=dict)  # what reference.py needs
    single_bag: bool = False  # write a one-bag .td instead of decomposing
    family: list = None  # pack/dpack/ptas: [(base mask, weight)] in file order
    reference: object = None  # filled in outside every timed region
    files: dict = field(default_factory=dict)

    @property
    def edges(self):
        return [(self.perm[u], self.perm[v]) for u, v in self.base_edges]

    @property
    def weights(self):
        out = [None] * self.n
        for v, w in enumerate(self.base_weights):
            out[self.perm[v]] = w
        return out

    def argv_decompose(self):
        return ["decompose", self.files["gr"], "-o", self.files["td"]]

    def argv_solve(self):
        argv = ["solve", self.problem, self.files["gr"], self.files["td"]]
        if "family" in self.files:
            argv.append(self.files["family"])
        if "w" in self.files:
            argv += ["-w", self.files["w"]]
        return argv + self.solve_flags


def fraction_text(w):
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def rational(rng):
    return Fraction(rng.randint(1, 97), rng.randint(1, 13))


def make(rng, ident, label, problem, graph, weighted=True, **kw):
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    weights = [rational(rng) if weighted else Fraction(1) for _ in range(n)]
    return Instance(ident, label, problem, n, edges, weights, perm, **kw)


def write_instance(inst, directory):
    """Write .gr, weights, family and (single-bag) .td files; record paths."""
    stem = os.path.join(directory, inst.ident.replace("/", "-"))
    edges = sorted(tuple(sorted(e)) for e in inst.edges)
    lines = [f"p edge {inst.n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
    inst.files = {"gr": stem + ".gr", "td": stem + ".td"}
    with open(inst.files["gr"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if inst.problem in ("mwis", "forest", "generic"):
        inst.files["w"] = stem + ".w"
        with open(inst.files["w"], "w") as fh:
            fh.writelines(f"w {v + 1} {fraction_text(w)}\n" for v, w in enumerate(inst.weights))
    if inst.family is not None and inst.problem in ("pack", "dpack"):
        inst.files["family"] = stem + ".json"
        rows = []
        for idx, (mask, w) in enumerate(inst.family):
            verts = sorted(inst.perm[v] + 1 for v in range(inst.n) if mask >> v & 1)
            rows.append({"id": idx, "vertices": verts, "weight": fraction_text(w)})
        with open(inst.files["family"], "w") as fh:
            json.dump(rows, fh)
    if inst.single_bag:
        with open(inst.files["td"], "w") as fh:
            members = " ".join(str(v + 1) for v in range(inst.n))
            fh.write(f"s td 1 {inst.n} {inst.n}\nb 1 {members}\n")


# ---------------------------------------------------------------------------
# Rounds


FOREST_SMALL = (
    [("K({},{})".format(*ab), ab) for ab in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (1, 8), (4, 4), (2, 6), (3, 5), (4, 5))]
    + [(f"K_{n}", (1,) * n) for n in (3, 4, 5, 6, 7, 8, 9, 10)]
    + [("K" + str(p).replace(" ", ""), p) for p in ((1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 3, 3), (2, 2, 2), (1, 2, 3), (1, 1, 1, 2), (2, 2, 3), (1, 1, 2, 2), (2, 2, 2, 2), (1, 1, 2, 3))]
)


def forest_bounded_round(rng, base, rnd):
    """Complete and complete multipartite graphs (mu = 1, wide bags).

    Three fresh copies of 33 small classes plus K_11 and K_17. K_17's single
    bag is wider than the exhaustive family's cap of 16, so only the bounded
    family can solve it. K_11 puts eight instances a round above the K(4,5)
    triple, so the 90th percentile falls inside that triple rather than in
    the gap below it.
    """
    specs = [("K_17", (1,) * 17), ("K_11", (1,) * 11)] + FOREST_SMALL * 3
    out = []
    for i, (label, parts) in enumerate(specs):
        out.append(
            make(rng, f"{rnd}/{i}", label, "forest", multipartite(parts),
                 solve_flags=["--family", "paper"], structure={"parts": parts})
        )
    return out


def mwis_sparse_round(rng, base, rnd):
    """Paths, cycles, random trees and path cubes (mu <= 2) up to path(1000),
    plus one edgeless 200-vertex graph given a single bag.

    The 100 small instances have evenly spaced sizes, 25 per kind, so that
    their times spread smoothly and the median does not sit in a gap between
    size classes.
    """
    specs = [("path", 1000), ("edgeless", 200)]
    specs += [(kind, 20 + 5 * j) for j in range(25) for kind in ("path", "cycle", "tree", "path^3")]
    out = []
    for i, (kind, n) in enumerate(specs):
        if kind == "path":
            graph = path(n)
        elif kind == "cycle":
            graph = cycle(n)
        elif kind == "tree":
            graph = random_tree(n, base)
        elif kind == "path^3":
            graph = path_power(n, 3)
        else:
            graph = (n, [])
        out.append(
            make(rng, f"{rnd}/{i}", f"{kind}({n})", "mwis", graph,
                 structure={"kind": kind}, single_bag=kind == "edgeless")
        )
    return out


def _host(base, i):
    kinds = (("cycle", 8), ("path", 10), ("tree", 12), ("cycle", 14), ("tree", 16), ("cycle", 20))
    kind, n = kinds[i % len(kinds)]
    if kind == "cycle":
        return f"cycle({n})", cycle(n)
    if kind == "path":
        return f"path({n})", path(n)
    return f"tree({n})", random_tree(n, base)


def _family(rng, base, graph, max_size, count):
    """Members drawn from ``base``, weights fresh from ``rng``."""
    n, edges = graph
    sets = connected_sets(n, adjacency(n, edges), max_size)
    chosen = base.sample(sets, min(count, len(sets)))
    rng.shuffle(chosen)
    return [(mask, rational(rng)) for mask in chosen]


GENERIC_PROPERTIES = ("forest", "bipartite", "max-degree:2", "max-degree:3")


def solver_mix_round(rng, base, rnd):
    """pack, dpack -d 4, ptas, generic and forest --family exhaustive on small
    graphs; packing hosts are cycles, paths and trees (mu <= 2)."""
    out = []

    def add(label, problem, graph, **kw):
        out.append(make(rng, f"{rnd}/{len(out)}", label, problem, graph, **kw))

    for i in range(16):
        label, host = _host(base, i)
        add(f"pack {label}", "pack", host, family=_family(rng, base, host, 2 + i % 2, 18))
    for i in range(12):
        label, host = _host(base, i)
        add(f"dpack {label}", "dpack", host, family=_family(rng, base, host, 2 + i % 2, 18),
            solve_flags=["-d", "4"])
    for n in (10, 12, 14):
        add(f"ptas cycle({n})", "ptas", cycle(n), weighted=False,
            solve_flags=["-r", "1", "--eps", "4/5"], structure={"r": 1, "eps": Fraction(4, 5)})
    for i in range(40):
        prop = GENERIC_PROPERTIES[i % 4]
        n = 8 + (i // 4) % 7
        while True:  # r must not be below the clique number (see NOTES.md)
            graph = gnp(n, base.uniform(0.15, 0.35), base)
            omega = clique_number(adjacency(*graph), (1 << n) - 1)
            if omega <= 3:
                break
        r = max(omega, 2 + (i // 2) % 2)
        add(f"generic {prop} gnp({n}) -r {r}", "generic", graph,
            solve_flags=["--property", prop, "-r", str(r)], structure={"property": prop, "r": r})
    for i in range(29):
        if i % 14 == 0:
            label, graph = "Q4", hypercube(4)
        else:
            n = 10 + i % 6
            label, graph = f"gnp({n})", gnp(n, base.uniform(0.1, 0.25), base)
        add(f"forest-exh {label}", "forest", graph, solve_flags=["--family", "exhaustive"],
            structure={"oracle": True})
    return out


ROUNDS = {
    "forest-bounded": forest_bounded_round,
    "mwis-sparse": mwis_sparse_round,
    "solver-mix": solver_mix_round,
}


def make_round(workload, seed, rnd):
    return ROUNDS[workload](Random(f"{seed}:{workload}:{rnd}"), Random(workload), rnd)


def known_defect_probes():
    """Instances that hit the open generic-DP defect (r below the clique
    number). Untraced solver-mix runs solve them outside the timed loop and
    the traced run includes them; see NOTES.md for why they are not
    workload operations."""
    return [
        make(Random(0), "probe/0", "generic K4 max-degree:2 -r 2", "generic", multipartite((1, 1, 1, 1)),
             weighted=False, solve_flags=["--property", "max-degree:2", "-r", "2"],
             structure={"property": "max-degree:2", "r": 2}),
        make(Random(0), "probe/1", "generic gnp(14,0.35) max-degree:3 -r 2", "generic", gnp(14, 0.35, Random(1)),
             weighted=False, solve_flags=["--property", "max-degree:3", "-r", "2"],
             structure={"property": "max-degree:3", "r": 2}),
    ]
