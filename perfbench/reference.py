"""Reference optima and answer checks, independent of the solvers under test.

Every instance gets its reference from one of three sources: a closed form
(complete multipartite forests, edgeless MWIS, the PTAS bound on cycles), a
small exact search or linear DP kept in this file, or ``imtw.oracles`` within
its caps. References are computed outside every timed region and outside
the set-up time.
"""

from fractions import Fraction
from math import ceil

from workloads import adjacency, clique_number

# ---------------------------------------------------------------------------
# Reference optima


def _mwis_path(weights):
    take, skip = Fraction(0), Fraction(0)
    for w in weights:
        take, skip = skip + w, max(take, skip)
    return max(take, skip)


def _mwis_tree(n, edges, weights):
    """Tree DP; edges are (parent, child) with parent < child."""
    take = list(weights)
    skip = [Fraction(0)] * n
    parent = {c: p for p, c in edges}
    for v in range(n - 1, 0, -1):
        p = parent[v]
        take[p] += skip[v]
        skip[p] += max(take[v], skip[v])
    return max(take[0], skip[0])


def _mwis_path_power(weights, k):
    best = [Fraction(0)] * (len(weights) + 1)
    for i, w in enumerate(weights):
        best[i + 1] = max(best[i], best[max(0, i - k)] + w)
    return best[-1]


def _mwis_exact(adj, weights):
    """Exact MWIS for small sparse conflict graphs, memoized on the pool."""
    memo = {0: Fraction(0)}

    def solve(pool):
        if pool in memo:
            return memo[pool]
        low = pool & -pool
        v = low.bit_length() - 1
        best = weights[v] + solve(pool & ~adj[v] & ~low)
        if adj[v] & pool:
            best = max(best, solve(pool & ~low))
        memo[pool] = best
        return best

    return solve((1 << len(adj)) - 1)


def _distances_from(n, adj, source_mask):
    dist = [None] * n
    frontier, seen, d = source_mask, source_mask, 0
    while frontier:
        for v in range(n):
            if frontier >> v & 1:
                dist[v] = d
        grow = 0
        for v in range(n):
            if frontier >> v & 1:
                grow |= adj[v]
        frontier = grow & ~seen
        seen |= frontier
        d += 1
    return dist


def _conflicts(inst, distance):
    """Member conflict graph: members closer than ``distance`` in the host."""
    adj = adjacency(inst.n, inst.base_edges)
    masks = [mask for mask, _ in inst.family]
    out = [0] * len(masks)
    for i, mi in enumerate(masks):
        dist = _distances_from(inst.n, adj, mi)
        for j, mj in enumerate(masks):
            if i != j and any(dist[v] is not None and dist[v] < distance for v in range(inst.n) if mj >> v & 1):
                out[i] |= 1 << j
    return out


def _max_weight_hereditary(n, adj, weights, prop, r):
    """Maximum weight vertex set with the property and clique number <= r.

    All properties here are hereditary, so a branch that breaks one is cut.
    """
    suffix = [Fraction(0)] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] + weights[v]
    best = Fraction(0)

    def rec(v, chosen, weight):
        nonlocal best
        if weight > best:
            best = weight
        if v == n or weight + suffix[v] <= best:
            return
        grown = chosen | 1 << v
        if holds(n, adj, grown, prop) and clique_number(adj, grown) <= r:
            rec(v + 1, grown, weight + weights[v])
        rec(v + 1, chosen, weight)

    rec(0, 0, Fraction(0))
    return best


def compute(inst):
    """The reference for one instance: a Fraction, or (lo, hi) for the PTAS."""
    s = inst.structure
    w = inst.base_weights
    if "parts" in s:  # complete multipartite: one part plus one vertex outside it
        starts = [sum(s["parts"][:i]) for i in range(len(s["parts"]))]
        best = Fraction(0)
        for st, size in zip(starts, s["parts"]):
            inside = sum(w[st : st + size], Fraction(0))
            outside = [w[v] for v in range(inst.n) if not st <= v < st + size]
            best = max(best, inside + max(outside, default=Fraction(0)))
        return best
    kind = s.get("kind")
    if kind == "path":
        return _mwis_path(w)
    if kind == "cycle":  # drop vertex 0, or take it and drop both neighbours
        return max(_mwis_path(w[1:]), w[0] + _mwis_path(w[2:-1]))
    if kind == "tree":
        return _mwis_tree(inst.n, inst.base_edges, w)
    if kind == "path^3":
        return _mwis_path_power(w, 3)
    if kind == "edgeless":
        return sum(w, Fraction(0))
    if inst.problem in ("pack", "dpack"):
        distance = 2 if inst.problem == "pack" else int(inst.solve_flags[1])
        return _mwis_exact(_conflicts(inst, distance), [mw for _, mw in inst.family])
    if inst.problem == "ptas":  # cycle(n): the best induced forest drops one vertex
        return ceil((1 - s["eps"]) * (inst.n - 1)), inst.n - 1
    if inst.problem == "generic":
        return _max_weight_hereditary(inst.n, adjacency(inst.n, inst.base_edges), w, s["property"], s["r"])
    if s.get("oracle"):
        from imtw.graphs import Graph, WeightMap
        from imtw.oracles import brute_max_weight_induced_forest

        return brute_max_weight_induced_forest(Graph(inst.n, inst.base_edges), WeightMap(w))[0]
    raise ValueError(f"no reference for {inst.label}")


# ---------------------------------------------------------------------------
# Property checks on vertex masks


def _members(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def is_forest(n, adj, mask):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in _members(mask):
        for u in _members(adj[v] & mask):
            if u > v:
                ru, rv = find(u), find(v)
                if ru == rv:
                    return False
                parent[ru] = rv
    return True


def is_bipartite(adj, mask):
    side = {}
    for start in _members(mask):
        if start in side:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in _members(adj[v] & mask):
                if u not in side:
                    side[u] = 1 - side[v]
                    stack.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def holds(n, adj, mask, prop):
    if prop == "forest":
        return is_forest(n, adj, mask)
    if prop == "bipartite":
        return is_bipartite(adj, mask)
    bound = int(prop.split(":")[1])
    return all(bin(adj[v] & mask).count("1") <= bound for v in _members(mask))


# ---------------------------------------------------------------------------
# Checking one solver report against the reference


def check(inst, solve_code, report):
    """None when the answer is right, else the reason it is wrong."""
    if solve_code != 0:
        err = report.get("error") or {}
        return f"exit {solve_code}: {err.get('type')}: {err.get('message')}"
    if not all(report.get("verification", {}).values()):
        return f"false verdict {report['verification']}"
    result = report["result"]
    ref = inst.reference
    inv = {p: v for v, p in enumerate(inst.perm)}  # file vertex -> base vertex
    adj = adjacency(inst.n, inst.base_edges)
    if inst.problem == "ptas":
        chosen = [inv[v - 1] for v in result["solution"]]
        mask = sum(1 << v for v in chosen)
        if not ref[0] <= result["size"] == len(chosen) <= ref[1]:
            return f"size {result['size']} outside [{ref[0]}, {ref[1]}]"
        if not is_forest(inst.n, adj, mask):
            return "ptas solution does not induce a forest"
        return None
    if Fraction(result["optimum"]) != ref:
        return f"optimum {result['optimum']} != reference {ref}"
    if inst.problem in ("pack", "dpack"):
        distance = 2 if inst.problem == "pack" else int(inst.solve_flags[1])
        conflicts = _conflicts(inst, distance)
        chosen = result["chosen"]
        if any(conflicts[i] >> j & 1 for i in chosen for j in chosen):
            return f"chosen members {chosen} conflict"
        if sum((inst.family[i][1] for i in chosen), Fraction(0)) != ref:
            return "chosen members do not weigh the optimum"
        return None
    mask = sum(1 << inv[v - 1] for v in result["solution"])
    if sum((inst.base_weights[v] for v in _members(mask)), Fraction(0)) != ref:
        return "solution does not weigh the optimum"
    if inst.problem == "mwis":
        ok = all(not adj[v] & mask for v in _members(mask))
    elif inst.problem == "forest":
        ok = is_forest(inst.n, adj, mask)
    else:
        s = inst.structure
        ok = holds(inst.n, adj, mask, s["property"]) and clique_number(adj, mask) <= s["r"]
    return None if ok else f"solution is not a valid {inst.problem} answer"
