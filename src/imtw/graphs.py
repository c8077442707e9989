"""Graph representation, text format, generators, and graph transformations.

Graphs are simple and undirected, with vertices 0..n-1. Adjacency is kept as
one bitmask per vertex, which makes the enumeration-heavy inner loops of the
solvers cheap. All constructed graphs are validated: no loops, no duplicate
edges, symmetric adjacency.

Wire format (used by the CLI):

    c optional comment lines
    p edge <n> <m>
    e <u> <v>        (1-based endpoints, m such lines)

Weight files carry lines ``w <v> <numerator>[/<denominator>]`` with 1-based
vertex ids; omitted vertices default to weight 1.
"""

import sys
from fractions import Fraction
from random import Random

from .bits import bit, bits, components, mask_of, popcount, to_tuple
from .errors import InputError

INFINITY = float("inf")
# Largest vertex count a graph file may declare. Every layer keeps per-vertex
# bitmasks as wide as the highest neighbour id, up to n^2/8 bytes per graph
# (128 MiB at this cap), so a header above it is refused before anything is
# allocated.
MAX_VERTICES = 2**15


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, n, edges=()):
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        adj = [0] * n
        seen = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            adj[u] |= bit(v)
            adj[v] |= bit(u)
        self.n = n
        self._adj = tuple(adj)
        self._edges = tuple(sorted(seen))

    @property
    def edges(self):
        return self._edges

    @property
    def m(self):
        return len(self._edges)

    def adj_mask(self, v):
        return self._adj[v]

    def closed_mask(self, v):
        return self._adj[v] | bit(v)

    def neighbors(self, v):
        return to_tuple(self._adj[v])

    def degree(self, v):
        return popcount(self._adj[v])

    def max_degree(self):
        return max((popcount(a) for a in self._adj), default=0)

    def has_edge(self, u, v):
        return bool(self._adj[u] & bit(v))

    def vertex_mask(self):
        return (1 << self.n) - 1

    def neighborhood_of_set(self, mask):
        """Open neighborhood N(X): neighbors of X outside X."""
        out = 0
        for v in bits(mask):
            out |= self._adj[v]
        return out & ~mask

    def closed_neighborhood_of_set(self, mask):
        return self.neighborhood_of_set(mask) | mask

    def is_independent(self, mask):
        for v in bits(mask):
            if self._adj[v] & mask:
                return False
        return True

    def count_edges_within(self, mask):
        total = 0
        for v in bits(mask):
            total += popcount(self._adj[v] & mask)
        return total // 2

    def components_within(self, mask):
        """Connected components of the induced subgraph on ``mask``, as masks.

        Ordered by smallest member vertex.
        """
        return components(self._adj, mask)

    def is_connected_within(self, mask):
        if mask == 0:
            return False
        return len(self.components_within(mask)) == 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self._edges == other._edges

    def __hash__(self):
        return hash((self.n, self._edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class WeightMap:
    """Exact nonnegative rational vertex weights."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
        for i, v in enumerate(vals):
            if v.numerator < 0:  # a Fraction keeps its sign in the numerator
                raise InputError(f"weight of vertex {i} is negative: {v}")
        self.values = vals

    @classmethod
    def unit(cls, n):
        return cls([Fraction(1)] * n)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, v):
        return self.values[v]

    def of_set(self, mask):
        total = Fraction(0)
        for v in bits(mask):
            total += self.values[v]
        return total

    def scaled(self, factor):
        return WeightMap([w * Fraction(factor) for w in self.values])

    def __eq__(self, other):
        return isinstance(other, WeightMap) and self.values == other.values


# ---------------------------------------------------------------------------
# Text format


def parse_graph(text):
    """Parse the ``p edge`` format. Raises InputError with a line number,
    also for a header declaring more than MAX_VERTICES vertices."""
    n = None
    declared_m = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InputError("duplicate header", line=lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise InputError(f"malformed header {line!r}", line=lineno)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise InputError(f"malformed header {line!r}", line=lineno) from None
            if n < 0 or declared_m < 0:
                raise InputError(f"malformed header {line!r}", line=lineno)
            if n > MAX_VERTICES:
                raise InputError(
                    f"header declares {n} vertices, above the cap of {MAX_VERTICES}", line=lineno
                )
        elif parts[0] == "e":
            if n is None:
                raise InputError("edge line before header", line=lineno)
            if len(parts) != 3:
                raise InputError(f"malformed edge line {line!r}", line=lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise InputError(f"malformed edge line {line!r}", line=lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"endpoint out of range in {line!r}", line=lineno)
            if u == v:
                raise InputError(f"self-loop in {line!r}", line=lineno)
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in seen:
                raise InputError(f"duplicate edge in {line!r}", line=lineno)
            seen.add(key)
            edges.append(key)
        else:
            raise InputError(f"unrecognized line {line!r}", line=lineno)
    if n is None:
        raise InputError("missing header line")
    if declared_m != len(edges):
        raise InputError(f"header declares {declared_m} edges, found {len(edges)}")
    return Graph(n, edges)


def serialize_graph(graph):
    lines = [f"p edge {graph.n} {graph.m}"]
    for u, v in graph.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_rational(text):
    """``Fraction(text)``, refusing with ValueError a literal whose value
    would have more than ``sys.get_int_max_str_digits()`` digits (none when
    that is 0): a longer value could not be written into a report. Fraction
    builds 10^|e| for an exponent e, so the size is judged from the literal
    before it runs: m digits, d of them after the point, and exponent e give
    at most m + |e - d| digits in the numerator or the denominator."""
    limit = sys.get_int_max_str_digits()
    mantissa, marker, exponent = text.replace("E", "e").partition("e")
    if marker and limit:
        whole, _, decimals = mantissa.partition(".")
        digits = (whole + decimals).strip().lstrip("+-").replace("_", "").lstrip("0")
        if len(digits) + abs(int(exponent) - len(decimals)) > limit:
            raise ValueError(f"{text!r} has more than {limit} digits")
    return Fraction(text)


def parse_weights(text, n):
    """Parse ``w <v> <num>[/<den>]`` lines, at most one per vertex; unlisted
    vertices get weight 1."""
    values = [Fraction(1)] * n
    listed = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "w" or len(parts) != 3:
            raise InputError(f"malformed weight line {line!r}", line=lineno)
        try:
            v = int(parts[1])
            value = parse_rational(parts[2])
        except (ValueError, ZeroDivisionError):
            raise InputError(f"malformed weight line {line!r}", line=lineno) from None
        if not 1 <= v <= n:
            raise InputError(f"vertex out of range in {line!r}", line=lineno)
        if value < 0:
            raise InputError(f"negative weight in {line!r}", line=lineno)
        if v in listed:
            raise InputError(f"duplicate weight for vertex {v} in {line!r}", line=lineno)
        listed.add(v)
        values[v - 1] = value
    return WeightMap(values)


def serialize_weights(weights):
    lines = []
    for v, w in enumerate(weights.values):
        if w.denominator == 1:
            lines.append(f"w {v + 1} {w.numerator}")
        else:
            lines.append(f"w {v + 1} {w.numerator}/{w.denominator}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generators
#
# The sized generators check their vertex count against MAX_VERTICES before
# they allocate, so ``imtw gen`` never builds a graph that parse_graph would
# refuse.


def _check_vertex_cap(n):
    if n > MAX_VERTICES:
        raise InputError(f"graph would have {n} vertices, above the cap of {MAX_VERTICES}")


def path_graph(n):
    if n < 1:
        raise InputError("path requires n >= 1")
    _check_vertex_cap(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise InputError("cycle requires n >= 3")
    _check_vertex_cap(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    if n < 1:
        raise InputError("complete graph requires n >= 1")
    _check_vertex_cap(n)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    if a < 0 or b < 0 or a + b < 1:
        raise InputError("complete bipartite graph requires nonnegative sides, at least one vertex")
    _check_vertex_cap(a + b)
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete_multipartite(parts):
    """The complete multipartite graph whose parts, of the given sizes, are
    consecutive vertex ranges."""
    if any(size < 0 for size in parts) or sum(parts) < 1:
        raise InputError("complete multipartite graph requires nonnegative parts, at least one vertex")
    n = sum(parts)
    _check_vertex_cap(n)
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]])


def hypercube_graph(dim):
    """The dim-dimensional hypercube: 2^dim vertices, dim * 2^(dim-1) edges."""
    if dim < 1:
        raise InputError("hypercube requires dimension >= 1")
    if dim >= MAX_VERTICES.bit_length():
        raise InputError(f"graph would have 2^{dim} vertices, above the cap of {MAX_VERTICES}")
    n = 1 << dim
    edges = []
    for v in range(n):
        for d in range(dim):
            u = v ^ (1 << d)
            if u > v:
                edges.append((v, u))
    return Graph(n, edges)


def matching_join(n):
    """Two disjoint copies of n*K2 with every edge between the copies added.

    Copy one is the matching (0,1),(2,3),...; copy two starts at vertex 2n.
    """
    if n < 1:
        raise InputError("matching join requires n >= 1")
    _check_vertex_cap(4 * n)
    edges = [(2 * i, 2 * i + 1) for i in range(n)]
    edges += [(2 * n + 2 * i, 2 * n + 2 * i + 1) for i in range(n)]
    edges += [(x, 2 * n + y) for x in range(2 * n) for y in range(2 * n)]
    return Graph(4 * n, edges)


def petersen_graph():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def random_graph(n, p, seed):
    """Erdos-Renyi graph, deterministic for a given seed."""
    if n < 0 or not 0 <= p <= 1:
        raise InputError(f"bad random graph parameters n={n}, p={p}")
    _check_vertex_cap(n)
    rng = Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def chordal_power_gadget(base, r):
    """A chordal graph whose r-th power contains ``base`` as an induced subgraph.

    Each edge of ``base`` is subdivided once, the subdivision vertices are made
    into a clique, and a tail path with (r-2)/2 edges is appended to every
    original vertex. Returns (gadget, anchors) where anchors[v] is the gadget
    vertex standing for base-vertex v; the r-th power of the gadget induced on
    the anchors is ``base`` under that correspondence.
    """
    if r < 2 or r % 2 != 0:
        raise InputError(f"power must be even and >= 2, got {r}")
    h = base.n
    m = base.m
    tail = (r - 2) // 2
    edges = []
    # subdivision vertices h .. h+m-1, one per base edge, forming a clique
    for idx, (u, v) in enumerate(base.edges):
        s = h + idx
        edges.append((u, s))
        edges.append((v, s))
    for i in range(m):
        for j in range(i + 1, m):
            edges.append((h + i, h + j))
    # tails: vertex v owns h + m + v*tail .. h + m + (v+1)*tail - 1
    anchors = []
    for v in range(h):
        prev = v
        for step in range(tail):
            t = h + m + v * tail + step
            edges.append((prev, t))
            prev = t
        anchors.append(prev)
    return Graph(h + m + h * tail, edges), tuple(anchors)


GENERATORS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "complete_bipartite": complete_bipartite,
    "hypercube": hypercube_graph,
    "matching_join": matching_join,
    "petersen": petersen_graph,
    "random": random_graph,
}


def generate(kind, *params):
    if kind not in GENERATORS:
        raise InputError(f"unknown generator {kind!r}; expected one of {sorted(GENERATORS)}")
    try:
        return GENERATORS[kind](*params)
    except TypeError:
        raise InputError(f"wrong parameters {params!r} for generator {kind!r}") from None


# ---------------------------------------------------------------------------
# Distances and powers


def bfs_distances(graph, source):
    dist = [INFINITY] * graph.n
    dist[source] = 0
    frontier = bit(source)
    seen = frontier
    d = 0
    while frontier:
        d += 1
        grow = 0
        for v in bits(frontier):
            grow |= graph.adj_mask(v)
        frontier = grow & ~seen
        seen |= frontier
        for v in bits(frontier):
            dist[v] = d
    return dist


def distance_matrix(graph):
    """All-pairs hop distances; unreachable pairs hold INFINITY."""
    return [bfs_distances(graph, v) for v in range(graph.n)]


def ball_mask(graph, center, radius):
    """Vertices at distance at most ``radius`` from ``center``."""
    reach = bit(center)
    frontier = reach
    for _ in range(radius):
        grow = 0
        for v in bits(frontier):
            grow |= graph.adj_mask(v)
        frontier = grow & ~reach
        reach |= frontier
        if not frontier:
            break
    return reach


def graph_power(graph, k):
    """Edges between distinct vertices at distance at most k."""
    if k < 1:
        raise InputError(f"graph power requires k >= 1, got {k}")
    edges = []
    for u in range(graph.n):
        reach = ball_mask(graph, u, k) & ~bit(u)
        for v in bits(reach):
            if v > u:
                edges.append((u, v))
    return Graph(graph.n, edges)


# ---------------------------------------------------------------------------
# Transformations


def induced_subgraph(graph, vertices):
    """Induced subgraph plus the old-id -> new-id mapping."""
    if isinstance(vertices, int):
        members = to_tuple(vertices)
    else:
        members = tuple(sorted(set(vertices)))
    for v in members:
        if not 0 <= v < graph.n:
            raise InputError(f"vertex {v} out of range for n={graph.n}")
    mapping = {old: new for new, old in enumerate(members)}
    mask = mask_of(members)
    edges = [(mapping[u], mapping[v]) for u in members for v in bits(graph.adj_mask(u) & mask) if u < v]
    return Graph(len(members), edges), mapping


def touch_rows(graph, members):
    """Row i masks the members j != i that touch member i: a vertex of j lies
    in N[member i]. Members are vertex tuples (edges, connected pieces). Row i
    is the OR over member i's vertices x of ``cover[x]``, the members with a
    vertex in N[x], so the cost is the members' degrees, not their pairs.
    """
    at = {}
    for i, member in enumerate(members):
        for x in member:
            at[x] = at.get(x, 0) | bit(i)
    held = mask_of(at)
    cover = {}
    for x in at:
        c = 0
        for y in bits(graph.closed_mask(x) & held):
            c |= at[y]
        cover[x] = c
    rows = []
    for i, member in enumerate(members):
        row = 0
        for x in member:
            row |= cover[x]
        rows.append(row & ~bit(i))
    return rows


def graph_of_rows(rows):
    """The graph whose vertex i is adjacent to the bits of symmetric ``rows[i]``."""
    return Graph(len(rows), [(i, j) for i, row in enumerate(rows) for j in bits(row >> i << i)])


def line_graph_square(graph):
    """The square of the line graph and the index -> edge correspondence.

    Vertices are the edges of the input; two of them are adjacent exactly when
    the subgraph induced by their endpoints is connected.
    """
    return graph_of_rows(touch_rows(graph, graph.edges)), graph.edges


def corona(graph):
    """Add one pendant neighbor to every vertex; pendant of v is n + v."""
    n = graph.n
    edges = list(graph.edges) + [(v, n + v) for v in range(n)]
    return Graph(2 * n, edges)


FORK_ORIGINAL = "original"
FORK_PRONG = "prong"
FORK_MID = "fork-mid"
FORK_TIP = "fork-tip"


def forked_version(graph, marked):
    """Attach three pendants to every vertex and a two-edge path to marked ones.

    Returns (forked graph, per-vertex role tuple). Original vertices keep their
    ids; the pendants of v are n+3v..n+3v+2; the two-edge paths come after all
    pendants, in ascending order of their marked vertex.
    """
    if isinstance(marked, int):
        marked_list = to_tuple(marked)
    else:
        marked_list = tuple(sorted(set(marked)))
    n = graph.n
    for v in marked_list:
        if not 0 <= v < n:
            raise InputError(f"marked vertex {v} out of range for n={n}")
    edges = list(graph.edges)
    roles = [FORK_ORIGINAL] * n + [FORK_PRONG] * (3 * n) + [None] * (2 * len(marked_list))
    for v in range(n):
        for j in range(3):
            edges.append((v, n + 3 * v + j))
    base = 4 * n
    for i, v in enumerate(marked_list):
        mid, tip = base + 2 * i, base + 2 * i + 1
        edges.append((v, mid))
        edges.append((mid, tip))
        roles[mid] = FORK_MID
        roles[tip] = FORK_TIP
    return Graph(base + 2 * len(marked_list), edges), tuple(roles)


def decode_forked(forked):
    """Invert forked_version by the degree rule.

    Originals are the vertices of degree at least 4; marked vertices are the
    originals adjacent to a degree-2 vertex. Exact whenever every isolated
    vertex of the original graph was marked (otherwise it hides at degree 3).
    """
    originals = [v for v in range(forked.n) if forked.degree(v) >= 4]
    graph, mapping = induced_subgraph(forked, originals)
    marked = [
        mapping[v] for v in originals if any(forked.degree(u) == 2 for u in forked.neighbors(v))
    ]
    return graph, tuple(marked)
