"""A replayed command corpus: every report must stay byte for byte the same.

The corpus is a fixed, seeded list of ``imtw`` commands. They run in order,
in-process, in a temporary directory and with relative paths, so every
report, input digest and written file is the same on every machine. Each
command's exit code and the sha256 of its stdout are checked against
``tests/digests.json``. The corpus covers ``gen``, ``decompose`` with both
strategies, ``metrics``, ``exact``, every ``solve`` kind with both forest
families, ``--budget`` runs that exit 0 and runs that exit 4, all five
``transform``s, ``recognize-imtw1``, ``verify --max-n 6``, hostile
graph, weight, family and decomposition files, and seeded copies of the
benchmark workloads' instance shapes: forest ``--family paper`` on K_17,
K(4,5) and K(1,1,2,3); weighted ``mwis`` on path(1000), path(120)^3, a
random tree, a cycle and a single-bag edgeless(200); ``pack``,
``dpack -d 4``, ``ptas -r 1 --eps 4/5`` and ``generic`` on small hosts;
weighted forest ``--family exhaustive`` on Q4 and three G(n, p) with n in
12..15 and p in [0.1, 0.25].

A change that alters a report on purpose rewrites the file with

    PYTHONPATH=src python tests/test_digest_corpus.py --rewrite

which first prints the added, removed and changed commands; a change that
rewrites it names them in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import combinations
from pathlib import Path
from random import Random

from imtw.cli import main

DIGESTS = Path(__file__).with_name("digests.json")

# (stem, generator arguments): the corpus's generated instances
INSTANCES = (
    ("path8", ("path", "8")),
    ("path1", ("path", "1")),
    ("cycle7", ("cycle", "7")),
    ("k5", ("complete", "5")),
    ("k34", ("complete_bipartite", "3", "4")),
    ("q3", ("hypercube", "3")),
    ("mj2", ("matching_join", "2")),
    ("petersen", ("petersen",)),
    ("rand10", ("random", "10", "0.3", "--seed", "7")),
    ("rand11", ("random", "11", "0.5", "--seed", "3")),
    ("empty9", ("random", "9", "0.0")),
)

# hand-written files, each read by at least one command below
HOSTILE = {
    "dup.gr": "p edge 3 2\ne 1 2\ne 2 1\n",
    "loop.gr": "p edge 3 1\ne 2 2\n",
    "range.gr": "p edge 3 1\ne 1 4\n",
    "count.gr": "p edge 3 2\ne 1 2\n",
    "header.gr": "p edge 3 1\np edge 3 1\ne 1 2\n",
    "noheader.gr": "c no header\ne 1 2\n",
    "garbage.gr": "p edge 3 1\nx 1 2\n",
    "dup_late.gr": "c comment\np edge 4 3\ne 1 2\ne 3 4\n\ne 4 3\n",
    "p4.gr": "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n",
    # path(4) with its middle edge and then every edge uncovered, a vertex
    # in no bag, and a disconnected trace
    "gap.td": "s td 2 2 4\nb 1 1 2\nb 2 3 4\n1 2\n",
    "apart.td": "s td 4 1 4\nb 1 1\nb 2 2\nb 3 3\nb 4 4\n1 2\n2 3\n3 4\n",
    "missing.td": "s td 2 2 4\nb 1 1 2\nb 2 2 3\n1 2\n",
    "split.td": "s td 3 3 4\nb 1 1 2 3\nb 2 3 4\nb 3 2 3\n1 2\n2 3\n",
    "bad.w": "w 1 2\nw 1 3\n",
    "negative.w": "w 2 -1\n",
    "split.fam": json.dumps([{"id": 0, "vertices": [1, 3]}]),
}


def _weights(n, rng):
    """Seeded rational weights, some of them zero."""
    lines = []
    for v in range(1, n + 1):
        num, den = rng.randrange(0, 7), rng.choice((1, 1, 2, 3))
        lines.append(f"w {v} {num}" if den == 1 else f"w {v} {num}/{den}")
    return "\n".join(lines) + "\n"


def _family(graph_text, rng):
    """Every edge and a seeded third of the vertices as members, with
    seeded weights."""
    n = int(graph_text.split("p edge ")[1].split()[0])
    members = [[int(x) for x in line.split()[1:]] for line in graph_text.splitlines() if line.startswith("e ")]
    members += [[v] for v in range(1, n + 1) if rng.random() < 1 / 3]
    return json.dumps(
        [{"id": i, "vertices": vs, "weight": str(rng.randrange(1, 5))} for i, vs in enumerate(members)]
    )


def commands(workdir):
    """Yield the corpus's argv lists in order. The auxiliary files a command
    reads are written into ``workdir`` before it is yielded."""
    rng = Random(20240224)
    for name, text in HOSTILE.items():
        (workdir / name).write_text(text)
    for stem, spec in INSTANCES:
        yield ["gen", *spec, "-o", f"{stem}.gr"]
    yield ["gen", "petersen"]
    yield ["gen", "random", "7", "0.4", "--seed", "11"]
    yield ["gen", "cycle", "2"]
    for stem, _ in INSTANCES:
        gr = f"{stem}.gr"
        text = (workdir / gr).read_text()
        n = int(text.split()[2])
        (workdir / f"{stem}.w").write_text(_weights(n, rng))
        (workdir / f"{stem}.fam").write_text(_family(text, rng))
        yield ["decompose", gr, "-o", f"{stem}.td"]
        yield ["decompose", gr, "--strategy", "min-degree", "-o", f"{stem}.md.td"]
        yield ["decompose", gr, "--strategy", "min-degree"]
        yield ["metrics", gr, f"{stem}.td"]
        yield ["metrics", gr, f"{stem}.md.td"]
        yield ["exact", gr]
        yield ["recognize-imtw1", gr]
        yield ["solve", "mwis", gr, f"{stem}.td"]
        yield ["solve", "mwis", gr, f"{stem}.md.td", "-w", f"{stem}.w"]
        yield ["solve", "forest", gr, f"{stem}.td", "-w", f"{stem}.w"]
        yield ["solve", "forest", gr, f"{stem}.md.td", "--family", "exhaustive"]
        yield ["solve", "generic", gr, f"{stem}.td", "-r", "1", "-w", f"{stem}.w"]
        yield ["solve", "generic", gr, f"{stem}.td", "-r", "2", "--property", "bipartite"]
        yield ["solve", "generic", gr, f"{stem}.td", "-r", "1", "--property", "max-degree:1"]
        yield ["solve", "pack", gr, f"{stem}.td", f"{stem}.fam"]
        yield ["solve", "dpack", gr, f"{stem}.td", f"{stem}.fam", "-d", "2"]
        yield ["solve", "dpack", gr, f"{stem}.md.td", f"{stem}.fam", "-d", "4"]
        yield ["solve", "ptas", gr, f"{stem}.td", "-r", "1", "--eps", "1/2"]
        yield ["transform", "power", gr, "-k", "2"]
        yield ["transform", "power", gr, "-k", "3", "-o", f"{stem}.p3.gr"]
        yield ["transform", "corona", gr]
        yield ["transform", "l2", gr]
        yield ["transform", "l2", gr, "-o", f"{stem}.l2.gr"]
        yield ["transform", "blob", gr, f"{stem}.fam"]
        yield ["transform", "forked", gr, "--marked", "1", "-o", f"{stem}.fk.gr"]
        for derived in (f"{stem}.p3", f"{stem}.l2"):
            yield ["decompose", f"{derived}.gr", "-o", f"{derived}.td"]
            yield ["solve", "mwis", f"{derived}.gr", f"{derived}.td"]
            yield ["recognize-imtw1", f"{derived}.gr"]
    # the forked graphs; the ptas blob of forked K(3,4) is over its edge budget
    for stem in ("path8", "k34", "path1"):
        fk = f"{stem}.fk"
        yield ["decompose", f"{fk}.gr", "-o", f"{fk}.td"]
        yield ["solve", "forest", f"{fk}.gr", f"{fk}.td"]
        if stem != "path8":
            yield ["solve", "ptas", f"{fk}.gr", f"{fk}.td", "-r", "1", "--eps", "2/3"]
    yield ["transform", "forked", "path8.gr", "--marked", "2,5,8"]
    yield ["transform", "forked", "path8.gr", "--marked", "9"]
    yield ["transform", "corona", "path1.gr"]
    # budgets: one run per solver that fits and one that does not
    for argv, fits, short in (
        (["solve", "mwis", "k34.gr", "k34.td"], "1000", "3"),
        (["solve", "forest", "q3.gr", "q3.td"], "100000", "20"),
        (["solve", "forest", "q3.gr", "q3.td", "--family", "exhaustive"], "100000", "20"),
        (["solve", "generic", "cycle7.gr", "cycle7.td", "-r", "1"], "100000", "10"),
        (["solve", "pack", "petersen.gr", "petersen.td", "petersen.fam"], "100000", "10"),
        (["solve", "dpack", "q3.gr", "q3.td", "q3.fam", "-d", "4"], "100000", "10"),
        (["solve", "ptas", "path8.gr", "path8.td", "-r", "1", "--eps", "1/2"], "100000", "5"),
        (["decompose", "rand11.gr"], "100000", "1"),
        (["metrics", "rand11.gr", "rand11.td"], "100000", "1"),
    ):
        yield [*argv, "--budget", fits]
        yield [*argv, "--budget", short]
    yield ["solve", "mwis", "k34.gr", "k34.td", "--budget", "0"]
    # hostile inputs
    for gr in ("dup.gr", "loop.gr", "range.gr", "count.gr", "header.gr", "noheader.gr", "garbage.gr",
               "dup_late.gr", "nothere.gr"):
        yield ["recognize-imtw1", gr]
    yield ["decompose", "dup_late.gr"]
    for td in ("gap.td", "apart.td", "missing.td", "split.td"):
        yield ["solve", "mwis", "p4.gr", td]
    yield ["solve", "mwis", "path8.gr", "path8.td", "-w", "bad.w"]
    yield ["solve", "mwis", "path8.gr", "path8.td", "-w", "negative.w"]
    yield ["solve", "pack", "p4.gr", "path8.td", "split.fam"]
    yield ["transform", "blob", "p4.gr", "split.fam"]
    yield ["transform", "blob", "p4.gr"]
    yield ["transform", "power", "p4.gr", "-k", "0"]
    yield ["transform", "corona", "p4.gr", "-k", "2"]
    yield ["solve", "ptas", "path8.gr", "path8.td", "-r", "1", "--eps", "1/0"]
    yield ["solve", "ptas", "path8.gr", "path8.td", "-r", "1"]
    yield ["gen", "random", "5", "x"]
    yield ["verify", "--max-n", "6"]
    yield from workload_shapes(workdir)


# The benchmark workloads' instance shapes, rebuilt here with their own seed:
# relabelled vertices, positive rational weights, sampled packing families.


def _multipartite(parts):
    starts = [sum(parts[:i]) for i in range(len(parts))]
    edges = []
    for i, (si, pi) in enumerate(zip(starts, parts)):
        for sj, pj in zip(starts[i + 1 :], parts[i + 1 :]):
            edges += [(u, v) for u in range(si, si + pi) for v in range(sj, sj + pj)]
    return sum(parts), edges


def _connected_sets(n, edges, max_size):
    """Connected vertex sets of 1..max_size vertices, as sorted tuples."""
    near = [{v} for v in range(n)]
    for u, v in edges:
        near[u].add(v)
        near[v].add(u)
    layer = {frozenset((v,)) for v in range(n)}
    found = set(layer)
    for _ in range(max_size - 1):
        layer = {s | {u} for s in layer for v in s for u in near[v]} - found
        found |= layer
    return sorted(tuple(sorted(s)) for s in found)


def _rational(rng):
    num, den = rng.randint(1, 97), rng.randint(1, 13)
    return str(num) if den == 1 else f"{num}/{den}"


def _write_shape(workdir, stem, graph, rng, family_size=None):
    """Write ``stem``.gr under a seeded relabelling, with rational weights
    in ``stem``.w and, given a size, a sampled family in ``stem``.fam."""
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    (workdir / f"{stem}.gr").write_text(
        f"p edge {n} {len(pairs)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs)
    )
    (workdir / f"{stem}.w").write_text("".join(f"w {v + 1} {_rational(rng)}\n" for v in range(n)))
    if family_size is not None:
        sets = rng.sample(_connected_sets(n, edges, family_size[0]), family_size[1])
        (workdir / f"{stem}.fam").write_text(json.dumps([
            {"id": i, "vertices": sorted(perm[v] + 1 for v in s), "weight": _rational(rng)}
            for i, s in enumerate(sets)
        ]))
    return f"{stem}.gr", f"{stem}.td", f"{stem}.w"


def workload_shapes(workdir):
    """Yield the workload-shape commands, writing each instance first."""
    rng = Random(20240225)
    for stem, parts in (("wk17", (1,) * 17), ("wk45", (4, 5)), ("wk1123", (1, 1, 2, 3))):
        gr, td, w = _write_shape(workdir, stem, _multipartite(parts), rng)
        yield ["decompose", gr, "-o", td]
        yield ["solve", "forest", gr, td, "-w", w, "--family", "paper"]
    tree = (40, [(rng.randrange(i), i) for i in range(1, 40)])
    for stem, graph in (
        ("wpath1000", (1000, [(i, i + 1) for i in range(999)])),
        ("wcube120", (120, [(i, j) for i in range(120) for j in range(i + 1, min(120, i + 4))])),
        ("wtree40", tree),
        ("wcycle45", (45, [(i, (i + 1) % 45) for i in range(45)])),
    ):
        gr, td, w = _write_shape(workdir, stem, graph, rng)
        yield ["decompose", gr, "-o", td]
        yield ["solve", "mwis", gr, td, "-w", w]
    gr, td, w = _write_shape(workdir, "wempty200", (200, []), rng)
    (workdir / td).write_text("s td 1 200 200\nb 1 " + " ".join(str(v) for v in range(1, 201)) + "\n")
    yield ["solve", "mwis", gr, td, "-w", w]
    hosts = (
        ("wcycle8", (8, [(i, (i + 1) % 8) for i in range(8)])),
        ("wpath10", (10, [(i, i + 1) for i in range(9)])),
        ("wtree12", (12, [(rng.randrange(i), i) for i in range(1, 12)])),
    )
    for i, (stem, graph) in enumerate(hosts):
        gr, td, _ = _write_shape(workdir, stem, graph, rng, family_size=(2 + i % 2, 14))
        yield ["decompose", gr, "-o", td]
        yield ["solve", "pack", gr, td, f"{stem}.fam"]
        yield ["solve", "dpack", gr, td, f"{stem}.fam", "-d", "4"]
    for n in (10, 12):
        gr, td, _ = _write_shape(workdir, f"wptas{n}", (n, [(i, (i + 1) % n) for i in range(n)]), rng)
        yield ["decompose", gr, "-o", td]
        yield ["solve", "ptas", gr, td, "-r", "1", "--eps", "4/5"]
    for i, prop in enumerate(("forest", "bipartite", "max-degree:2", "max-degree:3")):
        n = 8 + i
        while True:  # the generic solver needs r at least the clique number
            graph = (n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.25])
            edges = set(graph[1])
            if not any(all(e in edges for e in combinations(quad, 2)) for quad in combinations(range(n), 4)):
                break
        gr, td, w = _write_shape(workdir, f"wgnp{n}", graph, rng)
        yield ["decompose", gr, "-o", td]
        yield ["solve", "generic", gr, td, "-w", w, "--property", prop, "-r", "3"]
    q4 = (16, [(v, v | 1 << d) for v in range(16) for d in range(4) if not v >> d & 1])
    forests = [("wfq4", q4)]
    for n in (12, 14, 15):
        p = rng.uniform(0.1, 0.25)
        forests.append((f"wfgnp{n}", (n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])))
    for stem, graph in forests:
        gr, td, w = _write_shape(workdir, stem, graph, rng)
        yield ["decompose", gr, "-o", td]
        yield ["solve", "forest", gr, td, "-w", w, "--family", "exhaustive"]


def replay(workdir):
    """{command: [exit code, stdout sha256]} of the corpus run in ``workdir``."""
    digests = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in commands(Path(workdir)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            digests[" ".join(argv)] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
    finally:
        os.chdir(here)
    return digests


def test_corpus_reports_are_unchanged(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    got = replay(tmp_path)
    assert list(got) == list(expected), "the corpus's commands changed; rewrite the digest file"
    changed = [argv for argv in got if got[argv] != expected[argv]]
    assert not changed, f"{len(changed)} reports changed: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: {sys.argv[0]} --rewrite")
    with tempfile.TemporaryDirectory() as scratch:
        digests = replay(Path(scratch))
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for label, argvs in (
        ("added", [argv for argv in digests if argv not in old]),
        ("removed", [argv for argv in old if argv not in digests]),
        ("changed", [argv for argv in digests if argv in old and digests[argv] != old[argv]]),
    ):
        print(f"{label}: {len(argvs)}")
        for argv in argvs:
            print(f"  {argv}")
    DIGESTS.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in digests.items()) + "\n}\n")
    print(f"wrote {DIGESTS}")
