"""A replayed command corpus: every report must stay byte for byte the same.

The corpus is a fixed, seeded list of ``imtw`` commands. They run in order,
in-process, in a temporary directory and with relative paths, so every
report, input digest and written file is the same on every machine. Each
command's exit code and the sha256 of its stdout are checked against
``tests/digests.json``. The corpus covers ``gen``, ``decompose`` with both
strategies, ``metrics``, ``exact``, every ``solve`` kind with both forest
families, ``--budget`` runs that exit 0 and runs that exit 4, all five
``transform``s, ``recognize-imtw1``, ``verify --max-n 6``, and hostile
graph, weight, family and decomposition files.

A change that alters a report on purpose rewrites the file with

    PYTHONPATH=src python tests/test_digest_corpus.py --rewrite

and names the changed commands in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
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
    DIGESTS.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in digests.items()) + "\n}\n")
    print(f"wrote {DIGESTS}")
