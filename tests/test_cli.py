import argparse
import hashlib
import inspect
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from imtw import cli, decomp, forest, graphs, packing, verify
from imtw.bits import bits
from imtw.boundaried import generic_structured_dp
from imtw.cli import main
from imtw.corpus import random_corpus
from imtw.decomp import decomposition_metrics, heuristic_decomposition, make_nice
from imtw.errors import InvariantError, ResourceLimitError
from imtw.forest import mwif_dp
from imtw.graphs import Graph, WeightMap, complete_bipartite
from imtw.oracles import (
    brute_best,
    brute_max_weight_induced_forest,
    brute_mwis,
    clique_number_within,
    is_bipartite_within,
    max_degree_within,
)
from imtw.packing import (
    max_weight_distance_packing,
    max_weight_independent_packing,
    ptas_bounded_treewidth_subgraph,
)
from imtw.traces import mwis_dp, trace_family_for_bag

from conftest import at_each_threshold


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out), out


def instance(tmp_path, capsys, *spec):
    """Generate the graph ``spec`` names and its default decomposition; return both paths."""
    stem = tmp_path / "_".join(spec)
    run_cli(capsys, "gen", *spec, "-o", f"{stem}.gr")
    run_cli(capsys, "decompose", f"{stem}.gr", "-o", f"{stem}.td")
    return f"{stem}.gr", f"{stem}.td"


def test_gen_and_solve_mwis_c5(tmp_path, capsys):
    graph_file = tmp_path / "c5.gr"
    td_file = tmp_path / "c5.td"
    code, report, _ = run_cli(capsys, "gen", "cycle", "5", "-o", str(graph_file))
    assert code == 0 and report["result"]["n"] == 5
    code, report, _ = run_cli(capsys, "decompose", str(graph_file), "-o", str(td_file))
    assert code == 0 and report["verification"]["valid"]
    code, report, _ = run_cli(capsys, "solve", "mwis", str(graph_file), str(td_file))
    assert code == 0
    assert report["result"]["optimum"] == "2"
    assert report["verification"] == {"independent": True, "weight_matches": True}


def test_solve_with_weight_file(tmp_path, capsys):
    graph_file, td_file = instance(tmp_path, capsys, "path", "3")
    weight_file = tmp_path / "w.txt"
    weight_file.write_text("w 2 10\n")
    code, report, _ = run_cli(capsys, "solve", "mwis", graph_file, td_file, "-w", str(weight_file))
    assert code == 0 and report["result"]["optimum"] == "10"
    assert report["result"]["solution"] == [2]


def test_solve_forest_both_families(tmp_path, capsys):
    graph_file, td_file = instance(tmp_path, capsys, "cycle", "5")
    for family in ("paper", "exhaustive"):
        code, report, _ = run_cli(
            capsys, "solve", "forest", graph_file, td_file, "--family", family
        )
        assert code == 0 and report["result"]["optimum"] == "4"


def test_solve_forest_exhaustive_past_the_family_cap(tmp_path, capsys):
    # K_17's bag is wider than the exhaustive family's cap; the unfiltered
    # dynamic program does not build that family
    graph_file, td_file = instance(tmp_path, capsys, "complete", "17")
    code, report, _ = run_cli(
        capsys, "solve", "forest", graph_file, td_file, "--family", "exhaustive"
    )
    assert code == 0 and report["result"]["optimum"] == "2"


def test_recognize_c6_false(tmp_path, capsys):
    graph_file = tmp_path / "c6.gr"
    run_cli(capsys, "gen", "cycle", "6", "-o", str(graph_file))
    code, report, _ = run_cli(capsys, "recognize-imtw1", str(graph_file))
    assert code == 0
    assert report["result"] == {"imtw_at_most_1": False}


def test_exact_command(tmp_path, capsys):
    graph_file = tmp_path / "k33.gr"
    run_cli(capsys, "gen", "complete_bipartite", "3", "3", "-o", str(graph_file))
    code, report, _ = run_cli(capsys, "exact", str(graph_file))
    assert code == 0
    assert report["result"]["tree_alpha"] == 3
    assert report["result"]["tree_mu"] == 1


# sha256 of the `imtw exact g.gr` stdout, run in the directory of g.gr;
# the witness orderings are in the report, so a change to the elimination
# search that moves one shows up here
EXACT_GOLDEN = {
    ("hypercube", "3"): "760509d73681a77c8401f1f27cc4f90e7f700272bc9ae9a2b427a19ad2f33df9",
    ("cycle", "7"): "9afc79237907290322c45c81be64bb7e9128b7cb6df910abb974867459655119",
    ("complete_bipartite", "3", "3"): "3e13cf08914930241eed29ff3c5f76d4437211910641b7b0e6e0987e03417fec",
    ("path", "9"): "40c81977cdc5130d6fb2b075dc1f901e3f497189d31840fcce8325b0fe8a5e1a",
    ("random", "9", "0.4", "--seed", "1"): "cc8198aca60195c530f188b6101a960fc809a71c4655a36344e5d76a9776336d",
}


def test_exact_reports_are_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for spec, digest in EXACT_GOLDEN.items():
        run_cli(capsys, "gen", *spec, "-o", "g.gr")
        code, _, out = run_cli(capsys, "exact", "g.gr")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, spec


def test_exact_keeps_the_oracle_cap_and_takes_no_max_n(tmp_path, capsys):
    graph_file = str(tmp_path / "p10.gr")
    run_cli(capsys, "gen", "path", "10", "-o", graph_file)
    assert usage_error(capsys, ["exact", graph_file, "--max-n", "12"]) == "unrecognized arguments: --max-n 12"
    code, report, _ = run_cli(capsys, "exact", graph_file)
    assert code == 4
    assert report["error"] == {"type": "resource", "message": "exact widths capped at n=9, got 10"}


def test_transform_commands(tmp_path, capsys):
    graph_file = tmp_path / "p3.gr"
    run_cli(capsys, "gen", "path", "3", "-o", str(graph_file))
    code, report, _ = run_cli(capsys, "transform", "corona", str(graph_file))
    assert code == 0 and report["result"]["n"] == 6 and report["result"]["m"] == 5
    code, report, _ = run_cli(capsys, "transform", "l2", str(graph_file))
    assert code == 0 and report["result"]["n"] == 2 and report["result"]["m"] == 1
    code, report, _ = run_cli(capsys, "transform", "power", str(graph_file), "-k", "2")
    assert code == 0 and report["result"]["m"] == 3
    code, report, _ = run_cli(capsys, "transform", "forked", str(graph_file), "--marked", "1")
    assert code == 0 and report["result"]["n"] == 3 + 9 + 2


def test_transform_rejects_bad_marked_lists_and_a_missing_family(tmp_path, capsys):
    graph_file = tmp_path / "p3.gr"
    run_cli(capsys, "gen", "path", "3", "-o", str(graph_file))
    # entries are named as typed: 1-based, not shifted to the 0-based ids
    for marked, message in (
        ("a", "bad --marked entry 'a'"),
        ("1,,2", "bad --marked entry ''"),
        ("0", "--marked entry '0' out of range 1..3"),
        ("4", "--marked entry '4' out of range 1..3"),
    ):
        code, report, _ = run_cli(
            capsys, "transform", "forked", str(graph_file), "--marked", marked
        )
        assert code == 2
        assert report["error"] == {"type": "input", "message": message}
    code, report, _ = run_cli(capsys, "transform", "blob", str(graph_file))
    assert code == 2
    assert report["error"] == {"type": "input", "message": "blob transform needs a family file"}


def test_transform_rejects_inputs_it_does_not_read(tmp_path, capsys):
    # each optional input belongs to one transform: -k to power, --marked to
    # forked and the family file to blob
    graph_file = str(tmp_path / "c5.gr")
    family_file = str(tmp_path / "fam.json")
    run_cli(capsys, "gen", "cycle", "5", "-o", graph_file)
    Path(family_file).write_text(json.dumps([{"id": 0, "vertices": [1, 2], "weight": "1"}]))
    for what, *rest, message in (
        ("corona", "-k", "3", "--marked", "1", "-k is read by transform power only, not corona"),
        ("forked", "-k", "1", "-k is read by transform power only, not forked"),
        ("blob", family_file, "-k", "0", "-k is read by transform power only, not blob"),
        ("power", "-k", "2", "--marked", "1", "--marked is read by transform forked only, not power"),
        ("l2", "--marked", "", "--marked is read by transform forked only, not l2"),
        ("corona", family_file, "a family file is read by transform blob only, not corona"),
        ("forked", family_file, "--marked", "1", "a family file is read by transform blob only, not forked"),
    ):
        code, report, _ = run_cli(capsys, "transform", what, graph_file, *rest)
        assert code == 2, (what, rest)
        assert report["error"] == {"type": "input", "message": message}
        assert "result" not in report and report["inputs"] == {}
    code, report, _ = run_cli(capsys, "transform", "blob", graph_file, family_file)
    assert code == 0 and report["result"]["members"] == 1


def test_solve_pack_with_family_file(tmp_path, capsys):
    graph_file, td_file = instance(tmp_path, capsys, "path", "4")
    family_file = tmp_path / "fam.json"
    family_file.write_text(
        json.dumps(
            [
                {"id": 0, "vertices": [1], "weight": "2"},
                {"id": 1, "vertices": [3, 4], "weight": "3"},
                {"id": 2, "vertices": [2], "weight": "4"},
            ]
        )
    )
    # members 1 and 3,4 are non-adjacent, so they pack together for weight 5;
    # at distance 4 no two members are far enough apart and the best single wins
    code, report, _ = run_cli(capsys, "solve", "pack", graph_file, td_file, str(family_file))
    assert code == 0
    assert report["result"]["optimum"] == "5"
    code, report, _ = run_cli(
        capsys, "solve", "dpack", graph_file, td_file, str(family_file), "-d", "4"
    )
    assert code == 0 and report["result"]["optimum"] == "4"


def test_solve_ptas_and_generic(tmp_path, capsys):
    graph_file, td_file = instance(tmp_path, capsys, "cycle", "5")
    code, report, _ = run_cli(
        capsys, "solve", "ptas", graph_file, td_file, "-r", "1", "--eps", "1/2"
    )
    assert code == 0 and report["result"]["size"] >= 2
    code, report, _ = run_cli(
        capsys,
        "solve",
        "generic",
        graph_file,
        td_file,
        "--property",
        "bipartite",
        "-r",
        "2",
    )
    assert code == 0 and report["result"]["optimum"] == "4"


def run_capped(argv, cap):
    """(exit code, report) of the CLI run in a child process whose address
    space is capped at ``cap`` bytes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    done = subprocess.run(
        [sys.executable, "-m", "imtw.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
    )
    return done.returncode, json.loads(done.stdout)


def test_ptas_blob_over_budget_exits_4_under_a_memory_cap(tmp_path, capsys):
    # the forked path(6) with vertices 1 and 3 marked has 9,882 pieces at
    # r = 1, eps = 1/2, and their blob graph 48,410,911 edges: the edges are
    # counted against the state budget before any is listed, so the run
    # fails over budget instead of running out of memory
    path6, forked, td = (str(tmp_path / name) for name in ("p6.gr", "f.gr", "f.td"))
    run_cli(capsys, "gen", "path", "6", "-o", path6)
    run_cli(capsys, "transform", "forked", path6, "--marked", "1,3", "-o", forked)
    run_cli(capsys, "decompose", forked, "-o", td)
    for budget in (["--budget", "10000"], []):
        argv = ["solve", "ptas", forked, td, "-r", "1", "--eps", "1/2", *budget]
        code, report = run_capped(argv, 1 << 30)
        assert code == 4, report["error"]
        assert report["command"] == ["imtw", *argv] and report["error"]["type"] == "resource"
        assert "blob graph of 9882 pieces" in report["error"]["message"]


def test_ptas_piece_enumeration_over_budget_exits_4(tmp_path, capsys, monkeypatch):
    # Q5's piece cap at r = 3, eps = 1/10 is 80, clamped to its 32 vertices,
    # so every connected set is a candidate piece; before the piece budget
    # the run gave no report within 60 s. The budget is a constant, not
    # --budget, and is made small here so that it overruns at once
    graph_file, td_file = instance(tmp_path, capsys, "hypercube", "5")
    monkeypatch.setattr(packing, "PIECE_BUDGET", 1000)
    argv = ["solve", "ptas", graph_file, td_file, "-r", "3", "--eps", "1/10"]
    started = time.perf_counter()
    code, report, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert (code, report["error"]) == (4, {"type": "resource", "message": "piece enumeration budget 1000 exceeded"})
    assert report["command"] == ["imtw", *argv] and set(report["inputs"]) == {graph_file, td_file}


def test_out_of_memory_exits_4(tmp_path):
    # MWIS on 12 disjoint triangles in one bag (mu = 12) holds tables of up
    # to 4^12 states and peaks near 270 MiB; under a 96 MiB address-space
    # cap it runs out of memory within seconds, which is a resource error
    t = 12
    edges = [(3 * i + a, 3 * i + b) for i in range(t) for a, b in ((1, 2), (1, 3), (2, 3))]
    graph_file, td_file = tmp_path / "tri.gr", tmp_path / "tri.td"
    graph_file.write_text(f"p edge {3 * t} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    td_file.write_text(f"s td 1 {3 * t} {3 * t}\nb 1 " + " ".join(map(str, range(1, 3 * t + 1))) + "\n")
    argv = ["solve", "mwis", str(graph_file), str(td_file)]
    code, report = run_capped(argv, 96 << 20)
    assert code == 4, report["error"]
    assert report["command"] == ["imtw", *argv]
    assert report["error"] == {"type": "resource", "message": "out of memory"}
    assert set(report["inputs"]) == {str(graph_file), str(td_file)}


def test_exit_code_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_text("p edge 2 1\ne 1 5\n")
    code, report, _ = run_cli(capsys, "recognize-imtw1", str(bad))
    assert code == 2
    assert report["error"]["type"] == "input"
    code, report, _ = run_cli(capsys, "recognize-imtw1", str(tmp_path / "missing.gr"))
    assert code == 2


def test_huge_headers_are_input_errors(tmp_path, capsys):
    # both headers are refused before their counts size any allocation
    graph_file, _ = instance(tmp_path, capsys, "path", "5")
    huge_graph = tmp_path / "huge.gr"
    huge_graph.write_text("p edge 10000000 0\n")
    huge_td = tmp_path / "huge.td"
    huge_td.write_text("s td 10000000 5 5\nb 1 1 2 3 4 5\n")
    for argv in (("solve", "mwis", str(huge_graph), str(huge_td)), ("metrics", graph_file, str(huge_td))):
        code, report, _ = run_cli(capsys, *argv)
        assert code == 2 and report["error"]["type"] == "input"


def test_exit_code_resource_cap(tmp_path, capsys):
    graph_file, td_file = instance(tmp_path, capsys, "complete_bipartite", "4", "4")
    code, report, _ = run_cli(
        capsys, "solve", "mwis", graph_file, td_file, "--budget", "2"
    )
    assert code == 4
    assert report["error"]["type"] == "resource"


def test_family_ids_and_vertices_must_be_json_integers(tmp_path, capsys):
    # a string, a float, a bool or an object in place of an integer or a
    # list was once read through int() or iteration and solved
    graph_file, td_file = instance(tmp_path, capsys, "path", "3")
    family = tmp_path / "family.json"
    for entry in (
        '{"id": 0, "vertices": "12"}',
        '{"id": 0, "vertices": [1.9, 2]}',
        '{"id": true, "vertices": [1]}',
        '{"id": 0, "vertices": {"1": 5}}',
    ):
        family.write_text(f"[{entry}]")
        code, report, _ = run_cli(capsys, "solve", "pack", graph_file, td_file, str(family))
        assert code == 2 and report["error"]["type"] == "input", entry
        assert report["error"]["message"].startswith("bad family entry {"), entry
    # an integer past the interpreter's digit limit fails json.loads itself
    family.write_text('[{"id": 0, "vertices": [1], "weight": 1' + "0" * 5000 + "}]")
    code, report, _ = run_cli(capsys, "solve", "pack", graph_file, td_file, str(family))
    assert code == 2 and report["error"]["message"].startswith("family file is not valid JSON: ")


def test_each_solve_validates_its_decomposition_once(tmp_path, capsys, monkeypatch):
    # the command validates the .td it loads and make_nice trusts it; an
    # invalid .td still exits 2 with the first violations in the message
    graph_file, td_file = instance(tmp_path, capsys, "cycle", "6")
    calls = []

    def counted(graph, td):
        calls.append(td)
        return validate(graph, td)

    validate = decomp.validate_decomposition
    monkeypatch.setattr(cli, "validate_decomposition", counted)
    monkeypatch.setattr(decomp, "validate_decomposition", counted)
    bad_td = tmp_path / "bad.td"
    bad_td.write_text("s td 3 3 6\nb 1 1 2 3\nb 2 3 4 5\nb 3 1 5 6\n1 2\n2 3\n")
    for problem, *flags in (("mwis",), ("forest",), ("generic", "-r", "2")):
        calls.clear()
        code, _, _ = run_cli(capsys, "solve", problem, graph_file, td_file, *flags)
        assert (code, len(calls)) == (0, 1), problem
        code, report, _ = run_cli(capsys, "solve", problem, graph_file, str(bad_td), *flags)
        assert code == 2, problem
        assert report["error"] == {
            "type": "input",
            "message": "invalid decomposition: trace of vertex 0 is disconnected",
        }


def test_malformed_bag_lines_and_overflowing_family_numbers_are_input_errors(tmp_path, capsys):
    graph_file, td_file = instance(tmp_path, capsys, "path", "3")
    bare = tmp_path / "bare.td"
    bare.write_text("s td 1 3 3\nb\n")
    code, report, _ = run_cli(capsys, "solve", "mwis", graph_file, str(bare))
    assert code == 2
    assert report["error"] == {"type": "input", "message": "line 2: malformed bag line 'b'"}
    # 1e400 loads as a float infinity, which no int holds
    for entry in ('{"id": 1e400, "vertices": [1]}', '{"id": 0, "vertices": [1e400]}'):
        family = tmp_path / "family.json"
        family.write_text(f"[{entry}]")
        code, report, _ = run_cli(capsys, "solve", "pack", graph_file, td_file, str(family))
        assert code == 2 and report["error"]["type"] == "input"
        assert report["error"]["message"].startswith("bad family entry {")


# Small valid inputs for the mutation test below: the 4-cycle with a chord,
# a decomposition of it, weights and a packing family.
MUTATED_INPUTS = {
    "gr": "c the 4-cycle 1-2-3-4 with chord 1-3\np edge 4 5\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ne 1 3\n",
    "td": "s td 3 3 4\nb 1 1 2 3\nb 2 1 3 4\nb 3 3 4\n1 2\n2 3\n",
    "w": "w 1 3/2\nw 2 2\nw 4 7\n",
    "json": '[\n{"id": 0, "vertices": [1, 2], "weight": "3/2"},\n{"id": 1, "vertices": [3], "weight": 2},\n'
    '{"id": 2, "vertices": [3, 4]}\n]\n',
}
# the commands that read each kind of file
MUTATED_COMMANDS = {
    "gr": (("mwis", "-w", "{w}"), ("pack", "{json}")),
    "td": (("mwis", "-w", "{w}"), ("forest", "-w", "{w}"), ("pack", "{json}")),
    "w": (("mwis", "-w", "{w}"), ("generic", "-w", "{w}", "-r", "2")),
    "json": (("pack", "{json}"), ("dpack", "{json}", "-d", "2")),
}
HOSTILE_NUMBERS = ("0", "-1", "1.5", "1e400", "99999999999999999999", "1e9999", "1e999999999")


def mutations(text):
    """``text`` behind a byte 0xff, which is not UTF-8 (written through
    surrogateescape), each line of ``text`` cut to every proper prefix of
    its tokens, and each number in it replaced by each of HOSTILE_NUMBERS."""
    yield "\udcff" + text
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split()
        for cut in range(len(tokens)):
            yield "\n".join(lines[:i] + [" ".join(tokens[:cut])] + lines[i + 1 :]) + "\n"
        for match in re.finditer(r"\d+", line):
            for number in HOSTILE_NUMBERS:
                mutated = line[: match.start()] + number + line[match.end() :]
                yield "\n".join(lines[:i] + [mutated] + lines[i + 1 :]) + "\n"


def test_mutated_inputs_fail_as_input_errors(tmp_path, capsys):
    # no cut or hostile number in a valid input file makes a solve command
    # crash (exit 5) or report a false invariant violation (exit 3): it
    # solves, finds nothing feasible, or fails as an input or resource error
    paths = {}
    for kind, text in MUTATED_INPUTS.items():
        paths[kind] = tmp_path / f"valid.{kind}"
        paths[kind].write_text(text)
    runs = []
    for kind, text in MUTATED_INPUTS.items():
        mutated_file = tmp_path / f"mutated.{kind}"
        files = {**paths, kind: mutated_file}
        for mutated in mutations(text):
            mutated_file.write_text(mutated, errors="surrogateescape")
            for problem, *rest in MUTATED_COMMANDS[kind]:
                argv = ["solve", problem, str(files["gr"]), str(files["td"])]
                argv += [arg.format(**files) for arg in rest]
                code, report, _ = run_cli(capsys, *argv)
                assert code in (0, 1, 2, 4), (argv, mutated, report)
                assert set(report) >= {"command", "inputs", "error"}
                if code in (0, 1):
                    assert report["error"] is None and "result" in report
                else:
                    assert report["error"]["type"] == ("input" if code == 2 else "resource")
                runs.append(code)
    assert runs.count(0) and runs.count(2) > len(runs) // 2, len(runs)


def test_error_reports_are_complete_json(tmp_path, capsys):
    code, report, _ = run_cli(capsys, "gen", "cycle", "2")
    assert code == 2
    assert set(report) >= {"command", "inputs", "error"}
    code, report, _ = run_cli(capsys, "gen", "path")  # wrong arity
    assert code == 2 and report["error"]["type"] == "input"


def test_determinism_byte_identical(tmp_path, capsys):
    graph_file, td_file = instance(tmp_path, capsys, "random", "8", "0.4", "--seed", "7")
    _, _, first = run_cli(capsys, "solve", "forest", graph_file, td_file)
    _, _, second = run_cli(capsys, "solve", "forest", graph_file, td_file)
    assert first == second
    _, _, v1 = run_cli(capsys, "verify", "--suite", "graphs", "--seed", "5", "--max-n", "6")
    _, _, v2 = run_cli(capsys, "verify", "--suite", "graphs", "--seed", "5", "--max-n", "6")
    assert v1 == v2


def test_gen_random_seed_changes_graph(tmp_path, capsys):
    a = tmp_path / "a.gr"
    b = tmp_path / "b.gr"
    run_cli(capsys, "gen", "random", "10", "0.5", "--seed", "1", "-o", str(a))
    run_cli(capsys, "gen", "random", "10", "0.5", "--seed", "2", "-o", str(b))
    assert a.read_text() != b.read_text()


def test_verify_suite_exit_zero(capsys):
    code, report, _ = run_cli(capsys, "verify", "--suite", "oracles", "--seed", "42", "--max-n", "6")
    assert code == 0
    assert report["result"]["all_ok"] is True


VERIFY_ALL_SEED_42_MAX_N_8 = [
    ("graphs", "parse-serialize round trip", 60),
    ("graphs", "power definition", 60),
    ("graphs", "corona keeps original", 60),
    ("graphs", "fork decode round trip", 60),
    ("decomp", "heuristic decompositions validate", 40),
    ("decomp", "nice form validates, bags shrink", 40),
    ("decomp", "metrics match matching oracle", 40),
    ("decomp", "closed neighborhood degree bound", 36),
    ("decomp", "bag-dominated vertex exists", 40),
    ("decomp", "induced-minor mu monotone", 36),
    ("decomp", "bounded metrics equal every-bag search", 168),
    ("traces", "mwis equals oracle", 40),
    ("traces", "trace coverage", 506),
    ("traces", "family size bound", 506),
    ("forest", "forest optimum equals oracle, both providers", 18),
    ("forest", "signature coverage", 1356),
    ("forest", "skeleton bag bound 8k", 1356),
    ("forest", "anatomy partitions maximal forests", 63),
    ("packing", "blob packing equals subfamily brute force", 12),
    ("packing", "distance packing equals brute force", 24),
    ("packing", "power-blob identity", 36),
    ("packing", "blob transfer inequalities", 24),
    ("packing", "odd power transfer inequality", 24),
    ("packing", "ptas guarantee", 24),
    ("boundaried", "algebra compositionality", 1000),
    ("boundaried", "introduce equals glue with the star", 1000),
    ("boundaried", "structured DP equals brute force", 50),
    ("oracles", "width chain on random graphs", 15),
    ("oracles", "line graph square equality", 15),
    ("oracles", "corona equality", 8),
    ("oracles", "power monotonicity", 30),
    ("oracles", "odd power strong inequality", 15),
    ("oracles", "degree bounds", 11),
    ("oracles", "recognition agrees with oracle", 15),
    ("oracles", "anchors", 4),
    ("oracles", "chordal graphs have tree-alpha 1", 12),
    ("oracles", "induced minors keep tree-mu", 12),
    ("canonical", "one canonical solution across decompositions", 720),
]


def test_verify_all_suites(capsys):
    # the literal table pins each suite's corpus: a drifted seed, count or
    # gate changes an instance count even when every check still passes
    code, report, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "42", "--max-n", "8")
    assert code == 0
    assert report["result"]["all_ok"] is True
    table = [
        (s["suite"], c["check"], c["instances"])
        for s in report["result"]["suites"]
        for c in s["checks"]
    ]
    assert table == VERIFY_ALL_SEED_42_MAX_N_8
    checks = [c for s in report["result"]["suites"] for c in s["checks"]]
    assert all(c["ok"] and not c["failures"] for c in checks)


def test_metrics_command(tmp_path, capsys):
    graph_file, td_file = instance(tmp_path, capsys, "complete_bipartite", "3", "3")
    code, report, _ = run_cli(capsys, "metrics", graph_file, td_file)
    assert code == 0
    assert report["result"]["mu"] == 1


def test_generic_clique_bound_below_clique_number(tmp_path, capsys):
    # max degree 2 allows the whole triangle; clique number 2 allows only an edge
    graph_file, td_file = instance(tmp_path, capsys, "complete", "3")
    code, report, _ = run_cli(
        capsys, "solve", "generic", graph_file, td_file,
        "--property", "max-degree:2", "-r", "2",
    )
    assert code == 0 and report["error"] is None
    assert report["result"]["optimum"] == "2"
    assert len(report["result"]["solution"]) == 2


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # every construction of a parser or subcommand parser, by prog
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        assert main(["gen", "cycle", "5"]) == 0
        first = capsys.readouterr().out
        one_tree = list(built)
        assert main(["gen", "cycle", "5", "--eps", "1/4"]) == 2
        assert main(["--version"]) == 0
        capsys.readouterr()
        assert main(["gen", "cycle", "5"]) == 0
        assert capsys.readouterr().out == first
    finally:
        cli.build_parser.cache_clear()
    assert built == one_tree and built.count("imtw") == 1


def test_gen_refuses_graphs_above_the_vertex_cap(capsys):
    # each count is checked before the generator allocates anything
    for spec, count in (
        (("hypercube", "30"), "2^30"),
        (("path", "1000001"), "1000001"),
        (("complete_bipartite", "600000", "600000"), "1200000"),
    ):
        start = time.perf_counter()
        code, report, _ = run_cli(capsys, "gen", *spec)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert report["error"] == {
            "type": "input",
            "message": f"graph would have {count} vertices, above the cap of 32768",
        }


def test_metrics_settles_a_clique_bag_within_a_tiny_budget(tmp_path, capsys):
    graph_file = tmp_path / "k40.gr"
    td_file = tmp_path / "k40.td"
    run_cli(capsys, "gen", "complete", "40", "-o", str(graph_file))
    td_file.write_text("s td 1 40 40\nb 1 " + " ".join(str(v) for v in range(1, 41)) + "\n")
    code, report, _ = run_cli(capsys, "metrics", str(graph_file), str(td_file), "--budget", "2")
    assert code == 0
    assert report["result"]["alpha_witness"] == {"node": 1, "vertices": [1]}
    assert report["result"]["mu_witness"] == {"node": 1, "edges": [[1, 2]]}


def test_metrics_budget_is_not_spent_on_bags_that_cannot_raise_mu(tmp_path, capsys):
    # under min-fill, random(8, 0.5) at seed 0 finds mu 2 at bag 1, whose mu
    # search the clique-cover prune brings from 9 units to 7; bags 2-4,
    # whose mu searches would cost 9, 11 and 7 units, are covered by two
    # cliques, so they are skipped and a budget of 7 covers every search
    # that runs
    graph_file = str(tmp_path / "r8.gr")
    td_file = str(tmp_path / "r8.td")
    run_cli(capsys, "gen", "random", "8", "0.5", "--seed", "0", "-o", graph_file)
    for command in (["decompose", graph_file, "-o", td_file], ["metrics", graph_file, td_file]):
        code, full, _ = run_cli(capsys, *command)
        assert code == 0 and (full["result"]["alpha"], full["result"]["mu"]) == (2, 2)
        code, report, _ = run_cli(capsys, *command, "--budget", "7")
        assert code == 0 and report["result"] == full["result"]
    code, report, _ = run_cli(capsys, "metrics", graph_file, td_file, "--budget", "6")
    assert code == 4
    assert report["error"]["message"].endswith("while mu of bag 1")


def usage_error(capsys, argv):
    """Run ``argv``, which argparse refuses, and return the message of the
    input-error report on stdout, after checking that argparse's own text
    went to stderr and that no file was read."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["command"] == ["imtw", *argv] and report["inputs"] == {}
    assert set(report) == {"command", "inputs", "error"} and report["error"]["type"] == "input"
    assert f"error: {report['error']['message']}" in captured.err
    return report["error"]["message"]


def test_eps_with_a_zero_denominator_is_invalid_text(capsys):
    # Fraction raises ZeroDivisionError, which argparse would let escape;
    # it is read like any other bad --eps, before a file is opened
    for text in ("2/0", "0/0", "abc"):
        argv = ["solve", "ptas", "missing.gr", "missing.td", "-r", "1", "--eps", text]
        assert usage_error(capsys, argv) == f"argument --eps: invalid Fraction value: {text!r}"


def test_eps_with_a_huge_exponent_is_invalid_text(capsys):
    # Fraction would build 10^|e| (no answer for minutes at the larger one)
    # and a report could not write its digits, so --eps refuses a value
    # past the interpreter's digit limit before a file is opened
    for text in ("1e-9999", "1e-99999999", "1e99999999"):
        started = time.perf_counter()
        argv = ["solve", "ptas", "missing.gr", "missing.td", "-r", "1", "--eps", text]
        assert usage_error(capsys, argv) == f"argument --eps: invalid Fraction value: {text!r}"
        assert time.perf_counter() - started < 1


def test_usage_errors_print_a_report_and_help_prints_text(capsys):
    # every usage error is an input error with a complete report; --help
    # and --version still print their text alone and exit 0
    assert usage_error(capsys, []) == "the following arguments are required: command"
    assert usage_error(capsys, ["solve", "ptas", "g.gr"]) == "the following arguments are required: td"
    assert usage_error(capsys, ["gen", "cycle", "--seed", "x"]) == "argument --seed: invalid int value: 'x'"
    for argv, start in ((["--version"], f"{cli.__version__}\n"), (["exact", "--help"], "usage: imtw exact")):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(start)


def first_primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def test_an_optimum_past_the_digit_limit_is_a_resource_error(tmp_path, capsys):
    # each weight 1/p_i is a short literal, but the forest optimum of
    # path(400) sums all 400 and its denominator has about 1,200 digits:
    # past the interpreter's integer string limit the report cannot write
    # it, which is a resource error naming the limit, not an internal one
    graph_file, td_file = instance(tmp_path, capsys, "path", "400")
    weight_file = tmp_path / "w.txt"
    weight_file.write_text("".join(f"w {v} 1/{p}\n" for v, p in enumerate(first_primes(400), start=1)))
    solve = ("solve", "forest", graph_file, td_file, "-w", str(weight_file))
    code, report, _ = run_cli(capsys, *solve)
    assert code == 0 and len(report["result"]["optimum"]) > 1000
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, report, _ = run_cli(capsys, *solve)
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 4
    assert report["error"] == {
        "type": "resource",
        "message": "optimum has more than 640 digits, the integer string limit",
    }


def test_flags_belong_to_their_commands(capsys):
    # --eps is read by solve ptas only; elsewhere it is a parse error
    assert usage_error(capsys, ["gen", "cycle", "5", "--eps", "1/4"]) == "unrecognized arguments: --eps 1/4"


# every option string each command accepts, --help aside; a flag added or
# removed anywhere shows up here as a deliberate edit
OPTIONS = {
    (): {"--version"},
    ("gen",): {"--seed", "-o", "--output", "--timing"},
    ("decompose",): {"--strategy", "--budget", "-o", "--output", "--timing"},
    ("metrics",): {"--budget", "--timing"},
    ("exact",): {"--timing"},
    ("solve",): set(),
    ("solve", "mwis"): {"-w", "--weights", "--budget", "--timing"},
    ("solve", "forest"): {"-w", "--weights", "--budget", "--family", "--timing"},
    ("solve", "pack"): {"--budget", "--timing"},
    ("solve", "dpack"): {"--budget", "-d", "--timing"},
    ("solve", "ptas"): {"--budget", "-r", "--eps", "--timing"},
    ("solve", "generic"): {"-w", "--weights", "--property", "--budget", "-r", "--timing"},
    ("transform",): {"--marked", "-k", "-o", "--output", "--timing"},
    ("recognize-imtw1",): {"--timing"},
    ("verify",): {"--suite", "--seed", "--max-n", "--timing"},
}


def test_each_command_accepts_exactly_its_options():
    def walk(parser, path):
        table = {path: set()}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    table.update(walk(sub, path + (name,)))
            elif not isinstance(action, argparse._HelpAction):
                table[path] |= set(action.option_strings)
        return table

    assert walk(cli.build_parser(), ()) == OPTIONS


def test_solve_bound_is_always_measured(tmp_path, capsys):
    graph_file, td_file = instance(tmp_path, capsys, "path", "4")
    family_file = str(tmp_path / "fam.json")
    Path(family_file).write_text(json.dumps([{"id": 0, "vertices": [1], "weight": "1"}]))
    for problem, *rest in (
        ("mwis",),
        ("forest",),
        ("pack", family_file),
        ("dpack", family_file, "-d", "4"),
        ("ptas", "-r", "1", "--eps", "1/2"),
        ("generic", "-r", "2"),
    ):
        argv = ["solve", problem, graph_file, td_file, *rest, "-k", "1"]
        assert usage_error(capsys, argv) == "unrecognized arguments: -k 1", problem
    code, report, _ = run_cli(capsys, "transform", "power", graph_file, "-k", "2")
    assert code == 0 and report["result"]["k"] == 2 and report["result"]["m"] == 5


# mu is 1 here; with k = 0 both programs once reported 18 as the optimum
SILENTLY_WRONG_EDGES = [
    (0, 1), (0, 2), (0, 4), (0, 7), (1, 2), (1, 3), (1, 5), (1, 6), (1, 7), (2, 3), (2, 5),
    (2, 6), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
]
SILENTLY_WRONG_WEIGHTS = (9, 12, 10, 13, 6, 8, 3, 8)


def test_solve_measures_mu_where_a_smaller_k_was_silently_wrong(tmp_path, capsys, monkeypatch):
    edges = SILENTLY_WRONG_EDGES
    graph_file, td_file, weight_file = (str(tmp_path / name) for name in ("g.gr", "g.td", "g.w"))
    Path(graph_file).write_text(
        f"p edge 8 {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)
    )
    Path(weight_file).write_text(
        "".join(f"w {v + 1} {w}\n" for v, w in enumerate(SILENTLY_WRONG_WEIGHTS))
    )
    run_cli(capsys, "decompose", graph_file, "-o", td_file)
    for _ in at_each_threshold(monkeypatch):
        for problem, optimum in (("mwis", "22"), ("forest", "36")):
            argv = ["solve", problem, graph_file, td_file, "-w", weight_file]
            code, report, _ = run_cli(capsys, *argv)
            assert code == 0 and report["result"]["optimum"] == optimum
            assert (report["result"]["k"], report["result"]["source"]) == (1, "measured-mu")
            assert usage_error(capsys, [*argv, "-k", "0"]) == "unrecognized arguments: -k 0"


def test_library_solvers_read_the_bound_their_decomposition_carries(monkeypatch):
    # the same instance through the library: the bound comes from the nice
    # decomposition's measured metrics, and no solver takes one of its own;
    # no table here outgrows the default threshold, so only the all-filtered
    # run reads the bound
    g = Graph(8, SILENTLY_WRONG_EDGES)
    w = WeightMap(SILENTLY_WRONG_WEIGHTS)
    td = heuristic_decomposition(g)
    nice = make_nice(g, td, decomposition_metrics(g, td))
    assert nice.metrics.mu == 1
    for _ in at_each_threshold(monkeypatch):
        assert mwis_dp(g, nice, w)[0] == 22
        assert mwif_dp(g, nice, w, provider="paper")[0] == 36
    for solver in (
        mwis_dp,
        mwif_dp,
        generic_structured_dp,
        max_weight_independent_packing,
        max_weight_distance_packing,
        ptas_bounded_treewidth_subgraph,
    ):
        assert "k" not in inspect.signature(solver).parameters, solver.__name__
    metrics = inspect.signature(make_nice).parameters["metrics"]
    assert metrics.default is inspect.Parameter.empty


def test_vertex_cap_refuses_before_any_mask_is_built(tmp_path, monkeypatch, capsys):
    # at 2^15 vertices one graph's adjacency masks stay within n^2/8 bytes
    header = tmp_path / "over.gr"
    header.write_text("p edge 32769 0\n")
    built = []
    monkeypatch.setattr(graphs, "Graph", lambda *args: built.append(args))
    for argv, message in (
        (("gen", "path", "32769"), "graph would have 32769 vertices, above the cap of 32768"),
        (("gen", "hypercube", "16"), "graph would have 2^16 vertices, above the cap of 32768"),
        (
            ("recognize-imtw1", str(header)),
            "line 1: header declares 32769 vertices, above the cap of 32768",
        ),
    ):
        code, report, _ = run_cli(capsys, *argv)
        assert code == 2 and report["error"] == {"type": "input", "message": message}
    assert built == []
    monkeypatch.undo()
    code, report, _ = run_cli(capsys, "gen", "path", "32768", "-o", str(tmp_path / "p.gr"))
    assert code == 0 and report["result"]["n"] == 32768


def test_nonpositive_budget_is_an_input_error(tmp_path, capsys):
    graph_file, td_file = instance(tmp_path, capsys, "cycle", "5")
    code, report, _ = run_cli(
        capsys, "solve", "mwis", graph_file, td_file, "--budget", "0"
    )
    assert code == 2
    assert report["error"] == {"type": "input", "message": "budget must be positive"}
    assert set(report) >= {"command", "inputs", "error"}


def test_internal_error_has_its_own_exit_code(monkeypatch, capsys):
    def broken(args, inputs):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.HANDLERS, "recognize-imtw1", broken)
    code, report, _ = run_cli(capsys, "recognize-imtw1", "unused.gr")
    assert code == 5
    assert report["error"] == {"type": "internal", "message": "RuntimeError: boom"}
    assert report["command"] == ["imtw", "recognize-imtw1", "unused.gr"]
    assert report["inputs"] == {}


def test_tie_break_golden_solutions(tmp_path, capsys):
    # optimal solutions are rarely unique; the DPs return the canonical one,
    # the heaviest with the largest indicator read up from vertex 0, and each
    # pin below is first checked against brute force's canonical optimum
    def canonical(stem, predicate):
        g = graphs.parse_graph((tmp_path / f"{stem}.gr").read_text())
        w = WeightMap.unit(g.n)
        if predicate == "mwis":
            found = brute_mwis(g, w)
        elif predicate == "forest":
            found = brute_max_weight_induced_forest(g, w)
        elif predicate == "bipartite":
            found = brute_best(g, w, lambda m: is_bipartite_within(g, m))
        else:
            d = int(predicate.split(":")[1])
            found = brute_best(
                g, w, lambda m: max_degree_within(g, m) <= d and clique_number_within(g, m) <= 2
            )
        return [v + 1 for v in bits(found[1])]

    expected = {
        ("cycle", "6"): {"mwis": [1, 3, 5], "forest": [1, 2, 3, 4, 5]},
        ("complete_bipartite", "3", "3"): {"mwis": [1, 2, 3], "forest": [1, 2, 3, 4]},
        ("path", "7"): {"mwis": [1, 3, 5, 7], "forest": [1, 2, 3, 4, 5, 6, 7]},
        ("cycle", "7"): {"mwis": [1, 3, 5], "forest": [1, 2, 3, 4, 5, 6]},
    }
    for spec, solutions in expected.items():
        graph_file, td_file = instance(tmp_path, capsys, *spec)
        for predicate, solution in solutions.items():
            assert canonical("_".join(spec), predicate) == solution, (spec, predicate)
        _, report, _ = run_cli(capsys, "solve", "mwis", graph_file, td_file)
        assert report["result"]["solution"] == solutions["mwis"], spec
        for family in ("paper", "exhaustive"):
            _, report, _ = run_cli(
                capsys, "solve", "forest", graph_file, td_file, "--family", family
            )
            assert report["result"]["solution"] == solutions["forest"], (spec, family)
    for stem, prop, solution in (
        ("cycle_6", "forest", [1, 2, 3, 4, 5]),
        ("cycle_7", "bipartite", [1, 2, 3, 4, 5, 6]),
        ("cycle_6", "max-degree:1", [1, 2, 4, 5]),
        ("path_7", "max-degree:1", [1, 2, 4, 5, 7]),
        ("complete_bipartite_3_3", "max-degree:2", [1, 2, 4, 5]),
    ):
        assert canonical(stem, prop) == solution, (stem, prop)
        stem = tmp_path / stem
        _, report, _ = run_cli(
            capsys, "solve", "generic", f"{stem}.gr", f"{stem}.td", "--property", prop, "-r", "2"
        )
        assert report["result"]["solution"] == solution, (stem.name, prop)


def test_verify_packing_survives_edgeless_graphs(capsys):
    # these corpora draw an edgeless graph, which has no connected piece of
    # two vertices for the alpha transfer; that case is skipped, not an error
    for seed, max_n in ((42, 6), (7, 6), (3, 4), (42, 4), (7, 4)):
        code, report, _ = run_cli(
            capsys, "verify", "--suite", "packing", "--seed", str(seed), "--max-n", str(max_n)
        )
        assert code == 0 and report["result"]["all_ok"] is True, (seed, max_n)


def test_verify_rejects_max_n_below_four(capsys):
    for max_n in ("1", "2", "3"):
        code, report, _ = run_cli(capsys, "verify", "--max-n", max_n)
        assert code == 2
        message = f"--max-n must be at least 4 for verify, got {max_n}"
        assert report["error"] == {"type": "input", "message": message}


def test_verify_rejects_max_n_above_the_mwis_oracle_cap(capsys):
    code, report, _ = run_cli(capsys, "verify", "--max-n", "25")
    assert code == 2
    message = "--max-n must be at most 24 for verify, got 25"
    assert report["error"] == {"type": "input", "message": message}


def test_verify_decomp_matching_oracle_takes_every_edge(capsys):
    # these corpora draw graphs with more edges than the matching oracle's
    # default cap of 28 candidates
    for seed, max_n in ((1, 11), (8, 10)):
        code, report, _ = run_cli(
            capsys, "verify", "--suite", "decomp", "--seed", str(seed), "--max-n", str(max_n)
        )
        assert code == 0 and report["result"]["all_ok"] is True, (seed, max_n)


def test_solve_budget_caps_dp_states_only(tmp_path, capsys):
    # the bag-metric search keeps its own budget, so --budget reaches the DP
    graph_file, td_file = instance(tmp_path, capsys, "cycle", "12")
    code, report, _ = run_cli(
        capsys, "solve", "mwis", graph_file, td_file, "--budget", "3"
    )
    assert code == 4
    assert report["error"] == {"type": "resource", "message": "MWIS state budget 3 exceeded"}


def test_generic_dp_state_count_is_pinned(tmp_path, capsys):
    # the structured DP enters exactly 487 states on this instance, so a
    # change in what a state is (its S, or its type tuple) moves the exit
    graph_file, td_file = instance(tmp_path, capsys, "random", "12", "0.4", "--seed", "5")
    argv = ["solve", "generic", graph_file, td_file, "--property", "forest", "-r", "3"]
    code, report, _ = run_cli(capsys, *argv, "--budget", "487")
    assert code == 0 and report["error"] is None
    code, report, _ = run_cli(capsys, *argv, "--budget", "486")
    assert code == 4
    assert report["error"] == {"type": "resource", "message": "structured DP budget 486 exceeded"}


def test_every_budget_overrun_message_is_pinned(tmp_path, capsys, monkeypatch):
    # each budget fails with exit 4 and a message naming what overran; the
    # enumeration budgets are not reachable from the command line, so they
    # are pinned in-process with their partial counts
    q4_graph, q4_td = instance(tmp_path, capsys, "hypercube", "4")
    p3_graph, p3_td = instance(tmp_path, capsys, "path", "3")
    singletons = tmp_path / "singletons.json"
    singletons.write_text('[{"id": 0, "vertices": [1]}, {"id": 1, "vertices": [2]}, {"id": 2, "vertices": [3]}]')
    alpha = "bag 0 too large for exact search: search budget exhausted while alpha of bag 0"
    mu = "bag 10 too large for exact search: search budget exhausted while mu of bag 10"
    for argv, message in (
        (("metrics", q4_graph, q4_td, "--budget", "1"), alpha),
        (("metrics", q4_graph, q4_td, "--budget", "20"), mu),
        (("decompose", q4_graph, "--budget", "1"), alpha),
        (("decompose", q4_graph, "--budget", "20"), mu),
        (("solve", "forest", p3_graph, p3_td, "--budget", "3"), "forest DP state budget 3 exceeded"),
        (
            ("solve", "forest", p3_graph, p3_td, "--family", "exhaustive", "--budget", "3"),
            "forest DP state budget 3 exceeded",
        ),
        (("solve", "generic", p3_graph, p3_td, "-r", "2", "--budget", "3"), "structured DP budget 3 exceeded"),
        (("solve", "pack", p3_graph, p3_td, str(singletons), "--budget", "2"), "MWIS state budget 2 exceeded"),
        (
            ("solve", "pack", p3_graph, p3_td, str(singletons), "--budget", "1"),
            "blob graph of 3 pieces has 2 edges, above the budget 1",
        ),
    ):
        code, report, _ = run_cli(capsys, *argv)
        assert (code, report["error"]) == (4, {"type": "resource", "message": message}), argv
    # node 7 of K(3,3)'s nice form holds a bag of four vertices
    g = complete_bipartite(3, 3)
    td = heuristic_decomposition(g)
    nice = make_nice(g, td, decomposition_metrics(g, td))
    i, k = 7, nice.metrics.mu
    bag, vt = nice.nodes[i].bag, nice.subtree_vertex_masks()[i]
    traces = trace_family_for_bag(g, bag, k).members
    exhaustive = sorted(forest.signature_family_exhaustive(g, bag).signatures)

    def ask_each():
        members = forest.BoundedFamilyMembership(g, bag, vt, k, traces)
        for sig in exhaustive:
            sig in members

    for budget, enumerate_family, message, partial_count in (
        (10, lambda: forest.signature_family_exhaustive(g, bag), "exhaustive signature budget exceeded", 11),
        (
            40,
            lambda: forest.signature_family_paper(g, bag, vt, k, traces),
            "signature enumeration budget exceeded",
            6,
        ),
        (20, ask_each, "signature enumeration budget exceeded", 18),
    ):
        monkeypatch.setattr(forest, "DEFAULT_ENUM_BUDGET", budget)
        with pytest.raises(ResourceLimitError, match=f"^{message}$") as overrun:
            enumerate_family()
        assert overrun.value.partial_count == partial_count
    # Q3's 8 single vertices, then one unit per connected set as it is found
    monkeypatch.setattr(packing, "PIECE_BUDGET", 10)
    with pytest.raises(ResourceLimitError, match="^piece enumeration budget 10 exceeded$") as overrun:
        packing.enumerate_small_connected_subgraphs(graphs.hypercube_graph(3), 3)
    assert overrun.value.partial_count == 11


def test_verify_records_a_failing_self_check(monkeypatch, capsys):
    real = verify.mwis_dp
    calls = []

    def fails_on_second_case(graph, *args, **kwargs):
        calls.append(graph)
        if len(calls) == 2:
            raise InvariantError("planted self-check failure")
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(verify, "mwis_dp", fails_on_second_case)
    cases = [verify.prepare(g, w, heuristic_decomposition(g)) for g, w in random_corpus(3, 5, 6)]
    check = verify.mwis_matches_oracle(cases)
    assert check.instances == 5 and not check.ok
    assert check.failures == ["InvariantError: planted self-check failure"]

    calls.clear()
    code, report, _ = run_cli(capsys, "verify", "--suite", "traces", "--seed", "42", "--max-n", "6")
    assert code == 3 and report["error"] is None
    assert report["result"]["all_ok"] is False
    checks = report["result"]["suites"][0]["checks"]
    assert [(c["check"], c["instances"], c["ok"]) for c in checks] == [
        ("mwis equals oracle", 40, False),
        ("trace coverage", checks[1]["instances"], True),
        ("family size bound", checks[2]["instances"], True),
    ]
    assert checks[0]["failures"] == ["InvariantError: planted self-check failure"]


def test_verify_counts_every_verdict_after_a_raise(monkeypatch, capsys):
    # each (case, algebra) pair is its own case, so a raise costs exactly one
    # verdict and the instance count stays that of a clean run
    real = verify.generic_structured_dp
    calls = []

    def fails_now_and_then(*args, **kwargs):
        calls.append(args)
        if len(calls) % 9 == 1:
            raise InvariantError("planted self-check failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "generic_structured_dp", fails_now_and_then)
    code, report, _ = run_cli(
        capsys, "verify", "--suite", "boundaried", "--seed", "42", "--max-n", "8"
    )
    assert code == 3
    checks = report["result"]["suites"][0]["checks"]
    assert [(c["check"], c["instances"], c["ok"]) for c in checks] == [
        ("algebra compositionality", 1000, True),
        ("introduce equals glue with the star", 1000, True),
        ("structured DP equals brute force", 50, False),
    ]


@pytest.mark.parametrize(
    "target, nth, suite, failed_check",
    [
        ("trace_family_for_bag", 3, "traces", "trace coverage"),
        # trace coverage asks once per nice node, 506 times in all
        ("trace_family_for_bag", 506 + 3, "traces", "family size bound"),
        ("signature_family_paper", 3, "forest", "signature coverage"),
        ("forest_anatomy", 3, "forest", "skeleton bag bound 8k"),
        # the skeleton bound asks once per maximal forest, 63 times in all
        ("forest_anatomy", 63 + 3, "forest", "anatomy partitions maximal forests"),
        ("graph_power", 1, "oracles", "power monotonicity"),
        ("heuristic_decomposition", 1, "oracles", "anchors"),
    ],
)
def test_verify_raise_costs_only_its_own_verdict(monkeypatch, target, nth, suite, failed_check):
    # a self-check that fails while one verdict is computed fails that verdict
    # alone: every instance count stays that of a clean run
    real = getattr(verify, target)
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == nth:
            raise InvariantError("planted self-check failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, target, fails_once)
    checks = verify.SUITES[suite](42, 8)
    clean = [(check, count) for s, check, count in VERIFY_ALL_SEED_42_MAX_N_8 if s == suite]
    assert [(c.name, c.instances) for c in checks] == clean
    assert [(c.name, f) for c in checks for f in c.failures] == [
        (failed_check, "InvariantError: planted self-check failure")
    ]
