"""The benchmark's span recorder (perfbench/tracing.py) patches the program by
module attribute, so a change that removes or renames a patched attribute
fails here instead of crashing a traced benchmark run (``--trace 1``)."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import imtw.cli
from imtw import forest
from imtw.decomp import decomposition_metrics, make_nice, parse_td
from imtw.graphs import WeightMap, graph_power, hypercube_graph, path_graph, random_graph, serialize_graph

from conftest import driver_spy, reference_merge_partitions

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_patch_points_resolve_and_restore():
    tracing = load_tracing()
    recorder = tracing.Recorder()
    try:
        recorder.install()
        patched = list(recorder._patches)
        # the algebra wrapper looks up every ALGEBRA_METHODS attribute of a
        # built algebra, relabel included
        algebra = imtw.cli.builtin_type_algebra("forest")
    finally:
        recorder.restore()
    assert all(callable(getattr(algebra, method)) for method in tracing.ALGEBRA_METHODS)
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)
    assert recorder._patches == []


def recorded_solve(tmp_path, capsys, graph, *solve_args):
    """Decompose ``graph``, then run ``imtw solve *solve_args`` on it under
    the recorder; return the nice decomposition, the span names and the
    counts of the counted helpers."""
    graph_file, td_file = tmp_path / "g.gr", tmp_path / "g.td"
    graph_file.write_text(serialize_graph(graph))
    assert imtw.cli.main(["decompose", str(graph_file), "-o", str(td_file)]) == 0
    td = parse_td(td_file.read_text())
    nice = make_nice(graph, td, decomposition_metrics(graph, td))
    tracing = load_tracing()
    recorder = tracing.Recorder()
    recorder.sampler = SimpleNamespace(spent=0.0)
    try:
        recorder.install()
        code = imtw.cli.main(["solve", *solve_args, str(graph_file), str(td_file)])
    finally:
        recorder.restore()
    capsys.readouterr()
    assert code == 0
    return nice, [span[tracing.NAME] for span in recorder.spans], recorder.counts


def test_carried_trace_families_stay_visible_to_the_recorder(tmp_path, capsys, filter_everywhere):
    # mwis_dp builds each non-join node's family through the patched
    # trace_family_for_bag and enumerates no bag's maximal sets afresh
    nice, names, _ = recorded_solve(tmp_path, capsys, graph_power(path_graph(30), 3), "mwis")
    assert names.count("traces.family") == sum(node.kind != "join" for node in nice.nodes)
    assert "traces.mis_enum" not in names


def test_forest_trace_families_stay_visible_to_the_recorder(tmp_path, capsys, filter_everywhere):
    # mwif_dp --family paper, like mwis_dp, builds each non-join node's
    # family through the patched trace_family_for_bag from the carried
    # maximal sets; a join reuses its first child's
    nice, names, _ = recorded_solve(
        tmp_path, capsys, random_graph(14, 0.3, seed=7), "forest", "--family", "paper"
    )
    assert any(node.kind == "join" for node in nice.nodes)
    assert names.count("traces.family") == sum(node.kind != "join" for node in nice.nodes)
    assert "traces.mis_enum" not in names


def test_forest_join_counters_see_every_equal_z_pair(tmp_path, capsys, monkeypatch):
    # the benchmark's forest.join_pairs and forest.join_ok_frac read the
    # counted merge_partitions: one forest.merge per pair of join partners
    # with equal Z, and one forest.merge.none per pair that closes a cycle
    g = hypercube_graph(4)
    nice, _, counts = recorded_solve(tmp_path, capsys, g, "forest", "--family", "exhaustive")
    pairs = cycles = 0

    def wrap(arguments):
        def reference(left, right):
            nonlocal pairs, cycles
            z = left[0]
            merged = reference_merge_partitions(z, g.components_within(z), left[1], right[1])
            pairs += 1
            cycles += merged is None
            return None if merged is None else (z, merged)

        arguments["merge"] = reference

    monkeypatch.setattr(forest, "run_nice_dp", driver_spy(wrap))
    forest.mwif_dp(g, nice, WeightMap.unit(g.n), provider="exhaustive")
    assert counts["forest.merge"] == pairs == 5908
    assert counts["forest.merge.none"] == cycles > 0
