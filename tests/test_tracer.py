"""The benchmark's span recorder (perfbench/tracing.py) patches the program by
module attribute, so a change that removes or renames a patched attribute
fails here instead of crashing a traced benchmark run (``--trace 1``)."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import imtw.cli
from imtw.decomp import decomposition_metrics, make_nice, parse_td
from imtw.graphs import graph_power, path_graph, random_graph, serialize_graph

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
    the recorder; return the nice decomposition and the span names."""
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
    return nice, [span[tracing.NAME] for span in recorder.spans]


def test_carried_trace_families_stay_visible_to_the_recorder(tmp_path, capsys):
    # mwis_dp builds each non-join node's family through the patched
    # trace_family_for_bag and enumerates no bag's maximal sets afresh
    nice, names = recorded_solve(tmp_path, capsys, graph_power(path_graph(30), 3), "mwis")
    assert names.count("traces.family") == sum(node.kind != "join" for node in nice.nodes)
    assert "traces.mis_enum" not in names


def test_forest_trace_families_stay_visible_to_the_recorder(tmp_path, capsys):
    # mwif_dp --family paper, like mwis_dp, builds each non-join node's
    # family through the patched trace_family_for_bag from the carried
    # maximal sets; a join reuses its first child's
    nice, names = recorded_solve(
        tmp_path, capsys, random_graph(14, 0.3, seed=7), "forest", "--family", "paper"
    )
    assert any(node.kind == "join" for node in nice.nodes)
    assert names.count("traces.family") == sum(node.kind != "join" for node in nice.nodes)
    assert "traces.mis_enum" not in names
