"""The benchmark's span recorder (perfbench/tracing.py) patches the program by
module attribute, so a change that removes or renames a patched attribute
fails here instead of crashing a traced benchmark run (``--trace 1``)."""

import importlib.util
from pathlib import Path

import imtw.cli

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
