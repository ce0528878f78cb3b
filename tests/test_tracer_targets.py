"""Every function the benchmark tracer wraps still exists where callers look it up.

``bench/tracer.py`` patches names such as ``memsynth.synthesis.simulate`` in
place, so renaming or deleting one breaks ``bench/run.py --trace 1``.  The
tracer module is loaded read-only from its file; nothing is patched here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("memsynth_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, _, _ in module.TARGETS]


@pytest.mark.parametrize("module_name, attr", _tracer_targets())
def test_tracer_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(getattr(owner, leaf))
