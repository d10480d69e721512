"""Guards for names that the benchmark under perfbench/ reaches by string.

The traced benchmark run re-binds each (module, function) pair listed in
perfbench/tracing.py, and the worker imports textproc.unstemmed_words for
its input descriptors. A refactor that removes one of them would otherwise
surface only as a crash of a full benchmark run.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_pairs():
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return list(module.TRACED)


@pytest.mark.parametrize(
    "module_name, func_name",
    list(dict.fromkeys(_traced_pairs() + [("textproc", "unstemmed_words")])),
)
def test_benchmark_names_resolve_on_package(module_name, func_name):
    module = importlib.import_module(f"hatetriage.{module_name}")
    assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
