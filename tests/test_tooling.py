"""Guards for what the benchmark under perfbench/ reaches by string or by
position.

The traced benchmark run re-binds each (module, function) pair listed in
perfbench/tracing.py, and the worker imports textproc.unstemmed_words for
its input descriptors. The worker's evaluate-grid workload reads grid.csv by
field position. A refactor that breaks one of them would otherwise surface
only as a crash of a full benchmark run, or as every grid cell counted
failed.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from hatetriage.evalharness import GridCell, GridSearchResult, grid_report_csv
from hatetriage.pipeline import ModelConfig

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


def test_grid_csv_layout_the_benchmark_parses():
    """perfbench/worker.py EvaluateGrid takes field 4 of the row whose field
    6 is "1" as the score, and counts a row that does not end with a comma
    (a non-empty trailing error field) as a failed cell."""
    scored = ModelConfig("logreg", "l2", 1.0)
    failed = ModelConfig("nb", "none", 1.0)
    result = GridSearchResult(
        cells=(
            GridCell(scored, 0.75, 0.05, (0.7, 0.8), None, True, 12),
            GridCell(failed, None, None, (), "fold 0: no columns, none left"),
        ),
        best=scored,
        best_mean_weighted_f1=0.75,
        folds=((0,), (1,)),
        k=2,
        seed=0,
    )
    header, scored_row, failed_row = grid_report_csv(result).splitlines()
    fields = header.split(",")
    assert fields[4] == "mean_weighted_f1"
    assert fields[6] == "best"
    assert fields[-1] == "error"
    assert scored_row.endswith(",")
    assert scored_row.split(",")[6] == "1"
    assert float(scored_row.split(",")[4]) == 0.75
    assert not failed_row.endswith(",")
    assert len(failed_row.split(",")) == len(fields)
