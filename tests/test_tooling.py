"""Guards for what the benchmark under perfbench/ reaches by string or by
position, and a run of scripts/artifact_digests.py.

The traced benchmark run re-binds each (module, function) pair listed in
perfbench/tracing.py, and perfbench/worker.py imports names from the
package, textproc.unstemmed_words among them for its input descriptors.
The worker's evaluate-grid workload reads grid.csv by field position. A
refactor that breaks one of them would otherwise surface
only as a crash of a full benchmark run, as every grid cell counted failed,
or as a per-layer time that silently reads 0 because the pipeline stopped
calling the traced function.
"""

import ast
import csv
import hashlib
import importlib
import importlib.resources
import importlib.util
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from hatetriage import evalharness, pipeline
from hatetriage.evalharness import GridCell, GridSearchResult, grid_report_csv
from hatetriage.lexfeat import SCALAR_COLUMNS, SentimentLexicon
from hatetriage.pipeline import FeatureSettings, ModelConfig, PipelineModel
from hatetriage.postag import load_model, tag
from hatetriage.textproc import preprocess, unstemmed_words
from hatetriage.vectorize import FeatureMatrix, Standardizer, assemble_features

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
WORKER = ROOT / "perfbench" / "worker.py"

# a neutral tweet's scalar columns that are not 0, by name
NEUTRAL_SCALARS = {
    ("sentiment", "neu"): 1.0,
    ("readability", "fk_grade"): 1.0,
    ("readability", "reading_ease"): 100.0,
    ("surface", "num_chars"): 10,
    ("surface", "num_words"): 2,
    ("surface", "num_syllables"): 3,
}


def _tracing_module():
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _traced_pairs():
    return list(_tracing_module().TRACED)


def _worker_imports():
    """(module, name) of every `from hatetriage.<module> import <name>` in
    perfbench/worker.py."""
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    return [
        (node.module.split(".", 1)[1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hatetriage.")
        for alias in node.names
    ]


@pytest.mark.parametrize(
    "module_name, func_name", list(dict.fromkeys(_traced_pairs() + _worker_imports()))
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


def test_assembled_matrix_has_what_the_tracer_reads():
    """perfbench/tracing.py _observe_assemble records `.nnz` and
    `.shape[1]` of the matrix in assemble_features' result as
    vectorize.matrix_nnz and matrix_cols, with raw scalars and with a
    fitted Standardizer, the path every call with standardization on
    takes."""
    tracing = _tracing_module()
    word = FeatureMatrix(np.eye(2))
    pos = FeatureMatrix(np.zeros((2, 1)))
    scalars = [[0.5, 0.0, 0.5, 0.1, 1.0, 80.0] + [0.0] * 11,
               [0.0, 0.5, 0.5, -0.1, 2.0, 60.0] + [1.0] * 11]
    for standardizer in (None, Standardizer.fit(np.array(scalars))):
        result = assemble_features(word, pos, scalars, standardizer)
        assert result[1] is standardizer
        tracer = tracing.Tracer()
        tracing._observe_assemble(tracer, None, (), {}, result)
        dense = result[0].matrix.toarray()
        assert tracer.counts["matrix_nnz"] == np.count_nonzero(dense) > 0
        assert tracer.counts["matrix_cols"] == dense.shape[1] == 3 + 17


def test_fitted_state_has_what_the_tracer_reads():
    """perfbench/tracing.py _observe_fitted records len() of both
    vocabularies of fit_features' result as vectorize.word_vocab_size and
    pos_vocab_size; _observe_load records the same of load_pipeline's result
    and the artifact's length as pipeline.artifact_bytes."""
    tracing = _tracing_module()
    tagger, lexicon, texts, y = _toy_corpus()
    ingredients = pipeline.extract_ingredients(texts, tagger, lexicon)
    fitted = pipeline.fit_features(ingredients, y, FeatureSettings(min_df=2, select=False))
    config = ModelConfig("logreg", "l2", 1.0)
    model = pipeline.fit_config_model(config, fitted.train_matrix, y)
    data = pipeline.save_pipeline(PipelineModel(tagger, lexicon, fitted, model, config))
    fit_tracer, load_tracer = tracing.Tracer(), tracing.Tracer()
    tracing._observe_fitted(fit_tracer, None, (ingredients, y), {}, fitted)
    tracing._observe_load(load_tracer, None, (data,), {}, pipeline.load_pipeline(data))
    for tracer in (fit_tracer, load_tracer):
        assert tracer.counts["word_vocab_size"] == len(fitted.word_vocab.ngrams) > 0
        assert tracer.counts["pos_vocab_size"] == len(fitted.pos_vocab.ngrams) > 0
    assert load_tracer.counts["artifact_bytes"] == len(data)


def _toy_corpus():
    """The bundled tagger and lexicon, and the toy corpus's texts and labels."""
    data = importlib.resources.files("hatetriage.data")
    tagger = load_model(data.joinpath("pos_model.txt").read_bytes())
    lexicon = SentimentLexicon.from_text(
        data.joinpath("sentiment_lexicon.tsv").read_text(encoding="utf-8")
    )
    with data.joinpath("toy_corpus.csv").open(encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return tagger, lexicon, [r["tweet"] for r in rows], [int(r["class"]) for r in rows]


def _calls_below(spans, name):
    """For each span called name, how often each traced function ran
    below it."""
    out = []
    for i, span in enumerate(spans):
        if span.name != name:
            continue
        below = Counter()
        for other in spans[i + 1 :]:
            parent = other.parent
            while parent is not None and parent != i:
                parent = spans[parent].parent
            if parent == i:
                below[other.name] += 1
        out.append(below)
    return out


def test_pipeline_calls_traced_vectorize_functions():
    """The benchmark's vectorize.fit_vocab_s and transform_tfidf_*/counts
    metrics time these functions through the bindings pipeline imports;
    each pipeline entry point must still reach them there."""
    tagger, lexicon, texts, y = _toy_corpus()
    ingredients = pipeline.extract_ingredients(texts, tagger, lexicon)
    settings = FeatureSettings(min_df=2, select=False)

    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        fitted = pipeline.fit_features(ingredients, y, settings, range(200))
        X = pipeline.feature_matrix(fitted, ingredients, range(200, 300))
        counts = pipeline.count_matrix(fitted, ingredients, range(200, 300))
        for kind, penalty, matrix in (("logreg", "l2", X), ("nb", "none", counts)):
            config = ModelConfig(kind, penalty, 1.0)
            model = pipeline.fit_config_model(config, matrix, y[200:])
            pm = PipelineModel(tagger, lexicon, fitted, model, config)
            pipeline.pipeline_predict(pm, texts[:5])
    finally:
        tracer.uninstall()

    # one call per n-gram block (word and POS) on every path
    spans = tracer.spans
    fit_vocab, tfidf, counts = (
        "vectorize.fit_vocab", "vectorize.transform_tfidf", "vectorize.transform_counts"
    )
    fits = _calls_below(spans, "pipeline.fit_features")
    assert [(c[fit_vocab], c[tfidf]) for c in fits] == [(2, 2)]
    # fit_features builds its rows' matrix by feature_matrix too
    assert [c[tfidf] for c in _calls_below(spans, "pipeline.feature_matrix")] == [2, 2, 2]
    assert [c[counts] for c in _calls_below(spans, "pipeline.count_matrix")] == [2, 2]
    predicts = _calls_below(spans, "pipeline.pipeline_predict")
    assert [(c[tfidf], c[counts]) for c in predicts] == [(2, 0), (0, 2)]


def test_extraction_spans_the_tracer_sees():
    """The benchmark's lexfeat.* times come from spans below
    extract_ingredients: one batched sentiment_scores, one batched
    surface_features and one batched readability call per extraction.
    Nothing else traced runs there, so textproc.tokenize_s reads 0 on every
    workload."""
    data = importlib.resources.files("hatetriage.data")
    tagger = load_model(data.joinpath("pos_model.txt").read_bytes())
    lexicon = SentimentLexicon({"good": 2.0})
    texts = ["RT good day!", "good day rt", "#a#b good", "", "rt RT"]

    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        pipeline.extract_ingredients(texts, tagger, lexicon)
    finally:
        tracer.uninstall()

    (below,) = _calls_below(tracer.spans, "pipeline.extract_ingredients")
    assert below == {
        "lexfeat.sentiment_scores": 1,
        "lexfeat.readability": 1,
        "lexfeat.surface_features": 1,
    }


def test_one_tweet_streams_are_the_extracted_ones():
    """The benchmark's input descriptors (word_tokens, distinct_words,
    tagdict_hit_ratio) count textproc.unstemmed_words, and it traces
    textproc.preprocess, but extraction calls neither. Tweet by tweet,
    preprocess must give the word block's stems, and unstemmed_words the
    words that the POS block tags, one tag each."""
    tagger, lexicon, texts, _ = _toy_corpus()
    ing = pipeline.extract_ingredients(texts, tagger, lexicon)
    for i, text in enumerate(texts):
        assert preprocess(text) == list(ing.word_docs[i])
        words = unstemmed_words(text)
        assert len(words) == len(ing.pos_docs[i])
        assert tag(tagger, words) == list(ing.pos_docs[i])


@pytest.mark.parametrize("kinds", [("logreg", "svm", "nb"), ("logreg", "svm")])
def test_grid_search_builds_each_fold_input_once(kinds):
    """The benchmark's evalharness.prepare_folds_s times feature fits only,
    and its vectorize counts see each fold's matrices built once: per fold,
    2 TF-IDF blocks to fit and 2 to transform the held-out rows, and, only
    when the grid has naive Bayes, 2 count blocks for each side."""
    rng = np.random.default_rng(0)
    words = ["w0", "w1", "w2", "w3", "w4", "w5"]
    y = [cls for cls in range(3) for _ in range(8)]
    docs = [[words[2 * cls + int(rng.integers(0, 2))], str(rng.choice(words))] for cls in y]
    ingredients = pipeline.Ingredients(
        word_docs=tuple(tuple(d) for d in docs),
        pos_docs=tuple(("N", "V") for _ in docs),
        scalars=np.array([[NEUTRAL_SCALARS.get(c, 0.0) for c in SCALAR_COLUMNS]] * len(docs)),
    )
    settings = FeatureSettings(min_df=1, max_df_ratio=1.0, select=False)
    grid = pipeline.build_grid(kinds, ["l1", "l2"], [1.0], ["uniform"])
    k = 3

    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        result = evalharness.grid_search(grid, ingredients, y, k=k, seed=0, features=settings)
    finally:
        tracer.uninstall()

    assert all(cell.error is None for cell in result.cells)
    spans = tracer.spans
    (prepare,) = _calls_below(spans, "evalharness.prepare_folds")
    assert prepare["pipeline.fit_features"] == k
    assert prepare["vectorize.transform_tfidf"] == 2 * k
    assert prepare["vectorize.transform_counts"] == 0
    (below,) = _calls_below(spans, "evalharness.grid_search")
    assert below["vectorize.transform_tfidf"] == 4 * k
    assert below["vectorize.transform_counts"] == (4 * k if "nb" in kinds else 0)
    assert below["pipeline.fit_config_model"] == len(grid) * k


def _artifact_digests(env=None) -> str:
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_digests.py"), "--seed", "1"],
        capture_output=True, text=True, check=True, timeout=300, env=env,
    )
    return done.stdout


def test_artifact_digests_cover_every_command_on_the_toy_corpus(tmp_path):
    """The script prints `name sha256` for every artifact of train,
    evaluate, predict and report on the three toy-corpus setups and on
    bench-1, the digest of model.bin is that of the file train writes, and every
    line equals the committed one in tests/data/artifact_digests.txt, also
    with BLAS on two threads. A change that moves an artifact on purpose
    updates that file."""
    from hatetriage.cli import main

    expected = (ROOT / "tests" / "data" / "artifact_digests.txt").read_text(encoding="utf-8")
    output = _artifact_digests()
    assert output == expected
    assert _artifact_digests(env={**os.environ, "OPENBLAS_NUM_THREADS": "2"}) == expected
    lines = output.splitlines()
    digests = dict(line.split(" ") for line in lines)
    assert len(digests) == len(lines) and sorted(digests) == list(digests)
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())
    for name in ("toy", "toy-raw", "toy-nb", "bench-1"):
        names = {key.split("/", 1)[1] for key in digests if key.split("/", 1)[0] == name}
        assert names == {
            "model.bin", "train_report.txt", "selected_features.csv",
            "grid.txt", "grid.csv", "holdout_metrics.txt", "holdout_metrics.csv",
            "holdout_confusion.txt", "holdout_confusion.csv", "insample_metrics.txt",
            "insample_metrics.csv", "insample_confusion.txt", "insample_confusion.csv",
            "reference_deltas.txt", "predictions.tsv", "error_report.txt", "error_report.json",
        }

    corpus = importlib.resources.files("hatetriage.data").joinpath("toy_corpus.csv")
    config = tmp_path / "run.cfg"
    config.write_text(f"corpus = {corpus}\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["train", "--config", str(config)]) == 0
    model = (tmp_path / "out" / "model.bin").read_bytes()
    assert digests["toy/model.bin"] == hashlib.sha256(model).hexdigest()


def test_artifact_digests_takes_seed_more_than_once(monkeypatch):
    """--seed repeats, so one run digests several generated corpora; none
    means the toy corpora alone."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", ROOT / "scripts" / "artifact_digests.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    parser = script.build_parser()
    assert parser.parse_args(["--seed", "1", "--seed", "17"]).seed == [1, 17]
    assert parser.parse_args([]).seed == []
