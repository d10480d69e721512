"""Acceptance gate: one test per criterion, pass or fail on its own line.

A1-A4 reproduce published statistics of the public labeled dataset, which
is not bundled; point HATETRIAGE_DATASET at its CSV to enable them. A5-A9
run on bundled data only and always execute. Each test prints its measured
numbers so a failure shows the actual value next to the required bound.
"""

import importlib.resources
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from hatetriage.cli import main
from hatetriage.config import PipelineConfig
from hatetriage.corpus import (
    LABELS,
    Label,
    corpus_stats,
    crosscheck_labels,
    parse_corpus,
    stratified_split,
)
from hatetriage.evalharness import (
    confusion,
    grid_search,
    kfold_indices,
    metrics,
    prepare_folds,
)
from hatetriage.lexfeat import SCALAR_COLUMNS, SentimentLexicon, readability
from hatetriage.linmodel import fit_logreg, predict
from hatetriage.pipeline import (
    FeatureSettings,
    Ingredients,
    ModelConfig,
    extract_ingredients,
    fit_config_model,
    fit_features,
    model_input_matrix,
)
from hatetriage.postag import load_model as load_tag_model
from hatetriage.textproc import count_syllables, porter_stem
from hatetriage.vectorize import fit_vocab, transform_tfidf
from linmodel_reference import _logistic_loss_grad, _squared_hinge_loss_grad

DATASET_ENV = "HATETRIAGE_DATASET"
DATASET = os.environ.get(DATASET_ENV, "")
needs_dataset = pytest.mark.skipif(
    not DATASET, reason=f"set {DATASET_ENV} to the labeled corpus CSV to run"
)

_DATA = importlib.resources.files("hatetriage.data")

# a neutral tweet's scalar columns that are not 0, by name
NEUTRAL_SCALARS = {
    ("sentiment", "neu"): 1.0,
    ("readability", "fk_grade"): 1.0,
    ("readability", "reading_ease"): 100.0,
    ("surface", "num_chars"): 10,
    ("surface", "num_words"): 2,
    ("surface", "num_syllables"): 3,
}

# headline numbers published with the public dataset release
REFERENCE_WEIGHTED = (0.91, 0.90, 0.90)
REFERENCE_HATE_PRECISION = 0.44
REFERENCE_HATE_RECALL = 0.61
REFERENCE_SIZE = 24_802


def bundled_tagger():
    return load_tag_model(_DATA.joinpath("pos_model.txt").read_bytes())


def bundled_lexicon():
    return SentimentLexicon.from_text(
        _DATA.joinpath("sentiment_lexicon.tsv").read_text(encoding="utf-8")
    )


@pytest.fixture(scope="module")
def dataset_records():
    return parse_corpus(Path(DATASET).read_bytes())


@pytest.fixture(scope="module")
def dataset_insample(dataset_records):
    """Grid-search the default configuration space with 5-fold CV, refit the
    winner on all labeled data, and score it on that same data. Shared by
    A3 and A4; this is the expensive fixture."""
    labeled = [r for r in dataset_records if r.label is not None]
    texts = [r.text for r in labeled]
    y = [int(r.label) for r in labeled]
    ingredients = extract_ingredients(texts, bundled_tagger(), bundled_lexicon())
    settings = FeatureSettings()
    result = grid_search(
        PipelineConfig().grid(), ingredients, y, k=5, seed=42, features=settings
    )
    best = result.best
    fitted = fit_features(ingredients, y, settings)
    X = model_input_matrix(best.kind, fitted, ingredients)
    model = fit_config_model(best, X, y)
    pred = predict(model, X)
    return best, metrics(y, pred), confusion(y, pred)


@needs_dataset
def test_a1_label_recomputation(dataset_records):
    mismatched = crosscheck_labels(dataset_records)
    n = len(dataset_records)
    print(f"A1: rows={n} (required {REFERENCE_SIZE}), label mismatches={len(mismatched)}")
    assert mismatched == []
    assert n == REFERENCE_SIZE


@needs_dataset
def test_a2_prevalence():
    t0 = time.perf_counter()
    records = parse_corpus(Path(DATASET).read_bytes())
    stats = corpus_stats(records)
    elapsed = time.perf_counter() - t0
    hate_maj = stats.majority_share[Label.HATE]
    hate_una = stats.unanimous_share[Label.HATE]
    neither_maj = stats.majority_share[Label.NEITHER]
    print(
        f"A2: hate majority {hate_maj:.4f} (0.050±0.005), "
        f"hate unanimous {hate_una:.4f} (0.013±0.003), "
        f"neither majority {neither_maj:.4f} (0.166±0.005), {elapsed:.1f}s"
    )
    assert elapsed < 10.0
    assert abs(hate_maj - 0.050) <= 0.005
    assert abs(hate_una - 0.013) <= 0.003
    assert abs(neither_maj - 0.166) <= 0.005


@needs_dataset
def test_a3_end_to_end_reproduction(dataset_insample):
    best, report, _ = dataset_insample
    got = (report.weighted_precision, report.weighted_recall, report.weighted_f1)
    print(f"A3: best configuration {best.describe()}")
    for name, value, ref in zip(("precision", "recall", "f1"), got, REFERENCE_WEIGHTED):
        print(f"A3: weighted {name} {value:.4f} reference {ref:.2f} delta {value - ref:+.4f}")
    for lab in LABELS:
        k = int(lab)
        print(
            f"A3: {lab.display} precision {report.precision[k]:.4f} "
            f"recall {report.recall[k]:.4f} f1 {report.f1[k]:.4f}"
        )
    hate = int(Label.HATE)
    print(
        f"A3: hate precision delta {report.precision[hate] - REFERENCE_HATE_PRECISION:+.4f}, "
        f"hate recall delta {report.recall[hate] - REFERENCE_HATE_RECALL:+.4f}"
    )
    for value, ref in zip(got, REFERENCE_WEIGHTED):
        assert abs(value - ref) <= 0.05
    assert abs(report.precision[hate] - REFERENCE_HATE_PRECISION) <= 0.10
    assert abs(report.recall[hate] - REFERENCE_HATE_RECALL) <= 0.10


@needs_dataset
def test_a4_confusion_shape(dataset_insample):
    _, _, cm = dataset_insample
    norm = cm.normalized
    hate = int(Label.HATE)
    diag = norm[hate][hate]
    fp_off = norm[int(Label.OFFENSIVE)][hate]
    fp_nei = norm[int(Label.NEITHER)][hate]
    print(
        f"A4: hate diagonal {diag:.4f} (in [0.50, 0.72]), "
        f"offensive->hate {fp_off:.4f} (<=0.10), neither->hate {fp_nei:.4f} (<=0.05)"
    )
    assert 0.50 <= diag <= 0.72
    assert fp_off <= 0.10
    assert fp_nei <= 0.05


def test_a5_solver_oracles():
    t0 = time.perf_counter()
    # analytic gradients against central differences on 20 random instances
    worst = 0.0
    for loss_grad in (_logistic_loss_grad, _squared_hinge_loss_grad):
        rng = np.random.default_rng(17)
        eps = 1e-6
        for _ in range(20):
            n, d = int(rng.integers(4, 10)), int(rng.integers(2, 5))
            X = sparse.csr_matrix(rng.normal(size=(n, d)))
            z = np.where(rng.random(n) > 0.5, 1.0, -1.0)
            omega = rng.uniform(0.5, 2.0, n)
            w = rng.normal(size=d)
            b = float(rng.normal())
            _, gw, gb = loss_grad(X, z, omega, n, w, b)
            grads = list(gw) + [gb]
            for j in range(d + 1):
                def at(delta):
                    wj = w.copy()
                    bj = b
                    if j < d:
                        wj[j] += delta
                    else:
                        bj += delta
                    return loss_grad(X, z, omega, n, wj, bj)[0]

                numeric = (at(eps) - at(-eps)) / (2 * eps)
                denom = max(abs(numeric), abs(grads[j]), 1e-8)
                worst = max(worst, abs(numeric - grads[j]) / denom)
    assert worst <= 1e-5

    # the accepted-step objective trace never increases
    rng = np.random.default_rng(5)
    Xn = np.vstack([rng.normal(-0.6, 1.0, (30, 3)), rng.normal(0.6, 1.0, (30, 3))])
    yn = np.array([0] * 30 + [1] * 30)
    model = fit_logreg(Xn, yn, penalty="l2", C=1.0)
    for meta in model.train_meta:
        assert (np.diff(meta.history) <= 1e-12).all()

    # refined brute-force search over (w1, w2, w3, b) matches the solver
    rng = np.random.default_rng(21)
    X = rng.normal(size=(12, 3))
    y = np.array([0] * 6 + [1] * 6)
    C = 1.0
    fitted = fit_logreg(X, y, penalty="l2", C=C, tol=1e-10, max_iter=5000)
    z = np.where(y == 1, 1.0, -1.0)

    def objective(w, b):
        loss = np.logaddexp(0.0, -z * (X @ w + b)).sum() / 12
        return loss + (w @ w) / (2 * C * 12)

    solver_obj = objective(fitted.weights[1], fitted.bias[1])
    center = np.zeros(4)
    half_width = 4.0
    best = np.inf
    for _ in range(6):
        axes = [np.linspace(c - half_width, c + half_width, 9) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        points = np.stack([g.ravel() for g in grids], axis=1)
        margins = X @ points[:, :3].T + points[:, 3]
        losses = np.logaddexp(0.0, -z[:, None] * margins).sum(axis=0) / 12
        objs = losses + (points[:, :3] ** 2).sum(axis=1) / (2 * C * 12)
        idx = int(np.argmin(objs))
        best = float(objs[idx])
        center = points[idx]
        half_width /= 4.0
    elapsed = time.perf_counter() - t0
    print(
        f"A5: worst gradient gap {worst:.2e} (<=1e-5), brute-force objective gap "
        f"{abs(best - solver_obj):.2e} (<=1e-4), {elapsed:.1f}s (<60s)"
    )
    assert abs(best - solver_obj) <= 1e-4
    assert elapsed < 60.0


def test_a6_feature_oracles(golden_dir):
    # TF-IDF on the two-document corpus, against hand arithmetic
    docs = [["a", "b"], ["a"]]
    vocab = fit_vocab(docs, 1, 2, 1, 1.0)
    assert list(vocab.ngrams) == ["a", "a b", "b"]
    fm = transform_tfidf(vocab, docs)
    idf_all = math.log(3 / 3) + 1.0
    idf_one = math.log(3 / 2) + 1.0
    row0 = np.array([idf_all, idf_one, idf_one])
    row0 = row0 / math.sqrt(float(row0 @ row0))
    expected = np.vstack([row0, [1.0, 0.0, 0.0]])
    tfidf_gap = float(np.abs(fm.matrix.toarray() - expected).max())
    assert tfidf_gap <= 1e-9

    # readability formulas on the two pinned (words, syllables) cases
    grade, ease = readability(10, 14)
    spw = 14 / 10
    assert abs(ease - (206.835 - 1.015 * 10 - 84.6 * spw)) <= 1e-9
    assert abs(grade - (0.39 * 10 + 11.8 * spw - 15.59)) <= 1e-9
    assert abs(ease - 78.245) <= 1e-9
    grade1, ease1 = readability(1, 1)
    assert abs(ease1 - 121.22) <= 1e-9
    assert abs(grade1 - (-3.40)) <= 1e-9

    # sentiment compound on the three pinned cases
    lex = SentimentLexicon({"good": 2.0})
    texts = ["the walls are tall", "good morning", "not good morning"]
    scalars = extract_ingredients(texts, bundled_tagger(), lex).scalars
    no_hit, plain, negated = scalars[:, SCALAR_COLUMNS.index(("sentiment", "compound"))].tolist()
    assert no_hit == 0.0
    assert abs(plain - 2.0 / math.sqrt(4.0 + 15.0)) <= 1e-6
    assert abs(negated - (-1.48) / math.sqrt(1.48**2 + 15.0)) <= 1e-6

    # stemmer golden file must match exactly
    stem_lines = (golden_dir / "stems.golden").read_text().splitlines()
    stem_hits = sum(
        1 for line in stem_lines if porter_stem(line.split("\t")[0]) == line.split("\t")[1]
    )
    assert stem_hits == len(stem_lines)

    # syllable counter must agree with the golden sample on >= 90%
    syl_lines = (golden_dir / "syllables.golden").read_text().splitlines()
    syl_hits = sum(
        1 for line in syl_lines if count_syllables(line.split("\t")[0]) == int(line.split("\t")[1])
    )
    agreement = syl_hits / len(syl_lines)
    print(
        f"A6: tfidf gap {tfidf_gap:.1e}, stems {stem_hits}/{len(stem_lines)}, "
        f"syllables {agreement:.2f} (>=0.90)"
    )
    assert agreement >= 0.90


def test_a7_harness_oracles():
    # hand-computed six-point example, exact
    y_true = [0, 0, 1, 1, 2, 2]
    y_pred = [0, 1, 1, 1, 2, 0]
    rep = metrics(y_true, y_pred)
    assert rep.precision == (0.5, 2 / 3, 1.0)
    assert rep.recall == (0.5, 1.0, 0.5)
    cm = confusion(y_true, y_pred)
    assert cm.counts == ((1, 1, 0), (0, 2, 0), (1, 0, 1))

    # stratified folds: disjoint cover with per-class sizes within one
    labels = [0] * 7 + [1] * 13 + [2] * 9
    folds = kfold_indices(labels, 5, seed=3)
    flat = np.concatenate(folds)
    assert sorted(flat.tolist()) == list(range(len(labels)))
    for cls in (0, 1, 2):
        sizes = [sum(1 for i in fold if labels[i] == cls) for fold in folds]
        assert max(sizes) - min(sizes) <= 1

    # fold vocabularies never see held-out rows, on 10 random corpora
    rng = np.random.default_rng(3)
    pool = [f"w{i}" for i in range(30)]
    settings = FeatureSettings(
        word_ngram_hi=2, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0, select=False
    )
    for trial in range(10):
        docs = [[str(rng.choice(pool)) for _ in range(5)] for _ in range(40)]
        y = [int(v) for v in rng.integers(0, 3, 40)]
        ing = Ingredients(
            word_docs=tuple(tuple(d) for d in docs),
            pos_docs=tuple(("NN", "VBP") for _ in docs),
            scalars=np.array([[NEUTRAL_SCALARS.get(c, 0.0) for c in SCALAR_COLUMNS]] * len(docs)),
        )
        for pf in prepare_folds(ing, y, kfold_indices(y, 4, trial), settings):
            train_ngrams = set()
            for j in pf.train_idx:
                doc = docs[j]
                train_ngrams.update(doc)
                train_ngrams.update(" ".join(doc[i : i + 2]) for i in range(len(doc) - 1))
            assert set(pf.fitted.word_vocab.ngrams) <= train_ngrams
    print("A7: six-point metrics exact, fold bounds hold, no vocabulary leakage in 10 trials")


def test_a8_synthetic_end_to_end():
    t0 = time.perf_counter()
    records = parse_corpus(_DATA.joinpath("toy_corpus.csv").read_bytes())
    texts = [r.text for r in records]
    y = [int(r.label) for r in records]
    ingredients = extract_ingredients(texts, bundled_tagger(), bundled_lexicon())
    settings = FeatureSettings()
    config = ModelConfig("logreg", "l2", 1.0)
    cv = grid_search([config], ingredients, y, k=5, seed=42, features=settings)

    train_recs, holdout_recs = stratified_split(records, 0.10, seed=42)
    position = {id(r): i for i, r in enumerate(records)}
    tr = [position[id(r)] for r in train_recs]
    ho = [position[id(r)] for r in holdout_recs]
    fitted = fit_features(ingredients, y, settings, tr)
    X_tr = model_input_matrix("logreg", fitted, ingredients, tr)
    X_ho = model_input_matrix("logreg", fitted, ingredients, ho)
    model = fit_config_model(config, X_tr, [y[i] for i in tr])
    ho_report = metrics([y[i] for i in ho], predict(model, X_ho))
    elapsed = time.perf_counter() - t0
    print(
        f"A8: CV weighted F1 {cv.best_mean_weighted_f1:.4f} (>=0.95), "
        f"holdout weighted F1 {ho_report.weighted_f1:.4f} (>=0.90), {elapsed:.1f}s (<60s)"
    )
    assert cv.best_mean_weighted_f1 >= 0.95
    assert ho_report.weighted_f1 >= 0.90
    assert elapsed < 60.0


def test_a9_determinism(tmp_path):
    corpus = str(_DATA.joinpath("toy_corpus.csv"))
    outs = []
    for run in ("one", "two"):
        cfg = tmp_path / f"run_{run}.cfg"
        out = tmp_path / f"out_{run}"
        cfg.write_text(f"corpus = {corpus}\noutput_dir = {out}\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 0
        outs.append(out)
    first = (outs[0] / "model.bin").read_bytes()
    second = (outs[1] / "model.bin").read_bytes()
    assert first == second

    # every input line, including blank and punctuation-only ones, yields
    # exactly one prediction line
    rng = np.random.default_rng(99)
    pool = ["sunny", "walk", "stupid", "jerk", "vermin", "filth", "the", "so", "!!!", "@who"]
    lines = []
    for _ in range(1000):
        roll = rng.random()
        if roll < 0.03:
            lines.append("")
        elif roll < 0.06:
            lines.append("...")
        else:
            k = int(rng.integers(1, 7))
            lines.append(" ".join(str(rng.choice(pool)) for _ in range(k)))
    src = tmp_path / "lines.txt"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    dst = tmp_path / "pred.tsv"
    rc = main(["predict", "--model", str(outs[0] / "model.bin"),
               "--input", str(src), "--output", str(dst)])
    assert rc == 0
    n_out = len(dst.read_text().splitlines())
    print(f"A9: model bytes identical ({len(first)} bytes), predictions {n_out}/1000")
    assert n_out == 1000
