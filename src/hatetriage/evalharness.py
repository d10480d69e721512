"""Stratified folds, cross-validated grid search, metrics, and error reports.

Headline precision/recall/F1 are support-weighted averages; every report
that prints them says so in its header. Confusion matrices are rendered
with true classes on rows and predicted classes on columns, ordered Hate,
Offensive, Neither on both axes.
"""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import LABELS, Label
from .linmodel import LinearModel, predict
from .pipeline import (
    MODEL_KINDS,
    FeatureSettings,
    FittedFeatures,
    Ingredients,
    ModelConfig,
    SplitInputs,
    fit_config_model,
    fit_features,
)
from .vectorize import FeatureMatrix

_N_CLASSES = len(LABELS)


@dataclass(frozen=True)
class MetricsReport:
    """Per-class and support-weighted precision/recall/F1, plus accuracy.

    Ratios with an empty denominator are 0 by convention, so a predictor
    that never emits a class gets precision 0 for it, not an error.
    """

    precision: tuple[float, float, float]
    recall: tuple[float, float, float]
    f1: tuple[float, float, float]
    support: tuple[int, int, int]
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float

    @property
    def n(self) -> int:
        return sum(self.support)


@dataclass(frozen=True)
class ConfusionMatrix:
    """3x3 count matrix, rows = true class, columns = predicted class."""

    counts: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.shape != (_N_CLASSES, _N_CLASSES):
            raise ValueError("confusion matrix must be 3x3")
        if (arr < 0).any():
            raise ValueError("confusion counts must be non-negative")
        object.__setattr__(
            self, "counts", tuple(tuple(int(v) for v in row) for row in arr)
        )

    @property
    def n(self) -> int:
        return int(np.sum(self.counts))

    @property
    def normalized(self) -> tuple[tuple[float, float, float], ...]:
        """Row-normalized rates; a class with no true examples keeps an
        all-zero row instead of dividing by zero."""
        out = []
        for row in self.counts:
            total = sum(row)
            if total == 0:
                out.append((0.0, 0.0, 0.0))
            else:
                out.append(tuple(v / total for v in row))
        return tuple(out)


def _validate_codes(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    yt = np.asarray([int(v) for v in y_true], dtype=np.int64)
    yp = np.asarray([int(v) for v in y_pred], dtype=np.int64)
    if yt.size == 0:
        raise ValueError("metrics require at least one example")
    if yt.size != yp.size:
        raise ValueError("y_true and y_pred lengths differ")
    for arr, name in ((yt, "y_true"), (yp, "y_pred")):
        if ((arr < 0) | (arr >= _N_CLASSES)).any():
            raise ValueError(f"{name} contains values outside the known classes")
    return yt, yp


def confusion(y_true, y_pred) -> ConfusionMatrix:
    yt, yp = _validate_codes(y_true, y_pred)
    counts = np.zeros((_N_CLASSES, _N_CLASSES), dtype=np.int64)
    np.add.at(counts, (yt, yp), 1)
    return ConfusionMatrix(counts=tuple(tuple(int(v) for v in row) for row in counts))


def metrics(y_true, y_pred) -> MetricsReport:
    """Per-class P/R/F1 derived from the confusion counts, so the two views
    can never disagree."""
    cm = confusion(y_true, y_pred)
    counts = np.asarray(cm.counts, dtype=np.float64)
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    diag = np.diag(counts)
    precision = []
    recall = []
    f1 = []
    for k in range(_N_CLASSES):
        p = diag[k] / col_sums[k] if col_sums[k] > 0 else 0.0
        r = diag[k] / row_sums[k] if row_sums[k] > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precision.append(float(p))
        recall.append(float(r))
        f1.append(float(f))
    n = counts.sum()
    support = tuple(int(v) for v in row_sums)
    return MetricsReport(
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        support=support,
        accuracy=float(diag.sum() / n),
        weighted_precision=float(np.dot(row_sums, precision) / n),
        weighted_recall=float(np.dot(row_sums, recall) / n),
        weighted_f1=float(np.dot(row_sums, f1) / n),
    )


def kfold_indices(labels, k: int, seed: int) -> list[np.ndarray]:
    """Stratified fold assignment: each class is shuffled once and dealt
    round-robin, so per-class fold sizes differ by at most one."""
    y = [int(v) for v in labels]
    n = len(y)
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"need at least k={k} examples, got {n}")
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in sorted(set(y)):
        idx = [i for i, v in enumerate(y) if v == cls]
        if len(idx) < k:
            warnings.warn(
                f"class {cls} has only {len(idx)} members for {k} folds; "
                "distributing best-effort",
                stacklevel=2,
            )
        rng.shuffle(idx)
        for f in range(k):
            folds[f].extend(idx[f::k])
    return [np.asarray(sorted(f), dtype=np.int64) for f in folds]


@dataclass(frozen=True)
class PreparedFold:
    """One fold's rows and the feature state fitted on its training rows."""

    index: int
    train_idx: tuple[int, ...]
    test_idx: tuple[int, ...]
    fitted: FittedFeatures


def prepare_folds(
    ingredients: Ingredients,
    y,
    folds,
    features: FeatureSettings,
    rows=None,
) -> list[PreparedFold]:
    """Fit vocabularies, standardization, and selection on each fold's
    training rows only; nothing is fitted on the held-out rows.

    The folds hold positions in `rows`, the ingredient rows that take part
    (all of them by default); `y` labels every ingredient row."""
    rows = list(range(len(ingredients))) if rows is None else [int(r) for r in rows]
    prepared = []
    for i, fold in enumerate(folds):
        in_test = {int(v) for v in fold}
        test_idx = [rows[j] for j in sorted(in_test)]
        train_idx = [r for j, r in enumerate(rows) if j not in in_test]
        try:
            fitted = fit_features(ingredients, y, features, train_idx)
        except ValueError as exc:
            raise RuntimeError(f"feature fit failed on fold {i}: {exc}") from exc
        prepared.append(PreparedFold(i, tuple(train_idx), tuple(test_idx), fitted))
    return prepared


@dataclass(frozen=True)
class GridCell:
    """One configuration's cross-validated score. converged holds only if
    every class fit of every fold converged; max_iterations is the largest
    per-class iteration count over the fold fits. A failed cell has None
    in every score field and its cause in error."""

    config: ModelConfig
    mean_weighted_f1: float | None
    std_weighted_f1: float | None
    fold_f1: tuple[float, ...]
    error: str | None
    converged: bool | None = None
    max_iterations: int | None = None


@dataclass(frozen=True)
class GridSearchResult:
    cells: tuple[GridCell, ...]
    best: ModelConfig
    best_mean_weighted_f1: float
    folds: tuple[tuple[int, ...], ...]
    k: int
    seed: int


def grid_search(
    grid,
    ingredients: Ingredients,
    y,
    k: int = 5,
    seed: int = 42,
    features: FeatureSettings | None = None,
    rows=None,
) -> GridSearchResult:
    """Evaluate every configuration in `grid`, a sequence of ModelConfig, on
    one shared set of stratified folds; all corpus-dependent feature state is
    refitted inside every fold, so nothing leaks from held-out rows. A grid
    of one configuration is the plain k-fold cross-validation of it.

    The fold is the unit of work: prepare_folds fits each fold's features,
    then every configuration is scored fold by fold, folds outer. A fold's
    model inputs are built by pipeline.SplitInputs on the first
    configuration that reads them and shared by the rest, so a grid without
    count-based kinds never builds count matrices. A configuration that
    fails on a fold records the fold and its cause and is not fitted on
    later folds; the scores do not depend on the order.

    The folds split `rows`, the ingredient rows to search on (all of them by
    default), and hold positions in it; `y` labels every ingredient row.
    Searching on some rows of a corpus reuses the corpus's n-gram count
    tables. The winner maximizes mean weighted F1; exact ties go to the
    smaller C, then to the kind that comes first in pipeline.MODEL_KINDS
    (logreg, svm, nb).
    """
    configs = tuple(grid)
    if not configs:
        raise ValueError("grid is empty")
    if features is None:
        features = FeatureSettings()
    y_rows = y if rows is None else [y[int(r)] for r in rows]
    folds = kfold_indices(y_rows, k, seed)
    fold_f1: list[list[float]] = [[] for _ in configs]
    fold_meta: list[list] = [[] for _ in configs]
    errors: list[str | None] = [None] * len(configs)
    for pf in prepare_folds(ingredients, y, folds, features, rows):
        inputs = SplitInputs(pf.fitted, ingredients, pf.train_idx, pf.test_idx)
        y_train = [int(y[j]) for j in pf.train_idx]
        y_test = [int(y[j]) for j in pf.test_idx]
        for c, config in enumerate(configs):
            if errors[c] is not None:
                continue  # a configuration that failed is not fitted again
            try:
                X_train, X_test = inputs.get(config.kind)
                model = fit_config_model(config, X_train, y_train)
                report = metrics(y_test, predict(model, X_test))
            except ValueError as exc:
                errors[c] = f"fold {pf.index}: {exc}"
                continue
            fold_f1[c].append(report.weighted_f1)
            fold_meta[c].extend(model.train_meta)
    cells = []
    for config, f1, meta, error in zip(configs, fold_f1, fold_meta, errors):
        if error is None:
            arr = np.asarray(f1)
            cells.append(
                GridCell(
                    config=config,
                    mean_weighted_f1=float(arr.mean()),
                    std_weighted_f1=float(arr.std()),
                    fold_f1=tuple(float(v) for v in f1),
                    error=None,
                    converged=all(m.converged for m in meta),
                    max_iterations=max(m.iterations for m in meta),
                )
            )
        else:
            cells.append(
                GridCell(
                    config=config,
                    mean_weighted_f1=None,
                    std_weighted_f1=None,
                    fold_f1=(),
                    error=error,
                )
            )
    scored = [(i, c) for i, c in enumerate(cells) if c.error is None]
    if not scored:
        causes = "; ".join(f"{c.config.describe()}: {c.error}" for c in cells)
        raise RuntimeError(f"every grid configuration failed: {causes}")
    best_i, best_cell = min(
        scored,
        key=lambda item: (
            -item[1].mean_weighted_f1,
            item[1].config.C,
            MODEL_KINDS.index(item[1].config.kind),
            item[0],
        ),
    )
    return GridSearchResult(
        cells=tuple(cells),
        best=best_cell.config,
        best_mean_weighted_f1=best_cell.mean_weighted_f1,
        folds=tuple(tuple(int(v) for v in f) for f in folds),
        k=k,
        seed=seed,
    )


@dataclass(frozen=True)
class BucketEntry:
    index: int
    text: str
    true_label: Label
    predicted_label: Label
    score: float
    scores: tuple[float, ...]
    top_features: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class ErrorReport:
    """Confusion-cell example buckets plus per-class top model weights."""

    classes: tuple[int, ...]
    buckets: tuple[tuple[tuple[int, int], tuple[BucketEntry, ...]], ...]
    top_weights: tuple[tuple[int, tuple[tuple[str, float], ...]], ...]

    def bucket(self, true_label, predicted_label) -> tuple[BucketEntry, ...]:
        key = (int(true_label), int(predicted_label))
        for cell, entries in self.buckets:
            if cell == key:
                return entries
        raise KeyError(key)


def error_report(
    model: LinearModel,
    features: FeatureMatrix,
    names,
    tweets,
    top_n: int = 10,
) -> ErrorReport:
    """Rank each confusion cell's examples by the predicted class's score
    and attach each example's strongest weight*value contributions. names
    holds the (block, name) of each column of features, as
    FittedFeatures.input_names gives them."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    tweets = list(tweets)
    if features.n_rows != len(tweets):
        raise ValueError("feature rows and tweets disagree on count")
    if len(names) != features.n_cols:
        raise ValueError(f"{len(names)} column names for {features.n_cols} feature columns")
    labels = [f"{block}:{name}" for block, name in names]
    y_true = []
    for t in tweets:
        if t.label is None:
            raise ValueError("error_report requires labeled tweets")
        y_true.append(int(t.label))
    preds, scores = predict(model, features, return_scores=True)
    class_pos = {int(c): i for i, c in enumerate(model.classes)}
    X = features.matrix
    buckets = []
    for true_cls in LABELS:
        for pred_cls in LABELS:
            member_idx = [
                i
                for i in range(len(tweets))
                if y_true[i] == int(true_cls) and int(preds[i]) == int(pred_cls)
            ]
            kpos = class_pos.get(int(pred_cls))
            if kpos is None:
                buckets.append(((int(true_cls), int(pred_cls)), ()))
                continue
            member_idx.sort(key=lambda i: (-scores[i, kpos], i))
            entries = []
            for i in member_idx[:top_n]:
                row = slice(X.indptr[i], X.indptr[i + 1])
                cols = X.indices[row]
                contrib = X.data[row] * model.weights[kpos, cols]
                order = np.argsort(-np.abs(contrib))[:5]
                top_feats = tuple(
                    (labels[int(cols[j])], float(contrib[j]))
                    for j in order
                )
                entries.append(
                    BucketEntry(
                        index=i,
                        text=tweets[i].text,
                        true_label=Label(y_true[i]),
                        predicted_label=Label(int(preds[i])),
                        score=float(scores[i, kpos]),
                        scores=tuple(float(v) for v in scores[i]),
                        top_features=top_feats,
                    )
                )
            buckets.append(((int(true_cls), int(pred_cls)), tuple(entries)))
    top_weights = []
    for cls in LABELS:
        kpos = class_pos.get(int(cls))
        if kpos is None:
            top_weights.append((int(cls), ()))
            continue
        w = model.weights[kpos]
        order = np.argsort(-np.abs(w))[:top_n]
        pairs = tuple(
            (labels[int(j)], float(w[j]))
            for j in order
            if w[j] != 0.0
        )
        top_weights.append((int(cls), pairs))
    return ErrorReport(
        classes=tuple(int(c) for c in model.classes),
        buckets=tuple(buckets),
        top_weights=tuple(top_weights),
    )


_WEIGHTED_NOTE = "averages are weighted by true-class support"


def metrics_report_text(report: MetricsReport) -> str:
    lines = [f"# {_WEIGHTED_NOTE}"]
    for k, label in enumerate(LABELS):
        lines.append(
            f"{label.display:<9} precision={report.precision[k]:.6f} "
            f"recall={report.recall[k]:.6f} f1={report.f1[k]:.6f} "
            f"support={report.support[k]}"
        )
    lines.append(
        f"weighted  precision={report.weighted_precision:.6f} "
        f"recall={report.weighted_recall:.6f} f1={report.weighted_f1:.6f} "
        f"support={report.n}"
    )
    lines.append(f"accuracy={report.accuracy:.6f}")
    return "\n".join(lines) + "\n"


def metrics_report_csv(report: MetricsReport) -> str:
    rows = ["metric,value"]
    for k, label in enumerate(LABELS):
        name = label.display
        rows.append(f"precision_{name},{report.precision[k]:.6f}")
        rows.append(f"recall_{name},{report.recall[k]:.6f}")
        rows.append(f"f1_{name},{report.f1[k]:.6f}")
        rows.append(f"support_{name},{report.support[k]}")
    rows.append(f"weighted_precision,{report.weighted_precision:.6f}")
    rows.append(f"weighted_recall,{report.weighted_recall:.6f}")
    rows.append(f"weighted_f1,{report.weighted_f1:.6f}")
    rows.append(f"accuracy,{report.accuracy:.6f}")
    rows.append(f"n,{report.n}")
    return "\n".join(rows) + "\n"


def confusion_report_text(cm: ConfusionMatrix) -> str:
    names = [label.display for label in LABELS]
    lines = ["# rows = true class, columns = predicted class", "counts"]
    header = f"{'':<10}" + "".join(f"{n:>11}" for n in names)
    lines.append(header)
    for name, row in zip(names, cm.counts):
        lines.append(f"{name:<10}" + "".join(f"{v:>11}" for v in row))
    lines.append("row-normalized")
    lines.append(header)
    for name, row in zip(names, cm.normalized):
        lines.append(f"{name:<10}" + "".join(f"{v:>11.6f}" for v in row))
    return "\n".join(lines) + "\n"


def confusion_report_csv(cm: ConfusionMatrix) -> str:
    names = [label.display for label in LABELS]
    rows = ["kind,true," + ",".join(names)]
    for name, row in zip(names, cm.counts):
        rows.append(f"counts,{name}," + ",".join(str(v) for v in row))
    for name, row in zip(names, cm.normalized):
        rows.append(f"normalized,{name}," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(rows) + "\n"


def grid_report_text(result: GridSearchResult) -> str:
    lines = [
        f"# {result.k}-fold cross-validation, seed {result.seed}; "
        f"score is support-weighted F1",
    ]
    for cell in result.cells:
        marker = "*" if cell.config == result.best else " "
        if cell.error is None:
            lines.append(
                f"{marker} {cell.config.describe():<50} "
                f"mean_f1={cell.mean_weighted_f1:.6f} std={cell.std_weighted_f1:.6f} "
                f"converged={int(cell.converged)} max_iterations={cell.max_iterations}"
            )
        else:
            lines.append(f"{marker} {cell.config.describe():<50} error: {cell.error}")
    lines.append(f"best: {result.best.describe()}")
    return "\n".join(lines) + "\n"


def grid_report_csv(result: GridSearchResult) -> str:
    """One row per cell; error is the last field and is empty on a scored
    row, so a scored row ends with a comma."""
    rows = [
        "model,penalty,C,class_weight,mean_weighted_f1,std_weighted_f1,best,"
        "converged,max_iterations,error"
    ]
    for cell in result.cells:
        c = cell.config
        best = "1" if c == result.best else "0"
        if cell.error is None:
            rows.append(
                f"{c.kind},{c.penalty},{c.C:g},{c.class_weight},"
                f"{cell.mean_weighted_f1:.6f},{cell.std_weighted_f1:.6f},{best},"
                f"{int(cell.converged)},{cell.max_iterations},"
            )
        else:
            err = cell.error.replace(",", ";")
            rows.append(f"{c.kind},{c.penalty},{c.C:g},{c.class_weight},,,{best},,,{err}")
    return "\n".join(rows) + "\n"


def error_report_text(report: ErrorReport) -> str:
    lines = ["# buckets ranked by the predicted class's score, descending"]
    for (true_code, pred_code), entries in report.buckets:
        if not entries:
            continue
        t, p = Label(true_code).display, Label(pred_code).display
        lines.append(f"[true={t} predicted={p}] {len(entries)} shown")
        for e in entries:
            feats = ", ".join(f"{name}={v:+.4f}" for name, v in e.top_features)
            lines.append(f"  score={e.score:.6f} text={e.text!r}")
            lines.append(f"    contributions: {feats}")
    lines.append("# per-class highest-magnitude weights")
    for code, pairs in report.top_weights:
        rendered = ", ".join(f"{name}={w:+.4f}" for name, w in pairs)
        lines.append(f"{Label(code).display}: {rendered}")
    return "\n".join(lines) + "\n"


def error_report_json(report: ErrorReport) -> str:
    payload = {
        "classes": list(report.classes),
        "buckets": [
            {
                "true": true_code,
                "predicted": pred_code,
                "entries": [
                    {
                        "index": e.index,
                        "text": e.text,
                        "score": e.score,
                        "scores": list(e.scores),
                        "top_features": [[name, v] for name, v in e.top_features],
                    }
                    for e in entries
                ],
            }
            for (true_code, pred_code), entries in report.buckets
        ],
        "top_weights": [
            {"class": code, "weights": [[name, w] for name, w in pairs]}
            for code, pairs in report.top_weights
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
