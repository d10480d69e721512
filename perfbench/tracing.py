"""In-memory span tracer that wraps the package's public functions from
outside, without editing the package.

Every module of the package that holds a reference to a traced function
gets the wrapper in its place, so direct imports (`from .pipeline import
fit_features` in cli and evalharness), calls through a module global
(`tokenize` inside textproc) and call-time imports (`select_l1` importing
`linmodel.fit_logreg`) all record spans. Spans live in a list until the
workload ends; counts are read from arguments and return values after a
span closes, so their cost lands in the tracing overhead, not in the span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "hatetriage"

# (module, function) pairs wrapped by the traced run
TRACED = (
    ("corpus", "parse_corpus"),
    ("textproc", "tokenize"),
    ("textproc", "preprocess"),
    ("textproc", "unstemmed_words"),
    ("postag", "tag"),
    ("lexfeat", "sentiment_scores"),
    ("lexfeat", "surface_features"),
    ("lexfeat", "readability"),
    ("pipeline", "extract_ingredients"),
    ("pipeline", "fit_features"),
    ("pipeline", "feature_matrix"),
    ("pipeline", "count_matrix"),
    ("pipeline", "model_input_matrix"),
    ("pipeline", "fit_config_model"),
    ("pipeline", "pipeline_predict"),
    ("pipeline", "save_pipeline"),
    ("pipeline", "load_pipeline"),
    ("vectorize", "fit_vocab"),
    ("vectorize", "transform_tfidf"),
    ("vectorize", "transform_counts"),
    ("vectorize", "assemble_features"),
    ("vectorize", "select_l1"),
    ("linmodel", "fit_logreg"),
    ("linmodel", "fit_linear_svm"),
    ("linmodel", "fit_multinomial_nb"),
    ("linmodel", "predict"),
    ("linmodel", "predict_scores"),
    ("evalharness", "prepare_folds"),
    ("evalharness", "grid_search"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans; None for a root span


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    distinct_words: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def set(self, key: str, value: float) -> None:
        self.counts[key] = value

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, qualname: str, fn):
        observe = _OBSERVERS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            result = self.span(qualname, fn, *args, **kwargs)
            if observe is not None:
                observe(self, self.spans[index], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function inside the package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, func_name in TRACED:
            home = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _observe_parse(tr: Tracer, span: Span, args, kwargs, records) -> None:
    tr.add("rows_labeled", sum(1 for r in records if r.label is not None))


def _observe_extract(tr: Tracer, span: Span, args, kwargs, ingredients) -> None:
    tr.add("tweets_extracted", len(ingredients))


def _observe_unstemmed(tr: Tracer, span: Span, args, kwargs, words) -> None:
    tr.add("word_tokens", len(words))
    tr.distinct_words.update(words)


def _observe_tag(tr: Tracer, span: Span, args, kwargs, tags) -> None:
    model = _arg(args, kwargs, 0, "model")
    tokens = _arg(args, kwargs, 1, "tokens")
    tr.add("tokens_tagged", len(tokens))
    tr.add("tagdict_hits", sum(1 for t in tokens if t.lower() in model.tagdict))


def _observe_fitted(tr: Tracer, span: Span, args, kwargs, fitted) -> None:
    tr.set("word_vocab_size", len(fitted.word_vocab))
    tr.set("pos_vocab_size", len(fitted.pos_vocab))


def _observe_load(tr: Tracer, span: Span, args, kwargs, pm) -> None:
    _observe_fitted(tr, span, args, kwargs, pm.fitted)
    tr.set("artifact_bytes", len(_arg(args, kwargs, 0, "data")))


def _observe_save(tr: Tracer, span: Span, args, kwargs, data) -> None:
    tr.set("artifact_bytes", len(data))


def _observe_assemble(tr: Tracer, span: Span, args, kwargs, result) -> None:
    matrix = result[0].matrix
    tr.set("matrix_nnz", max(tr.counts.get("matrix_nnz", 0), matrix.nnz))
    tr.set("matrix_cols", max(tr.counts.get("matrix_cols", 0), matrix.shape[1]))


def _observe_select(tr: Tracer, span: Span, args, kwargs, columns) -> None:
    tr.set("selected_columns", len(columns))


def _observe_solver(kind: str):
    def observe(tr: Tracer, span: Span, args, kwargs, model) -> None:
        key = kind
        if kind == "fit_logreg":
            # L1 and L2 logistic fits share one function; split by penalty
            key = f"fit_logreg_{model.penalty}"
            span.name = f"linmodel.{key}"
        tr.add(f"{key}_class_fits", len(model.train_meta))
        tr.add(f"{key}_iterations", sum(m.iterations for m in model.train_meta))
        tr.add(f"{key}_converged", sum(1 for m in model.train_meta if m.converged))
    return observe


def _observe_grid(tr: Tracer, span: Span, args, kwargs, result) -> None:
    tr.add("grid_cells_scored", sum(1 for c in result.cells if c.error is None))
    tr.add("grid_cells_failed", sum(1 for c in result.cells if c.error is not None))


_OBSERVERS = {
    "corpus.parse_corpus": _observe_parse,
    "pipeline.extract_ingredients": _observe_extract,
    "textproc.unstemmed_words": _observe_unstemmed,
    "postag.tag": _observe_tag,
    "pipeline.fit_features": _observe_fitted,
    "pipeline.load_pipeline": _observe_load,
    "pipeline.save_pipeline": _observe_save,
    "vectorize.assemble_features": _observe_assemble,
    "vectorize.select_l1": _observe_select,
    "linmodel.fit_logreg": _observe_solver("fit_logreg"),
    "linmodel.fit_linear_svm": _observe_solver("fit_linear_svm"),
    "evalharness.grid_search": _observe_grid,
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _has_ancestor(spans: list[Span], span: Span, names: frozenset[str]) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


_PREDICT = frozenset({"linmodel.predict", "linmodel.predict_scores"})


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values from the spans and counts of one traced
    command; the worker adds the trace.* group and the untraced
    pipeline.predict_* call metrics."""
    spans = tracer.spans
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    predict_s = 0.0
    fold_fits = 0
    for s, own in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_total[s.name] = self_total.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name in _PREDICT and not _has_ancestor(spans, s, _PREDICT):
            predict_s += s.end - s.start
        if s.name == "pipeline.fit_config_model" and _has_ancestor(
            spans, s, frozenset({"evalharness.grid_search"})
        ):
            fold_fits += 1
    c = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "corpus.parse_corpus_s": total.get("corpus.parse_corpus", 0.0),
        "corpus.rows_labeled": c.get("rows_labeled", 0),
        "textproc.tokenize_s": total.get("textproc.tokenize", 0.0),
        "textproc.tokenize_calls_per_tweet": ratio(
            calls.get("textproc.tokenize", 0), c.get("tweets_extracted", 0)
        ),
        "textproc.preprocess_s": total.get("textproc.preprocess", 0.0),
        "textproc.preprocess_self_s": self_total.get("textproc.preprocess", 0.0),
        "textproc.unstemmed_words_s": total.get("textproc.unstemmed_words", 0.0),
        "textproc.word_tokens": c.get("word_tokens", 0),
        "textproc.distinct_words": len(tracer.distinct_words),
        "postag.tag_s": total.get("postag.tag", 0.0),
        "postag.tokens_tagged": c.get("tokens_tagged", 0),
        "postag.tagdict_hit_ratio": ratio(c.get("tagdict_hits", 0), c.get("tokens_tagged", 0)),
        "lexfeat.sentiment_scores_s": total.get("lexfeat.sentiment_scores", 0.0),
        "lexfeat.surface_features_s": total.get("lexfeat.surface_features", 0.0),
        "lexfeat.readability_s": total.get("lexfeat.readability", 0.0),
        "pipeline.extract_ingredients_s": total.get("pipeline.extract_ingredients", 0.0),
        "pipeline.extract_ingredients_self_s": self_total.get("pipeline.extract_ingredients", 0.0),
        "pipeline.fit_features_s": total.get("pipeline.fit_features", 0.0),
        "pipeline.fit_features_self_s": self_total.get("pipeline.fit_features", 0.0),
        "pipeline.model_input_matrix_s": total.get("pipeline.model_input_matrix", 0.0),
        "pipeline.model_input_matrix_calls": calls.get("pipeline.model_input_matrix", 0),
        "pipeline.fit_config_model_s": total.get("pipeline.fit_config_model", 0.0),
        "pipeline.pipeline_predict_calls": calls.get("pipeline.pipeline_predict", 0),
        "pipeline.save_pipeline_s": total.get("pipeline.save_pipeline", 0.0),
        "pipeline.load_pipeline_s": total.get("pipeline.load_pipeline", 0.0),
        "pipeline.artifact_bytes": c.get("artifact_bytes", 0),
        "vectorize.fit_vocab_s": total.get("vectorize.fit_vocab", 0.0),
        "vectorize.word_vocab_size": c.get("word_vocab_size", 0),
        "vectorize.pos_vocab_size": c.get("pos_vocab_size", 0),
        "vectorize.transform_tfidf_s": total.get("vectorize.transform_tfidf", 0.0),
        "vectorize.transform_tfidf_calls": calls.get("vectorize.transform_tfidf", 0),
        "vectorize.assemble_features_s": total.get("vectorize.assemble_features", 0.0),
        "vectorize.matrix_nnz": c.get("matrix_nnz", 0),
        "vectorize.matrix_cols": c.get("matrix_cols", 0),
        "vectorize.select_l1_s": total.get("vectorize.select_l1", 0.0),
        "vectorize.selected_columns": c.get("selected_columns", 0),
        "linmodel.fit_multinomial_nb_s": total.get("linmodel.fit_multinomial_nb", 0.0),
        "linmodel.predict_s": predict_s,
        "evalharness.prepare_folds_s": total.get("evalharness.prepare_folds", 0.0),
        "evalharness.grid_search_s": total.get("evalharness.grid_search", 0.0),
        "evalharness.grid_cells_scored": c.get("grid_cells_scored", 0),
        "evalharness.grid_cells_failed": c.get("grid_cells_failed", 0),
        "evalharness.fold_model_fits": fold_fits,
    }
    for solver in ("fit_logreg_l1", "fit_logreg_l2", "fit_linear_svm"):
        m[f"linmodel.{solver}_s"] = total.get(f"linmodel.{solver}", 0.0)
        fits = c.get(f"{solver}_class_fits", 0)
        m[f"linmodel.{solver}_iterations"] = ratio(c.get(f"{solver}_iterations", 0), fits)
        m[f"linmodel.{solver}_converged_share"] = ratio(c.get(f"{solver}_converged", 0), fits)
    return m
