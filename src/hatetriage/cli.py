"""Command-line orchestration of the full pipeline.

Subcommands: ingest, tagger-train, train, evaluate, predict, report.
Exit codes: 0 success, 1 pipeline error, 2 usage or config error. Every
command is deterministic given (config, seed, inputs); timings go to the
console, never into artifact files, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import importlib.resources
import os
import sys
import time
from pathlib import Path

from .config import PipelineConfig, load_config
from .corpus import LABELS, Label, corpus_stats, parse_corpus, stats_report_csv, stats_report_text, stratified_split
from .evalharness import (
    confusion,
    confusion_report_csv,
    confusion_report_text,
    error_report,
    error_report_json,
    error_report_text,
    grid_report_csv,
    grid_report_text,
    grid_search,
    metrics,
    metrics_report_csv,
    metrics_report_text,
)
from .lexfeat import SentimentLexicon
from .linmodel import predict as model_predict
from .pipeline import (
    PipelineModel,
    extract_ingredients,
    fit_config_model,
    fit_features,
    load_pipeline,
    model_input_matrix,
    pipeline_predict,
    save_pipeline,
    train_input_matrix,
)
from .postag import load_model as load_tag_model
from .postag import parse_conll, save_model as save_tag_model, train_tagger

# headline metrics published with the public dataset release; evaluate
# prints the in-sample deltas against them
REFERENCE_WEIGHTED = {"precision": 0.91, "recall": 0.90, "f1": 0.90}
REFERENCE_HATE = {"precision": 0.44, "recall": 0.61}

# predict runs the pipeline once per this many input lines: large enough that
# the per-call cost of feature assembly is shared, small enough to bound memory
PREDICT_BATCH = 256


class UsageError(Exception):
    """Bad invocation or configuration; exits with code 2."""


class StageError(Exception):
    """A pipeline stage failed; exits with code 1."""


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (UsageError, StageError):
        raise
    except Exception as exc:
        raise StageError(f"stage {name}: {exc}") from exc


def _require_file(path: str, what: str) -> Path:
    if not path:
        raise UsageError(f"config does not set a {what} path")
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} path does not exist: {p}")
    return p


def _read_config(path: str) -> PipelineConfig:
    return load_config(_require_file(path, "config"))


def _load_lexicon(config: PipelineConfig) -> SentimentLexicon:
    if config.lexicon:
        return SentimentLexicon.load(_require_file(config.lexicon, "lexicon"))
    data = importlib.resources.files("hatetriage.data").joinpath("sentiment_lexicon.tsv")
    return SentimentLexicon.from_text(data.read_text(encoding="utf-8"))


def _load_tagger(config: PipelineConfig):
    if config.pos_model:
        return load_tag_model(_require_file(config.pos_model, "pos_model").read_bytes())
    data = importlib.resources.files("hatetriage.data").joinpath("pos_model.txt")
    return load_tag_model(data.read_bytes())


def _parse_corpus_bytes(data: bytes):
    try:
        return parse_corpus(data)
    except UnicodeDecodeError as exc:
        # the decoder names a byte offset into the bytes it decoded
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line} is not UTF-8: {exc}") from exc


def _load_corpus(config: PipelineConfig):
    path = _require_file(config.corpus, "corpus")
    return _stage("ingest", _parse_corpus_bytes, path.read_bytes())


def _labeled(records):
    kept = [r for r in records if r.label is not None]
    if not kept:
        raise StageError("stage ingest: corpus contains no labeled records")
    return kept


def _out_dir(config: PipelineConfig) -> Path:
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"output_dir cannot be created: {out} ({exc.strerror})") from None
    return out


def _open_output(path: Path, mode: str):
    """`path` opened for writing; one that cannot be opened is a usage error."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise UsageError(f"output path cannot be opened: {path} ({exc.strerror})") from None


def _write(path: Path, data: str | bytes) -> None:
    with _open_output(path, "wb" if isinstance(data, bytes) else "w") as f:
        f.write(data)


def cmd_ingest(args) -> int:
    config = _read_config(args.config)
    records = _load_corpus(config)
    stats = _stage("stats", corpus_stats, records)
    out = _out_dir(config)
    _write(out / "corpus_stats.txt", stats_report_text(stats))
    _write(out / "corpus_stats.csv", stats_report_csv(stats))
    print(stats_report_text(stats).rstrip())
    print(f"wrote {out / 'corpus_stats.txt'} and {out / 'corpus_stats.csv'}")
    return 0


def cmd_tagger_train(args) -> int:
    conll = Path(args.conll)
    if not conll.is_file():
        raise UsageError(f"tagged corpus path does not exist: {conll}")
    sentences = _stage("parse", parse_conll, conll.read_text(encoding="utf-8"))
    model = _stage("train", train_tagger, sentences, epochs=args.epochs, seed=args.seed)
    _write(Path(args.out), save_tag_model(model))
    print(f"trained on {len(sentences)} sentences; wrote {args.out}")
    return 0


def _prepare(config: PipelineConfig):
    records = _labeled(_load_corpus(config))
    tagger = _stage("tagger", _load_tagger, config)
    lexicon = _stage("lexicon", _load_lexicon, config)
    texts = [r.text for r in records]
    y = [int(r.label) for r in records]
    t0 = time.perf_counter()
    ingredients = _stage("features", extract_ingredients, texts, tagger, lexicon)
    print(f"extracted ingredients for {len(records)} tweets "
          f"in {time.perf_counter() - t0:.1f}s")
    return records, tagger, lexicon, ingredients, y


def _per_class(metas) -> str:
    """Per-class solver iterations, comma-separated in class order."""
    return ",".join(str(m.iterations) for m in metas)


def cmd_train(args) -> int:
    config = _read_config(args.config)
    records, tagger, lexicon, ingredients, y = _prepare(config)
    settings = config.feature_settings()
    model_config = config.model_config()
    t0 = time.perf_counter()
    fitted = _stage("assemble", fit_features, ingredients, y, settings)
    fm = _stage("assemble", train_input_matrix, model_config.kind, fitted, ingredients)
    model = _stage("fit", fit_config_model, model_config, fm, y)
    print(f"fitted {model_config.describe()} in {time.perf_counter() - t0:.1f}s")
    pm = PipelineModel(
        tagger=tagger, lexicon=lexicon, fitted=fitted, model=model, config=model_config
    )
    out = _out_dir(config)
    _write(out / "model.bin", save_pipeline(pm))

    in_sample = model_predict(model, fm)
    cm = confusion(y, in_sample)
    # the registry columns the model reads: for naive Bayes only n-gram ones
    names = fitted.input_names(model_config.kind)
    report = [
        f"model={model_config.describe()}",
        f"n_train={len(records)}",
        f"n_features_total={len(fitted.registry)}",
        f"n_features_selected={len(names)}",
        f"converged={model.converged}",
        f"iterations={_per_class(model.train_meta)}",
    ]
    if fitted.selection_meta is not None:
        report += [
            f"selection_converged={all(m.converged for m in fitted.selection_meta)}",
            f"selection_iterations={_per_class(fitted.selection_meta)}",
        ]
    report += [
        "in-sample confusion:",
        confusion_report_text(cm).rstrip(),
    ]
    _write(out / "train_report.txt", "\n".join(report) + "\n")
    rows = [f"{i},{block},{name}" for i, (block, name) in enumerate(names)]
    _write(out / "selected_features.csv", "index,block,name\n" + "\n".join(rows) + "\n")
    print(f"wrote {out / 'model.bin'}, {out / 'train_report.txt'}, "
          f"{out / 'selected_features.csv'}")
    return 0


def _reference_delta_text(in_sample_report) -> str:
    lines = ["# in-sample deltas against the dataset release's headline metrics"]
    for key, ref in REFERENCE_WEIGHTED.items():
        got = getattr(in_sample_report, f"weighted_{key}")
        lines.append(f"delta_weighted_{key} = {got - ref:+.6f} (got {got:.6f}, reference {ref:.2f})")
    hate = Label.HATE
    for key, ref in REFERENCE_HATE.items():
        got = getattr(in_sample_report, key)[int(hate)]
        lines.append(f"delta_hate_{key} = {got - ref:+.6f} (got {got:.6f}, reference {ref:.2f})")
    return "\n".join(lines) + "\n"


def cmd_evaluate(args) -> int:
    config = _read_config(args.config)
    records, tagger, lexicon, ingredients, y = _prepare(config)
    settings = config.feature_settings()
    out = _out_dir(config)

    train_records, holdout_records = _stage(
        "split", stratified_split, records, config.holdout_fraction, config.seed
    )
    position = {id(r): i for i, r in enumerate(records)}
    tr_idx = [position[id(r)] for r in train_records]
    ho_idx = [position[id(r)] for r in holdout_records]
    y_tr = [y[i] for i in tr_idx]
    y_ho = [y[i] for i in ho_idx]

    t0 = time.perf_counter()
    grid_result = _stage(
        "grid",
        grid_search,
        config.grid(),
        ingredients,
        y,
        k=config.cv_folds,
        seed=config.seed,
        features=settings,
        rows=tr_idx,
    )
    print(f"grid search over {len(grid_result.cells)} configurations "
          f"in {time.perf_counter() - t0:.1f}s")
    best = grid_result.best
    print(f"best configuration: {best.describe()}")
    _write(out / "grid.txt", grid_report_text(grid_result))
    _write(out / "grid.csv", grid_report_csv(grid_result))

    # refit best on the training side, score the untouched holdout
    fitted_tr = _stage("assemble", fit_features, ingredients, y, settings, tr_idx)
    X_tr = _stage("assemble", train_input_matrix, best.kind, fitted_tr, ingredients, tr_idx)
    X_ho = _stage("assemble", model_input_matrix, best.kind, fitted_tr, ingredients, ho_idx)
    model_tr = _stage("fit", fit_config_model, best, X_tr, y_tr)
    pred_ho = model_predict(model_tr, X_ho)
    ho_report = metrics(y_ho, pred_ho)
    _write(out / "holdout_metrics.txt", metrics_report_text(ho_report))
    _write(out / "holdout_metrics.csv", metrics_report_csv(ho_report))
    ho_cm = confusion(y_ho, pred_ho)
    _write(out / "holdout_confusion.txt", confusion_report_text(ho_cm))
    _write(out / "holdout_confusion.csv", confusion_report_csv(ho_cm))
    print(f"holdout weighted F1: {ho_report.weighted_f1:.6f}")

    # full-data in-sample view: fit on everything, predict everything
    fitted_all = _stage("assemble", fit_features, ingredients, y, settings)
    X_all = _stage("assemble", train_input_matrix, best.kind, fitted_all, ingredients)
    model_all = _stage("fit", fit_config_model, best, X_all, y)
    pred_all = model_predict(model_all, X_all)
    in_report = metrics(y, pred_all)
    _write(out / "insample_metrics.txt", metrics_report_text(in_report))
    _write(out / "insample_metrics.csv", metrics_report_csv(in_report))
    in_cm = confusion(y, pred_all)
    _write(out / "insample_confusion.txt", confusion_report_text(in_cm))
    _write(out / "insample_confusion.csv", confusion_report_csv(in_cm))
    deltas = _reference_delta_text(in_report)
    _write(out / "reference_deltas.txt", deltas)
    print(deltas.rstrip())
    print(f"wrote evaluation artifacts to {out}")
    return 0


def _write_predictions(sink, pm: PipelineModel, texts: list[str]) -> None:
    """One output line per text, in order: label, then a score per class."""
    if not texts:
        return
    labels, scores = _stage("predict", pipeline_predict, pm, texts)
    # the label's name, then the score of each class ("nan" if the model lacks it)
    class_pos = {int(c): i for i, c in enumerate(pm.model.classes)}
    line = "\t".join(["{0}", *(f"{{{class_pos[c] + 1}:.6f}}" if c in class_pos else "nan"
                                for c in LABELS)]) + "\n"
    names = {int(c): c.display for c in LABELS}
    sink.write("".join(line.format(names[label], *row)
                       for label, row in zip(labels.tolist(), scores.tolist())))


def cmd_predict(args) -> int:
    model_path = Path(args.model)
    if not model_path.is_file():
        raise UsageError(f"model path does not exist: {model_path}")
    pm = _stage("load", load_pipeline, model_path.read_bytes())

    if args.input:
        in_path = Path(args.input)
        if not in_path.is_file():
            raise UsageError(f"input path does not exist: {in_path}")
        # opening the output for writing would empty the input before it is read
        if args.output and Path(args.output).exists() and os.path.samefile(in_path, args.output):
            raise UsageError(f"output path is the input file: {args.output}")
    sink = _open_output(Path(args.output), "w") if args.output else sys.stdout
    stream = open(in_path, "rb") if args.input else sys.stdin.buffer
    batch: list[str] = []
    try:
        for lineno, raw in enumerate(stream, start=1):
            try:
                # a byte-order mark that starts the input is not part of its first tweet
                text = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
                batch.append(text.rstrip("\r\n"))
            except UnicodeDecodeError as exc:
                # the lines before the bad one are still answered
                _write_predictions(sink, pm, batch)
                raise StageError(f"stage predict: line {lineno} is not UTF-8: {exc}") from exc
            if len(batch) == PREDICT_BATCH:
                _write_predictions(sink, pm, batch)
                batch = []
        _write_predictions(sink, pm, batch)
    finally:
        if args.input:
            stream.close()
        if args.output:
            sink.close()
    return 0


def cmd_report(args) -> int:
    config = _read_config(args.config)
    model_path = Path(args.model)
    if not model_path.is_file():
        raise UsageError(f"model path does not exist: {model_path}")
    pm = _stage("load", load_pipeline, model_path.read_bytes())
    records = _labeled(_load_corpus(config))
    texts = [r.text for r in records]
    ingredients = _stage("features", extract_ingredients, texts, pm.tagger, pm.lexicon)
    fm = _stage("assemble", model_input_matrix, pm.config.kind, pm.fitted, ingredients)
    names = pm.fitted.input_names(pm.config.kind)
    report = _stage("report", error_report, pm.model, fm, names, records, config.report_top_n)
    out = _out_dir(config)
    _write(out / "error_report.txt", error_report_text(report))
    _write(out / "error_report.json", error_report_json(report))
    print(f"wrote {out / 'error_report.txt'} and {out / 'error_report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatetriage",
        description="Three-way tweet classification: ingest, train, evaluate, predict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse the corpus and report label statistics")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("tagger-train", help="train a POS tagger from word<TAB>tag lines")
    p.add_argument("--conll", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_tagger_train)

    p = sub.add_parser("train", help="fit the configured model on the full corpus")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="grid-search with cross-validation and a holdout")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="label one tweet per input line")
    p.add_argument("--model", required=True)
    p.add_argument("--input", help="input file (default: stdin)")
    p.add_argument("--output", help="output file (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="error buckets and top weights for a trained model")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # config parse/validation errors surface here
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
