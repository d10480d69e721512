"""The process that runs one workload against the package (see run.py).

    python3 worker.py probe <src> <config|model> <path>
        set up as the CLI does, then print the monotonic clock on stdout
    python3 worker.py train <src> <config>
        `hatetriage train` once (the untimed model for predict-stream)
    python3 worker.py measure <src> <job.json>
        run the workload as job.json describes; write <workdir>/result.json

The package is imported from <src> and driven only through
`hatetriage.cli.main` and public module functions.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# minimum single-tweet samples, so that p99 has at least ten beyond it
ONE_CALL_SAMPLES = 1100
BATCH_REPEATS = 3
PREDICT_CALL_METRICS = ("pipeline.predict_batch_tweets_per_s", "pipeline.predict_one_p50_ms",
                        "pipeline.predict_one_p99_ms")


def _probe(kind: str, path: str) -> None:
    import importlib.resources

    from hatetriage import cli  # noqa: F401  (import cost is part of set-up)
    from hatetriage.config import load_config
    from hatetriage.lexfeat import SentimentLexicon
    from hatetriage.pipeline import load_pipeline
    from hatetriage.postag import load_model

    if kind == "model":
        load_pipeline(Path(path).read_bytes())
    else:
        load_config(path)
        data = importlib.resources.files("hatetriage.data")
        load_model(data.joinpath("pos_model.txt").read_bytes())
        SentimentLexicon.from_text(data.joinpath("sentiment_lexicon.tsv").read_text(encoding="utf-8"))
    print(repr(time.monotonic()))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def weighted_f1(truth: list[int], predicted: list[int]) -> float:
    """Support-weighted F1 over the classes present in truth."""
    total = 0.0
    for cls in sorted(set(truth)):
        tp = sum(1 for t, p in zip(truth, predicted) if t == cls and p == cls)
        support = sum(1 for t in truth if t == cls)
        claimed = sum(1 for p in predicted if p == cls)
        if tp:
            precision, recall = tp / claimed, tp / support
            total += support * 2 * precision * recall / (precision + recall)
    return total / len(truth)


class Run:
    """Operation counts, failures and artifact digests of one workload."""

    def __init__(self, job: dict):
        self.job = job
        self.workdir = Path(job["workdir"])
        self.out = self.workdir / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.tracer = None  # set while the traced repetition runs

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def command(self, argv: list[str], artifacts: list[str]) -> float:
        """Run one CLI command in-process; check exit code and that every
        artifact is byte-identical to the previous repetition's."""
        from hatetriage.cli import main

        start = time.perf_counter()
        code = self.tracer.span("cli.main", main, argv) if self.tracer else main(argv)
        wall = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.fail(1, f"{argv[0]} exited with {code}")
            return wall
        for name in artifacts:
            digest = _digest(self.out / name)
            if self.digests.setdefault(name, digest) != digest:
                self.fail(1, f"{name} differs between repetitions of {argv[0]}")
        return wall


def _repeat(run: Run, once, seconds: float) -> list[float]:
    """Repeat once() while the next repetition is expected to end within
    the run's time budget; always at least once."""
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(once())
        elapsed = time.perf_counter() - start
        if elapsed + walls[-1] > seconds or run.failed:
            return walls


def _confusion_f1(report: str) -> float:
    """Weighted F1 from the count table in train_report.txt."""
    lines = report.splitlines()
    start = lines.index("counts") + 2
    rows = [[int(v) for v in line.split()[1:]] for line in lines[start:start + 3]]
    truth, predicted = [], []
    for t, row in enumerate(rows):
        for p, n in enumerate(row):
            truth += [t] * n
            predicted += [p] * n
    return weighted_f1(truth, predicted)


def _csv_value(text: str, key: str) -> float:
    for line in text.splitlines():
        name, _, value = line.partition(",")
        if name == key:
            return float(value)
    raise ValueError(f"{key} missing")


class TrainFull:
    artifacts = ["model.bin", "selected_features.csv"]

    def __init__(self, run: Run):
        self.run = run
        self.argv = ["train", "--config", run.job["config"]]

    def once(self) -> float:
        return self.run.command(self.argv, self.artifacts)

    def quality(self) -> float:
        return _confusion_f1((self.run.out / "train_report.txt").read_text(encoding="utf-8"))


class EvaluateGrid:
    artifacts = ["grid.csv", "holdout_metrics.csv"]

    def __init__(self, run: Run):
        self.run = run
        self.argv = ["evaluate", "--config", run.job["config"]]

    def once(self) -> float:
        wall = self.run.command(self.argv, self.artifacts)
        grid = (self.run.out / "grid.csv").read_text(encoding="utf-8").splitlines()[1:]
        errors = [row for row in grid if not row.endswith(",")]
        self.run.attempted += len(grid)
        if errors:
            self.run.fail(len(errors), f"grid cells failed: {errors}")
        return wall

    def quality(self) -> float:
        """Mean cross-validated weighted F1 of the winning configuration.

        Holdout F1 rests on a few dozen tweets per class and swings by
        several percent between seeds, too much to gate on, so it is only
        recorded."""
        for row in (self.run.out / "grid.csv").read_text(encoding="utf-8").splitlines()[1:]:
            cells = row.split(",")
            if cells[6] == "1":
                return float(cells[4])
        raise ValueError("grid.csv marks no best configuration")

    def recorded(self, wall: float) -> dict:
        text = (self.run.out / "holdout_metrics.csv").read_text(encoding="utf-8")
        return {"holdout_weighted_f1": _csv_value(text, "weighted_f1")}


class PredictStream:
    artifacts = ["predictions.tsv"]

    def __init__(self, run: Run):
        from hatetriage.corpus import Label
        from hatetriage.pipeline import load_pipeline

        self.run = run
        job = run.job
        self.lines = Path(job["lines"]).read_text(encoding="utf-8").splitlines()
        self.classes = job["classes"]
        self.codes = {Label(c).display: c for c in range(3)}
        self.pm = load_pipeline(Path(job["model"]).read_bytes())
        self.argv = ["predict", "--model", job["model"], "--input", job["lines"],
                     "--output", str(run.out / "predictions.tsv")]
        self.cli_labels: list[int] = []

    def once(self) -> float:
        wall = self.run.command(self.argv, self.artifacts)
        self.run.attempted += len(self.lines)
        rows = (self.run.out / "predictions.tsv").read_text(encoding="utf-8").splitlines()
        if len(rows) != len(self.lines):
            self.run.fail(len(self.lines), f"predict wrote {len(rows)} lines for {len(self.lines)}")
            return wall
        self.cli_labels = [self.codes[row.split("\t", 1)[0]] for row in rows]
        return wall

    def check_batch(self) -> None:
        """CLI labels must equal one whole-list pipeline_predict call's."""
        from hatetriage.pipeline import pipeline_predict

        labels, _ = pipeline_predict(self.pm, self.lines)
        self.run.attempted += len(self.lines)
        wrong = sum(1 for a, b in zip(labels, self.cli_labels) if int(a) != b)
        if wrong or len(self.cli_labels) != len(self.lines):
            self.run.fail(max(wrong, 1), f"{wrong} CLI labels differ from the batch call")

    def call_latencies(self) -> dict[str, float]:
        """Whole-list throughput and single-tweet latency at the library call."""
        from hatetriage.pipeline import pipeline_predict

        batch = []
        for _ in range(BATCH_REPEATS):
            start = time.perf_counter()
            pipeline_predict(self.pm, self.lines)
            batch.append(time.perf_counter() - start)
        samples = []
        i = 0
        while len(samples) < ONE_CALL_SAMPLES:
            text = self.lines[i % len(self.lines)]
            start = time.perf_counter()
            labels, _ = pipeline_predict(self.pm, [text])
            samples.append(time.perf_counter() - start)
            self.run.attempted += 1
            if i < len(self.cli_labels) and int(labels[0]) != self.cli_labels[i]:
                self.run.fail(1, f"single-call label differs on line {i + 1}")
            i += 1
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        return {
            "pipeline.predict_batch_tweets_per_s": len(self.lines) / statistics.median(batch),
            "pipeline.predict_one_p50_ms": statistics.median(samples) * 1e3,
            "pipeline.predict_one_p99_ms": cuts[98] * 1e3,
        }

    def quality(self) -> float:
        return weighted_f1(self.classes, self.cli_labels)

    def recorded(self, wall: float) -> dict:
        return {"predict_stream_tweets_per_s": len(self.lines) / wall}


WORKLOADS = {"train-full": TrainFull, "evaluate-grid": EvaluateGrid, "predict-stream": PredictStream}


def _trace_metrics(run: Run, workload) -> dict:
    import tracing

    untraced = workload.once()
    calls = dict.fromkeys(PREDICT_CALL_METRICS, 0.0)
    if isinstance(workload, PredictStream):
        workload.check_batch()
        calls = workload.call_latencies()
    tracer = run.tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workload.once()
    finally:
        tracer.uninstall()
        run.tracer = None
    metrics = tracing.layer_metrics(tracer)
    metrics.update(calls)
    selfs = tracing.self_times(tracer.spans)
    metrics.update({
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.self_time_sum_s": sum(selfs),
        "trace.unattributed_s": selfs[0],
        "trace.spans": len(tracer.spans),
    })
    samples = ONE_CALL_SAMPLES if isinstance(workload, PredictStream) else 0
    return {"metrics": metrics, "samples": {"one_call": samples}}


def _descriptors(job: dict) -> dict:
    """Input descriptors: rows, word tokens, distinct words, tagdict hits."""
    import importlib.resources

    from hatetriage.corpus import parse_corpus
    from hatetriage.postag import load_model
    from hatetriage.textproc import unstemmed_words

    if job["workload"] == "predict-stream":
        texts = Path(job["lines"]).read_text(encoding="utf-8").splitlines()
    else:
        texts = [r.text for r in parse_corpus(Path(job["corpus"]).read_bytes())
                 if r.label is not None]
    tagger = load_model(
        importlib.resources.files("hatetriage.data").joinpath("pos_model.txt").read_bytes()
    )
    words = [w for t in texts for w in unstemmed_words(t)]
    hits = sum(1 for w in words if w in tagger.tagdict)
    return {"rows": len(texts), "word_tokens": len(words), "distinct_words": len(set(words)),
            "tagdict_hit_ratio": hits / max(1, len(words))}


def _measure(job_path: str) -> None:
    import numpy
    import scipy

    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    run = Run(job)
    workload = WORKLOADS[job["workload"]](run)
    result = {"descriptors": _descriptors(job)}
    if job["trace"]:
        result.update(_trace_metrics(run, workload))
    else:
        walls = _repeat(run, workload.once, job["seconds"])
        if isinstance(workload, PredictStream) and not run.failed:
            workload.check_batch()
        wall = statistics.median(walls)
        result["metrics"] = {
            "wall_s": wall,
            "weighted_f1": workload.quality() if not run.failed else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["samples"] = {"command_repetitions": len(walls)}
        if hasattr(workload, "recorded") and not run.failed:
            result["recorded"] = workload.recorded(wall)
    result.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "digests": run.digests,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    (run.workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")


def main(argv: list[str]) -> int:
    mode, src = argv[1], argv[2]
    sys.path.insert(0, src)
    if mode == "probe":
        _probe(argv[3], argv[4])
    elif mode == "train":
        from hatetriage.cli import main as cli_main

        return cli_main(["train", "--config", argv[3]])
    elif mode == "measure":
        _measure(argv[3])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
