"""Benchmark runner for hatetriage.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --list                        # every metric with its unit

Each run generates its inputs from --seed (perfbench/corpusgen.py), then
drives the unmodified package in fresh processes (perfbench/worker.py):
seven set-up probes for setup_s, then one worker that repeats the
workload's command for about --seconds and reports medians. With
--trace 1 the worker instead runs the command once untraced and once
with every public function wrapped in a span (perfbench/tracing.py) and
reports the per-layer metrics. The last line of stdout is one JSON
object: correct, attempted, failed and metrics. The exit code is 1 when
any operation or correctness check failed, 2 when the package is missing.

Correctness checks on every run: each command exits 0; every artifact is
byte-identical across the repetitions in a run and across runs of the
same source tree and inputs (a ledger in .perfbench_work/); CLI predict
writes one line per input line and its labels equal one whole-list
pipeline_predict call's; every grid cell scores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import corpusgen  # noqa: E402
import metrics  # noqa: E402

# Corpus sizes. The public release has about 25k rows, but one `train` on
# it takes close to a minute at the seed commit, and the whole schedule of
# runs must fit in under an hour while each run repeats its command enough
# times for a steady median on a shared host.
SCALES = {
    "full": {"train_rows": 2000, "evaluate_rows": 600, "predict_lines": 1000},
    "smoke": {"train_rows": 400, "evaluate_rows": 400, "predict_lines": 40},
}
SETUP_PROBES = 7
# one thread per BLAS/OpenMP pool: steadier timings on a shared 2-core host
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker(args: list[str], timeout: float, stdout=subprocess.DEVNULL) -> subprocess.CompletedProcess:
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), args[0], str(SRC), *args[1:]]
    try:
        return subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f}s") from None


def _write_inputs(workload: str, seed: int, scale: dict, workdir: Path) -> dict:
    job = {"workload": workload, "workdir": str(workdir)}
    rows = scale["evaluate_rows"] if workload == "evaluate-grid" else scale["train_rows"]
    corpus = workdir / "corpus.csv"
    corpus.write_bytes(corpusgen.make_corpus_csv(rows, seed))
    config = workdir / "run.cfg"
    config.write_text(f"corpus = {corpus}\noutput_dir = {workdir / 'out'}\n", encoding="utf-8")
    job.update(corpus=str(corpus), config=str(config))
    inputs = hashlib.sha256(corpus.read_bytes())
    if workload == "predict-stream":
        tweets = corpusgen.make_unseen_tweets(scale["predict_lines"], seed)
        lines = workdir / "unseen.txt"
        lines.write_text("".join(t + "\n" for t, _ in tweets), encoding="utf-8")
        inputs.update(lines.read_bytes())
        job.update(lines=str(lines), classes=[c for _, c in tweets],
                   model=str(workdir / "out" / "model.bin"))
    job["inputs_sha256"] = inputs.hexdigest()
    return job


def _setup_seconds(job: dict) -> list[float]:
    """Process start to the first pipeline stage, once per fresh process."""
    if job["workload"] == "predict-stream":
        probe = ["probe", "model", job["model"]]
    else:
        probe = ["probe", "config", job["config"]]
    out = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = _worker(probe, PROBE_TIMEOUT_S, stdout=subprocess.PIPE)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        out.append(float(done.stdout.split()[-1]) - start)
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hatetriage").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _check_ledger(key: str, digests: dict[str, str]) -> list[str]:
    """Compare artifact digests with earlier runs of the same source tree,
    workload and inputs; record them when new."""
    ledger_path = WORK / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    known = ledger.setdefault(key, {})
    problems = [f"{name} differs from an earlier run of the same source and inputs"
                for name, digest in digests.items() if known.setdefault(name, digest) != digest]
    tmp = ledger_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(ledger_path)
    return problems


def _environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale_name: str) -> dict:
    scale = SCALES[scale_name]
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        job = _write_inputs(workload, seed, scale, workdir)
        job.update(trace=trace, seconds=seconds)
        if workload == "predict-stream":
            trained = _worker(["train", job["config"]], WORKER_TIMEOUT_S)
            if trained.returncode != 0:
                raise BenchError(f"training the predict model failed: {trained.stderr.strip()}")
        setup = [] if trace else _setup_seconds(job)
        job_path = workdir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        done = _worker(["measure", str(job_path)], WORKER_TIMEOUT_S)
        result_path = workdir / "result.json"
        if done.returncode != 0 or not result_path.is_file():
            raise BenchError(f"workload {workload} crashed: {done.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if workload == "predict-stream":
            result["digests"]["model.bin"] = hashlib.sha256(Path(job["model"]).read_bytes()).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment()
    env.update(result.pop("versions"))
    key = f"{env['source_sha256']}:{workload}:{job['inputs_sha256']}"
    ledger_problems = _check_ledger(key, result["digests"])
    problems = result["problems"] + ledger_problems
    failed = result["failed"] + len(ledger_problems)
    attempted = max(result["attempted"], failed, 1)
    values = result["metrics"]
    if not trace:
        values["setup_s"] = statistics.median(setup)
        values["ok_ops_share"] = 1.0 - failed / attempted
        result["samples"]["setup_probes"] = len(setup)
    names = metrics.PER_LAYER if trace else metrics.END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "environment": env,
        "descriptors": result["descriptors"],
        "samples": result["samples"],
        "recorded": result.get("recorded", {}),
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": names[name][0]} for name in names},
    }


def _check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for group, names in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        ours = {name: v[0] for name, v in names.items()}
        if declared != ours:
            raise BenchError(f"BENCHMARK.json {group} disagrees with perfbench/metrics.py")


def _print_table(report: dict) -> None:
    workload = report["workload"]
    print(f"# {workload} seed={report['seed']}")
    print(json.dumps({k: report[k] for k in ("environment", "descriptors", "samples", "recorded", "problems")}))
    for name, m in report["metrics"].items():
        alias = metrics.ALIASES.get((workload, name))
        label = f"{name} ({alias})" if alias else name
        print(f"{workload:15s} {label:45s} {m['value']:>16.6f} {m['unit']}")
    print(f"{workload:15s} {'attempted':45s} {report['attempted']:>16d}")
    print(f"{workload:15s} {'failed':45s} {report['failed']:>16d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*metrics.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes; 'smoke' checks that the runner runs end to end")
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    args = parser.parse_args(argv)
    if args.list:
        print(metrics.describe())
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if not (SRC / "hatetriage" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    workloads = list(metrics.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        _check_benchmark_json()
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.scale)
                   for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        _print_table(report)
    if len(reports) == 1:
        final = {k: reports[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": {f"{r['workload']}/{name}": m
                        for r in reports for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
