"""Print the SHA-256 of every artifact the CLI writes on fixed inputs.

    python scripts/artifact_digests.py                      # the bundled toy corpus
    python scripts/artifact_digests.py --seed 1 --seed 17   # and generated corpora

For each corpus it runs train, evaluate, predict and report with the
default configuration, and prints one `name sha256` line per artifact,
sorted by name; names are `<corpus>/<file>`. The corpora are the bundled
toy corpus (`toy`), the toy corpus with standardization and selection off
(`toy-raw`, whose unscaled scalar columns make the worst-conditioned solver
problems), the toy corpus with a naive Bayes model (`toy-nb`, which reads
the raw n-gram counts), and for each --seed N a 600-row
perfbench/corpusgen.py corpus of that seed (`bench-N`), with 600 unseen
generated tweets to predict: three of predict's 256-line batches, so that
state one batch leaves for the next shows in the digests. Predict reads the
toy corpus's own tweets.

The package is imported from this checkout's src/. Running the script in two
checkouts and diffing the output shows which artifacts a change moved;
every other one is byte-identical.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from hatetriage.cli import main as cli_main  # noqa: E402

TOY = ROOT / "src" / "hatetriage" / "data" / "toy_corpus.csv"
BENCH_ROWS = 600
BENCH_UNSEEN = 600


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"hatetriage {argv[0]} exited {code}")


def corpus_digests(name: str, corpus: Path, tweets: list[str], work: Path,
                   settings: str = "") -> dict[str, str]:
    """Run the four commands on one corpus in work/name; digest what they wrote."""
    root = work / name
    out = root / "out"
    root.mkdir(parents=True)
    config = root / "run.cfg"
    config.write_text(f"corpus = {corpus}\noutput_dir = {out}\n{settings}", encoding="utf-8")
    lines = root / "tweets.txt"
    lines.write_text("".join(t + "\n" for t in tweets), encoding="utf-8")
    model = str(out / "model.bin")
    _run(["train", "--config", str(config)])
    _run(["evaluate", "--config", str(config)])
    _run(["predict", "--model", model, "--input", str(lines),
          "--output", str(out / "predictions.tsv")])
    _run(["report", "--config", str(config), "--model", model])
    return {
        f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def digests(work: Path, seeds=()) -> dict[str, str]:
    with TOY.open(encoding="utf-8") as f:
        toy_tweets = [row["tweet"] for row in csv.DictReader(f)]
    found = corpus_digests("toy", TOY, toy_tweets, work)
    found.update(corpus_digests("toy-raw", TOY, toy_tweets, work,
                                "standardize = false\nselect = false\n"))
    found.update(corpus_digests("toy-nb", TOY, toy_tweets, work, "model = nb\n"))
    for seed in seeds:
        import corpusgen

        corpus = work / f"bench-{seed}.csv"
        corpus.write_bytes(corpusgen.make_corpus_csv(BENCH_ROWS, seed))
        tweets = [t for t, _ in corpusgen.make_unseen_tweets(BENCH_UNSEEN, seed)]
        found.update(corpus_digests(f"bench-{seed}", corpus, tweets, work))
    return found


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, action="append", default=[],
                        help="also digest a generated corpus of this seed; repeatable")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in sorted(digests(Path(tmp), args.seed).items()):
            print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
