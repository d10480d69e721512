"""End-to-end command-line runs against the bundled demonstration corpus."""

import csv
import importlib.resources
import json
import os
import pathlib
import subprocess
import sys

import pytest

from hatetriage import cli
from hatetriage._serialize import dump_artifact, load_artifact
from hatetriage.cli import PREDICT_BATCH, main
from hatetriage.corpus import LABELS, Label
from hatetriage.lexfeat import SCALAR_COLUMNS
from hatetriage.pipeline import (
    PIPELINE_FORMAT_VERSION,
    PIPELINE_MAGIC,
    load_pipeline,
    pipeline_predict,
)
from hatetriage.postag import load_model as load_tag_model

CORPUS = str(importlib.resources.files("hatetriage.data").joinpath("toy_corpus.csv"))

EVALUATE_FILES = (
    "grid.txt",
    "grid.csv",
    "holdout_metrics.txt",
    "holdout_metrics.csv",
    "holdout_confusion.txt",
    "holdout_confusion.csv",
    "insample_metrics.txt",
    "insample_metrics.csv",
    "insample_confusion.txt",
    "insample_confusion.csv",
    "reference_deltas.txt",
)


def write_config(root, corpus=CORPUS, **overrides):
    lines = [f"corpus = {corpus}", f"output_dir = {root / 'out'}", "min_df = 2",
             "grid_models = logreg, svm", "grid_cs = 0.1, 1"]
    for key, value in overrides.items():
        lines.append(f"{key} = {value}")
    path = root / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def one_call_line(pm, text):
    """The output line of one single-tweet pipeline_predict call, formatted
    as predict has always written it."""
    labels, scores = pipeline_predict(pm, [text])
    class_pos = {int(c): i for i, c in enumerate(pm.model.classes)}
    cells = [Label(int(labels[0])).display]
    for cls in LABELS:
        pos = class_pos.get(int(cls))
        cells.append(f"{scores[0, pos]:.6f}" if pos is not None else "nan")
    return "\t".join(cells) + "\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One shared train + evaluate run; tests only read its artifacts."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 0
    return {"root": root, "cfg": cfg, "out": root / "out"}


@pytest.fixture(scope="module")
def corpus_rows():
    with open(CORPUS, encoding="utf-8") as f:
        return list(csv.DictReader(f))


class TestIngest:
    def test_writes_stats_and_prints_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["ingest", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        text = (out / "corpus_stats.txt").read_text()
        assert "n_labeled=300" in text
        assert "agreement=" in text
        rows = (out / "corpus_stats.csv").read_text().splitlines()
        assert rows[0] == "metric,value"
        assert len(rows) == 10
        assert "n_total=300" in capsys.readouterr().out


class TestTrain:
    def test_artifacts_exist(self, workspace):
        out = workspace["out"]
        assert (out / "model.bin").is_file()
        report = (out / "train_report.txt").read_text()
        assert "model=logreg penalty=l2 C=1" in report
        assert "n_train=300" in report
        assert "converged=True" in report
        assert "in-sample confusion:" in report

    def test_report_has_solver_facts_before_confusion(self, workspace):
        """Per-class iterations of the final model and of the L1 selection
        fit, and whether the selection converged, come before the confusion
        block whose `counts` table is read by position."""
        lines = (workspace["out"] / "train_report.txt").read_text().splitlines()
        confusion = lines.index("in-sample confusion:")
        facts = dict(line.split("=", 1) for line in lines[:confusion])
        assert facts["selection_converged"] == "True"
        for key in ("iterations", "selection_iterations"):
            counts = facts[key].split(",")
            assert len(counts) == 3 and all(c.isdigit() and int(c) > 0 for c in counts)

    def test_report_without_selection_has_no_selection_facts(self, tmp_path):
        cfg = write_config(tmp_path, select="false")
        assert main(["train", "--config", str(cfg)]) == 0
        report = (tmp_path / "out" / "train_report.txt").read_text()
        assert "iterations=" in report
        assert "selection_" not in report

    def test_selected_features_csv_shape(self, workspace):
        lines = (workspace["out"] / "selected_features.csv").read_text().splitlines()
        assert lines[0] == "index,block,name"
        assert len(lines) > 1
        for line in lines[1:]:
            idx, block, _ = line.split(",", 2)
            assert idx.isdigit()
            assert block in {"word-ngram", "pos-ngram", "sentiment", "readability", "surface"}

    def test_naive_bayes_lists_only_the_columns_it_reads(self, tmp_path):
        """Naive Bayes reads the selected n-gram columns only: the report
        counts and the CSV lists those, as many as the model has weights,
        and no scalar column, though the selection keeps 11 of those."""
        from hatetriage.pipeline import load_pipeline

        cfg = write_config(tmp_path, model="nb", penalty="none")
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        report = (out / "train_report.txt").read_text()
        assert "n_features_selected=5\n" in report
        rows = (out / "selected_features.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0", "1", "2", "3", "4"]
        assert {r.split(",")[1] for r in rows} <= {"word-ngram", "pos-ngram"}
        pm = load_pipeline((out / "model.bin").read_bytes())
        assert pm.model.n_features == 5
        assert len(pm.fitted.selected_columns) == 16

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        first = (workspace["out"] / "model.bin").read_bytes()
        second = (tmp_path / "out" / "model.bin").read_bytes()
        assert first == second
        assert (workspace["out"] / "train_report.txt").read_text() == (
            tmp_path / "out" / "train_report.txt"
        ).read_text()


# runs in a fresh interpreter: loads a model, predicts through the library
# and the CLI, runs report and ingest, then prints the scipy modules loaded
NO_SCIPY_SCRIPT = """
import sys
from pathlib import Path

from hatetriage import cli
from hatetriage.pipeline import load_pipeline, pipeline_predict

model, cfg, src, dst = sys.argv[1:]
pipeline_predict(load_pipeline(Path(model).read_bytes()), ["sunny picnic by the lake"])
for argv in (["predict", "--model", model, "--input", src, "--output", dst],
             ["report", "--config", cfg, "--model", model],
             ["ingest", "--config", cfg]):
    assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestPredict:
    def test_predict_report_and_ingest_import_no_scipy(self, workspace, tmp_path):
        """scipy is imported only by the solver fits, so a process that
        only loads a model and predicts, reports or ingests never pays for
        importing it."""
        src = tmp_path / "in.txt"
        src.write_text("those vermin are filth and scum\nsunny picnic by the lake\n")
        package_root = pathlib.Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_SCRIPT, str(workspace["out"] / "model.bin"),
             str(write_config(tmp_path)), str(src), str(tmp_path / "pred.tsv")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(package_root)),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert len((tmp_path / "pred.tsv").read_text().splitlines()) == 2

    def test_line_format(self, workspace, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("those vermin are filth and scum\nsunny picnic by the lake\n")
        dst = tmp_path / "pred.tsv"
        rc = main(["predict", "--model", str(workspace["out"] / "model.bin"),
                   "--input", str(src), "--output", str(dst)])
        assert rc == 0
        lines = dst.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            cells = line.split("\t")
            assert len(cells) == 4
            assert cells[0] in {"hate", "offensive", "neither"}
            for score in cells[1:]:
                float(score)
                assert len(score.split(".")[1]) == 6
        assert lines[0].split("\t")[0] == "hate"

    def test_empty_input_is_empty_output(self, workspace, tmp_path):
        src = tmp_path / "in.txt"
        src.write_text("")
        dst = tmp_path / "pred.tsv"
        rc = main(["predict", "--model", str(workspace["out"] / "model.bin"),
                   "--input", str(src), "--output", str(dst)])
        assert rc == 0
        assert dst.read_text() == ""

    def test_reproduces_train_report_confusion(self, workspace, corpus_rows, tmp_path):
        # the label counts over the training corpus must equal the column
        # sums of the in-sample confusion recorded by the train command
        src = tmp_path / "corpus.txt"
        src.write_text("\n".join(r["tweet"] for r in corpus_rows) + "\n")
        dst = tmp_path / "pred.tsv"
        rc = main(["predict", "--model", str(workspace["out"] / "model.bin"),
                   "--input", str(src), "--output", str(dst)])
        assert rc == 0
        counts = {"hate": 0, "offensive": 0, "neither": 0}
        for line in dst.read_text().splitlines():
            counts[line.split("\t")[0]] += 1

        report = (workspace["out"] / "train_report.txt").read_text().splitlines()
        start = report.index("counts") + 2
        table = [line.split() for line in report[start : start + 3]]
        column_sums = {
            label: sum(int(row[1 + j]) for row in table)
            for j, label in enumerate(["hate", "offensive", "neither"])
        }
        assert counts == column_sums

    def test_undecodable_line_is_an_error(self, workspace, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_bytes(b"fine line\n\xff\xfe broken\n")
        dst = tmp_path / "pred.tsv"
        model = workspace["out"] / "model.bin"
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", str(dst)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err
        # the batch pending at the bad line is answered before the error, so
        # the output is what a one-line-at-a-time predict writes
        pm = load_pipeline(model.read_bytes())
        assert dst.read_bytes() == one_call_line(pm, "fine line").encode("utf-8")

    def test_leading_byte_order_mark_dropped(self, workspace, tmp_path):
        # only the mark that starts the input goes: the first tweet keeps its
        # retweet marker and character count, a later line keeps its mark
        src = tmp_path / "in.txt"
        src.write_text("\ufeffRT @a: so good\n\ufefffine line\n", encoding="utf-8")
        dst = tmp_path / "pred.tsv"
        model = workspace["out"] / "model.bin"
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", str(dst)])
        assert rc == 0
        pm = load_pipeline(model.read_bytes())
        expected = one_call_line(pm, "RT @a: so good") + one_call_line(pm, "\ufefffine line")
        assert dst.read_bytes() == expected.encode("utf-8")

    def test_batches_match_one_call_per_line(self, workspace, corpus_rows, tmp_path):
        # two full batches, a partial last one, and an empty line among them
        n = 2 * PREDICT_BATCH + 1
        tweets = [r["tweet"] for r in corpus_rows]
        texts = [tweets[i % len(tweets)] for i in range(n)]
        texts[PREDICT_BATCH - 1] = ""
        src = tmp_path / "in.txt"
        src.write_text("\n".join(texts) + "\n", encoding="utf-8")
        dst = tmp_path / "pred.tsv"
        model = workspace["out"] / "model.bin"
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", str(dst)])
        assert rc == 0
        pm = load_pipeline(model.read_bytes())
        expected = "".join(one_call_line(pm, t) for t in texts)
        assert dst.read_bytes() == expected.encode("utf-8")

    def test_two_class_model_writes_nan_for_the_class_it_lacks(self, tmp_path):
        """A model trained on a corpus with no hate rows has no hate score:
        predict writes that column as one call per line does, "nan"."""
        with open(CORPUS, encoding="utf-8", newline="") as f:
            rows = [r for r in csv.DictReader(f) if int(r["class"]) != Label.HATE]
        corpus = tmp_path / "two_class.csv"
        with open(corpus, "w", encoding="utf-8", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        assert main(["train", "--config", str(write_config(tmp_path, corpus))]) == 0
        texts = [r["tweet"] for r in rows[:40]] + ["", "#a#b!"]
        src, dst, model = tmp_path / "in.txt", tmp_path / "pred.tsv", tmp_path / "out" / "model.bin"
        src.write_text("\n".join(texts) + "\n", encoding="utf-8")
        rc = main(["predict", "--model", str(model), "--input", str(src), "--output", str(dst)])
        assert rc == 0
        pm = load_pipeline(model.read_bytes())
        assert pm.model.classes == (Label.OFFENSIVE, Label.NEITHER)
        expected = "".join(one_call_line(pm, t) for t in texts)
        assert dst.read_bytes() == expected.encode("utf-8")
        assert {line.split("\t")[1] for line in expected.splitlines()} == {"nan"}

    def test_long_hashtag_and_mention_chains_are_answered(self, workspace, tmp_path):
        # a chain of 5,000 hashtags or mentions in one chunk is tokenized
        # without recursion, so its batch is answered in full
        texts = ["sunny picnic by the lake", "#a" * 5000, "@b" * 5000, "those vermin are filth"]
        src = tmp_path / "in.txt"
        src.write_text("\n".join(texts) + "\n", encoding="utf-8")
        dst = tmp_path / "pred.tsv"
        model = workspace["out"] / "model.bin"
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", str(dst)])
        assert rc == 0
        pm = load_pipeline(model.read_bytes())
        expected = "".join(one_call_line(pm, t) for t in texts)
        assert dst.read_bytes() == expected.encode("utf-8")


class TestEvaluate:
    def test_artifact_manifest(self, workspace):
        for name in EVALUATE_FILES:
            assert (workspace["out"] / name).is_file(), name

    def test_holdout_metrics_meet_floor(self, workspace):
        values = dict(
            line.split(",") for line in
            (workspace["out"] / "holdout_metrics.csv").read_text().splitlines()[1:]
        )
        assert float(values["weighted_f1"]) >= 0.90

    def test_grid_reports_best(self, workspace):
        text = (workspace["out"] / "grid.txt").read_text()
        assert "*" in text
        rows = (workspace["out"] / "grid.csv").read_text().splitlines()
        # header plus logreg l1/l2 at two Cs plus svm at two Cs
        assert len(rows) == 7

    def test_reference_deltas_cover_five_metrics(self, workspace):
        text = (workspace["out"] / "reference_deltas.txt").read_text()
        for key in ("delta_weighted_precision", "delta_weighted_recall",
                    "delta_weighted_f1", "delta_hate_precision", "delta_hate_recall"):
            assert key in text

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["evaluate", "--config", str(cfg)]) == 0
        for name in ("grid.csv", "insample_metrics.csv", "holdout_confusion.csv"):
            assert (workspace["out"] / name).read_bytes() == (
                tmp_path / "out" / name
            ).read_bytes(), name


class TestReport:
    def test_error_report_artifacts(self, workspace, capsys):
        rc = main(["report", "--config", str(workspace["cfg"]),
                   "--model", str(workspace["out"] / "model.bin")])
        assert rc == 0
        out = workspace["out"]
        assert "buckets ranked" in (out / "error_report.txt").read_text()
        payload = json.loads((out / "error_report.json").read_text())
        assert set(payload) == {"classes", "buckets", "top_weights"}
        hate_block = next(b for b in payload["top_weights"] if b["class"] == 0)
        hate_names = [name for name, _ in hate_block["weights"]]
        assert any("vermin" in n or "scum" in n or "filth" in n for n in hate_names)


class TestTaggerTrain:
    def test_trains_and_saves_loadable_model(self, tmp_path):
        conll = tmp_path / "tiny.conll"
        conll.write_text(
            "The\tDT\ncat\tNN\nsleeps\tVBZ\n\nA\tDT\ndog\tNN\nbarks\tVBZ\n"
        )
        out = tmp_path / "tagger.bin"
        rc = main(["tagger-train", "--conll", str(conll), "--out", str(out),
                   "--epochs", "3", "--seed", "7"])
        assert rc == 0
        model = load_tag_model(out.read_bytes())
        assert "NN" in model.tagset

    def test_missing_conll_is_usage_error(self, tmp_path, capsys):
        rc = main(["tagger-train", "--conll", str(tmp_path / "nope.conll"),
                   "--out", str(tmp_path / "t.bin")])
        assert rc == 2
        assert "nope.conll" in capsys.readouterr().err


class TestErrorExits:
    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = main(["ingest", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2
        assert "absent.cfg" in capsys.readouterr().err

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("corpus = /nowhere/tweets.csv\n")
        rc = main(["ingest", "--config", str(cfg)])
        assert rc == 2
        assert "/nowhere/tweets.csv" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {CORPUS}\ncorpsu = x\n")
        rc = main(["ingest", "--config", str(cfg)])
        assert rc == 2
        assert "corpsu" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_bad_grid_value_exits_two_before_extraction(self, tmp_path, capsys, monkeypatch,
                                                         command):
        def refuse(*args):
            raise AssertionError("features were extracted")

        monkeypatch.setattr(cli, "extract_ingredients", refuse)
        cfg = write_config(tmp_path, grid_class_weights="uniform, bogus")
        rc = main([command, "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: config key 'grid_class_weights': class_weight must be" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ingest", "train", "evaluate"])
    def test_undecodable_corpus_names_line(self, tmp_path, capsys, command):
        corpus = tmp_path / "tweets.csv"
        # a byte-order mark, the header, one good row, then a stray byte on line 3
        corpus.write_bytes(
            b"\xef\xbb\xbfid,count,hate_speech,offensive_language,neither,class,tweet\n"
            b"a,3,0,0,3,2,hi\n"
            b"b,3,0,3,0,1,bad \xff byte\n"
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {corpus}\noutput_dir = {tmp_path / 'out'}\n")
        rc = main([command, "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage ingest: line 3 is not UTF-8" in err

    def test_missing_model_path(self, tmp_path, capsys):
        rc = main(["predict", "--model", str(tmp_path / "absent.bin"),
                   "--input", str(tmp_path / "absent.txt")])
        assert rc == 2
        assert "absent.bin" in capsys.readouterr().err

    def test_inconsistent_model_fails_at_load(self, workspace, tmp_path, capsys):
        # well-formed fields that disagree: the last selected column lies
        # past the columns of the vocabularies and scalar blocks
        data = (workspace["out"] / "model.bin").read_bytes()
        _, payload = load_artifact(data, PIPELINE_MAGIC, (PIPELINE_FORMAT_VERSION,))
        width = sum(len(payload[v]["ngrams"]) for v in ("word_vocab", "pos_vocab"))
        payload["selected_columns"][-1] = width + len(SCALAR_COLUMNS)
        model = tmp_path / "model.bin"
        model.write_bytes(dump_artifact(PIPELINE_MAGIC, PIPELINE_FORMAT_VERSION, payload))
        src = tmp_path / "in.txt"
        src.write_text("fine line\n", encoding="utf-8")
        dst = tmp_path / "pred.tsv"
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", str(dst)])
        assert rc == 1
        assert "stage load: pipeline payload field 'selected_columns'" in capsys.readouterr().err
        assert not dst.exists()

    def test_malformed_vocabulary_fails_at_load(self, workspace, tmp_path, capsys):
        data = (workspace["out"] / "model.bin").read_bytes()
        _, payload = load_artifact(data, PIPELINE_MAGIC, (PIPELINE_FORMAT_VERSION,))
        payload["word_vocab"]["df"].pop()
        model = tmp_path / "model.bin"
        model.write_bytes(dump_artifact(PIPELINE_MAGIC, PIPELINE_FORMAT_VERSION, payload))
        src = tmp_path / "in.txt"
        src.write_text("fine line\n", encoding="utf-8")
        dst = tmp_path / "pred.tsv"
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", str(dst)])
        assert rc == 1
        assert "stage load: pipeline payload field 'word_vocab'" in capsys.readouterr().err
        assert not dst.exists()

    def test_predict_output_in_missing_directory(self, workspace, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("fine line\n", encoding="utf-8")
        dst = tmp_path / "absent" / "pred.tsv"
        rc = main(["predict", "--model", str(workspace["out"] / "model.bin"),
                   "--input", str(src), "--output", str(dst)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(dst) in err

    @pytest.mark.parametrize("same", ["path", "relative", "hard link"])
    def test_predict_output_onto_its_own_input(self, workspace, tmp_path, capsys, monkeypatch, same):
        """An output that is the input file, by the same path, another
        path or a hard link, exits 2 before anything is opened for
        writing, so the input keeps its lines."""
        src = tmp_path / "in.txt"
        src.write_text("fine line\nsunny picnic\n", encoding="utf-8")
        dst = {"path": src, "relative": pathlib.Path("in.txt"), "hard link": tmp_path / "link.txt"}[same]
        if same == "hard link":
            os.link(src, dst)
        monkeypatch.chdir(tmp_path)
        rc = main(["predict", "--model", str(workspace["out"] / "model.bin"),
                   "--input", str(src), "--output", str(dst)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(dst) in err
        assert src.read_text(encoding="utf-8") == "fine line\nsunny picnic\n"

    def test_output_dir_naming_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {CORPUS}\noutput_dir = {blocker}\n", encoding="utf-8")
        rc = main(["ingest", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(blocker) in err

    def test_tagger_out_in_missing_directory(self, tmp_path, capsys):
        conll = tmp_path / "tiny.conll"
        conll.write_text("The\tDT\ncat\tNN\n", encoding="utf-8")
        out = tmp_path / "absent" / "tagger.bin"
        rc = main(["tagger-train", "--conll", str(conll), "--out", str(out), "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_no_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
