"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json lists the same names and units; run.py refuses to report
when the two disagree. The layer map below records, for each per-layer
metric, which end-to-end metric it should move and on which workload, so
a change to one layer can be checked against the right end-to-end number.
"""

from __future__ import annotations

WORKLOADS = {
    "train-full": "hatetriage train, default config (L1 selection on, logreg L2): "
                  "text extraction and L1 selection do nearly all the work; no grid, no predict",
    "evaluate-grid": "hatetriage evaluate, default 16-config grid, 5 folds, on a smaller corpus: "
                     "the harness and every solver dominate, extraction is a small share",
    "predict-stream": "hatetriage predict over a file of unseen tweets with a model trained "
                      "untimed on the train-full corpus: read-only paths, fixed per-call cost",
}

# name -> (unit, better, what it is on each workload)
END_TO_END = {
    "setup_s": ("s", "lower",
                "process start until the first pipeline stage: import, config, tagger and "
                "lexicon load, plus load_pipeline on predict-stream; median of 7 processes"),
    "wall_s": ("s", "lower",
               "median wall time of the workload's command: train_s on train-full, "
               "evaluate_s on evaluate-grid, the CLI predict pass over the input file "
               "on predict-stream (lines / wall_s is predict_stream_tweets_per_s)"),
    "weighted_f1": ("ratio", "higher",
                    "support-weighted F1 of the labels the command produces: in-sample on "
                    "train-full; the winning grid cell's mean cross-validated F1 on "
                    "evaluate-grid (holdout_weighted_f1 is recorded beside it); CLI labels "
                    "against the generator's classes on predict-stream"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the workload process"),
    "ok_ops_share": ("ratio", "higher",
                     "1 - failed_ops_share: operations that succeeded over operations "
                     "attempted (commands, grid cells, predicted lines)"),
}

# the workload-specific names printed next to the generic ones
ALIASES = {
    ("train-full", "wall_s"): "train_s",
    ("evaluate-grid", "wall_s"): "evaluate_s",
}

TRAIN, EVAL, PRED = "train-full", "evaluate-grid", "predict-stream"
EXTRACT_MOVES = f"wall_s on {TRAIN} and {PRED}; little on {EVAL}"

# name -> (unit, better, layer, should move)
PER_LAYER = {
    "corpus.parse_corpus_s": ("s", "lower", "corpus", f"wall_s on {TRAIN} (small share)"),
    "corpus.rows_labeled": ("count", "higher", "corpus", "input size"),
    "textproc.tokenize_s": ("s", "lower", "textproc", EXTRACT_MOVES),
    "textproc.tokenize_calls_per_tweet": ("calls/tweet", "lower", "textproc", EXTRACT_MOVES),
    "textproc.preprocess_s": ("s", "lower", "textproc", EXTRACT_MOVES),
    "textproc.preprocess_self_s": ("s", "lower", "textproc", EXTRACT_MOVES + " (stemming)"),
    "textproc.unstemmed_words_s": ("s", "lower", "textproc", EXTRACT_MOVES),
    "textproc.word_tokens": ("count", "higher", "textproc", "input size"),
    "textproc.distinct_words": ("count", "higher", "textproc", "input size"),
    "postag.tag_s": ("s", "lower", "postag", EXTRACT_MOVES),
    "postag.tokens_tagged": ("count", "higher", "postag", "input size"),
    "postag.tagdict_hit_ratio": ("ratio", "higher", "postag", "input property: tagdict path share"),
    "lexfeat.sentiment_scores_s": ("s", "lower", "lexfeat", EXTRACT_MOVES),
    "lexfeat.surface_features_s": ("s", "lower", "lexfeat", EXTRACT_MOVES),
    "lexfeat.readability_s": ("s", "lower", "lexfeat", EXTRACT_MOVES),
    "pipeline.extract_ingredients_s": ("s", "lower", "pipeline", EXTRACT_MOVES),
    "pipeline.extract_ingredients_self_s": ("s", "lower", "pipeline", EXTRACT_MOVES),
    "pipeline.fit_features_s": ("s", "lower", "pipeline", f"wall_s on {TRAIN} and {EVAL}"),
    "pipeline.fit_features_self_s": ("s", "lower", "pipeline", f"wall_s on {TRAIN} and {EVAL}"),
    "pipeline.model_input_matrix_s": ("s", "lower", "pipeline",
                                      f"wall_s on every workload, most per tweet on {PRED}"),
    "pipeline.model_input_matrix_calls": ("count", "lower", "pipeline", f"wall_s on {PRED}"),
    "pipeline.fit_config_model_s": ("s", "lower", "pipeline", f"wall_s on {TRAIN} and {EVAL}"),
    "pipeline.pipeline_predict_calls": ("count", "lower", "pipeline", f"wall_s on {PRED}"),
    "pipeline.predict_batch_tweets_per_s": ("1/s", "higher", "pipeline",
                                            f"one pipeline_predict call on the whole list, "
                                            f"untraced; {PRED} only"),
    "pipeline.predict_one_p50_ms": ("ms", "lower", "pipeline",
                                    f"single-tweet pipeline_predict latency, closed loop, one "
                                    f"caller, untraced; moves wall_s on {PRED}"),
    "pipeline.predict_one_p99_ms": ("ms", "lower", "pipeline",
                                    f"as predict_one_p50_ms; at least 10 samples beyond p99"),
    "pipeline.save_pipeline_s": ("s", "lower", "pipeline", f"wall_s on {TRAIN}"),
    "pipeline.load_pipeline_s": ("s", "lower", "pipeline", f"setup_s and wall_s on {PRED}"),
    "pipeline.artifact_bytes": ("bytes", "lower", "pipeline", f"setup_s on {PRED}"),
    "vectorize.fit_vocab_s": ("s", "lower", "vectorize", f"wall_s on {TRAIN} and {EVAL}"),
    "vectorize.word_vocab_size": ("count", "lower", "vectorize", "peak_rss_mb"),
    "vectorize.pos_vocab_size": ("count", "lower", "vectorize", "peak_rss_mb"),
    "vectorize.transform_tfidf_s": ("s", "lower", "vectorize",
                                    f"wall_s on {TRAIN} and {EVAL}; wall_s on {PRED}"),
    "vectorize.transform_tfidf_calls": ("count", "lower", "vectorize", f"wall_s on {PRED}"),
    "vectorize.assemble_features_s": ("s", "lower", "vectorize",
                                      f"wall_s on {TRAIN} and {EVAL}; wall_s on {PRED}"),
    "vectorize.matrix_nnz": ("count", "lower", "vectorize", "peak_rss_mb"),
    "vectorize.matrix_cols": ("count", "lower", "vectorize", "peak_rss_mb"),
    "vectorize.select_l1_s": ("s", "lower", "vectorize",
                              f"wall_s on {TRAIN} and {EVAL}; zero on {PRED}"),
    "vectorize.selected_columns": ("count", "lower", "vectorize", f"weighted_f1; zero on {PRED}"),
    "linmodel.fit_logreg_l1_s": ("s", "lower", "linmodel", f"wall_s on {TRAIN} and {EVAL}"),
    "linmodel.fit_logreg_l1_iterations": ("iterations/fit", "lower", "linmodel",
                                          f"wall_s on {TRAIN} and {EVAL}"),
    "linmodel.fit_logreg_l1_converged_share": ("ratio", "higher", "linmodel",
                                               f"correctness of selection on {TRAIN} and {EVAL}"),
    "linmodel.fit_logreg_l2_s": ("s", "lower", "linmodel", f"wall_s on {EVAL}"),
    "linmodel.fit_logreg_l2_iterations": ("iterations/fit", "lower", "linmodel", f"wall_s on {EVAL}"),
    "linmodel.fit_logreg_l2_converged_share": ("ratio", "higher", "linmodel", f"weighted_f1 on {EVAL}"),
    "linmodel.fit_linear_svm_s": ("s", "lower", "linmodel", f"wall_s on {EVAL}"),
    "linmodel.fit_linear_svm_iterations": ("iterations/fit", "lower", "linmodel", f"wall_s on {EVAL}"),
    "linmodel.fit_linear_svm_converged_share": ("ratio", "higher", "linmodel", f"weighted_f1 on {EVAL}"),
    "linmodel.fit_multinomial_nb_s": ("s", "lower", "linmodel", f"wall_s on {EVAL}"),
    "linmodel.predict_s": ("s", "lower", "linmodel",
                           f"pipeline.predict_batch_tweets_per_s and wall_s on {PRED}"),
    "evalharness.prepare_folds_s": ("s", "lower", "evalharness", f"wall_s on {EVAL} only"),
    "evalharness.grid_search_s": ("s", "lower", "evalharness", f"wall_s on {EVAL} only"),
    "evalharness.grid_cells_scored": ("count", "higher", "evalharness", f"ok_ops_share on {EVAL}"),
    "evalharness.grid_cells_failed": ("count", "lower", "evalharness", f"ok_ops_share on {EVAL}"),
    "evalharness.fold_model_fits": ("count", "lower", "evalharness", f"wall_s on {EVAL}"),
    "trace.untraced_wall_s": ("s", "lower", "trace", "the command once, untraced, in the traced run"),
    "trace.traced_wall_s": ("s", "lower", "trace", "the same command with every span recorded"),
    "trace.overhead_s": ("s", "lower", "trace", "traced_wall_s - untraced_wall_s"),
    "trace.self_time_sum_s": ("s", "lower", "trace",
                              "sum of every span's self time, root included; equals "
                              "traced_wall_s, and untraced_wall_s within overhead_s"),
    "trace.unattributed_s": ("s", "lower", "trace",
                             "root self time: command time outside every traced function"),
    "trace.spans": ("count", "lower", "trace", "spans recorded"),
}


def describe() -> str:
    """Every metric by name, with its unit and meaning, one per line."""
    lines = ["# workloads"]
    lines += [f"{name}: {why}" for name, why in WORKLOADS.items()]
    lines.append("# end-to-end metrics (--trace 0)")
    for name, (unit, better, what) in END_TO_END.items():
        lines.append(f"{name} [{unit}, {better} is better]: {what}")
    lines.append("# per-layer metrics (--trace 1): layer | should move")
    for name, (unit, better, layer, moves) in PER_LAYER.items():
        lines.append(f"{name} [{unit}, {better} is better] {layer} | {moves}")
    return "\n".join(lines)
