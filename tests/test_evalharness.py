import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatetriage import evalharness, pipeline
from hatetriage.corpus import Label, LabeledTweet
from hatetriage.evalharness import (
    BucketEntry,
    ConfusionMatrix,
    confusion,
    confusion_report_csv,
    confusion_report_text,
    error_report,
    error_report_json,
    error_report_text,
    grid_report_csv,
    grid_report_text,
    grid_search,
    kfold_indices,
    metrics,
    metrics_report_csv,
    metrics_report_text,
    prepare_folds,
)
from hatetriage.lexfeat import SCALAR_COLUMNS
from hatetriage.pipeline import (
    FeatureSettings,
    Ingredients,
    ModelConfig,
    build_grid,
    feature_matrix,
    fit_config_model,
    fit_features,
)

H, O, N = 0, 1, 2


# fixed readability and surface columns, in SCALAR_COLUMNS order: grade
# 1 and ease 100, no hashtag, mention, retweet or URL, 10 characters, 2
# words and 3 syllables
FIXED_SCALARS = (1.0, 100.0, 0, 0, 0, 0, 0, 0, 0, 0, 10, 2, 3)


def scalars_of(sentiment):
    """One scalar row per (pos, neg, neu, compound), in SCALAR_COLUMNS
    order, with FIXED_SCALARS after it."""
    return np.array([(*s, *FIXED_SCALARS) for s in sentiment]).reshape(-1, len(SCALAR_COLUMNS))


def neutral_ingredients(word_docs, sentiment=None):
    n = len(word_docs)
    return Ingredients(
        word_docs=tuple(tuple(d) for d in word_docs),
        pos_docs=tuple(("NN", "VBP") for _ in range(n)),
        scalars=scalars_of(
            [sentiment if sentiment is not None else (0.0, 0.0, 1.0, 0.0)] * n
        ),
    )


def separable_corpus(n_per=30, seed=0, words_per_doc=6):
    """Three classes with disjoint vocabularies: linearly separable."""
    rng = np.random.default_rng(seed)
    vocab = {
        H: ["alpha", "beta", "gamma"],
        O: ["delta", "epsilon", "zeta"],
        N: ["eta", "theta", "iota"],
    }
    docs, y = [], []
    for cls in (H, O, N):
        for _ in range(n_per):
            docs.append([str(rng.choice(vocab[cls])) for _ in range(words_per_doc)])
            y.append(cls)
    return docs, y


SMALL = FeatureSettings(
    word_ngram_hi=1, pos_ngram_hi=1, min_df=2, max_df_ratio=1.0, select=False
)


class TestMetrics:
    def test_perfect_predictions_all_ones(self):
        rep = metrics([H, O, N, O], [H, O, N, O])
        assert rep.precision == (1.0, 1.0, 1.0)
        assert rep.recall == (1.0, 1.0, 1.0)
        assert rep.f1 == (1.0, 1.0, 1.0)
        assert rep.accuracy == 1.0
        assert rep.weighted_f1 == 1.0

    def test_hand_computed_six_points(self):
        rep = metrics([H, H, O, O, N, N], [H, O, O, O, N, H])
        assert rep.precision[H] == 0.5 and rep.recall[H] == 0.5
        assert rep.precision[O] == pytest.approx(2 / 3) and rep.recall[O] == 1.0
        assert rep.precision[N] == 1.0 and rep.recall[N] == 0.5
        assert rep.support == (2, 2, 2)
        assert rep.accuracy == pytest.approx(4 / 6)

    def test_never_emitted_class_zero_precision(self):
        rep = metrics([H, O, N], [O, O, O])
        assert rep.precision[H] == 0.0
        assert rep.f1[H] == 0.0
        assert rep.recall[O] == 1.0

    def test_absent_true_class_zero_recall_support(self):
        rep = metrics([O, O], [O, N])
        assert rep.support == (0, 2, 0)
        assert rep.recall[H] == 0.0

    def test_weighted_average_arithmetic(self):
        rep = metrics([H, O, O, O], [H, O, O, N])
        expected = (1 * rep.precision[H] + 3 * rep.precision[O]) / 4
        assert rep.weighted_precision == pytest.approx(expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics([H, O], [H])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics([], [])

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            metrics([0, 3], [0, 0])

    def test_accepts_label_enums(self):
        rep = metrics([Label.HATE, Label.NEITHER], [Label.HATE, Label.NEITHER])
        assert rep.accuracy == 1.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=60
        )
    )
    def test_metrics_match_confusion_recomputation(self, pairs):
        y_true = [a for a, _ in pairs]
        y_pred = [b for _, b in pairs]
        rep = metrics(y_true, y_pred)
        cm = np.asarray(confusion(y_true, y_pred).counts, dtype=float)
        for k in range(3):
            col = cm[:, k].sum()
            row = cm[k].sum()
            p = cm[k, k] / col if col else 0.0
            r = cm[k, k] / row if row else 0.0
            assert abs(rep.precision[k] - p) <= 1e-12
            assert abs(rep.recall[k] - r) <= 1e-12


class TestConfusion:
    def test_perfect_normalized_identity(self):
        cm = confusion([H, O, N], [H, O, N])
        assert cm.normalized == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    def test_all_offensive_predictor_middle_column(self):
        cm = confusion([H, H, O, N], [O, O, O, O])
        counts = np.asarray(cm.counts)
        assert counts[:, O].sum() == 4
        assert counts[:, H].sum() == 0 and counts[:, N].sum() == 0

    def test_absent_class_keeps_zero_row(self):
        cm = confusion([O, O], [O, O])
        assert cm.normalized[H] == (0.0, 0.0, 0.0)

    def test_counts_layout_rows_true(self):
        cm = confusion([H, H, H], [H, O, N])
        assert cm.counts[H] == (1, 1, 1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=80
        )
    )
    def test_marginals(self, pairs):
        y_true = [a for a, _ in pairs]
        y_pred = [b for _, b in pairs]
        counts = np.asarray(confusion(y_true, y_pred).counts)
        assert counts.sum() == len(pairs)
        for k in range(3):
            assert counts[k].sum() == sum(1 for v in y_true if v == k)
            assert counts[:, k].sum() == sum(1 for v in y_pred if v == k)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(counts=((1, 2), (3, 4)))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(counts=((0, 0, -1), (0, 0, 0), (0, 0, 0)))


class TestKfoldIndices:
    def test_ten_by_five_even(self):
        folds = kfold_indices([0] * 10, 5, 1)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 2]

    def test_seven_by_five_sizes(self):
        folds = kfold_indices([0] * 7, 5, 1)
        assert sorted(len(f) for f in folds) == [1, 1, 1, 2, 2]

    def test_balanced_two_class_hundred(self):
        folds = kfold_indices([0] * 50 + [1] * 50, 5, 3)
        for f in folds:
            assert sum(1 for i in f if i < 50) == 10
            assert sum(1 for i in f if i >= 50) == 10

    def test_partition(self):
        y = [0] * 13 + [1] * 9 + [2] * 4
        folds = kfold_indices(y, 4, 9)
        seen = np.concatenate(folds)
        assert sorted(seen.tolist()) == list(range(26))

    def test_deterministic_per_seed(self):
        y = [0] * 20 + [1] * 15
        a = kfold_indices(y, 5, 7)
        b = kfold_indices(y, 5, 7)
        assert all((x == z).all() for x, z in zip(a, b))

    def test_seed_changes_assignment(self):
        y = [0] * 40
        a = kfold_indices(y, 5, 1)
        b = kfold_indices(y, 5, 2)
        assert any((x != z).any() for x, z in zip(a, b))

    def test_small_class_warns(self):
        with pytest.warns(UserWarning, match="best-effort"):
            kfold_indices([0] * 10 + [1] * 2, 5, 0)

    def test_k_too_small_rejected(self):
        with pytest.raises(ValueError):
            kfold_indices([0, 1], 1, 0)

    def test_n_below_k_rejected(self):
        with pytest.raises(ValueError):
            kfold_indices([0, 1, 0], 5, 0)

    @given(
        st.lists(st.integers(0, 2), min_size=6, max_size=60),
        st.integers(2, 5),
        st.integers(0, 10),
    )
    @settings(max_examples=40)
    def test_per_class_sizes_differ_at_most_one(self, y, k, seed):
        if len(y) < k:
            return
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            folds = kfold_indices(y, k, seed)
        for cls in set(y):
            sizes = [sum(1 for i in f if y[i] == cls) for f in folds]
            assert max(sizes) - min(sizes) <= 1


class TestCrossValidate:
    """k-fold cross-validation of one configuration, which is grid_search
    over a one-configuration grid."""

    def test_separable_corpus_high_f1(self):
        docs, y = separable_corpus()
        only = ModelConfig("logreg", "l2", 1.0)
        res = grid_search([only], neutral_ingredients(docs), y, k=5, seed=42, features=SMALL)
        assert res.best_mean_weighted_f1 >= 0.95

    def test_identical_seeds_identical_metrics(self):
        docs, y = separable_corpus(n_per=15)
        only = ModelConfig("svm", "l2", 1.0)
        ing = neutral_ingredients(docs)
        a = grid_search([only], ing, y, k=3, seed=5, features=SMALL)
        b = grid_search([only], ing, y, k=3, seed=5, features=SMALL)
        assert a == b

    def test_majority_predictor_arithmetic(self):
        # uninformative features: every model falls back to the prior
        docs = [["filler", "words"] for _ in range(100)]
        y = [H] * 12 + [O] * 76 + [N] * 12
        fs = FeatureSettings(
            word_ngram_hi=1, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0, select=False
        )
        only = ModelConfig("logreg", "l2", 1.0)
        res = grid_search([only], neutral_ingredients(docs), y, k=5, seed=42, features=fs)

        # predicting the majority class for every row of share p scores F1
        # 2p/(1+p) on it and 0 on the others, so weighted F1 p*2p/(1+p)
        def majority_f1(p):
            return p * 2 * p / (1 + p)

        (cell,) = res.cells
        assert cell.mean_weighted_f1 == pytest.approx(majority_f1(0.76), abs=0.02)
        # exact per fold: no fold predicts Hate (or Neither) for any row
        for fold, f1 in zip(res.folds, cell.fold_f1):
            share = sum(y[i] == O for i in fold) / len(fold)
            assert f1 == pytest.approx(majority_f1(share), rel=1e-12)

    def test_fold_error_names_fold(self):
        docs, y = separable_corpus(n_per=4)
        fs = FeatureSettings(
            word_ngram_hi=1, pos_ngram_hi=1, min_df=50, max_df_ratio=1.0, select=False
        )
        only = ModelConfig("logreg", "l2", 1.0)
        with pytest.raises(RuntimeError, match="fold 0"):
            grid_search([only], neutral_ingredients(docs), y, k=2, seed=0, features=fs)

    def test_nb_configuration_runs(self):
        docs, y = separable_corpus(n_per=15)
        only = ModelConfig("nb", "none", 1.0)
        res = grid_search([only], neutral_ingredients(docs), y, k=3, seed=1, features=SMALL)
        assert res.best_mean_weighted_f1 >= 0.95

    def test_leakage_free_vocabularies(self):
        # fold vocabularies must come from that fold's training rows alone
        rng = np.random.default_rng(3)
        pool = [f"w{i}" for i in range(30)]
        for trial in range(10):
            docs = [
                [str(rng.choice(pool)) for _ in range(5)] for _ in range(40)
            ]
            y = [int(v) for v in rng.integers(0, 3, 40)]
            folds = kfold_indices(y, 4, trial)
            fs = FeatureSettings(
                word_ngram_hi=2, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0, select=False
            )
            ing = neutral_ingredients(docs)
            for pf in prepare_folds(ing, y, folds, fs):
                train_ngrams = set()
                for j in pf.train_idx:
                    doc = docs[j]
                    train_ngrams.update(doc)
                    train_ngrams.update(
                        " ".join(doc[i : i + 2]) for i in range(len(doc) - 1)
                    )
                assert set(pf.fitted.word_vocab.ngrams) <= train_ngrams


class TestGridSearch:
    def test_single_configuration_is_best(self):
        docs, y = separable_corpus(n_per=10)
        only = ModelConfig("svm", "l2", 1.0)
        res = grid_search([only], neutral_ingredients(docs), y, k=2, seed=0, features=SMALL)
        assert res.best == only
        assert len(res.cells) == 1

    def test_tie_smaller_c_wins(self):
        docs, y = separable_corpus()
        grid = [ModelConfig("logreg", "l2", 10.0), ModelConfig("logreg", "l2", 0.1)]
        res = grid_search(grid, neutral_ingredients(docs), y, k=3, seed=0, features=SMALL)
        assert res.best.C == 0.1

    def test_tie_model_priority_logreg_over_svm(self):
        docs, y = separable_corpus()
        grid = [ModelConfig("svm", "l2", 1.0), ModelConfig("logreg", "l2", 1.0)]
        res = grid_search(grid, neutral_ingredients(docs), y, k=3, seed=0, features=SMALL)
        assert res.best.kind == "logreg"

    def test_smaller_c_outranks_model_priority(self):
        docs, y = separable_corpus()
        grid = [ModelConfig("logreg", "l2", 1.0), ModelConfig("svm", "l2", 0.1)]
        res = grid_search(grid, neutral_ingredients(docs), y, k=3, seed=0, features=SMALL)
        assert res.best.kind == "svm" and res.best.C == 0.1

    def test_best_score_is_table_max(self):
        docs, y = separable_corpus(n_per=12, words_per_doc=2)
        grid = build_grid(["logreg", "svm"], ["l2"], [0.01, 1.0], ["uniform"])
        res = grid_search(grid, neutral_ingredients(docs), y, k=3, seed=2, features=SMALL)
        table_max = max(c.mean_weighted_f1 for c in res.cells if c.error is None)
        assert res.best_mean_weighted_f1 == table_max

    def test_folds_shared_and_recorded(self):
        docs, y = separable_corpus(n_per=10)
        res = grid_search(
            [ModelConfig("logreg", "l2", 1.0)],
            neutral_ingredients(docs),
            y,
            k=3,
            seed=11,
            features=SMALL,
        )
        expected = kfold_indices(y, 3, 11)
        assert res.folds == tuple(tuple(int(v) for v in f) for f in expected)

    def test_empty_grid_rejected(self):
        docs, y = separable_corpus(n_per=5)
        with pytest.raises(ValueError, match="empty"):
            grid_search([], neutral_ingredients(docs), y, k=2, seed=0)

    def _scalar_only_setup(self):
        # n-grams carry no signal, sentiment carries it all, so L1 keeps
        # scalar columns only and the count-based model has nothing left
        n_per = 12
        docs = [["pad", "pad"] for _ in range(3 * n_per)]
        y = [H] * n_per + [O] * n_per + [N] * n_per
        sent = (
            [(1.0, 0.0, 0.0, 0.9)] * n_per
            + [(0.0, 1.0, 0.0, -0.9)] * n_per
            + [(0.0, 0.0, 1.0, 0.0)] * n_per
        )
        ing = Ingredients(
            word_docs=tuple(tuple(d) for d in docs),
            pos_docs=tuple(("NN",) for _ in docs),
            scalars=scalars_of(sent),
        )
        fs = FeatureSettings(
            word_ngram_hi=1,
            pos_ngram_hi=1,
            min_df=1,
            max_df_ratio=1.0,
            standardize=False,
            select=True,
            select_c=1.0,
        )
        return ing, y, fs

    def test_all_configurations_failing_reports_causes(self):
        ing, y, fs = self._scalar_only_setup()
        with pytest.raises(RuntimeError, match="every grid configuration failed"):
            grid_search([ModelConfig("nb", "none", 1.0)], ing, y, k=2, seed=0, features=fs)

    def test_cells_report_convergence(self):
        docs, y = separable_corpus(n_per=10)
        grid = [ModelConfig("logreg", "l1", 1.0), ModelConfig("nb", "none", 1.0)]
        res = grid_search(grid, neutral_ingredients(docs), y, k=2, seed=0, features=SMALL)
        l1, nb = res.cells
        assert l1.converged and l1.max_iterations > 1
        assert nb.converged and nb.max_iterations == 1
        row = grid_report_csv(res).splitlines()[1].split(",")
        assert row[7:] == ["1", str(l1.max_iterations), ""]
        assert f"converged=1 max_iterations={l1.max_iterations}" in grid_report_text(res)

    def test_capped_fits_reported_unconverged(self, monkeypatch):
        def capped(config, X, y):
            return fit_config_model(config, X, y, max_iter=1)

        monkeypatch.setattr(evalharness, "fit_config_model", capped)
        docs, y = separable_corpus(n_per=10)
        grid = [ModelConfig("logreg", "l1", 1.0), ModelConfig("svm", "l2", 1.0)]
        res = grid_search(grid, neutral_ingredients(docs), y, k=2, seed=0, features=SMALL)
        for cell in res.cells:
            assert cell.converged is False and cell.max_iterations == 1
        for row in grid_report_csv(res).splitlines()[1:]:
            assert row.split(",")[7:] == ["0", "1", ""]
        assert grid_report_text(res).count("converged=0 max_iterations=1") == 2

    def test_partial_failure_recorded_not_fatal(self):
        ing, y, fs = self._scalar_only_setup()
        grid = [ModelConfig("logreg", "l2", 1.0), ModelConfig("nb", "none", 1.0)]
        res = grid_search(grid, ing, y, k=2, seed=0, features=fs)
        assert res.best.kind == "logreg"
        nb_cell = res.cells[1]
        assert nb_cell.error is not None and "n-gram" in nb_cell.error
        assert nb_cell.converged is None and nb_cell.max_iterations is None
        assert grid_report_csv(res).splitlines()[2].split(",")[7:9] == ["", ""]


def noisy_ingredients(rng, n_per):
    """Three classes whose words and sentiment overlap, so folds score
    below 1 and selection keeps a mix of n-gram and scalar columns."""
    pools = {H: ["alpha", "beta", "mid"], O: ["gamma", "mid", "both"], N: ["delta", "both", "alpha"]}
    y = [cls for cls in (H, O, N) for _ in range(n_per)]
    docs = [[str(rng.choice(pools[cls])) for _ in range(int(rng.integers(1, 5)))] for cls in y]
    sent = [
        (*(float(v) for v in rng.random(3)), float(rng.normal(cls - 1.0)))
        for cls in y
    ]
    ing = Ingredients(
        word_docs=tuple(tuple(d) for d in docs),
        pos_docs=tuple(("NN",) * len(d) for d in docs),
        scalars=scalars_of(sent),
    )
    return ing, y


class TestFoldMajorGrid:
    """grid_search scores folds outer and configurations inner, building
    each fold's model inputs once; the order must not move a score."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([2, 3]),
        select_c=st.sampled_from([None, 1.0, 0.3]),
        cs=st.sampled_from([(0.1, 1.0), (1.0, 10.0), (0.01, 100.0)]),
    )
    def test_each_cell_equals_its_one_configuration_search(self, seed, k, select_c, cs):
        """select_c None is no selection; at 0.3 selection mostly keeps
        scalar columns only, so the nb cells fail."""
        rng = np.random.default_rng(seed)
        ing, y = noisy_ingredients(rng, int(rng.integers(8, 14)))
        fs = FeatureSettings(
            word_ngram_hi=2, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0,
            select=select_c is not None, select_c=select_c or 1.0,
        )
        grid = build_grid(["logreg", "svm", "nb"], ["l1", "l2"], cs, ["uniform"])
        assert len(grid) == 8
        try:
            mixed = grid_search(grid, ing, y, k=k, seed=seed, features=fs)
        except RuntimeError:
            # every cell failed: so must every one-configuration search
            for config in grid:
                with pytest.raises(RuntimeError):
                    grid_search([config], ing, y, k=k, seed=seed, features=fs)
            return
        for cell in mixed.cells:
            try:
                (alone,) = grid_search([cell.config], ing, y, k=k, seed=seed, features=fs).cells
            except RuntimeError as exc:
                assert cell.error is not None and cell.error in str(exc)
                continue
            assert cell.fold_f1 == alone.fold_f1
            assert cell.converged == alone.converged
            assert cell.max_iterations == alone.max_iterations
            assert cell == alone

    def test_test_matrix_failure_fails_the_cells_that_read_it(self, monkeypatch):
        # the held-out TF-IDF matrix fails; fit_features builds the training
        # rows' one by feature_matrix, which is left whole
        original = pipeline.model_input_matrix

        def broken(kind, *args, **kwargs):
            if kind != "nb":
                raise ValueError("no test matrix")
            return original(kind, *args, **kwargs)

        monkeypatch.setattr(pipeline, "model_input_matrix", broken)
        docs, y = separable_corpus(n_per=10)
        grid = [ModelConfig("logreg", "l2", 1.0), ModelConfig("svm", "l2", 1.0),
                ModelConfig("nb", "none", 1.0)]
        res = grid_search(grid, neutral_ingredients(docs), y, k=2, seed=0, features=SMALL)
        assert [c.error for c in res.cells] == ["fold 0: no test matrix"] * 2 + [None]
        assert res.best.kind == "nb"

    def test_failed_configuration_is_not_fitted_again(self, monkeypatch):
        fitted_kinds = []

        def counting(config, X, y):
            fitted_kinds.append(config.kind)
            if config.kind == "svm":
                raise ValueError("svm refuses")
            return fit_config_model(config, X, y)

        monkeypatch.setattr(evalharness, "fit_config_model", counting)
        docs, y = separable_corpus(n_per=10)
        grid = [ModelConfig("svm", "l2", 1.0), ModelConfig("logreg", "l2", 1.0)]
        res = grid_search(grid, neutral_ingredients(docs), y, k=3, seed=0, features=SMALL)
        assert res.cells[0].error == "fold 0: svm refuses"
        assert fitted_kinds == ["svm", "logreg", "logreg", "logreg"]


def build_fitted(docs, y, settings=SMALL):
    ing = neutral_ingredients(docs)
    fitted = fit_features(ing, y, settings)
    return ing, fitted, feature_matrix(fitted, ing)


def make_tweets(docs, y):
    out = []
    for i, (doc, cls) in enumerate(zip(docs, y)):
        out.append(
            LabeledTweet(
                id=i,
                text=" ".join(doc),
                count_total=3,
                count_hate=3 if cls == H else 0,
                count_offensive=3 if cls == O else 0,
                count_neither=3 if cls == N else 0,
                label=Label(cls),
            )
        )
    return out


class TestErrorReport:
    def setup_method(self):
        self.docs, self.y = separable_corpus(n_per=10, words_per_doc=4)
        self.tweets = make_tweets(self.docs, self.y)
        _, self.fitted, self.fm = build_fitted(self.docs, self.y)
        self.names = self.fitted.input_names("logreg")
        self.model = fit_config_model(ModelConfig("logreg", "l2", 1.0), self.fm, self.y)

    def test_perfect_predictor_empty_off_diagonal(self):
        rep = error_report(self.model, self.fm, self.names, self.tweets, top_n=5)
        for a in (H, O, N):
            for b in (H, O, N):
                if a != b:
                    assert rep.bucket(a, b) == ()

    def test_buckets_sorted_descending(self):
        rep = error_report(self.model, self.fm, self.names, self.tweets, top_n=10)
        for _, entries in rep.buckets:
            scores = [e.score for e in entries]
            assert scores == sorted(scores, reverse=True)

    def test_top_n_caps_bucket_size(self):
        rep = error_report(self.model, self.fm, self.names, self.tweets, top_n=3)
        assert len(rep.bucket(H, H)) == 3

    def test_top_weight_is_construction_keyword(self):
        rep = error_report(self.model, self.fm, self.names, self.tweets, top_n=5)
        hate_names = [name for name, _ in rep.top_weights[H][1]]
        assert any(
            name.split(":")[1].split()[0] in {"alpha", "beta", "gamma"}
            for name in hate_names[:3]
        )

    def test_entry_carries_contributions(self):
        rep = error_report(self.model, self.fm, self.names, self.tweets, top_n=1)
        entry = rep.bucket(H, H)[0]
        assert isinstance(entry, BucketEntry)
        assert entry.top_features
        assert all(isinstance(v, float) for _, v in entry.top_features)

    def test_unlabeled_tweet_rejected(self):
        import dataclasses

        broken = list(self.tweets)
        broken[0] = dataclasses.replace(broken[0], label=None, count_total=0,
                                        count_hate=0, count_offensive=0, count_neither=0)
        with pytest.raises(ValueError, match="labeled"):
            error_report(self.model, self.fm, self.names, broken, top_n=1)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="count"):
            error_report(self.model, self.fm, self.names, self.tweets[:-1], top_n=1)

    def test_column_name_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column names"):
            error_report(self.model, self.fm, self.names[:-1], self.tweets, top_n=1)

    def test_unknown_bucket_key_rejected(self):
        rep = error_report(self.model, self.fm, self.names, self.tweets, top_n=1)
        with pytest.raises(KeyError):
            rep.bucket(0, 7)


class TestReportFormats:
    def test_metrics_text_header_notes_weighting(self):
        rep = metrics([H, O, N], [H, O, N])
        text = metrics_report_text(rep)
        assert "weighted by true-class support" in text
        assert "hate" in text and "accuracy=1.000000" in text

    def test_metrics_csv_shape(self):
        rep = metrics([H, O, N], [H, O, N])
        lines = metrics_report_csv(rep).strip().split("\n")
        assert lines[0] == "metric,value"
        assert len(lines) == 1 + 12 + 5

    def test_confusion_text_layout(self):
        cm = confusion([H, O, N], [H, O, N])
        text = confusion_report_text(cm)
        assert "rows = true class" in text
        assert "counts" in text and "row-normalized" in text

    def test_confusion_csv_rows(self):
        cm = confusion([H, O, N], [H, O, N])
        lines = confusion_report_csv(cm).strip().split("\n")
        assert lines[0] == "kind,true,hate,offensive,neither"
        assert len(lines) == 7
        assert lines[1] == "counts,hate,1,0,0"
        assert lines[4] == "normalized,hate,1.000000,0.000000,0.000000"

    def test_grid_reports_mark_best(self):
        docs, y = separable_corpus(n_per=10)
        grid = [ModelConfig("logreg", "l2", 0.1), ModelConfig("logreg", "l2", 1.0)]
        res = grid_search(grid, neutral_ingredients(docs), y, k=2, seed=0, features=SMALL)
        text = grid_report_text(res)
        assert text.splitlines()[1].startswith("*")
        csv = grid_report_csv(res).strip().split("\n")
        assert csv[0] == (
            "model,penalty,C,class_weight,mean_weighted_f1,std_weighted_f1,best,"
            "converged,max_iterations,error"
        )
        assert csv[1].split(",")[6] == "1"
        assert csv[2].split(",")[6] == "0"

    def test_error_report_formats_deterministic(self):
        docs, y = separable_corpus(n_per=8, words_per_doc=3)
        tweets = make_tweets(docs, y)
        _, fitted, fm = build_fitted(docs, y)
        model = fit_config_model(ModelConfig("logreg", "l2", 1.0), fm, y)
        rep = error_report(model, fm, fitted.input_names("logreg"), tweets, top_n=2)
        assert error_report_text(rep) == error_report_text(rep)
        blob = error_report_json(rep)
        assert blob == error_report_json(rep)
        import json

        parsed = json.loads(blob)
        assert {b["true"] for b in parsed["buckets"]} == {0, 1, 2}
