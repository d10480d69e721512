import csv
import dataclasses
import importlib.resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatetriage import pipeline
from hatetriage._serialize import ArtifactFormatError, dump_artifact, load_artifact
from hatetriage.lexfeat import (
    ReadabilityScores,
    SentimentLexicon,
    SentimentScores,
    SurfaceFeatures,
    readability,
    sentiment_scores,
    surface_features,
)
from hatetriage.pipeline import (
    PIPELINE_FORMAT_VERSION,
    PIPELINE_MAGIC,
    MODEL_KINDS,
    FeatureSettings,
    Ingredients,
    ModelConfig,
    PipelineModel,
    SplitInputs,
    build_grid,
    count_matrix,
    extract_ingredients,
    feature_matrix,
    fit_config_model,
    fit_features,
    load_pipeline,
    pipeline_predict,
    save_pipeline,
    train_input_matrix,
)
from hatetriage.postag import load_model
from hatetriage.textproc import tokenize, word_streams
from postag_reference import reference_tag
from textproc_reference import reference_preprocess, reference_unstemmed_words


@pytest.fixture(scope="module")
def tagger():
    data = importlib.resources.files("hatetriage.data").joinpath("pos_model.txt")
    return load_model(data.read_bytes())


CORPUS = importlib.resources.files("hatetriage.data").joinpath("toy_corpus.csv")

LEX = SentimentLexicon(valences={"good": 2.0, "love": 3.0, "bad": -2.5, "hate": -2.7})


def neutral_ingredients(word_docs):
    n = len(word_docs)
    return Ingredients(
        word_docs=tuple(tuple(d) for d in word_docs),
        pos_docs=tuple(("NN", "VBP") for _ in range(n)),
        sentiment=tuple(SentimentScores(0.0, 0.0, 1.0, 0.0) for _ in range(n)),
        readability=tuple(ReadabilityScores(1.0, 100.0) for _ in range(n)),
        surface=tuple(SurfaceFeatures(0, 0, 0, 0, 10, 2, 3) for _ in range(n)),
    )


# chunks that repeat within and across texts: the retweet marker in every
# case and position, bare and chained hashtags, URLs and mentions with
# trailing punctuation, lexicon hits with negation and boosters, non-ASCII
# words and punctuation-only chunks
TEXTS_OF_REPEATED_CHUNKS = st.lists(
    st.sampled_from([
        "RT", "rt", "Rt", "#", "#a#b!", "#Good", "http://x.co/y).", "www.a.b,", "@u", "@u:",
        "good", "GOOD", "love!!", "not", "don't", "very", "bad", "hate", "the", "é", "naïve",
        "…", "!!", "a", "running",
    ]),
    max_size=8,
).map(" ".join)


def per_tweet_ingredients(texts, tagger, lexicon):
    """Ingredients built tweet by tweet from one token list each, as
    extraction did before it memoized chunks, with the dict-scorer tagger."""
    word_docs, pos_docs, sent, read, surf = [], [], [], [], []
    for text in texts:
        tokens = tokenize(text)
        stemmed, words = word_streams(tokens)
        word_docs.append(tuple(stemmed))
        pos_docs.append(tuple(reference_tag(tagger, words)))
        sent.append(sentiment_scores(tokens, lexicon))
        sf = surface_features(text, tokens)
        surf.append(sf)
        read.append(readability(max(1, sf.num_words), max(1, sf.num_syllables)))
    return Ingredients(
        word_docs=tuple(word_docs),
        pos_docs=tuple(pos_docs),
        sentiment=tuple(sent),
        readability=tuple(read),
        surface=tuple(surf),
    )


class TestModelConfig:
    def test_valid_combinations(self):
        ModelConfig("logreg", "l1", 0.5)
        ModelConfig("logreg", "l2", 2.0, class_weight="balanced")
        ModelConfig("svm", "l2", 1.0)
        ModelConfig("nb", "none", 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ModelConfig("tree", "l2", 1.0)

    def test_penalty_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="penalty"):
            ModelConfig("svm", "l1", 1.0)
        with pytest.raises(ValueError, match="penalty"):
            ModelConfig("nb", "l2", 1.0)

    def test_nonpositive_c_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig("logreg", "l2", 0.0)

    def test_bad_class_weight_rejected(self):
        with pytest.raises(ValueError, match="class_weight"):
            ModelConfig("logreg", "l2", 1.0, class_weight="none")

    def test_describe_mentions_everything(self):
        text = ModelConfig("svm", "l2", 0.25).describe()
        assert "svm" in text and "l2" in text and "0.25" in text


class TestFeatureSettings:
    def test_defaults(self):
        fs = FeatureSettings()
        assert fs.word_ngram_lo == 1 and fs.word_ngram_hi == 3
        assert fs.min_df == 5 and fs.max_df_ratio == 0.75
        assert fs.standardize and fs.select

    def test_bad_ngram_order_rejected(self):
        with pytest.raises(ValueError):
            FeatureSettings(word_ngram_lo=3, word_ngram_hi=1)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            FeatureSettings(min_df=0)
        with pytest.raises(ValueError):
            FeatureSettings(max_df_ratio=0.0)
        with pytest.raises(ValueError):
            FeatureSettings(select_c=-1.0)


class TestBuildGrid:
    def test_penalty_normalized_per_kind(self):
        grid = build_grid(["logreg", "svm", "nb"], ["l1", "l2"], [1.0], ["uniform"])
        kinds = [(c.kind, c.penalty) for c in grid]
        assert ("logreg", "l1") in kinds and ("logreg", "l2") in kinds
        assert ("svm", "l2") in kinds and ("svm", "l1") not in kinds
        assert ("nb", "none") in kinds

    def test_duplicates_dropped(self):
        grid = build_grid(["svm"], ["l1", "l2"], [1.0], ["uniform"])
        assert len(grid) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_grid([], ["l2"], [1.0], ["uniform"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            build_grid(["forest"], ["l2"], [1.0], ["uniform"])


class TestIngredients:
    def test_block_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="document count"):
            Ingredients(
                word_docs=(("a",),),
                pos_docs=(),
                sentiment=(SentimentScores(0, 0, 1, 0),),
                readability=(ReadabilityScores(1.0, 100.0),),
                surface=(SurfaceFeatures(0, 0, 0, 0, 1, 1, 1),),
            )

    def test_extract_on_real_texts(self, tagger):
        texts = [
            "RT @user: I love this so much!",
            "the weather is bad today http://x.co/y",
            "#blessed good vibes only",
        ]
        ing = extract_ingredients(texts, tagger, LEX)
        assert len(ing) == 3
        assert ing.word_docs[0][0] != "rt"  # marker dropped
        assert "URLHERE" in ing.word_docs[1]
        assert len(ing.pos_docs[0]) > 0
        assert ing.sentiment[0].compound > 0
        assert ing.surface[1].count_urls == 1

    def test_wordless_text_still_scores(self, tagger):
        # readability is clamped to one empty word instead of erroring
        ing = extract_ingredients(["@someone !!"], tagger, LEX)
        assert ing.readability[0].reading_ease == pytest.approx(121.22, abs=1e-2)
        assert ing.surface[0].num_words == 0

    def test_empty_text_ok(self, tagger):
        ing = extract_ingredients([""], tagger, LEX)
        assert ing.word_docs[0] == ()
        assert ing.pos_docs[0] == ()

    def test_single_pass_matches_three_pass_composition(self, tagger):
        # the old extraction tokenized each text in itself, preprocess and
        # unstemmed_words, and tagged each text alone with the dict scorer;
        # the single pass and its one batched tagging must give the same,
        # and so must its scalar blocks built from per-chunk parts
        with open(CORPUS, encoding="utf-8") as f:
            texts = [row["tweet"] for row in csv.DictReader(f)]
        ing = extract_ingredients(texts, tagger, LEX)
        word_docs = tuple(tuple(reference_preprocess(t)) for t in texts)
        pos_docs = []
        for text in texts:
            words = reference_unstemmed_words(text)
            pos_docs.append(tuple(reference_tag(tagger, words)))
        assert ing.word_docs == word_docs
        assert ing.pos_docs == tuple(pos_docs)
        per_tweet = per_tweet_ingredients(texts, tagger, LEX)
        assert ing.sentiment == per_tweet.sentiment
        assert ing.readability == per_tweet.readability
        assert ing.surface == per_tweet.surface

    @settings(max_examples=150, deadline=None)
    @given(st.lists(TEXTS_OF_REPEATED_CHUNKS, max_size=6))
    def test_chunk_memo_matches_per_tweet_path(self, tagger, texts):
        ing = extract_ingredients(texts, tagger, LEX)
        assert ing == per_tweet_ingredients(texts, tagger, LEX)
        # one call per text shares no memo across texts, and gives the same
        alone = [extract_ingredients([t], tagger, LEX) for t in texts]
        for name in ("word_docs", "pos_docs", "sentiment", "readability", "surface"):
            assert getattr(ing, name) == tuple(getattr(a, name)[0] for a in alone)


class TestFitFeatures:
    def test_subset_rows_only_shape_vocab(self):
        docs = [["common", "common"], ["common", "rare"], ["other", "other"]]
        ing = neutral_ingredients(docs)
        fs = FeatureSettings(
            word_ngram_hi=1, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0, select=False
        )
        fitted = fit_features(ing, [0, 1, 0], fs, indices=[0, 1])
        assert "other" not in fitted.word_vocab.index
        assert "common" in fitted.word_vocab.index

    def test_transform_width_constant_across_subsets(self):
        docs = [["a", "b"], ["b", "c"], ["a", "c"], ["a", "b"]]
        ing = neutral_ingredients(docs)
        fs = FeatureSettings(
            word_ngram_hi=1, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0, select=False
        )
        fitted = fit_features(ing, [0, 1, 0, 1], fs)
        full = feature_matrix(fitted, ing)
        part = feature_matrix(fitted, ing, indices=[2])
        assert part.n_cols == full.n_cols
        assert part.n_rows == 1

    def test_vocabulary_from_other_ingredients_takes_the_lookup(self):
        """Rows of a count table the vocabularies were not fitted from are
        transformed as token lists: the result equals that for ingredients
        that were never counted."""
        fs = FeatureSettings(
            word_ngram_hi=2, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0, select=False
        )
        fitted = fit_features(neutral_ingredients([["a", "b"], ["b", "c"], ["a"]]), [0, 1, 0], fs)
        docs = [["c", "a", "b"], ["b", "b"], ["z"], []]
        counted = neutral_ingredients(docs)
        counted.ngram_table("word-ngram", 1, 2)
        counted.ngram_table("pos-ngram", 1, 1)
        for build in (feature_matrix, count_matrix):
            got, want = build(fitted, counted), build(fitted, neutral_ingredients(docs))
            assert got.registry == want.registry
            for name in ("data", "indices", "indptr"):
                assert getattr(got.matrix, name).tobytes() == getattr(want.matrix, name).tobytes()
        assert feature_matrix(fitted, counted).matrix.nnz > 0

    def test_registry_covers_all_blocks(self):
        docs = [["a", "b"], ["b", "c"], ["a", "c"]]
        ing = neutral_ingredients(docs)
        fs = FeatureSettings(
            word_ngram_hi=1, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0, select=False
        )
        fitted = fit_features(ing, [0, 1, 2], fs)
        blocks = {b for b, _ in fitted.registry}
        assert blocks == {"word-ngram", "pos-ngram", "sentiment", "readability", "surface"}

    def test_selection_meta_kept_but_not_compared(self):
        rng = np.random.default_rng(0)
        vocab = {0: ["alpha", "beta"], 1: ["delta", "epsilon"]}
        y = [cls for cls in (0, 1) for _ in range(15)]
        docs = [[str(rng.choice(vocab[cls])) for _ in range(4)] for cls in y]
        ing = neutral_ingredients(docs)
        fs = FeatureSettings(
            word_ngram_hi=1, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0, select_c=10.0
        )
        fitted = fit_features(ing, y, fs)
        assert len(fitted.selection_meta) == 2
        assert all(m.iterations > 0 for m in fitted.selection_meta)
        assert dataclasses.replace(fitted, selection_meta=None) == fitted
        unselected = fit_features(ing, y, dataclasses.replace(fs, select=False))
        assert unselected.selection_meta is None

    def test_count_matrix_intersects_selection_with_ngram_span(self):
        rng = np.random.default_rng(0)
        vocab = {0: ["alpha", "beta"], 1: ["delta", "epsilon"]}
        docs, y = [], []
        for cls in (0, 1):
            for _ in range(15):
                docs.append([str(rng.choice(vocab[cls])) for _ in range(4)])
                y.append(cls)
        ing = neutral_ingredients(docs)
        fs = FeatureSettings(
            word_ngram_hi=1,
            pos_ngram_hi=1,
            min_df=1,
            max_df_ratio=1.0,
            select=True,
            select_c=10.0,
        )
        fitted = fit_features(ing, y, fs)
        cm = count_matrix(fitted, ing)
        assert all(block in ("word-ngram", "pos-ngram") for block, _ in cm.registry)
        assert cm.n_cols <= fitted.n_ngram_columns
        dense = cm.matrix.toarray()
        assert (dense >= 0).all()
        assert (dense == dense.astype(int)).all()


def two_class_fit(select):
    rng = np.random.default_rng(0)
    vocab = {0: ["alpha", "beta"], 1: ["delta", "epsilon"]}
    y = [cls for cls in (0, 1) for _ in range(15)]
    docs = [[str(rng.choice(vocab[cls])) for _ in range(4)] for cls in y]
    ing = neutral_ingredients(docs)
    fs = FeatureSettings(
        word_ngram_hi=1, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0, select=select, select_c=10.0
    )
    return ing, y, fit_features(ing, y, fs, range(20))


def scalar_only_fit():
    """Selection that keeps sentiment columns only, so no count matrix can
    be built."""
    y = [0] * 12 + [1] * 12
    sent = [SentimentScores(1.0, 0.0, 0.0, 0.9)] * 12 + [SentimentScores(0.0, 1.0, 0.0, -0.9)] * 12
    ing = Ingredients(
        word_docs=tuple(("pad", "pad") for _ in y),
        pos_docs=tuple(("NN",) for _ in y),
        sentiment=tuple(sent),
        readability=tuple(ReadabilityScores(1.0, 100.0) for _ in y),
        surface=tuple(SurfaceFeatures(0, 0, 0, 0, 10, 2, 3) for _ in y),
    )
    fs = FeatureSettings(
        word_ngram_hi=1, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0, standardize=False
    )
    return ing, y, fit_features(ing, y, fs, range(16))


class TestModelInputs:
    @pytest.mark.parametrize("select", [False, True])
    def test_train_input_per_kind(self, select):
        ing, y, fitted = two_class_fit(select)
        rows = range(20)
        for kind in ("logreg", "svm"):
            assert train_input_matrix(kind, fitted, ing, rows) is fitted.train_matrix
        counts = train_input_matrix("nb", fitted, ing, rows)
        want = count_matrix(fitted, ing, rows)
        assert counts.registry == want.registry
        assert (counts.matrix.toarray() == want.matrix.toarray()).all()

    @pytest.mark.parametrize("select", [False, True])
    def test_split_inputs_build_each_matrix_once(self, select, monkeypatch):
        ing, y, fitted = two_class_fit(select)
        built = []
        for name in ("feature_matrix", "count_matrix"):
            original = getattr(pipeline, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, spy)
        inputs = SplitInputs(fitted, ing, range(20), range(20, 30))
        tfidf = inputs.get("logreg")
        assert inputs.get("svm") is tfidf and inputs.get("logreg") is tfidf
        assert tfidf[0] is fitted.train_matrix
        assert tfidf[1].matrix.shape == (10, fitted.train_matrix.n_cols)
        counts = inputs.get("nb")
        assert inputs.get("nb") is counts
        assert [m.matrix.shape[0] for m in counts] == [20, 10]
        assert built == ["feature_matrix", "count_matrix", "count_matrix"]

    def test_split_inputs_count_failure_fails_count_kinds_only(self, monkeypatch):
        ing, y, fitted = scalar_only_fit()
        assert all(c >= fitted.n_ngram_columns for c in fitted.selected_columns)
        calls = []
        original = pipeline.count_matrix
        monkeypatch.setattr(
            pipeline, "count_matrix", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        inputs = SplitInputs(fitted, ing, range(16), range(16, 24))
        for _ in range(2):
            with pytest.raises(ValueError, match="n-gram"):
                inputs.get("nb")
        assert len(calls) == 1
        assert inputs.get("logreg")[1].n_rows == 8


PAYLOAD_FIELDS = (
    "config",
    "lexicon",
    "model",
    "pos_vocab",
    "registry",
    "selected_columns",
    "settings",
    "standardizer",
    "tagger",
    "word_vocab",
)


class TestPipelineArtifact:
    def build(self, tagger, kind="logreg", select=False):
        rng = np.random.default_rng(1)
        words = {0: ["awful", "trash"], 1: ["mediocre", "meh"], 2: ["lovely", "sunny"]}
        texts, y = [], []
        for cls in (0, 1, 2):
            for _ in range(12):
                texts.append(" ".join(str(rng.choice(words[cls])) for _ in range(4)))
                y.append(cls)
        ing = extract_ingredients(texts, tagger, LEX)
        fs = FeatureSettings(
            word_ngram_hi=2, pos_ngram_hi=1, min_df=2, max_df_ratio=1.0, select=select
        )
        fitted = fit_features(ing, y, fs)
        config = (
            ModelConfig(kind, "none" if kind == "nb" else "l2", 1.0)
        )
        fm = (
            count_matrix(fitted, ing) if kind == "nb" else feature_matrix(fitted, ing)
        )
        model = fit_config_model(config, fm, y)
        pm = PipelineModel(
            tagger=tagger, lexicon=LEX, fitted=fitted, model=model, config=config
        )
        return pm, texts, y

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_roundtrip_reproduces_predictions(self, tagger, kind):
        pm, texts, y = self.build(tagger, kind)
        blob = save_pipeline(pm)
        restored = load_pipeline(blob)
        assert (restored.model.weights == pm.model.weights).all()
        assert (restored.model.bias == pm.model.bias).all()
        assert restored.model.loss == pm.model.loss
        assert save_pipeline(restored) == blob
        l1, s1 = pipeline_predict(pm, texts)
        l2, s2 = pipeline_predict(restored, texts)
        assert (l1 == l2).all()
        assert (s1 == s2).all()

    def test_selection_meta_not_saved(self, tagger):
        pm, _, _ = self.build(tagger, select=True)
        assert pm.fitted.selection_meta is not None
        restored = load_pipeline(save_pipeline(pm))
        assert restored.fitted.selection_meta is None
        assert restored.fitted == pm.fitted

    def test_serialization_byte_stable(self, tagger):
        pm, _, _ = self.build(tagger)
        blob = save_pipeline(pm)
        assert blob == save_pipeline(load_pipeline(blob))

    def test_nb_pipeline_roundtrip(self, tagger):
        pm, texts, y = self.build(tagger, kind="nb")
        restored = load_pipeline(save_pipeline(pm))
        labels, scores = pipeline_predict(restored, texts)
        assert (labels == np.asarray(y)).mean() > 0.9
        assert (scores <= 0).all()

    def test_version_mismatch_rejected(self, tagger):
        pm, _, _ = self.build(tagger)
        blob = save_pipeline(pm).replace(b"pipeline 1 ", b"pipeline 3 ", 1)
        with pytest.raises(ArtifactFormatError, match="version"):
            load_pipeline(blob)

    def test_truncation_rejected(self, tagger):
        pm, _, _ = self.build(tagger)
        with pytest.raises(ArtifactFormatError):
            load_pipeline(save_pipeline(pm)[:-7])

    @pytest.mark.parametrize("field", PAYLOAD_FIELDS)
    def test_missing_payload_field_rejected(self, tagger, field):
        pm, _, _ = self.build(tagger)
        payload = load_artifact(save_pipeline(pm), PIPELINE_MAGIC, PIPELINE_FORMAT_VERSION)
        assert field in payload
        del payload[field]
        blob = dump_artifact(PIPELINE_MAGIC, PIPELINE_FORMAT_VERSION, payload)
        with pytest.raises(ArtifactFormatError, match=f"missing field '{field}'"):
            load_pipeline(blob)

    def test_payload_covers_every_field_tested(self, tagger):
        pm, _, _ = self.build(tagger)
        payload = load_artifact(save_pipeline(pm), PIPELINE_MAGIC, PIPELINE_FORMAT_VERSION)
        assert sorted(payload) == list(PAYLOAD_FIELDS)

    @pytest.mark.parametrize(
        "field, value",
        [("settings", 3), ("standardizer", {"means": []}), ("tagger", None), ("config", [])],
    )
    def test_mistyped_payload_field_rejected(self, tagger, field, value):
        pm, _, _ = self.build(tagger)
        payload = load_artifact(save_pipeline(pm), PIPELINE_MAGIC, PIPELINE_FORMAT_VERSION)
        payload[field] = value
        blob = dump_artifact(PIPELINE_MAGIC, PIPELINE_FORMAT_VERSION, payload)
        with pytest.raises(ArtifactFormatError, match=f"field '{field}' is malformed"):
            load_pipeline(blob)

    @pytest.mark.parametrize(
        "kind, edit, field",
        [
            ("logreg", "weights-column-dropped", "model"),
            ("nb", "weights-column-dropped", "model"),
            ("logreg", "selected-column-beyond-registry", "selected_columns"),
            ("logreg", "selected-column-negative", "selected_columns"),
            ("logreg", "selected-columns-unsorted", "selected_columns"),
            ("logreg", "registry-truncated", "registry"),
            ("logreg", "registry-entry-renamed", "registry"),
            ("logreg", "standardizer-dropped", "standardizer"),
            ("logreg", "standardizer-short", "standardizer"),
            ("logreg", "standardizer-scale-zero", "standardizer"),
            ("logreg", "standardizer-scale-nan", "standardizer"),
            ("logreg", "standardizer-scale-string", "standardizer"),
            ("logreg", "word-vocab-df-short", "word_vocab"),
            ("logreg", "word-vocab-df-negative", "word_vocab"),
            ("logreg", "word-vocab-df-string", "word_vocab"),
            ("logreg", "pos-vocab-ngrams-unordered", "pos_vocab"),
        ],
    )
    def test_inconsistent_fields_rejected(self, tagger, kind, edit, field):
        # each edit leaves well-typed JSON whose parts disagree; loading must
        # fail on the field, not predict from bad columns (or, without the
        # stored standardizer, standardize each batch by its own statistics)
        pm, texts, _ = self.build(tagger, kind, select=True)
        payload = load_artifact(save_pipeline(pm), PIPELINE_MAGIC, PIPELINE_FORMAT_VERSION)
        cols = payload["selected_columns"]
        assert len(cols) >= 2
        if edit == "weights-column-dropped":
            payload["model"]["weights"] = [row[:-1] for row in payload["model"]["weights"]]
        elif edit == "selected-column-beyond-registry":
            cols[-1] = 10**6
        elif edit == "selected-column-negative":
            cols[0] = -1
        elif edit == "selected-columns-unsorted":
            cols[0], cols[1] = cols[1], cols[0]
        elif edit == "registry-truncated":
            payload["registry"] = payload["registry"][:-1]
        elif edit == "registry-entry-renamed":
            payload["registry"][0][1] += "!"
        elif edit == "standardizer-dropped":
            payload["standardizer"] = None
        elif edit == "standardizer-short":
            payload["standardizer"]["means"].pop()
        elif edit.startswith("standardizer-scale-"):
            bad = {"zero": 0.0, "nan": float("nan"), "string": "1.0"}
            payload["standardizer"]["scales"][0] = bad[edit.rsplit("-", 1)[1]]
        elif edit == "word-vocab-df-short":
            payload["word_vocab"]["df"].pop()
        elif edit == "word-vocab-df-negative":
            payload["word_vocab"]["df"][0] = -1
        elif edit == "word-vocab-df-string":
            payload["word_vocab"]["df"][0] = str(payload["word_vocab"]["df"][0])
        else:
            ngrams = payload["pos_vocab"]["ngrams"]
            ngrams[0], ngrams[1] = ngrams[1], ngrams[0]
        blob = dump_artifact(PIPELINE_MAGIC, PIPELINE_FORMAT_VERSION, payload)
        with pytest.raises(ArtifactFormatError, match=f"field '{field}' is malformed"):
            load_pipeline(blob)

    def test_empty_input_empty_output(self, tagger):
        pm, _, _ = self.build(tagger)
        labels, scores = pipeline_predict(pm, [])
        assert labels.shape == (0,)
        assert scores.shape == (0, 3)

    def test_predict_one_at_a_time_matches_batch(self, tagger):
        pm, texts, _ = self.build(tagger)
        batch_labels, batch_scores = pipeline_predict(pm, texts[:5])
        for i, text in enumerate(texts[:5]):
            one_label, one_score = pipeline_predict(pm, [text])
            assert one_label[0] == batch_labels[i]
            assert one_score[0] == pytest.approx(batch_scores[i], abs=1e-12)
