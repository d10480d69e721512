import csv
import dataclasses
import importlib.resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatetriage import pipeline
from hatetriage._serialize import ArtifactFormatError, dump_artifact, load_artifact
from hatetriage.lexfeat import SCALAR_COLUMNS, SentimentLexicon, readability
from hatetriage.linmodel import LinearModel
from hatetriage.pipeline import (
    PIPELINE_FORMAT_VERSION,
    PIPELINE_MAGIC,
    MEMO_CHUNKS,
    MODEL_KINDS,
    ChunkMemo,
    FeatureSettings,
    FittedFeatures,
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
from hatetriage.textproc import (
    MENTION_PLACEHOLDER,
    URL_PLACEHOLDER,
    TokenKind,
    porter_stem,
    split_retweet,
    tokenize,
)
from hatetriage.vectorize import Vocabulary
from lexfeat_reference import reference_sentiment_scores
from pipeline_reference import ReferenceChunkTables, reference_surface_counts
from postag_reference import reference_tag
from textproc_reference import reference_preprocess, reference_unstemmed_words


@pytest.fixture(scope="module")
def tagger():
    data = importlib.resources.files("hatetriage.data").joinpath("pos_model.txt")
    return load_model(data.read_bytes())


CORPUS = importlib.resources.files("hatetriage.data").joinpath("toy_corpus.csv")

LEX = SentimentLexicon(valences={"good": 2.0, "love": 3.0, "bad": -2.5, "hate": -2.7})


# fixed readability and surface columns, in SCALAR_COLUMNS order: grade
# 1 and ease 100, no hashtag, mention, retweet or URL, 10 characters, 2
# words and 3 syllables
FIXED_SCALARS = (1.0, 100.0, 0, 0, 0, 0, 0, 0, 0, 0, 10, 2, 3)


def scalars_of(sentiment):
    """One scalar row per (pos, neg, neu, compound), in SCALAR_COLUMNS
    order, with FIXED_SCALARS after it."""
    rows = [(*s, *FIXED_SCALARS) for s in sentiment]
    return np.array(rows).reshape(-1, len(SCALAR_COLUMNS))


def neutral_ingredients(word_docs):
    n = len(word_docs)
    return Ingredients(
        word_docs=tuple(tuple(d) for d in word_docs),
        pos_docs=tuple(("NN", "VBP") for _ in range(n)),
        scalars=scalars_of([(0.0, 0.0, 1.0, 0.0)] * n),
    )


def column(block, name):
    return SCALAR_COLUMNS.index((block, name))


def assert_same_ingredients(got, want):
    """Equal documents and bit-identical scalars."""
    assert got.word_docs == want.word_docs
    assert got.pos_docs == want.pos_docs
    assert np.array_equal(got.scalars, want.scalars)


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


# pieces of chunks: every token kind, chained mentions and hashtags, URLs
# with and without text after the scheme, punctuation, underscores and
# apostrophes, digits, negations, boosters and all-caps words, and
# non-ASCII letters whose case mappings change their length or form
CHUNK_PIECES = st.sampled_from([
    "good", "GOOD", "Good", "not", "NOT", "n't", "don't", "DON'T", "So", "so", "very", "a", "I",
    "42", "4u", "#", "#a", "@", "@x", "-y", "http://", "x.co/", "www.", "a://b", "!", "!!", ".",
    ",", "_", "'", "'''", "…", "é", "ß", "SS", "İ", "İstanbul", "ǅ", "ǆ", "K",
])
CHUNKS = st.lists(CHUNK_PIECES, min_size=1, max_size=4).map("".join) | st.text(
    st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), min_size=1, max_size=6
).filter(lambda c: c.split() == [c])


def reference_scores(text, lexicon):
    """One tweet's sentiment, readability and surface scores, each block a
    name -> value dict, from the references: the per-token sentiment loop
    and a walk over its tokens for the surface counts."""
    tokens = tokenize(text)
    hashtags, mentions, urls, words, syllables = reference_surface_counts(tokens)
    retweets = sum(t.kind is TokenKind.RETWEET for t in tokens)
    kinds = {"hashtag": hashtags, "mention": mentions, "retweet": retweets, "url": urls}
    return {
        "sentiment": dict(zip(("pos", "neg", "neu", "compound"),
                              reference_sentiment_scores(tokens, lexicon), strict=True)),
        "readability": dict(zip(("fk_grade", "reading_ease"),
                                readability(max(1, words), max(1, syllables)), strict=True)),
        "surface": {
            **{f"count_{kind}s": n for kind, n in kinds.items()},
            **{f"has_{kind}": int(n > 0) for kind, n in kinds.items()},
            "num_chars": len(text), "num_words": words, "num_syllables": syllables,
        },
    }


def per_tweet_ingredients(texts, tagger, lexicon):
    """Ingredients built tweet by tweet from the references, as extraction
    did before it memoized chunks, with the dict-scorer tagger."""
    word_docs, pos_docs, scalars = [], [], []
    for text in texts:
        word_docs.append(tuple(reference_preprocess(text)))
        pos_docs.append(tuple(reference_tag(tagger, reference_unstemmed_words(text))))
        scored = reference_scores(text, lexicon)
        scalars.append([scored[block][name] for block, name in SCALAR_COLUMNS])
    return Ingredients(
        word_docs=tuple(word_docs),
        pos_docs=tuple(pos_docs),
        scalars=np.array(scalars, dtype=np.float64).reshape(-1, len(SCALAR_COLUMNS)),
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
                scalars=scalars_of([(0, 0, 1, 0)]),
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
        assert ing.scalars[0, column("sentiment", "compound")] > 0
        assert ing.scalars[1, column("surface", "count_urls")] == 1

    def test_wordless_text_still_scores(self, tagger):
        # readability is clamped to one empty word instead of erroring
        ing = extract_ingredients(["@someone !!"], tagger, LEX)
        assert ing.scalars[0, column("readability", "reading_ease")] == pytest.approx(
            121.22, abs=1e-2
        )
        assert ing.scalars[0, column("surface", "num_words")] == 0

    @pytest.mark.parametrize("text", [
        "RT @a: so GOOD!! http://x.co/y #tag",  # retweet, mention, URL, hashtag
        "not very good #one#two @m www.a.b",
        "@someone !!",  # no words
        "",
    ])
    def test_scalar_columns_hold_the_values_they_name(self, tagger, text):
        """Each scalar column, found by its name alone, holds that value of
        the tweet as the references score it from its token list."""
        scored = reference_scores(text, LEX)
        assert {(b, n) for b in scored for n in scored[b]} == set(SCALAR_COLUMNS)
        (row,) = extract_ingredients([text], tagger, LEX).scalars
        for (block, name), value in zip(SCALAR_COLUMNS, row.tolist(), strict=True):
            assert value == scored[block][name], (block, name)
        if text.startswith("RT"):
            for name in ("has_retweet", "has_mention", "has_url", "has_hashtag"):
                assert row[column("surface", name)] == 1

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
        assert np.array_equal(ing.scalars, per_tweet.scalars)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(TEXTS_OF_REPEATED_CHUNKS, max_size=6))
    def test_chunk_memo_matches_per_tweet_path(self, tagger, texts):
        ing = extract_ingredients(texts, tagger, LEX)
        assert_same_ingredients(ing, per_tweet_ingredients(texts, tagger, LEX))
        # a call given no memo gets a fresh one, so one call per text shares
        # nothing across texts; one memo shared by those calls, as a loaded
        # model's is by its predict calls, gives the same too
        for memo in (None, ChunkMemo()):
            alone = [extract_ingredients([t], tagger, LEX, memo) for t in texts]
            for name in ("word_docs", "pos_docs"):
                assert getattr(ing, name) == tuple(getattr(a, name)[0] for a in alone)
            rows = np.array([a.scalars[0] for a in alone]).reshape(-1, len(SCALAR_COLUMNS))
            assert np.array_equal(ing.scalars, rows)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(CHUNKS, max_size=6).map(" ".join), max_size=8),
           st.integers(0, 8), st.randoms(use_true_random=False))
    def test_memo_tables_equal_the_four_walk_reference(self, tagger, texts, cut, rng):
        """Each new chunk is walked once, and what a word contributes is
        derived once per word; the memo's tables (word and stem strings,
        each word's stem and the six flat arrays) equal, exactly, those of
        the reference that walked every new chunk four times. The texts come
        in random order, as two calls that share one memo."""
        texts = ["RT " + t if rng.random() < 0.2 else t for t in texts]
        rng.shuffle(texts)
        memo, ref = ChunkMemo(), ReferenceChunkTables()
        for batch in (texts[:cut], texts[cut:]):
            extract_ingredients(batch, tagger, LEX, memo)
        for text in texts:
            for chunk in split_retweet(text)[1]:
                ref.add(chunk)
        tables = memo.tables
        assert tables.chunks == ref.chunks
        assert tables.words.strings == ref.words.strings
        assert tables.stemmed.strings == ref.stemmed.strings
        assert tables.stem_of.tolist() == ref.stem_of.tolist()
        assert [a.tolist() for a in tables.arrays] == list(ref.arrays)


def hand_pipeline(tagger, word_weights) -> PipelineModel:
    """A logistic pipeline over the word vocabulary ("rain", "trash"), one
    POS column and the unscaled scalar columns, which weigh nothing; row k
    of word_weights holds class k's weights of the two words."""
    def vocab(ngrams):
        return Vocabulary(ngrams=ngrams, df=(1,) * len(ngrams), n_docs=2, n_lo=1, n_hi=1,
                          min_df=1, max_df_ratio=1.0)

    fitted = FittedFeatures(word_vocab=vocab(("rain", "trash")), pos_vocab=vocab(("NN",)),
                            standardizer=None, selected_columns=None)
    weights = np.zeros((3, len(fitted.registry)))
    weights[:, :2] = word_weights
    model = LinearModel(weights=weights, bias=np.zeros(3), classes=(0, 1, 2),
                        loss="logistic", penalty="l2", C=1.0)
    return PipelineModel(tagger=tagger, lexicon=LEX, fitted=fitted, model=model,
                         config=ModelConfig("logreg", "l2", 1.0))


class TestPipelinePredict:
    def test_label_from_saturated_scores_follows_the_margins(self, tagger):
        """Each text's TF-IDF row is one word at weight 1, so its margins are
        that word's weights: far enough out that every score is exactly 1
        ("rain") or exactly 0 ("trash"), a three-way tie of scores."""
        pm = hand_pipeline(tagger, [[40.0, -900.0], [50.0, -750.0], [60.0, -800.0]])
        assert len(pm.fitted.registry) == 3 + len(SCALAR_COLUMNS)
        labels, scores = pipeline_predict(pm, ["rain", "trash"])
        assert scores.tolist() == [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]
        assert labels.tolist() == [2, 1]


@pytest.fixture(scope="module")
def saved_pipeline(tagger) -> bytes:
    return save_pipeline(built_pipeline(tagger)[0])


def split_at(texts, cuts):
    bounds = [0, *sorted(cuts), len(texts)]
    return [texts[a:b] for a, b in zip(bounds, bounds[1:])]


class TestModelMemo:
    """A loaded model keeps one chunk memo for all its predict calls."""

    @pytest.mark.parametrize("bound", [MEMO_CHUNKS, 4, 0])
    @settings(max_examples=40, deadline=None)
    @given(
        texts=st.lists(TEXTS_OF_REPEATED_CHUNKS | st.sampled_from(["awful meh", "lovely sunny"]),
                       min_size=1, max_size=10),
        data=st.data(),
    )
    def test_stream_equals_calls_on_fresh_models(self, saved_pipeline, bound, texts, data):
        """However a stream is cut into calls, each call's labels and scores
        equal, bit for bit, those of the same call on a freshly loaded
        model: with the memo cold (first pass), warm (second pass), and
        emptied between calls (a bound of 4 or 0 chunks)."""
        batches = split_at(texts, data.draw(st.lists(st.integers(0, len(texts)), max_size=4)))
        pm = load_pipeline(saved_pipeline)
        with mock.patch.object(pipeline, "MEMO_CHUNKS", bound):
            for _ in range(2):
                for batch in batches:
                    labels, scores = pipeline_predict(pm, batch)
                    assert len(pm.memo) <= bound
                    want_labels, want_scores = pipeline_predict(load_pipeline(saved_pipeline), batch)
                    assert labels.tolist() == want_labels.tolist()
                    assert scores.tobytes() == want_scores.tobytes()

    def test_memo_never_left_above_its_bound(self, saved_pipeline):
        """Three calls of 4,000 new chunks each: the memo holds 4,000, then
        8,000, and is emptied once the third call takes it past the bound."""
        pm = load_pipeline(saved_pipeline)
        sizes = []
        for call in range(3):
            texts = [" ".join(f"w{call}x{i}x{j}" for j in range(4)) for i in range(1000)]
            pipeline_predict(pm, texts)
            sizes.append(len(pm.memo))
        assert MEMO_CHUNKS == 8192
        assert sizes == [4000, 8000, 0]
        tables = pm.memo.tables
        assert not len(tables.words) and not len(tables.stem_of)
        assert [len(a) for a in tables.arrays] == [0, 1, 0, 0, 1, 0]  # two offsets of 0

    def test_threads_share_one_loaded_model(self, saved_pipeline, corpusgen, in_threads):
        """Four threads predict through one loaded model at once, switching
        as often as the interpreter allows: every thread finishes, each
        batch's labels and scores are those of a one-thread run, bit for
        bit, and every stem left in the shared memo, by string and by id,
        is its word's stem. Then again with a memo bound so small that
        every call empties the memo while other threads are in the middle
        of a batch: each call keeps reading the id tables it started with,
        so nothing moves."""
        tweets = [t for t, _ in corpusgen.make_unseen_tweets(400, 1)]
        batches = [tweets[i : i + 25] for i in range(0, len(tweets), 25)]
        alone = load_pipeline(saved_pipeline)
        want = [tuple(a.tobytes() for a in pipeline_predict(alone, b)) for b in batches]
        got = {}

        def predict_share(i):
            for k in range(i, len(batches), 4):
                got[k] = tuple(a.tobytes() for a in pipeline_predict(pm, batches[k]))

        pm = load_pipeline(saved_pipeline)
        in_threads(predict_share)
        assert [got.get(k) for k in range(len(batches))] == want
        tables = pm.memo.tables
        assert len(tables.words) > 900
        # placeholders stem to themselves
        assert [tables.stemmed.strings[s] for s in tables.stem_of] == [
            w if w in (URL_PLACEHOLDER, MENTION_PLACEHOLDER) else porter_stem(w)
            for w in tables.words.strings
        ]

        # for each clear(), how many other calls were extracting then
        pm, running, cleared = load_pipeline(saved_pipeline), [], []
        clear, extract = ChunkMemo.clear, pipeline.extract_ingredients

        def counted_extract(*args):
            running.append(1)
            try:
                return extract(*args)
            finally:
                running.pop()

        got.clear()
        with mock.patch.object(pipeline, "MEMO_CHUNKS", 40), mock.patch.object(
            ChunkMemo, "clear", lambda memo: cleared.append(len(running) - 1) or clear(memo)
        ), mock.patch.object(pipeline, "extract_ingredients", counted_extract):
            in_threads(predict_share)
        assert max(cleared) > 0
        assert [got.get(k) for k in range(len(batches))] == want

    def test_memo_lives_with_the_model(self, saved_pipeline):
        pm = load_pipeline(saved_pipeline)
        assert len(pm.memo) == 0
        pipeline_predict(pm, ["lovely sunny day"])
        assert set(pm.memo.tables.chunks) == {"lovely", "sunny", "day"}
        assert len(load_pipeline(saved_pipeline).memo) == 0


class TestFitFeatures:
    def test_subset_rows_only_shape_vocab(self):
        docs = [["common", "common"], ["common", "rare"], ["other", "other"]]
        ing = neutral_ingredients(docs)
        fs = FeatureSettings(
            word_ngram_hi=1, pos_ngram_hi=1, min_df=1, max_df_ratio=1.0, select=False
        )
        fitted = fit_features(ing, [0, 1, 0], fs, indices=[0, 1])
        assert "other" not in fitted.word_vocab.ngrams
        assert "common" in fitted.word_vocab.ngrams

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
        """Ingredients whose count tables the vocabularies were not fitted
        from are looked up by their tokens alike: the result equals that for
        ingredients that were never counted."""
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
            assert got.matrix.shape == want.matrix.shape
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
        kept = tuple(fitted.projection("nb")[0].tolist())
        n_ngrams = len(fitted.word_vocab) + len(fitted.pos_vocab)
        assert kept == tuple(c for c in fitted.selected_columns if c < n_ngrams)
        assert fitted.input_names("nb") == [fitted.registry[c] for c in kept]
        # held as int64 columns with their inverse map, built once
        cols, inverse = fitted.projection("nb")
        assert fitted.projection("nb")[1] is inverse and cols.dtype == np.int64
        assert len(inverse) == n_ngrams
        assert inverse[cols].tolist() == list(range(len(kept)))
        assert (inverse >= 0).sum() == len(kept)
        assert cm.n_cols == len(kept) <= n_ngrams
        assert all(block in ("word-ngram", "pos-ngram") for block, _ in fitted.input_names("nb"))
        dense = cm.matrix.toarray()
        assert (dense >= 0).all()
        assert (dense == dense.astype(int)).all()

    @pytest.mark.parametrize("select", [True, False])
    @pytest.mark.parametrize("standardize", [True, False])
    def test_train_matrix_is_feature_matrix_of_fitted_rows(self, toy, select, standardize):
        """fit_features keeps the matrix feature_matrix gives for the rows it
        fitted on, bit for bit: for all rows, and for one fold's rows with
        a row given twice."""
        ing, y = toy
        fs = FeatureSettings(min_df=2, standardize=standardize, select=select)
        fold = [*range(0, len(ing), 5), 10]
        for indices in (None, fold):
            fitted = fit_features(ing, y, fs, indices)
            got, want = fitted.train_matrix.matrix, feature_matrix(fitted, ing, indices).matrix
            assert got.shape == want.shape
            for name in ("data", "indices", "indptr"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def toy(tagger):
    """The toy corpus's ingredients, under LEX, and its labels."""
    with open(CORPUS, encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return extract_ingredients([r["tweet"] for r in rows], tagger, LEX), [int(r["class"]) for r in rows]


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
    sent = [(1.0, 0.0, 0.0, 0.9)] * 12 + [(0.0, 1.0, 0.0, -0.9)] * 12
    ing = Ingredients(
        word_docs=tuple(("pad", "pad") for _ in y),
        pos_docs=tuple(("NN",) for _ in y),
        scalars=scalars_of(sent),
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
        assert np.array_equal(counts.matrix.toarray(), want.matrix.toarray())

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
        assert fitted.input_names("nb") == []
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
    "selected_columns",
    "standardizer",
    "tagger",
    "word_vocab",
)


def payload_of(blob: bytes) -> dict:
    _, payload = load_artifact(blob, PIPELINE_MAGIC, (PIPELINE_FORMAT_VERSION,))
    return payload


def built_pipeline(tagger, kind="logreg", select=False):
    """A pipeline trained on 36 texts of four words each, a pair of words
    per class, with the texts and their labels."""
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


class TestPipelineArtifact:
    def build(self, tagger, kind="logreg", select=False):
        return built_pipeline(tagger, kind, select)

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

    @pytest.mark.parametrize("version", [1, 3])
    def test_version_mismatch_rejected(self, tagger, version):
        # format 1 (before the vocabularies owned their settings) is no
        # longer read; such a model must be trained again
        pm, _, _ = self.build(tagger)
        blob = save_pipeline(pm).replace(b"pipeline 2 ", f"pipeline {version} ".encode(), 1)
        with pytest.raises(ArtifactFormatError, match="version"):
            load_pipeline(blob)

    def test_truncation_rejected(self, tagger):
        pm, _, _ = self.build(tagger)
        with pytest.raises(ArtifactFormatError):
            load_pipeline(save_pipeline(pm)[:-7])

    @pytest.mark.parametrize("field", PAYLOAD_FIELDS)
    def test_missing_payload_field_rejected(self, tagger, field):
        payload = payload_of(save_pipeline(self.build(tagger)[0]))
        assert field in payload
        del payload[field]
        blob = dump_artifact(PIPELINE_MAGIC, PIPELINE_FORMAT_VERSION, payload)
        with pytest.raises(ArtifactFormatError, match=f"missing field '{field}'"):
            load_pipeline(blob)

    def test_payload_covers_every_field_tested(self, tagger):
        pm, _, _ = self.build(tagger)
        payload = payload_of(save_pipeline(pm))
        assert sorted(payload) == list(PAYLOAD_FIELDS)
        assert None not in payload["model"].values()

    @pytest.mark.parametrize(
        "field, value",
        [("standardizer", {"means": []}), ("tagger", None), ("config", [])],
        # the ids these cases have always had
        ids=["standardizer-value1", "tagger-None", "config-value3"],
    )
    def test_mistyped_payload_field_rejected(self, tagger, field, value):
        payload = payload_of(save_pipeline(self.build(tagger)[0]))
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
            ("logreg", "standardizer-short", "standardizer"),
            ("logreg", "standardizer-scale-zero", "standardizer"),
            ("logreg", "standardizer-scale-nan", "standardizer"),
            ("logreg", "standardizer-scale-string", "standardizer"),
            ("logreg", "word-vocab-df-short", "word_vocab"),
            ("logreg", "word-vocab-df-negative", "word_vocab"),
            ("logreg", "word-vocab-df-string", "word_vocab"),
            ("logreg", "pos-vocab-ngrams-unordered", "pos_vocab"),
            ("logreg", "word-vocab-ngram-over-n-hi", "word_vocab"),
            ("logreg", "word-vocab-ngram-empty-token", "word_vocab"),
            ("logreg", "pos-vocab-ngram-under-n-lo", "pos_vocab"),
            ("logreg", "word-vocab-unknown-key", "word_vocab"),
        ],
    )
    def test_inconsistent_fields_rejected(self, tagger, kind, edit, field):
        # each edit leaves well-typed JSON whose parts disagree; loading must
        # fail on the field, not predict from bad columns (or, without the
        # stored standardizer, standardize each batch by its own statistics)
        pm, texts, _ = self.build(tagger, kind, select=True)
        payload = payload_of(save_pipeline(pm))
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
        elif edit == "word-vocab-ngram-over-n-hi":
            # the vocabulary holds bigrams; the orders say unigrams only
            assert any(" " in t for t in payload["word_vocab"]["ngrams"])
            payload["word_vocab"]["n_hi"] = 1
        elif edit == "word-vocab-ngram-empty-token":
            # still the last n-gram in order, now ending in an empty token
            payload["word_vocab"]["ngrams"][-1] += " "
        elif edit == "pos-vocab-ngram-under-n-lo":
            payload["pos_vocab"].update(n_lo=2, n_hi=2)
        elif edit == "word-vocab-unknown-key":
            # a vocabulary is its fields, each saved and read by its name
            payload["word_vocab"]["source"] = None
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
