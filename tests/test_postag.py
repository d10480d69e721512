import dataclasses
import importlib.resources
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatetriage import postag
from hatetriage._serialize import ArtifactFormatError, dump_artifact
from hatetriage.postag import (
    FORMAT_VERSION,
    MAGIC,
    PENN_TAGSET,
    TagModel,
    load_model,
    parse_conll,
    save_model,
    tag,
    tag_batch,
    train_tagger,
)
from postag_reference import reference_tag

# deliberately unambiguous: every word carries exactly one tag
_PATTERNS = [
    [("the", "DT"), ("cat", "NN"), ("purrs", "VBZ"), (".", ".")],
    [("a", "DT"), ("bird", "NN"), ("sings", "VBZ"), (".", ".")],
    [("the", "DT"), ("dogs", "NNS"), ("nap", "VBP"), (".", ".")],
    [("he", "PRP"), ("walked", "VBD"), ("quickly", "RB"), (".", ".")],
    [("she", "PRP"), ("sees", "VBZ"), ("a", "DT"), ("tree", "NN"), (".", ".")],
]
UNAMBIGUOUS = _PATTERNS * 8


@pytest.fixture(scope="module")
def treebank():
    text = (
        importlib.resources.files("hatetriage")
        .joinpath("data/mini_treebank.conll")
        .read_text(encoding="utf-8")
    )
    return parse_conll(text)


@pytest.fixture(scope="module")
def bundled_model():
    data = importlib.resources.files("hatetriage").joinpath("data/pos_model.txt").read_bytes()
    return load_model(data)


# shapes _normalize collapses, pad look-alikes, case, and the empty token
ODD_TOKENS = [
    "", "-START-", "-START2-", "-END-", "-END2-", "-start-", "-end2-", "2014",
    "1999", "12345", "9lives", "3", "pre-fix", "well-known", "-dash", "DOGS",
    "The", "A", "zzqx", "Über", "a b",
]

# the treebank plus sentences that put the odd tokens into the weights, so
# that their word, suffix and prev tag+word features exist
_ODD_SENTENCES = [
    [("the", "DT"), ("-START-", "NN"), ("was", "VBD"), ("well-known", "JJ"), (".", ".")],
    [("in", "IN"), ("2014", "CD"), ("9lives", "NNS"), ("-END-", "NN"), ("ran", "VBD")],
    [("", "SYM"), ("a b", "NN"), ("The", "DT"), ("-start-", "NN"), ("12345", "CD")],
]


@pytest.fixture(scope="module")
def odd_model(treebank):
    return train_tagger(treebank[:200] + _ODD_SENTENCES * 3, epochs=3, seed=5)


def _known_words(model):
    words = set(model.tagdict)
    for feature in model.weights:
        if feature.startswith(("word ", "prev word ", "next word ")):
            words.add(feature.split(" ")[-1])
    return sorted(words)


class TestParseConll:
    def test_blank_line_separates_sentences(self):
        sents = parse_conll("a\tDT\ncat\tNN\n\nhe\tPRP\n")
        assert len(sents) == 2
        assert sents[0] == [("a", "DT"), ("cat", "NN")]

    def test_malformed_line_names_lineno(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_conll("a\tDT\nbroken line\n")

    def test_empty_text(self):
        assert parse_conll("") == []


class TestTrainTagger:
    def test_unambiguous_corpus_perfect_after_one_epoch(self):
        model = train_tagger(UNAMBIGUOUS, epochs=1, seed=0)
        for sentence in UNAMBIGUOUS:
            words = [w for w, _ in sentence]
            gold = [t for _, t in sentence]
            assert tag(model, words) == gold

    def test_determinism_bit_identical(self, treebank):
        a = train_tagger(treebank[:100], epochs=2, seed=11)
        b = train_tagger(treebank[:100], epochs=2, seed=11)
        assert save_model(a) == save_model(b)

    def test_seed_changes_model(self, treebank):
        a = train_tagger(treebank[:100], epochs=2, seed=1)
        b = train_tagger(treebank[:100], epochs=2, seed=2)
        assert save_model(a) != save_model(b)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_tagger([], epochs=1, seed=0)
        with pytest.raises(ValueError):
            train_tagger([[]], epochs=1, seed=0)

    def test_unknown_tag_named(self):
        with pytest.raises(ValueError, match="XYZ"):
            train_tagger([[("a", "XYZ")]], epochs=1, seed=0)

    def test_nonpositive_epochs_rejected(self):
        with pytest.raises(ValueError):
            train_tagger(UNAMBIGUOUS, epochs=0, seed=0)

    def test_tagdict_thresholds(self):
        # 20 pure occurrences -> in; 19 -> out; 20 with one dissent -> out (0.95 < 0.97)
        pure = [[("aaa", "NN")]] * 20
        rare = [[("bbb", "NN")]] * 19
        impure = [[("ccc", "NN")]] * 19 + [[("ccc", "VB")]]
        model = train_tagger(pure + rare + impure, epochs=1, seed=0)
        assert model.tagdict.get("aaa") == "NN"
        assert "bbb" not in model.tagdict
        assert "ccc" not in model.tagdict

    def test_heldout_accuracy_regression_bound(self, treebank):
        model = train_tagger(treebank[:450], epochs=5, seed=42)
        right = total = 0
        for sentence in treebank[450:]:
            pred = tag(model, [w for w, _ in sentence])
            right += sum(p == g for p, (_, g) in zip(pred, sentence))
            total += len(sentence)
        assert right / total >= 0.90

    def test_averaging_matches_bruteforce(self):
        """Final weights equal the mean of the per-decision weight history."""
        from hatetriage.postag import _AveragedTrainer, _features, _padded_context, START

        corpus = [
            [("the", "DT"), ("play", "NN"), (".", ".")],
            [("they", "PRP"), ("play", "VBP"), (".", ".")],
            [("the", "DT"), ("cat", "NN"), ("sleeps", "VBZ")],
        ]
        tagset = tuple(sorted({t for s in corpus for _, t in s}))

        def run(record):
            trainer = _AveragedTrainer(tagset)
            rng = random.Random(3)
            order = list(corpus)
            history = []
            for _ in range(4):
                rng.shuffle(order)
                for sentence in order:
                    context = _padded_context([w for w, _ in sentence])
                    prev, prev2 = START
                    for i, (word, truth) in enumerate(sentence):
                        feats = _features(i, word, context, prev, prev2)
                        guess = trainer.predict(feats)
                        if record:
                            # weight state at the start of this decision
                            history.append(
                                {(f, t): w for f, d in trainer.weights.items() for t, w in d.items()}
                            )
                        trainer.update(truth, guess, feats)
                        prev2, prev = prev, guess
            return trainer, history

        trainer, history = run(record=True)
        averaged = trainer.averaged_weights()
        keys = {(f, t) for snap in history for f, t in snap}
        keys |= {(f, t) for f, d in averaged.items() for t in d}
        assert len(history) == trainer.clock
        for key in keys:
            mean = sum(snap.get(key, 0.0) for snap in history) / len(history)
            got = averaged.get(key[0], {}).get(key[1], 0.0)
            assert got == pytest.approx(mean, abs=1e-12)


class TestTag:
    def test_empty_input(self, bundled_model):
        assert tag(bundled_model, []) == []

    def test_output_length_matches_input(self, bundled_model):
        for tokens in (["one"], ["a", "b", "c"], ["x"] * 17):
            assert len(tag(bundled_model, tokens)) == len(tokens)

    def test_dogs_bark(self, bundled_model):
        assert tag(bundled_model, ["dogs", "bark"]) == ["NNS", "VBP"]

    def test_tagdict_short_circuits_weights(self, bundled_model):
        word = "dogs"
        assert bundled_model.tagdict[word] == "NNS"
        sabotaged = TagModel(
            tagset=bundled_model.tagset,
            tagdict=bundled_model.tagdict,
            weights={f: {t: -w for t, w in d.items()} for f, d in bundled_model.weights.items()},
        )
        assert tag(sabotaged, [word])[0] == "NNS"

    def test_all_tags_from_tagset(self, bundled_model, treebank):
        valid = set(bundled_model.tagset)
        for sentence in treebank[:40]:
            for t in tag(bundled_model, [w for w, _ in sentence]):
                assert t in valid

    def test_case_insensitive(self, bundled_model):
        assert tag(bundled_model, ["DOGS", "BARK"]) == tag(bundled_model, ["dogs", "bark"])

    def test_unseen_tokens_still_tagged(self, bundled_model):
        out = tag(bundled_model, ["zzqx", "1234", "12abc", "pre-fix"])
        assert len(out) == 4
        assert all(t in PENN_TAGSET for t in out)

    @given(st.lists(st.text(min_size=1, max_size=8), max_size=12))
    def test_length_property(self, tokens):
        model = train_tagger(UNAMBIGUOUS, epochs=1, seed=0)
        assert len(tag(model, tokens)) == len(tokens)


def _batches(known):
    token = st.one_of(
        st.sampled_from(known),
        st.sampled_from(known).map(str.upper),
        st.sampled_from(ODD_TOKENS),
        st.text(max_size=8),
    )
    return st.lists(st.lists(token, max_size=15), max_size=10)


class TestTagBatch:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_reference_per_tweet(self, bundled_model, odd_model, data):
        for model in (bundled_model, odd_model):
            batch = data.draw(_batches(_known_words(model)))
            assert tag_batch(model, batch) == [tuple(reference_tag(model, t)) for t in batch]

    @settings(deadline=None)
    @given(data=st.data())
    def test_batch_order_changes_no_tweet(self, bundled_model, data):
        batch = data.draw(_batches(_known_words(bundled_model)))
        order = data.draw(st.permutations(range(len(batch))))
        tags = tag_batch(bundled_model, batch)
        assert tag_batch(bundled_model, [batch[i] for i in order]) == [tags[i] for i in order]
        assert [tuple(tag(bundled_model, t)) for t in batch] == tags

    def test_exact_ties_go_to_the_smallest_tag(self):
        tagset = ("NN", "DT", "VB")
        # "dogs" scores NN 0.25 + 0.25, exactly VB's 0.5; "cats" only 0.25
        tied = TagModel(
            tagset=tagset,
            tagdict={},
            weights={"bias": {"VB": 0.5, "NN": 0.25}, "word dogs": {"NN": 0.25}},
        )
        cold = TagModel(tagset=tagset, tagdict={}, weights={})
        tokens = ["dogs", "dogs", "cats"]
        assert tag(tied, tokens) == ["NN", "NN", "VB"]
        assert tag(cold, tokens) == ["DT", "DT", "DT"]
        for model in (tied, cold):
            assert tag(model, tokens) == reference_tag(model, tokens)

    @pytest.mark.parametrize(
        "weights",
        [
            {"bias": {"NN": 1e17, "VB": 0.5}, "suffix abc": {"NN": 1.0}, "prefix abc": {"NN": -1e17}},
            {
                "bias": {"VB": 0.5},
                "prev tag -START-": {"NN": 1e17},
                "word abc": {"NN": 1.0},
                "next2 word -END2-": {"NN": -1e17},
            },
        ],
    )
    def test_scores_add_in_feature_order(self, weights):
        # in _features order NN scores (1e17 + 1) - 1e17 == 0.0 and loses to
        # VB; adding the two large weights first would give NN 1.0
        model = TagModel(tagset=("NN", "VB"), tagdict={}, weights=weights)
        assert tag(model, ["abc"]) == reference_tag(model, ["abc"]) == ["VB"]

    def test_tables_compiled_once_per_model(self, monkeypatch, bundled_model):
        built = []

        class Counting(postag._Compiled):
            def __init__(self, model):
                built.append(model)
                super().__init__(model)

        monkeypatch.setattr(postag, "_Compiled", Counting)
        model = TagModel(bundled_model.tagset, bundled_model.tagdict, bundled_model.weights)
        tables = model._compiled
        sizes = {k: len(v) for k, v in vars(tables).items() if isinstance(v, dict)}
        tag_batch(model, [["dogs", "bark"], ["novel"]])
        tag_batch(model, [[f"unseen{i}", f"word-{i}"] for i in range(300)])
        tag(model, ["the", "cat"])
        assert len(built) == 1
        assert model._compiled is tables
        # the per-token memo lives for one call: unseen words leave no trace
        assert {k: len(v) for k, v in vars(tables).items() if isinstance(v, dict)} == sizes

    def test_tables_are_not_fields(self, bundled_model):
        names = [f.name for f in dataclasses.fields(TagModel)]
        assert names == ["tagset", "tagdict", "weights"]
        restored = load_model(save_model(bundled_model))
        assert restored == bundled_model
        assert save_model(restored) == save_model(bundled_model)

    def test_reads_docs_once_in_order(self, bundled_model):
        docs = [["dogs", "bark"], [], ["the", "cat", "sat"]]
        assert tag_batch(bundled_model, iter(docs)) == tag_batch(bundled_model, docs)
        assert tag_batch(bundled_model, docs)[1] == ()
        assert tag_batch(bundled_model, []) == []
        assert tag_batch(bundled_model, [[], []]) == [(), ()]


_GOOD_PAYLOAD = {"tagset": ["DT", "NN"], "tagdict": {"the": "DT"}, "weights": {"bias": {"NN": 0.5}}}


def _payload(**fields):
    return {**_GOOD_PAYLOAD, **fields}


MALFORMED_PAYLOADS = [
    pytest.param(_payload(weights={"bias": {"NN": "0.5"}}), "weights", id="string-weight"),
    pytest.param(_payload(weights={"bias": {"NN": float("nan")}}), "weights", id="nan-weight"),
    pytest.param(_payload(weights={"bias": {"NN": float("inf")}}), "weights", id="inf-weight"),
    pytest.param(_payload(weights={"bias": {"NN": True}}), "weights", id="bool-weight"),
    pytest.param(_payload(weights={"bias": {"NN": 10**400}}), "weights", id="huge-int-weight"),
    pytest.param(_payload(weights={"bias": {"VB": 0.5}}), "weights", id="weight-tag-unknown"),
    pytest.param(_payload(weights={"bias": [0.5]}), "weights", id="weights-entry-not-object"),
    pytest.param(_payload(weights=[["bias", {"NN": 0.5}]]), "weights", id="weights-not-object"),
    pytest.param(_payload(tagset=[], tagdict={}, weights={}), "tagset", id="empty-tagset"),
    pytest.param(_payload(tagset=["DT", "NN", "NN"]), "tagset", id="duplicate-tagset"),
    pytest.param(_payload(tagset="DT NN"), "tagset", id="tagset-not-array"),
    pytest.param(_payload(tagset=["DT", 7]), "tagset", id="tagset-not-strings"),
    pytest.param(_payload(tagdict=[["the", "DT"]]), "tagdict", id="tagdict-pairs"),
    pytest.param(_payload(tagdict={"the": "XX"}), "tagdict", id="tagdict-tag-unknown"),
    pytest.param(_payload(tagdict={"the": ["DT"]}), "tagdict", id="tagdict-tag-not-string"),
    pytest.param({"tagset": ["DT"], "tagdict": {}}, "weights", id="weights-missing"),
]


class TestSaveLoad:
    def test_wellformed_payload_loads(self):
        model = load_model(dump_artifact(MAGIC, FORMAT_VERSION, _GOOD_PAYLOAD))
        assert tag(model, ["the", "dog"]) == ["DT", "NN"]

    @pytest.mark.parametrize("payload, field", MALFORMED_PAYLOADS)
    def test_malformed_payload_names_field(self, payload, field):
        with pytest.raises(ArtifactFormatError, match=field):
            load_model(dump_artifact(MAGIC, FORMAT_VERSION, payload))

    def test_integer_too_long_to_parse_rejected(self):
        # json refuses integers of more than 4300 digits with a ValueError
        body = b'{"tagset":["NN"],"tagdict":{},"weights":{"bias":{"NN":' + b"1" * 5000 + b"}}}"
        header = f"{MAGIC} {FORMAT_VERSION} {len(body)}\n".encode("ascii")
        with pytest.raises(ArtifactFormatError, match="corrupt"):
            load_model(header + body)

    def test_roundtrip_identical_predictions(self, treebank, bundled_model):
        restored = load_model(save_model(bundled_model))
        rng = random.Random(5)
        vocab = sorted({w for s in treebank for w, _ in s}) + ["novel", "zzz", "99x"]
        for _ in range(100):
            sentence = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            assert tag(restored, sentence) == tag(bundled_model, sentence)

    def test_save_is_byte_stable(self, bundled_model):
        assert save_model(bundled_model) == save_model(bundled_model)

    def test_version_mismatch_rejected(self, bundled_model):
        data = save_model(bundled_model)
        tampered = data.replace(b"postag 1 ", b"postag 2 ", 1)
        with pytest.raises(ArtifactFormatError, match="version"):
            load_model(tampered)

    def test_truncated_stream_rejected(self, bundled_model):
        data = save_model(bundled_model)
        with pytest.raises(ArtifactFormatError):
            load_model(data[: len(data) // 2])

    def test_corrupted_length_header_rejected(self, bundled_model):
        data = save_model(bundled_model)
        header, _, body = data.partition(b"\n")
        fields = header.split(b" ")
        fields[2] = b"notanumber"
        with pytest.raises(ArtifactFormatError):
            load_model(b" ".join(fields) + b"\n" + body)

    def test_empty_stream_rejected(self):
        with pytest.raises(ArtifactFormatError):
            load_model(b"")

    def test_wrong_magic_rejected(self, bundled_model):
        data = save_model(bundled_model)
        with pytest.raises(ArtifactFormatError):
            load_model(data.replace(b"postag", b"nothat", 1))


class TestTagModel:
    def test_tagdict_tag_must_be_in_tagset(self):
        with pytest.raises(ValueError):
            TagModel(tagset=("DT",), tagdict={"x": "NN"}, weights={})

    def test_weight_tag_must_be_in_tagset(self):
        with pytest.raises(ValueError):
            TagModel(tagset=("DT",), tagdict={}, weights={"bias": {"NN": 1.0}})

    @pytest.mark.parametrize(
        "tagset, weights",
        [
            ((), {}),
            (("DT", "DT"), {}),
            (("DT",), {"bias": {"DT": float("nan")}}),
            (("DT",), {"bias": {"DT": "1"}}),
        ],
        ids=["empty-tagset", "duplicate-tag", "nan-weight", "string-weight"],
    )
    def test_rejects_what_decoding_cannot_score(self, tagset, weights):
        with pytest.raises(ValueError):
            TagModel(tagset=tagset, tagdict={}, weights=weights)
