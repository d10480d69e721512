import csv
import importlib.resources
import io
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hatetriage.lexfeat import SentimentLexicon
from hatetriage.pipeline import ChunkMemo, extract_ingredients
from hatetriage.postag import load_model
from hatetriage.textproc import (
    MENTION_PLACEHOLDER,
    URL_PLACEHOLDER,
    Token,
    TokenKind,
    classify_chunk,
    count_syllables,
    porter_stem,
    preprocess,
    tokenize,
    unstemmed_words,
)
from textproc_reference import (
    PORTER_SUFFIXES,
    reference_classify_chunk,
    reference_porter_stem,
    reference_preprocess,
    reference_unstemmed_words,
)

lower_words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20)
# Extraction hands the stemmer more than lowercase letters: digits, "_" and
# "'", "." and "-" inside a word, and non-ASCII letters. A "y" is a vowel or
# a consonant by the letter before it, so runs heavy in "y" get their own
# alphabet.
word_chars = st.sampled_from(string.ascii_lowercase + string.digits + "_'.-éß")
y_heavy = st.sampled_from("yyyyyaeiobcls")
stem_words = st.one_of(
    lower_words,
    st.text(alphabet=word_chars, min_size=1, max_size=20),
    st.text(alphabet=y_heavy, min_size=1, max_size=20),
)

# short chunks built from pieces that start every kind of token, so that
# hashtags and mentions chain and mix with URLs, punctuation and non-ASCII
chunks = st.lists(
    st.sampled_from(
        ["#", "@", "a", "B", "7", "_", "'", "!", ".", ":", ",", "é", "…", "#a", "@b",
         "http://", "https://x.co", "www.", "ftp+x://y", "a.b-c"]
    ),
    min_size=1,
    max_size=8,
).map("".join)


class TestTokenize:
    def test_retweet_mention_url_hashtag_kinds(self):
        kinds = [t.kind for t in tokenize("RT @user: check https://x.co #now")]
        assert kinds == [
            TokenKind.RETWEET,
            TokenKind.MENTION,
            TokenKind.PUNCT,
            TokenKind.WORD,
            TokenKind.URL,
            TokenKind.HASHTAG,
        ]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_single_word(self):
        assert tokenize("hello") == [Token("hello", TokenKind.WORD)]

    def test_contraction_stays_one_word(self):
        toks = tokenize("ain't happy")
        assert toks[0] == Token("ain't", TokenKind.WORD)

    def test_rt_only_recognized_in_leading_position(self):
        kinds = [t.kind for t in tokenize("great RT value")]
        assert TokenKind.RETWEET not in kinds

    def test_lowercase_rt_marker(self):
        assert tokenize("rt @a hi")[0].kind == TokenKind.RETWEET

    def test_www_url(self):
        toks = tokenize("see www.example.com now")
        assert toks[1].kind == TokenKind.URL

    def test_surfaces_nonempty(self):
        for t in tokenize("a!! #b @c ... http://d.e"):
            assert t.surface

    @pytest.mark.parametrize("chunk, kind", [("#a", TokenKind.HASHTAG), ("@b", TokenKind.MENTION)])
    def test_long_chain_is_one_token_per_link(self, chunk, kind):
        tokens = tokenize(chunk * 5000)
        assert len(tokens) == 5000
        assert all(t == Token(chunk, kind) for t in tokens)

    def test_rt_is_a_word_after_the_first_chunk(self):
        assert tokenize("RT rt Rt") == [
            Token("RT", TokenKind.RETWEET), Token("rt", TokenKind.WORD), Token("Rt", TokenKind.WORD)
        ]

    @given(chunks)
    def test_chunk_loop_matches_recursive_reference(self, chunk):
        assert classify_chunk(chunk) == reference_classify_chunk(chunk)

    @given(st.text(max_size=200))
    def test_concatenation_preserves_nonwhitespace(self, text):
        joined = "".join(t.surface for t in tokenize(text))
        assert joined == "".join(text.split())


class TestPorterStem:
    def test_golden_file_exact(self, golden_dir):
        lines = (golden_dir / "stems.golden").read_text().splitlines()
        assert len(lines) == 100
        mismatches = []
        for line in lines:
            word, expected = line.split("\t")
            got = porter_stem(word)
            if got != expected:
                mismatches.append((word, expected, got))
        assert mismatches == []

    def test_golden_stems_idempotent(self, golden_dir):
        for line in (golden_dir / "stems.golden").read_text().splitlines():
            stem = line.split("\t")[1]
            assert porter_stem(stem) == stem

    def test_short_word_untouched(self):
        assert porter_stem("sky") == "sky"

    def test_caresses(self):
        assert porter_stem("caresses") == "caress"

    def test_plural_slur_variants_keep_distinct_stems(self):
        # the two forms must not collapse to one stem
        assert porter_stem("fags") == "fag"
        assert porter_stem("faggots") == "faggot"

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            porter_stem("")

    @given(stem_words)
    def test_matches_reference_stemmer(self, word):
        assert porter_stem(word) == reference_porter_stem(word)

    @given(
        st.text(alphabet=word_chars | y_heavy, max_size=8),
        st.lists(st.sampled_from(PORTER_SUFFIXES), min_size=1, max_size=2).map("".join),
    )
    def test_matches_reference_stemmer_on_suffixed_words(self, stem, suffixes):
        word = stem + suffixes
        assert porter_stem(word) == reference_porter_stem(word)

    @given(stem_words)
    def test_never_lengthens_never_empty(self, word):
        stem = porter_stem(word)
        assert stem
        assert len(stem) <= len(word)

    def test_matches_reference_stemmer_on_a_corpus_vocabulary(self, corpusgen):
        """Every distinct word that extraction stems in the 2,000-row
        generated corpus of seed 1, as its chunk memo stems it."""
        rows = csv.DictReader(io.StringIO(corpusgen.make_corpus_csv(2000, 1).decode("utf-8")))
        data = importlib.resources.files("hatetriage.data")
        memo = ChunkMemo()
        tables = memo.tables  # kept by this call even if it empties the memo
        extract_ingredients([row["tweet"] for row in rows],
                            load_model(data.joinpath("pos_model.txt").read_bytes()),
                            SentimentLexicon({"good": 1.0}), memo)
        stems = {w: tables.stemmed.strings[k] for w, k in zip(tables.words.strings, tables.stem_of)
                 if w not in (URL_PLACEHOLDER, MENTION_PLACEHOLDER)}
        assert len(stems) == 2872
        assert [w for w, stem in stems.items() if stem != reference_porter_stem(w)] == []

    def test_threads_stem_as_one_thread_does(self, golden_dir, in_threads):
        """The stemmer keeps no state between calls: four threads stemming
        at once, switching as often as the interpreter allows, each get the
        stems of a one-thread run."""
        words = [line.split("\t")[0] for line in
                 (golden_dir / "stems.golden").read_text().splitlines()] * 34
        want = [porter_stem(w) for w in words]
        got = {}

        def stem_all(i):
            got[i] = [porter_stem(w) for w in words]

        in_threads(stem_all)
        assert sorted(got) == [0, 1, 2, 3]
        assert all(stems == want for stems in got.values())


class TestCountSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [("cat", 1), ("create", 2), ("rhythm", 1), ("hello", 2)],
    )
    def test_pinned_examples(self, word, expected):
        assert count_syllables(word) == expected

    def test_dictionary_agreement_at_least_90pct(self, golden_dir):
        lines = (golden_dir / "syllables.golden").read_text().splitlines()
        assert len(lines) == 50
        hits = 0
        for line in lines:
            word, count = line.split("\t")
            hits += count_syllables(word) == int(count)
        assert hits / len(lines) >= 0.90

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            count_syllables("")

    @given(st.text(min_size=1, max_size=30))
    def test_at_least_one(self, word):
        assert count_syllables(word) >= 1

    @given(lower_words)
    def test_case_invariant(self, word):
        assert count_syllables(word.upper()) == count_syllables(word)


class TestPreprocess:
    def test_stems_lowercased_words(self):
        assert preprocess("Dogs RUNNING fast") == ["dog", "run", "fast"]

    def test_empty(self):
        assert preprocess("") == []

    def test_placeholders(self):
        assert preprocess("@a http://b.c") == [MENTION_PLACEHOLDER, URL_PLACEHOLDER]

    def test_drops_retweet_and_punct(self):
        assert preprocess("RT hello , world !") == ["hello", "world"]

    def test_hashtag_body_enters_word_stream(self):
        assert preprocess("#Dogs bark") == ["dog", "bark"]

    @given(st.text(max_size=200))
    def test_no_uppercase_outside_placeholders(self, text):
        for tok in preprocess(text):
            if tok in (URL_PLACEHOLDER, MENTION_PLACEHOLDER):
                continue
            assert tok == tok.lower()

    def test_unstemmed_words_parallel_stream(self):
        assert unstemmed_words("Dogs RUNNING fast") == ["dogs", "running", "fast"]

    def test_unstemmed_keeps_placeholders(self):
        assert unstemmed_words("@a says hi") == [MENTION_PLACEHOLDER, "says", "hi"]


class TestWordStreams:
    @given(st.text(max_size=200))
    def test_streams_match_reference_bodies(self, text):
        expected = (reference_preprocess(text), reference_unstemmed_words(text))
        assert (preprocess(text), unstemmed_words(text)) == expected
