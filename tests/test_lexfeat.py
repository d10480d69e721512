import importlib.resources
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatetriage.lexfeat import SCALAR_COLUMNS, SentimentLexicon, readability
from hatetriage.pipeline import ChunkMemo, extract_ingredients
from hatetriage.postag import load_model
from hatetriage.textproc import TokenKind, count_syllables, tokenize
from lexfeat_reference import reference_sentiment_scores

LEX = SentimentLexicon({"good": 2.0, "bad": -2.5, "love": 3.0, "awful": -3.1})
TAGGER = load_model(importlib.resources.files("hatetriage.data").joinpath("pos_model.txt").read_bytes())


def columns(text, block, lexicon=LEX):
    """The scalar columns of `block` that extraction makes for one tweet,
    by name, in column order."""
    (row,) = extract_ingredients([text], TAGGER, lexicon).scalars
    return {name: v for (b, name), v in zip(SCALAR_COLUMNS, row.tolist(), strict=True) if b == block}


def scores(text, lexicon=LEX):
    return SimpleNamespace(**columns(text, "sentiment", lexicon))


def surface(text):
    return SimpleNamespace(**columns(text, "surface"))


class TestSentimentLexicon:
    def test_from_text_parses_and_skips_comments(self):
        lex = SentimentLexicon.from_text("# comment\ngood\t2.0\n\nbad\t-1.5\n")
        assert lex.valences == {"good": 2.0, "bad": -1.5}

    def test_rejects_uppercase_keys(self):
        with pytest.raises(ValueError):
            SentimentLexicon({"Good": 1.0})

    def test_rejects_out_of_range_valence(self):
        with pytest.raises(ValueError):
            SentimentLexicon({"good": 4.5})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SentimentLexicon({})

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            SentimentLexicon.from_text("good 2.0\n")


class TestSentimentScores:
    def test_no_hits_neutral(self):
        s = scores("nothing matches here")
        assert s.compound == 0.0
        assert s.neu == 1.0
        assert s.pos == 0.0 and s.neg == 0.0

    def test_single_hit_compound(self):
        s = scores("good")
        assert s.compound == pytest.approx(2.0 / math.sqrt(4.0 + 15.0), abs=1e-6)

    def test_negated_hit_compound(self):
        s = scores("not good")
        expected = -1.48 / math.sqrt(1.48**2 + 15.0)
        assert s.compound == pytest.approx(expected, abs=1e-6)

    def test_negation_window_is_three_tokens(self):
        assert scores("not a b good").compound < 0
        assert scores("not a b c good").compound > 0

    def test_contraction_negates(self):
        assert scores("can't stand bad").compound > 0  # -2.5 * -0.74 flips sign

    def test_booster_immediately_preceding(self):
        plain = scores("good").compound
        boosted = scores("very good").compound
        assert boosted > plain
        # gap breaks the boost
        assert scores("very much good").compound == pytest.approx(plain)

    def test_booster_tracks_negative_sign(self):
        assert scores("really bad").compound < scores("bad").compound

    def test_caps_hit_amplifies(self):
        assert scores("GOOD day").compound > scores("good day").compound

    def test_caps_ignored_when_whole_tweet_caps(self):
        assert scores("GOOD DAY").compound == pytest.approx(scores("good day").compound)

    def test_exclamation_amplification_caps_at_four(self):
        base = scores("good").compound
        four = scores("good !!!!").compound
        six = scores("good !!!!!!").compound
        assert four > base
        assert six == pytest.approx(four)

    def test_exclamation_follows_sign(self):
        assert scores("bad !!").compound < scores("bad").compound

    def test_masses_sum_to_one(self):
        for text in ("good bad other", "love love", "nothing", "not good"):
            s = scores(text)
            assert s.pos + s.neg + s.neu == pytest.approx(1.0)

    def test_unmatched_words_carry_neutral_mass(self):
        s = scores("good filler words")
        assert s.neu > 0
        assert s.pos > 0

    def test_compound_strictly_inside_unit_interval(self):
        s = scores("love love love !!!! GOOD")
        assert -1.0 < s.compound < 1.0

    @given(st.lists(st.sampled_from(["good", "bad", "love", "awful", "meh", "not", "very"]), max_size=8))
    def test_compound_odd_under_valence_negation(self, words):
        text = " ".join(words)
        flipped = SentimentLexicon({k: -v for k, v in LEX.valences.items()})
        a = scores(text, LEX)
        b = scores(text, flipped)
        assert a.compound == pytest.approx(-b.compound, abs=1e-12)
        assert a.pos == pytest.approx(b.neg)


# chunks that put negations, boosters and hits on either side of chunk
# boundaries and of a leading retweet marker: negations glued to
# punctuation or ending in "n't" (a URL too), boosters in any case, hits in
# all caps or mixed case, valence 0, runs of "!", and chunks with no word
CHUNKS = st.sampled_from([
    "RT", "rt", "not", "NOT", "never!", "(no", "don't", "can't.", "http://x.co/don't", "very",
    "SO", "really,", "good", "GOOD", "Good!", "bad", "BAD!!!", "love", "meh", "awful", "ok",
    "!", "!!!!!!", "...", "#good", "@bad", "a", "B", "x1", "é",
])
TWEETS = st.lists(CHUNKS, max_size=12).map(" ".join)
# every lexicon entry in use, valence 0 included
VALENCES = SentimentLexicon({"good": 2.0, "bad": -2.5, "love": 3.0, "awful": -3.1, "meh": 0.0,
                             "ok": 0.9, "a": 0.1})


class TestSentimentAgainstReference:
    """The array scorer equals the per-token loop it replaced
    (lexfeat_reference) bit for bit, on one tweet and on a batch whose
    tweets are gathered from a chunk memo."""

    @settings(max_examples=300, deadline=None)
    @given(TWEETS)
    @example("")
    @example("RT not good")  # the marker is no token of the window
    @example("not RT good")
    @example("not a b good")
    @example("GOOD BAD !!!!!!")  # an all-caps tweet, more than four "!"
    @example("very\tgood")
    def test_one_token_list(self, text):
        """One tweet, extracted alone, scores as the reference scores its
        token list."""
        got = tuple(vars(scores(text, VALENCES)).values())
        assert got == reference_sentiment_scores(tokenize(text), VALENCES)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(TWEETS, max_size=8))
    @example(["rt not good", "not", "good", "very good", "SO GOOD!!!!!", ""])
    @example(["RT very", "good never", "a b GOOD"])
    def test_batch_from_a_chunk_memo(self, texts):
        """Each tweet's streams are its chunks' codes laid end to end, so a
        negation or booster in one chunk reaches a hit in the next; the
        sentiment columns of one extraction, and of a second one on the same
        memo, equal one reference call per tweet."""
        want = [reference_sentiment_scores(tokenize(t), VALENCES) for t in texts]
        memo = ChunkMemo()
        for _ in range(2):
            scalars = extract_ingredients(texts, TAGGER, VALENCES, memo).scalars
            assert [tuple(row[:4].tolist()) for row in scalars] == want


class TestReadability:
    def test_ten_words_fourteen_syllables(self):
        grade, ease = readability(10, 14)
        assert ease == pytest.approx(78.245, abs=1e-9)
        assert grade == pytest.approx(4.83, abs=1e-9)

    def test_one_word_one_syllable(self):
        grade, ease = readability(1, 1)
        assert ease == pytest.approx(121.22, abs=1e-9)
        assert grade == pytest.approx(-3.40, abs=1e-9)

    def test_pure_function(self):
        assert readability(7, 11) == readability(7, 11)

    def test_zero_words_rejected(self):
        with pytest.raises(ValueError):
            readability(0, 1)

    def test_zero_syllables_rejected(self):
        with pytest.raises(ValueError):
            readability(3, 0)

    @given(st.integers(1, 40), st.integers(1, 120))
    def test_more_syllables_harder(self, words, syllables):
        grade_a, ease_a = readability(words, syllables)
        grade_b, ease_b = readability(words, syllables + 1)
        assert ease_b < ease_a
        assert grade_b > grade_a

    def test_returns_its_columns_in_order(self):
        """(fk_grade, reading_ease), the order SCALAR_COLUMNS names the
        block in; array counts give one array per column."""
        assert [n for b, n in SCALAR_COLUMNS if b == "readability"] == ["fk_grade", "reading_ease"]
        assert readability(10, 14) == pytest.approx((4.83, 78.245), abs=1e-9)
        grade, ease = readability(np.array([10, 1]), np.array([14, 1]))
        assert grade.tolist() == pytest.approx([4.83, -3.40], abs=1e-9)
        assert ease.tolist() == pytest.approx([78.245, 121.22], abs=1e-9)


class TestSurfaceFeatures:
    def test_kind_counts_and_binaries(self):
        f = surface("RT @u hi!! #yo")
        assert (f.count_retweets, f.count_mentions, f.count_hashtags, f.count_urls) == (1, 1, 1, 0)
        assert (f.has_retweet, f.has_mention, f.has_hashtag, f.has_url) == (1, 1, 1, 0)

    def test_empty_text(self):
        assert list(vars(surface("")).values()) == [0] * 11

    def test_hello_metrics(self):
        f = surface("hello")
        assert f.num_words == 1
        assert f.num_syllables == 2
        assert f.num_chars == 5

    def test_chars_count_code_points(self):
        assert surface("café ☕").num_chars == 6

    def test_hashtag_counts_as_word(self):
        f = surface("#hello world")
        assert f.num_words == 2
        assert f.num_syllables == 3

    def test_column_order(self):
        f = surface("RT @u http://x.y #tag word")
        t = tuple(vars(f).values())
        assert t[:4] == (1, 1, 1, 1)
        assert t[4:8] == (1, 1, 1, 1)
        assert t[8:] == (f.num_chars, f.num_words, f.num_syllables)

    @given(st.text(max_size=120))
    def test_binaries_match_counts(self, text):
        f = surface(text)
        assert f.has_hashtag == (f.count_hashtags > 0)
        assert f.has_mention == (f.count_mentions > 0)
        assert f.has_retweet == (f.count_retweets > 0)
        assert f.has_url == (f.count_urls > 0)

    @given(
        st.lists(
            st.sampled_from(["RT", "rt", "#", "#Yo#b!", "@u", "@u@v:", "http://x.y),", "hello", "é", "!!"]),
            max_size=10,
        ).map(" ".join)
        | st.text(max_size=120)
    )
    def test_matches_a_tally_of_token_kinds(self, text):
        tokens = tokenize(text)
        kinds = Counter(t.kind for t in tokens)
        words = [t.surface for t in tokens if t.kind is TokenKind.WORD]
        words += [t.surface.lstrip("#") for t in tokens if t.kind is TokenKind.HASHTAG]
        f = surface(text)
        assert (f.count_hashtags, f.count_mentions, f.count_retweets, f.count_urls) == (
            kinds[TokenKind.HASHTAG], kinds[TokenKind.MENTION], kinds[TokenKind.RETWEET],
            kinds[TokenKind.URL],
        )
        assert f.num_words == len(words)
        assert f.num_syllables == sum(count_syllables(w) for w in words if w)
        assert f.num_chars == len(text)
