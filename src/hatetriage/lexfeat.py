"""Per-document scalar features: lexicon sentiment scores, readability
formulas with the sentence count pinned at one, and surface/count indicators.

The sentiment scorer freezes a documented subset of a social-media sentiment
rule set so it is fully testable: negation factor -0.74, booster increment
0.293, all-caps increment 0.733, exclamation increment 0.292, and the
compound normalization constant 15. Rule order per hit: the booster and
all-caps increments are added toward the valence sign first, then a negation
within the three preceding tokens multiplies the adjusted value by -0.74.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .textproc import StringTable, Token, TokenKind, count_syllables, token_word

NEGATION_FACTOR = -0.74
BOOSTER_INCREMENT = 0.293
CAPS_INCREMENT = 0.733
EXCLAIM_INCREMENT = 0.292
COMPOUND_NORM = 15.0

NEGATIONS = frozenset({"not", "never", "no", "cannot"})
BOOSTERS = frozenset({"very", "really", "extremely", "so"})

VALENCE_MIN, VALENCE_MAX = -4.0, 4.0


@dataclass(frozen=True)
class SentimentLexicon:
    valences: dict[str, float]

    def __post_init__(self):
        if not self.valences:
            raise ValueError("sentiment lexicon must be non-empty")
        for token, valence in self.valences.items():
            if token != token.lower():
                raise ValueError(f"lexicon token not lowercase: {token!r}")
            if not math.isfinite(valence) or not VALENCE_MIN <= valence <= VALENCE_MAX:
                raise ValueError(f"valence out of range for {token!r}: {valence}")

    @classmethod
    def from_text(cls, text: str) -> "SentimentLexicon":
        """Parse "token TAB valence" lines; '#' starts a comment line."""
        valences: dict[str, float] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split("\t")
            if len(parts) != 2:
                raise ValueError(f"lexicon line {lineno}: expected 'token TAB valence'")
            valences[parts[0]] = float(parts[1])
        return cls(valences)

    @classmethod
    def load(cls, path) -> "SentimentLexicon":
        with open(path, encoding="utf-8") as f:
            return cls.from_text(f.read())


# the name of each scalar column, (block, name), in the order the scorers
# return them and extraction stacks them: the only definition of the scalar
# columns' order and names
SCALAR_COLUMNS = (
    ("sentiment", "pos"), ("sentiment", "neg"), ("sentiment", "neu"), ("sentiment", "compound"),
    ("readability", "fk_grade"), ("readability", "reading_ease"),
    # counts, then binaries, then size metrics
    ("surface", "count_hashtags"), ("surface", "count_mentions"),
    ("surface", "count_retweets"), ("surface", "count_urls"),
    ("surface", "has_hashtag"), ("surface", "has_mention"),
    ("surface", "has_retweet"), ("surface", "has_url"),
    ("surface", "num_chars"), ("surface", "num_words"), ("surface", "num_syllables"),
)

# the flag bits of a token's codes
NEGATION, BOOSTER, UPPER = 1, 2, 4

# kinds bound once (see textproc)
_WORD, _HASHTAG, _MENTION, _URL = TokenKind.WORD, TokenKind.HASHTAG, TokenKind.MENTION, TokenKind.URL


def _word_flags(low: str) -> int:
    """NEGATION for "not", "never", "no", "cannot" or a "n't" ending, and
    BOOSTER, of a lowercased surface."""
    return (low in NEGATIONS or low.endswith("n't")) * NEGATION + (low in BOOSTERS) * BOOSTER


class WordTables:
    """Distinct words (textproc.token_word) numbered once in `words`, with
    their syllables and NEGATION and BOOSTER flags derived when numbered,
    one entry per word id in `syllables` and `bits`."""

    def __init__(self):
        self.words = StringTable()
        self.syllables, self.bits = array("q"), array("q")

    def word(self, word: str) -> int:
        """The id of `word`, numbered and derived from when it is new."""
        k = self.words.ids.get(word)
        if k is None:
            k = self.words.id(word)
            self.syllables.append(count_syllables(word))
            self.bits.append(_word_flags(word))
        return k

    def token(self, surface: str, kind: TokenKind) -> tuple[int, int, tuple[int, ...]]:
        """One token's codes: the id of its word (-1 for none), its flags,
        and its 8 counts: hashtags, mentions, URLs, words (Words and
        hashtags), their syllables, "!", and for a Word whether it is cased
        and then all caps, read from the surface, never from the word."""
        word = token_word(surface, kind)
        k = -1 if word is None else self.word(word)
        exclaims = surface.count("!")
        if kind is _WORD:
            upper, cased = surface.isupper(), surface.upper() != word
            counts = (0, 0, 0, 1, self.syllables[k], exclaims, cased, cased and upper)
            return k, self.bits[k] | upper * UPPER, counts
        if kind is _HASHTAG:
            counts = (1, 0, 0, 1, 0 if k < 0 else self.syllables[k], exclaims, 0, 0)
        else:
            counts = (0, kind is _MENTION, kind is _URL, 0, 0, exclaims, 0, 0)
        return k, _word_flags(surface.lower()), counts

    def codes(self, tokens: Iterable[Token]) -> tuple[list[int], list[int], list[int], list[int]]:
        """One walk over a token list: the ids of its words, per token its
        word id if it is a Word (-1 for other kinds) and its flags, and its
        summed counts (see token())."""
        ids, token_words, flags, counts = [], [], [], [(0,) * 8]
        for t in tokens:
            k, flag, c = self.token(t.surface, t.kind)
            if k >= 0:
                ids.append(k)
            token_words.append(k if t.kind is _WORD else -1)
            flags.append(flag)
            counts.append(c)
        return ids, token_words, flags, list(map(sum, zip(*counts)))


@dataclass(frozen=True, eq=False)
class TokenCodes:
    """The sentiment codes (WordTables.codes) of a batch of tweets, each
    word as its id in `table`: per token, in tweet order, `words` (-1 for
    kinds other than Word) and `flags`; tweet i's tokens are [offsets[i],
    offsets[i + 1]), and row i of `counts` holds its "!", cased Words and
    all-caps ones."""

    words: np.ndarray
    flags: np.ndarray
    offsets: np.ndarray
    counts: np.ndarray
    table: StringTable


def sentiment_scores(codes: TokenCodes, lexicon: SentimentLexicon) -> tuple[np.ndarray, ...]:
    """Score a batch of tweets' token codes against the lexicon: the
    sentiment columns of SCALAR_COLUMNS (pos, neg, neu, compound), each an
    array with one value per tweet.

    Only Word tokens participate: they can match the lexicon, and unmatched
    ones carry the neutral mass. Negation looks back over the three preceding
    tokens of any kind; boosters must immediately precede the hit.

    Each hit's adjusted valence is computed for all hits at once; then the
    hits are added one rank per step across tweets (each tweet's first hit,
    then its second, ...), so every tweet's sums add its hits left to
    right, as a per-tweet loop does, and equal it bit for bit.
    """
    n = len(codes.offsets) - 1
    valence = codes.table.derived(lexicon, lambda w: lexicon.valences.get(w, math.nan), np.float64)
    words, flags = codes.words, codes.flags
    tweet = np.repeat(np.arange(n), np.diff(codes.offsets))
    place = np.arange(len(words)) - codes.offsets[tweet]
    hits = np.flatnonzero(words >= 0)
    value = valence[words[hits]]
    neutral = np.isnan(value)
    neu = np.bincount(tweet[hits[neutral]], minlength=n).astype(np.float64)
    hits, value = hits[~neutral], value[~neutral]

    def before(k: int, flag: int) -> np.ndarray:
        # whether the token k places before each hit is in its tweet and has flag
        return (place[hits] >= k) & (flags.take(hits - k, mode="clip") & flag != 0)

    exclaims, cased, upper = codes.counts.T
    all_caps = (cased > 0) & (upper == cased)
    sign = np.where(value > 0, 1.0, -1.0)
    scaled = value != 0.0
    adjusted = np.where(scaled & before(1, BOOSTER), value + sign * BOOSTER_INCREMENT, value)
    caps = scaled & (flags[hits] & UPPER != 0) & ~all_caps[tweet[hits]]
    adjusted = np.where(caps, adjusted + sign * CAPS_INCREMENT, adjusted)
    negated = before(1, NEGATION) | before(2, NEGATION) | before(3, NEGATION)
    adjusted = np.where(negated, adjusted * NEGATION_FACTOR, adjusted)

    per_tweet = np.bincount(tweet[hits], minlength=n)
    order = np.argsort(-per_tweet, kind="stable")  # the tweets with most hits first
    first = (np.cumsum(per_tweet) - per_tweet)[order]
    sums = np.zeros((3, n))  # total, pos and neg masses, in `order`
    for rank, m in enumerate((n - np.cumsum(np.bincount(per_tweet))[:-1]).tolist()):
        a = adjusted[first[:m] + rank]
        sums[0, :m] += a
        sums[1, :m] += np.where(a > 0, a, 0.0)
        sums[2, :m] += np.where(a < 0, -a, 0.0)
    total, pos, neg = np.empty_like(sums)
    total[order], pos[order], neg[order] = sums

    amplified = np.where(
        total != 0.0, total + np.copysign(1.0, total) * EXCLAIM_INCREMENT * np.minimum(4, exclaims), total
    )
    compound = amplified / np.sqrt(amplified * amplified + COMPOUND_NORM)
    mass = pos + neg + neu
    empty = mass == 0.0
    mass[empty] = 1.0
    return pos / mass, neg / mass, np.where(empty, 1.0, neu / mass), compound


def readability(num_words, num_syllables) -> tuple:
    """The grade and reading-ease formulas, (fk_grade, reading_ease), with
    the sentence count pinned at 1, so words-per-sentence collapses to the
    word count. Counts may be arrays, one per document; the scores are then
    arrays too."""
    if np.min(num_words, initial=1) < 1:
        raise ValueError("readability requires at least one word")
    if np.min(num_syllables, initial=1) < 1:
        raise ValueError("readability requires at least one syllable")
    spw = num_syllables / num_words
    reading_ease = 206.835 - 1.015 * num_words - 84.6 * spw
    fk_grade = 0.39 * num_words + 11.8 * spw - 15.59
    return fk_grade, reading_ease


def surface_features(texts, counts, retweets) -> tuple[np.ndarray, ...]:
    """The surface columns of SCALAR_COLUMNS for many texts, each an array
    with one value per text: token-kind counts, a flag per count that is
    set when the count is positive, and size metrics. `counts` holds each
    text's summed WordTables.codes counts, one row each, and `retweets` its
    retweet marker count; num_chars counts code points of the raw text, and
    words are Word plus Hashtag tokens (hashtag bodies counted without the
    '#')."""
    hashtags, mentions, urls, words, syllables = np.asarray(counts).T[:5]
    chars = np.fromiter(map(len, texts), np.int64, len(texts))
    kinds = (hashtags, mentions, retweets, urls)
    return (*kinds, *(count > 0 for count in kinds), chars, words, syllables)
