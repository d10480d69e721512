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
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .textproc import StringTable, Token, TokenKind, count_syllables

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

    def __contains__(self, token: str) -> bool:
        return token in self.valences

    def __getitem__(self, token: str) -> float:
        return self.valences[token]


@dataclass(frozen=True)
class SentimentScores:
    pos: float
    neg: float
    neu: float
    compound: float

    # the scalar column names, in as_tuple order
    NAMES = ("pos", "neg", "neu", "compound")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return _SENTIMENT_VALUES(self)


@dataclass(frozen=True)
class ReadabilityScores:
    fk_grade: float
    reading_ease: float

    NAMES = ("fk_grade", "reading_ease")

    def as_tuple(self) -> tuple[float, float]:
        return _READABILITY_VALUES(self)


@dataclass(frozen=True)
class SurfaceFeatures:
    """One document's counts, or a batch's as arrays (has_* then too)."""

    count_hashtags: int
    count_mentions: int
    count_retweets: int
    count_urls: int
    num_chars: int
    num_words: int
    num_syllables: int

    @property
    def has_hashtag(self) -> int:
        return (self.count_hashtags > 0) * 1

    @property
    def has_mention(self) -> int:
        return (self.count_mentions > 0) * 1

    @property
    def has_retweet(self) -> int:
        return (self.count_retweets > 0) * 1

    @property
    def has_url(self) -> int:
        return (self.count_urls > 0) * 1

    # counts, then binaries, then size metrics
    NAMES = (
        "count_hashtags",
        "count_mentions",
        "count_retweets",
        "count_urls",
        "has_hashtag",
        "has_mention",
        "has_retweet",
        "has_url",
        "num_chars",
        "num_words",
        "num_syllables",
    )

    def as_tuple(self) -> tuple[int, ...]:
        return _SURFACE_VALUES(self)


_SENTIMENT_VALUES = attrgetter(*SentimentScores.NAMES)
_READABILITY_VALUES = attrgetter(*ReadabilityScores.NAMES)
_SURFACE_VALUES = attrgetter(*SurfaceFeatures.NAMES)

# the name of each scalar column, (block, name), in scalar_row order: the
# only definition of the scalar columns' order and names
SCALAR_COLUMNS = (
    tuple(("sentiment", n) for n in SentimentScores.NAMES)
    + tuple(("readability", n) for n in ReadabilityScores.NAMES)
    + tuple(("surface", n) for n in SurfaceFeatures.NAMES)
)


def scalar_row(sent: SentimentScores, read: ReadabilityScores, surf: SurfaceFeatures) -> tuple:
    """One document's scalar columns, in SCALAR_COLUMNS order; a batch's
    column arrays when the scores hold arrays."""
    return sent.as_tuple() + read.as_tuple() + surf.as_tuple()


# the flag bits sentiment_codes gives a token
NEGATION, BOOSTER, UPPER = 1, 2, 4


def sentiment_codes(tokens: Sequence[Token]) -> tuple[list, list[int], tuple[int, int, int]]:
    """What the sentiment rules read of a token list: per token, the
    lowercased surface of a Word token (None for other kinds) and its flags
    (NEGATION for "not", "never", "no", "cannot" or a "n't" ending; BOOSTER;
    UPPER for a Word in all caps); then the list's "!" count, its cased
    Words and how many of those are all caps. Concatenated lists have the
    concatenated codes and the summed counts."""
    words, flags = [], []
    exclaims = cased = upper = 0
    for t in tokens:
        surface, low, word = t.surface, t.surface.lower(), t.kind is TokenKind.WORD
        exclaims += surface.count("!")
        flags.append((low in NEGATIONS or low.endswith("n't")) * NEGATION
                     + (low in BOOSTERS) * BOOSTER + (word and surface.isupper()) * UPPER)
        words.append(low if word else None)
        if word and surface.upper() != low:
            cased += 1
            upper += surface.isupper()
    return words, flags, (exclaims, cased, upper)


@dataclass(frozen=True, eq=False)
class TokenCodes:
    """The sentiment_codes of a batch of tweets, each word as its id in
    `table`: per token, in tweet order, `words` (-1 for other kinds) and
    `flags`; tweet i's tokens are [offsets[i], offsets[i + 1]), and row i
    of `counts` holds its three counts."""

    words: np.ndarray
    flags: np.ndarray
    offsets: np.ndarray
    counts: np.ndarray
    table: StringTable


def _score(codes: TokenCodes, lexicon: SentimentLexicon) -> tuple[np.ndarray, ...]:
    """pos, neg, neu and compound of every tweet of codes, one array each.

    Each hit's adjusted valence is computed for all hits at once; then the
    hits are added one rank per step across tweets (each tweet's first hit,
    then its second, ...), so every tweet's sums add its hits left to
    right, as a per-tweet loop does, and equal it bit for bit."""
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


def sentiment_scores(tokens: Sequence[Token] | TokenCodes, lexicon: SentimentLexicon) -> SentimentScores:
    """Score a token stream against the lexicon: a token list gives one
    tweet's scores, and a TokenCodes batch gives every tweet's, each field
    an array with one value per tweet.

    Only Word tokens participate: they can match the lexicon, and unmatched
    ones carry the neutral mass. Negation looks back over the three preceding
    tokens of any kind; boosters must immediately precede the hit.
    """
    if isinstance(tokens, TokenCodes):
        return SentimentScores(*_score(tokens, lexicon))
    table = StringTable()
    words, flags, counts = sentiment_codes(tokens)
    ids = [-1 if w is None else table.id(w) for w in words]
    one = TokenCodes(np.array(ids, np.intp), np.array(flags, np.intp), np.array([0, len(ids)]),
                     np.array([counts]), table)
    return SentimentScores(*(float(x[0]) for x in _score(one, lexicon)))


def readability(num_words, num_syllables) -> ReadabilityScores:
    """Reading-ease and grade formulas with the sentence count pinned at 1,
    so words-per-sentence collapses to the word count. Counts may be
    arrays, one per document; the scores are then arrays too."""
    if np.min(num_words, initial=1) < 1:
        raise ValueError("readability requires at least one word")
    if np.min(num_syllables, initial=1) < 1:
        raise ValueError("readability requires at least one syllable")
    spw = num_syllables / num_words
    reading_ease = 206.835 - 1.015 * num_words - 84.6 * spw
    fk_grade = 0.39 * num_words + 11.8 * spw - 15.59
    return ReadabilityScores(fk_grade=fk_grade, reading_ease=reading_ease)


def surface_features(text: str, tokens: list[Token]) -> SurfaceFeatures:
    """Token-kind counts plus size metrics. num_chars counts code points of
    the raw text; words are Word plus Hashtag tokens (hashtag bodies counted
    without the '#')."""
    hashtags = mentions = retweets = urls = words = syllables = 0
    for t in tokens:
        kind = t.kind
        if kind is TokenKind.WORD:
            words += 1
            syllables += count_syllables(t.surface)
        elif kind is TokenKind.HASHTAG:
            hashtags += 1
            words += 1
            body = t.surface.lstrip("#")
            if body:
                syllables += count_syllables(body)
        elif kind is TokenKind.MENTION:
            mentions += 1
        elif kind is TokenKind.URL:
            urls += 1
        elif kind is TokenKind.RETWEET:
            retweets += 1
    return SurfaceFeatures(
        count_hashtags=hashtags,
        count_mentions=mentions,
        count_retweets=retweets,
        count_urls=urls,
        num_chars=len(text),
        num_words=words,
        num_syllables=syllables,
    )
