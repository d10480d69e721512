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
from dataclasses import dataclass
from operator import attrgetter

from .textproc import Token, TokenKind, count_syllables

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
    count_hashtags: int
    count_mentions: int
    count_retweets: int
    count_urls: int
    num_chars: int
    num_words: int
    num_syllables: int

    @property
    def has_hashtag(self) -> int:
        return int(self.count_hashtags > 0)

    @property
    def has_mention(self) -> int:
        return int(self.count_mentions > 0)

    @property
    def has_retweet(self) -> int:
        return int(self.count_retweets > 0)

    @property
    def has_url(self) -> int:
        return int(self.count_urls > 0)

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
    """One document's scalar columns, in SCALAR_COLUMNS order."""
    return sent.as_tuple() + read.as_tuple() + surf.as_tuple()


def _is_negation(surface: str) -> bool:
    low = surface.lower()
    return low in NEGATIONS or low.endswith("n't")


def sentiment_scores(tokens: list[Token], lexicon: SentimentLexicon) -> SentimentScores:
    """Score a token stream against the lexicon.

    Only Word tokens participate: they can match the lexicon, and unmatched
    ones carry the neutral mass. Negation looks back over the three preceding
    tokens of any kind; boosters must immediately precede the hit.
    """
    cased_words = [
        t.surface for t in tokens if t.kind is TokenKind.WORD and t.surface.upper() != t.surface.lower()
    ]
    tweet_all_caps = bool(cased_words) and all(w.isupper() for w in cased_words)

    pos_mass = 0.0
    neg_mass = 0.0
    neu_mass = 0.0
    total = 0.0
    valences = lexicon.valences
    for i, tok in enumerate(tokens):
        if tok.kind is not TokenKind.WORD:
            continue
        valence = valences.get(tok.surface.lower())
        if valence is None:
            neu_mass += 1.0
            continue
        adjusted = valence
        if valence != 0.0:
            sign = 1.0 if valence > 0 else -1.0
            if i > 0 and tokens[i - 1].surface.lower() in BOOSTERS:
                adjusted += sign * BOOSTER_INCREMENT
            if tok.surface.isupper() and not tweet_all_caps:
                adjusted += sign * CAPS_INCREMENT
        if any(_is_negation(tokens[j].surface) for j in range(max(0, i - 3), i)):
            adjusted *= NEGATION_FACTOR
        total += adjusted
        if adjusted > 0:
            pos_mass += adjusted
        elif adjusted < 0:
            neg_mass += -adjusted

    exclaims = sum(t.surface.count("!") for t in tokens)
    amplified = total
    if total != 0.0:
        amplified += math.copysign(1.0, total) * EXCLAIM_INCREMENT * min(4, exclaims)
    compound = amplified / math.sqrt(amplified * amplified + COMPOUND_NORM)

    mass = pos_mass + neg_mass + neu_mass
    if mass == 0.0:
        return SentimentScores(pos=0.0, neg=0.0, neu=1.0, compound=compound)
    return SentimentScores(
        pos=pos_mass / mass, neg=neg_mass / mass, neu=neu_mass / mass, compound=compound
    )


def readability(num_words: int, num_syllables: int) -> ReadabilityScores:
    """Reading-ease and grade formulas with the sentence count pinned at 1,
    so words-per-sentence collapses to the word count."""
    if num_words < 1:
        raise ValueError("readability requires at least one word")
    if num_syllables < 1:
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
