"""Reference implementation of lexfeat's sentiment scorer, as it was
written before the shipped one scored arrays: one walk over one tweet's
Token list, adding each hit's adjusted valence in turn, giving (pos, neg,
neu, compound) as the shipped scorer's sentiment columns. Tests compare the
shipped scorer against it bit for bit.
"""

import math

from hatetriage.lexfeat import (
    BOOSTER_INCREMENT,
    BOOSTERS,
    CAPS_INCREMENT,
    COMPOUND_NORM,
    EXCLAIM_INCREMENT,
    NEGATION_FACTOR,
    NEGATIONS,
    SentimentLexicon,
)
from hatetriage.textproc import Token, TokenKind


def _is_negation(surface: str) -> bool:
    low = surface.lower()
    return low in NEGATIONS or low.endswith("n't")


def reference_sentiment_scores(
    tokens: list[Token], lexicon: SentimentLexicon
) -> tuple[float, float, float, float]:
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
        return 0.0, 0.0, 1.0, compound
    return pos_mass / mass, neg_mass / mass, neu_mass / mass, compound
