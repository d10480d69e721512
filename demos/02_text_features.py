"""
From raw tweet to feature ingredients
=====================================

One tweet passes through tokenization, stemming, part-of-speech tagging,
sentiment scoring, and readability/surface measurement. These are the raw
ingredients every model input is assembled from, and extract_ingredients
makes all of them in one call, for one tweet or a whole corpus.
"""

import importlib.resources

from hatetriage.lexfeat import SCALAR_COLUMNS, SentimentLexicon
from hatetriage.pipeline import extract_ingredients
from hatetriage.postag import load_model
from hatetriage.textproc import tokenize

TWEET = "RT @someone: I really hate waiting for the bus!! http://t.co/x #mornings"

# tokenization classifies each chunk; URLs and mentions become placeholders
print("tokens:")
for t in tokenize(TWEET):
    print(f"  {t.kind.name:8s} {t.surface!r}")

data = importlib.resources.files("hatetriage.data")
tagger = load_model(data.joinpath("pos_model.txt").read_bytes())
lexicon = SentimentLexicon.from_text(
    data.joinpath("sentiment_lexicon.tsv").read_text(encoding="utf-8")
)
ingredients = extract_ingredients([TWEET], tagger, lexicon)

# the word n-grams read the stems; the tagger tagged the unstemmed words,
# one tag per stem
print("\nstems:   ", list(ingredients.word_docs[0]))
print("pos tags:", list(ingredients.pos_docs[0]))

# sentiment (negation, booster and exclamation rules), readability (the
# tweet as one sentence) and surface counts: one row of 17 scalar columns
print("\nscalar columns:")
for (block, name), value in zip(SCALAR_COLUMNS, ingredients.scalars[0].tolist()):
    print(f"  {block:11s} {name:15s} {value:.4f}")
