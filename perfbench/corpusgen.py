"""Seeded synthetic corpus for the benchmark; no download.

The corpus is shaped like the public crowd-coded tweet release: a
Zipfian vocabulary of about 20k words, class priors of 6/77/17%
(hate/offensive/neither), tweets of varied length with hashtags,
mentions, URLs, retweet markers, punctuation runs and some non-ASCII
text. A head of English function words known to the bundled tagger's
tag dictionary makes both tagger paths (dictionary hit and perceptron)
run. Most rows have three coders, some split 2-1, some have more coders,
and a few fall below the three-coder minimum and stay unlabeled.

The vocabulary is fixed (built from a constant seed) so every workload
seed speaks the same language; only the sampled tweets depend on the
seed. The same (rows, seed) always gives byte-identical output.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import random

VOCAB_SEED = 20170304
VOCAB_SIZE = 20_000
ZIPF_S = 1.05

CLASS_NAMES = ("hate", "offensive", "neither")
CLASS_PRIORS = (0.06, 0.77, 0.17)
CLASS_POOL = 80  # marker words per class
# chance that one content word of a tweet is drawn from a class pool
# instead of the shared background vocabulary
MARKER_RATE = {"hate": 0.50, "offensive": 0.30, "neither": 0.40}
# hate tweets also borrow offensive markers, as in the real data
HATE_BORROWS_OFFENSIVE = 0.35

# words in the bundled tagger's tag dictionary; they head the frequency list
FUNCTION_WORDS = (
    "the", "a", "i", "is", "and", "this", "that", "they", "we", "he", "she",
    "in", "on", "with", "was", "are", "these", "those", "by", "over",
    "under", "near", "always", "often", "slowly", "quickly", "happy",
    "big", "friend", "game", "house", "city", "story", "song", "road",
)
FUNCTION_RATE = 0.30

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl",
           "pr", "sh", "sl", "st", "str", "th", "tr")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou", "y")
_CODAS = ("", "", "", "", "", "", "n", "r", "s", "t", "l", "ck", "nd", "ng", "st")
_SUFFIXES = ("", "", "", "", "", "", "s", "s", "ed", "ing", "er", "ly", "ness",
             "ation", "ful", "ment", "ize", "ive", "able", "ous")
_NON_ASCII = ("café", "naïve", "jalapeño", "über", "señor", "😂", "🙄", "🔥",
              "…", "—", "“quoted”")
_PUNCT_RUNS = ("!", "!!", "!!!", "?", "?!", "...", ",", ".", ":)", "!?!")


def _build_vocabulary() -> tuple[str, ...]:
    rng = random.Random(VOCAB_SEED)
    seen = set(FUNCTION_WORDS)
    words = []
    while len(words) < VOCAB_SIZE:
        syllables = rng.choice((1, 1, 2, 2, 2, 3))
        stem = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(syllables)
        )
        word = stem + rng.choice(_SUFFIXES)
        if word not in seen:
            seen.add(word)
            words.append(word)
    # frequent words tend to be short, as in natural text
    keys = {w: len(w) + rng.uniform(0.0, 8.0) for w in words}
    words.sort(key=keys.__getitem__)
    return tuple(words)


class _Language:
    """Background Zipf vocabulary plus disjoint per-class marker pools."""

    def __init__(self):
        vocab = _build_vocabulary()
        # class markers come from the mid-frequency band so they are
        # informative but not so rare that min_df drops them
        band = list(vocab[200:200 + CLASS_POOL * len(CLASS_NAMES)])
        self.pools = {
            name: tuple(band[i * CLASS_POOL:(i + 1) * CLASS_POOL])
            for i, name in enumerate(CLASS_NAMES)
        }
        self.background = vocab
        self.cum_background = list(
            itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(len(vocab)))
        )
        self.cum_pool = list(
            itertools.accumulate(1.0 / (r + 1) ** 0.8 for r in range(CLASS_POOL))
        )
        self.cum_function = list(
            itertools.accumulate(1.0 / (r + 1) ** 0.7 for r in range(len(FUNCTION_WORDS)))
        )


@functools.cache
def _language() -> _Language:
    return _Language()


def _tweet_length(rng: random.Random) -> int:
    # mostly short, with a long tail up to the old 140-character limit
    return min(28, 2 + int(rng.expovariate(1 / 9.0)))


def _content_word(rng: random.Random, lang: _Language, cls: str) -> str:
    if rng.random() < MARKER_RATE[cls]:
        pool = cls
        if cls == "hate" and rng.random() < HATE_BORROWS_OFFENSIVE:
            pool = "offensive"
        return rng.choices(lang.pools[pool], cum_weights=lang.cum_pool)[0]
    if rng.random() < FUNCTION_RATE:
        return rng.choices(FUNCTION_WORDS, cum_weights=lang.cum_function)[0]
    return rng.choices(lang.background, cum_weights=lang.cum_background)[0]


def make_tweet(rng: random.Random, cls: str) -> str:
    """One tweet of construction class `cls`; never empty, never multi-line."""
    lang = _language()
    parts = []
    for _ in range(_tweet_length(rng)):
        word = _content_word(rng, lang, cls)
        roll = rng.random()
        if roll < 0.04:
            word = word.capitalize()
        elif roll < 0.05:
            word = word.upper()
        elif roll < 0.06:
            word = word + "n't"
        parts.append(word)
        if rng.random() < 0.06:
            parts[-1] += rng.choice(_PUNCT_RUNS)
    if rng.random() < 0.20:
        parts.insert(rng.randrange(len(parts) + 1), "#" + _content_word(rng, lang, cls))
    if rng.random() < 0.25:
        parts.insert(rng.randrange(len(parts) + 1), f"@user{rng.randrange(5000)}")
    if rng.random() < 0.15:
        parts.append("http://t.co/" + "".join(rng.choices("abcdefghjkmnpqrstuvwxyz0123456789", k=10)))
    if rng.random() < 0.04:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(_NON_ASCII))
    if rng.random() < 0.10:
        parts.insert(0, f"RT @user{rng.randrange(5000)}:")
    if rng.random() < 0.05:
        parts.append("&amp;" + rng.choice(_PUNCT_RUNS))
    return " ".join(parts)


def _coder_counts(rng: random.Random, label: int) -> tuple[int, int, int, int]:
    """(count, hate, offensive, neither) whose strict majority is `label`,
    except for the few rows below the three-coder minimum."""
    roll = rng.random()
    if roll < 0.004:
        total = rng.choice((1, 2))
        votes = [0, 0, 0]
        votes[label] = total
        return (total, *votes)
    total = 3 if roll < 0.85 else rng.choice((4, 5, 6, 7, 9))
    votes = [0, 0, 0]
    # a 2-1 (or wider minority) split for about a fifth of the rows
    dissent = rng.randrange(1, (total - 1) // 2 + 1) if rng.random() < 0.2 else 0
    votes[label] = total - dissent
    for _ in range(dissent):
        votes[rng.choice([c for c in range(3) if c != label])] += 1
    return (total, *votes)


def make_corpus_csv(rows: int, seed: int) -> bytes:
    """A labeled corpus CSV in the public release's column layout."""
    rng = random.Random(f"corpus-{seed}")
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["", "count", "hate_speech", "offensive_language", "neither", "class", "tweet"])
    for i in range(rows):
        label = rng.choices(range(3), weights=CLASS_PRIORS)[0]
        text = make_tweet(rng, CLASS_NAMES[label])
        total, ch, co, cn = _coder_counts(rng, label)
        w.writerow([i, total, ch, co, cn, label, text])
    return out.getvalue().encode("utf-8")


def make_unseen_tweets(count: int, seed: int) -> list[tuple[str, int]]:
    """Unlabeled tweets from the same distribution, for predict, each with
    the class code it was generated from."""
    rng = random.Random(f"unseen-{seed}")
    out = []
    for _ in range(count):
        label = rng.choices(range(3), weights=CLASS_PRIORS)[0]
        out.append((make_tweet(rng, CLASS_NAMES[label]), label))
    return out
