"""Greedy averaged-perceptron Penn POS tagger.

Decoding is left to right, conditioning on the tagger's own previous two
predictions. Unambiguous frequent words (seen at least 20 times with at
least 97% single-tag purity) are frozen into a tag dictionary that
short-circuits the model. Weights are averaged over the full update history
with the timestamp trick. The tagger is case-insensitive: it is meant to run
on the lowercased, unstemmed token stream.

Tagging reads tables compiled once per model, when the TagModel is built:
a feature->row map; a dense weight matrix with one column per tag in sorted
order, whose row 0 is all zeros and stands for any absent feature; id
tables for the four features that read the tagger's own history (prev tag,
prev2 tag, the pair, prev tag+word), indexed by history id (the tag columns,
then the two START pads); and a tag->column map for tagdict hits.

`tag_batch` decodes many token lists at once, and `tag` is that call on one
list. Greedy decoding of one list reads only its own earlier positions, so
position i of every list longer than i is scored in one numpy step. The
lists are sorted by length and their feature ids laid out position-major,
one int32 row per feature role, so each step works on (active lists x tags)
only. Two invariants keep every tag equal to a dict-of-dicts scorer's:

- each tag's score adds the 14 feature rows one at a time, in the order
  `_features` lists them, so it is the same float sum (an absent feature
  adds 0.0, and x + 0.0 == x);
- the first maximum over the sorted columns wins, so ties, including the
  all-zero cold start, go to the smallest tag.

Each string's feature ids are derived once and kept with the StringTable
of the tokens, not with the model, so a stream of unseen words cannot grow
the model; a loaded model's chunk memo bounds its own table. The trainer
keeps its own dict scorer, because its weights change on every update.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ._serialize import ArtifactFormatError, dump_artifact, load_artifact
from .textproc import StringTable, TokenDocs

MAGIC = "postag"
FORMAT_VERSION = 1

TAGDICT_MIN_COUNT = 20
TAGDICT_MIN_PURITY = 0.97

START = ("-START-", "-START2-")
END = ("-END-", "-END2-")

# Penn Treebank tagset: word classes plus punctuation tags
PENN_TAGSET = frozenset(
    """CC CD DT EX FW IN JJ JJR JJS LS MD NN NNP NNPS NNS PDT POS PRP PRP$
       RB RBR RBS RP SYM TO UH VB VBD VBG VBN VBP VBZ WDT WP WP$ WRB
       . , : `` '' -LRB- -RRB- # $""".split()
)


@dataclass(frozen=True)
class TagModel:
    tagset: tuple[str, ...]
    tagdict: dict[str, str]
    weights: dict[str, dict[str, float]]

    def __post_init__(self):
        if not all(isinstance(t, str) for t in self.tagset):
            raise ValueError("tagset entries must be strings")
        if not self.tagset:
            raise ValueError("tagset is empty")
        if len(set(self.tagset)) != len(self.tagset):
            raise ValueError("tagset has a duplicate tag")
        known = set(self.tagset)
        for word, tag in self.tagdict.items():
            if not isinstance(tag, str) or tag not in known:
                raise ValueError(f"tagdict tag {tag!r} (word {word!r}) not in tagset")
        # the decoding tables, which check the weights as they read them;
        # built once per model, not a field
        object.__setattr__(self, "_compiled", _Compiled(self))


def _finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _normalize(word: str) -> str:
    """Collapse rare shapes so unknown words share features."""
    if "-" in word and word[0] != "-":
        return "!HYPHEN"
    if word.isdigit() and len(word) == 4:
        return "!YEAR"
    if word and word[0].isdigit():
        return "!DIGITS"
    return word.lower()


def _features(
    i: int, word: str, context: list[str], prev: str, prev2: str
) -> list[str]:
    """Feature strings for the word at position i (context is padded, so the
    word itself sits at context[i + 2])."""
    c = i + 2
    return [
        "bias",
        "suffix " + word[-3:],
        "prefix " + word[:3],
        "prev tag " + prev,
        "prev2 tag " + prev2,
        "prev tags " + prev + " " + prev2,
        "word " + context[c],
        "prev tag+word " + prev + " " + context[c],
        "prev word " + context[c - 1],
        "prev suffix " + context[c - 1][-3:],
        "prev2 word " + context[c - 2],
        "next word " + context[c + 1],
        "next suffix " + context[c + 1][-3:],
        "next2 word " + context[c + 2],
    ]


class _AveragedTrainer:
    """Perceptron weights plus the bookkeeping for averaging.

    The clock ticks once per update() call, including calls where the guess
    was already correct, so the average is over every training decision.
    """

    def __init__(self, tagset: tuple[str, ...]):
        self.tagset = tagset
        self.weights: dict[str, dict[str, float]] = {}
        self._totals: dict[tuple[str, str], float] = {}
        self._stamps: dict[tuple[str, str], int] = {}
        self.clock = 0

    def predict(self, features: list[str]) -> str:
        scores: dict[str, float] = {}
        for feature in features:
            per_tag = self.weights.get(feature)
            if not per_tag:
                continue
            for tag, weight in per_tag.items():
                scores[tag] = scores.get(tag, 0.0) + weight
        # ties, including the all-zero cold start, go to the smallest tag
        return min(self.tagset, key=lambda t: (-scores.get(t, 0.0), t))

    def _shift(self, feature: str, tag: str, delta: float):
        key = (feature, tag)
        per_tag = self.weights.setdefault(feature, {})
        current = per_tag.get(tag, 0.0)
        self._totals[key] = self._totals.get(key, 0.0) + (self.clock - self._stamps.get(key, 0)) * current
        self._stamps[key] = self.clock
        per_tag[tag] = current + delta

    def update(self, truth: str, guess: str, features: list[str]):
        self.clock += 1
        if truth == guess:
            return
        for feature in features:
            self._shift(feature, truth, 1.0)
            self._shift(feature, guess, -1.0)

    def averaged_weights(self) -> dict[str, dict[str, float]]:
        if self.clock == 0:
            return {}
        averaged: dict[str, dict[str, float]] = {}
        for feature, per_tag in self.weights.items():
            kept = {}
            for tag, weight in per_tag.items():
                key = (feature, tag)
                total = self._totals.get(key, 0.0)
                total += (self.clock - self._stamps.get(key, 0)) * weight
                mean = total / self.clock
                if mean != 0.0:
                    kept[tag] = mean
            if kept:
                averaged[feature] = kept
        return averaged


def _build_tagdict(sentences: list[list[tuple[str, str]]]) -> dict[str, str]:
    counts: dict[str, dict[str, int]] = {}
    for sentence in sentences:
        for word, tag in sentence:
            counts.setdefault(word.lower(), {}).setdefault(tag, 0)
            counts[word.lower()][tag] += 1
    tagdict = {}
    for word, per_tag in counts.items():
        total = sum(per_tag.values())
        if total < TAGDICT_MIN_COUNT:
            continue
        tag, n = max(per_tag.items(), key=lambda kv: (kv[1], kv[0]))
        if n / total >= TAGDICT_MIN_PURITY:
            tagdict[word] = tag
    return tagdict


def _padded_context(words: list[str]) -> list[str]:
    return list(START) + [_normalize(w) for w in words] + list(END)


def train_tagger(
    sentences: list[list[tuple[str, str]]], epochs: int, seed: int
) -> TagModel:
    """Train on tagged sentences with per-epoch seeded shuffling."""
    if epochs < 1:
        raise ValueError("epochs must be positive")
    material = [s for s in sentences if s]
    if not material:
        raise ValueError("training requires at least one non-empty tagged sentence")
    seen_tags = set()
    for sentence in material:
        for word, tag in sentence:
            if tag not in PENN_TAGSET:
                raise ValueError(f"unknown tag {tag!r} (word {word!r})")
            seen_tags.add(tag)
    tagset = tuple(sorted(seen_tags))
    tagdict = _build_tagdict(material)

    trainer = _AveragedTrainer(tagset)
    rng = random.Random(seed)
    order = list(material)
    for _ in range(epochs):
        rng.shuffle(order)
        for sentence in order:
            words = [w for w, _ in sentence]
            context = _padded_context(words)
            prev, prev2 = START
            for i, (word, tag) in enumerate(sentence):
                guess = tagdict.get(word.lower())
                if guess is None:
                    feats = _features(i, word.lower(), context, prev, prev2)
                    guess = trainer.predict(feats)
                    trainer.update(tag, guess, feats)
                prev2, prev = prev, guess
    return TagModel(tagset=tagset, tagdict=tagdict, weights=trainer.averaged_weights())


_PREV_TAG_WORD = "prev tag+word "
# columns of a token row: suffix, prefix and tagdict column, then the eight
# context_rows of the token's normalized form
_WIDTH = 11


class _Compiled:
    """A TagModel's weights as arrays, with id tables for the history
    features; built once, when the model is. Each weight is checked as it
    is read: its tag must be in the tagset and its value a finite number."""

    def __init__(self, model: TagModel):
        self.tagdict = model.tagdict
        self.tags = tuple(sorted(model.tagset))
        self.column = {t: j for j, t in enumerate(self.tags)}
        self.rows = {f: r for r, f in enumerate(model.weights, start=1)}
        # every weight's row, column and value, set in one step
        at_row, at_column, values = [], [], []
        for r, (feature, per_tag) in enumerate(model.weights.items(), start=1):
            for tag, weight in per_tag.items():
                j = self.column.get(tag)
                if j is None:
                    raise ValueError(f"weights tag {tag!r} (feature {feature!r}) not in tagset")
                if not _finite_number(weight):
                    raise ValueError(
                        f"weights value {weight!r} (feature {feature!r}, tag {tag!r})"
                        " is not a finite number"
                    )
                at_row.append(r)
                at_column.append(j)
                values.append(weight)
        self.weights = np.zeros((len(self.rows) + 1, len(self.tags)))
        self.weights[at_row, at_column] = values
        row = self.rows.get
        self.bias = self.weights[row("bias", 0)]
        # history ids: the tags' columns, then the two START pads
        history = self.tags + START
        self.prev = np.array([row("prev tag " + h, 0) for h in history], np.intp)
        self.prev2 = np.array([row("prev2 tag " + h, 0) for h in history], np.intp)
        self.pair = np.array(
            [[row("prev tags " + h + " " + h2, 0) for h2 in history] for h in history], np.intp
        )
        # prev tag+word: a row per context string that has such a feature,
        # holding its feature row for each history id; row 0 has none
        self.tag_word_index: dict[str, int] = {}
        table = [[0] * len(history)]
        prefixes = [(h_id, _PREV_TAG_WORD + h + " ") for h_id, h in enumerate(history)]
        for feature, r in self.rows.items():
            if not feature.startswith(_PREV_TAG_WORD):
                continue
            for h_id, prefix in prefixes:
                if feature.startswith(prefix):
                    k = self.tag_word_index.setdefault(feature[len(prefix) :], len(table))
                    if k == len(table):
                        table.append([0] * len(history))
                    table[k][h_id] = r
        self.prev_tag_word = np.array(table, np.intp)
        # the token rows of the four pads, which every call's table starts with
        self.pads = np.array([(0, 0, -1) + self.context_rows(pad) for pad in START + END], np.intc)

    def context_rows(self, s: str) -> tuple[int, ...]:
        """Feature rows of context string s in each role it plays."""
        row = self.rows.get
        return (
            row("word " + s, 0),
            self.tag_word_index.get(s, 0),
            row("prev word " + s, 0),
            row("prev suffix " + s[-3:], 0),
            row("prev2 word " + s, 0),
            row("next word " + s, 0),
            row("next suffix " + s[-3:], 0),
            row("next2 word " + s, 0),
        )

    def token_row(self, token: str) -> tuple[int, ...]:
        """A token's suffix and prefix feature rows, its tagdict column (-1
        for none), then the context_rows of its normalized form."""
        low = token.lower()
        hit = self.tagdict.get(low)
        return (
            self.rows.get("suffix " + low[-3:], 0),
            self.rows.get("prefix " + low[:3], 0),
            -1 if hit is None else self.column[hit],
        ) + self.context_rows(_normalize(token))


def tag_batch(model: TagModel, docs: Iterable[Sequence[str]] | TokenDocs) -> TokenDocs:
    """The tags of each token list, each equal to tagging that list alone,
    as TokenDocs over the model's tags in sorted order (a tag's id is its
    column).

    `docs` is TokenDocs, or token lists, which are numbered into a new
    table first. The feature rows of each string of the docs' table are
    derived once and kept with the table (StringTable.derived), so calls on
    one table, such as a loaded model's predict calls, derive each once."""
    c = model._compiled
    docs = TokenDocs.of(docs)
    tags = StringTable(c.tags)
    lengths = np.diff(docs.offsets)
    n, total = len(lengths), len(docs.ids)
    if not total:
        return TokenDocs(docs.ids, docs.offsets, tags)

    table = np.concatenate((c.pads, docs.table.derived(c, c.token_row, np.intc, _WIDTH))).T
    # every list's token ids, past the four pads, between two pads on either side
    firsts = docs.offsets[:-1] + 4 * np.arange(n) + 2  # of each list in padded
    padded = np.zeros(total + 4 * n, np.intp)
    padded[firsts - 1] = 1
    padded[firsts + lengths] = 2
    padded[firsts + lengths + 1] = 3
    tokens_at = np.repeat(firsts - docs.offsets[:-1], lengths) + np.arange(total)
    padded[tokens_at] = docs.ids + 4
    # position-major layout of the length-sorted lists: step i holds the
    # active[i] lists longer than i, longest first; at is each one's index
    # in padded
    order = np.argsort(-lengths, kind="stable")
    active = n - np.cumsum(np.bincount(lengths))[:-1]
    bounds = np.concatenate(([0], np.cumsum(active)))
    position = np.repeat(np.arange(len(active)), active)
    at = firsts[order[np.arange(total) - bounds[position]]] + position
    del order, position
    # role k is column k of the token table, read at the token itself for
    # its own features and at its neighbours for theirs; each del below
    # frees a table as soon as the next stage is built from it
    roles = np.empty((_WIDTH, total), np.int32)
    roles[0:5] = table[0:5, padded.take(at)]
    roles[5:7] = table[5:7, padded.take(at - 1)]
    roles[7] = table[7, padded.take(at - 2)]
    roles[8:10] = table[8:10, padded.take(at + 1)]
    roles[10] = table[10, padded.take(at + 2)]
    del table, padded

    W = c.weights
    chosen = np.empty(total, np.int32)
    prev = np.full(n, len(c.tags), np.intp)  # history id of START[0]
    prev2 = np.full(n, len(c.tags) + 1, np.intp)  # history id of START[1]
    bounds = bounds.tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        m = b - a
        p, p2 = prev[:m], prev2[:m]
        (
            suffix, prefix, hit, word, tag_word, prev_word, prev_suffix,
            prev2_word, next_word, next_suffix, next2_word,
        ) = roles[:, a:b].astype(np.intp)
        # the 14 rows one at a time, in _features order
        s = c.bias + W.take(suffix, axis=0)
        s += W.take(prefix, axis=0)
        s += W.take(c.prev.take(p), axis=0)
        s += W.take(c.prev2.take(p2), axis=0)
        s += W.take(c.pair[p, p2], axis=0)
        s += W.take(word, axis=0)
        s += W.take(c.prev_tag_word[tag_word, p], axis=0)
        s += W.take(prev_word, axis=0)
        s += W.take(prev_suffix, axis=0)
        s += W.take(prev2_word, axis=0)
        s += W.take(next_word, axis=0)
        s += W.take(next_suffix, axis=0)
        s += W.take(next2_word, axis=0)
        step = np.where(hit >= 0, hit, s.argmax(axis=1))
        chosen[a:b] = step
        prev2[:m] = p
        prev[:m] = step
    del roles
    by_list = np.zeros(total + 4 * n, np.int32)  # indexed like padded
    by_list[at] = chosen
    return TokenDocs(by_list[tokens_at], docs.offsets, tags)


def tag(model: TagModel, tokens: list[str]) -> list[str]:
    """One tag per token; tagdict hits bypass the weights."""
    return list(tag_batch(model, [tokens])[0])


def save_model(model: TagModel) -> bytes:
    payload = {
        "tagset": list(model.tagset),
        "tagdict": model.tagdict,
        "weights": model.weights,
    }
    return dump_artifact(MAGIC, FORMAT_VERSION, payload)


def load_model(data: bytes) -> TagModel:
    _, payload = load_artifact(data, MAGIC, (FORMAT_VERSION,))
    for name, kind in (("tagset", list), ("tagdict", dict), ("weights", dict)):
        if name not in payload:
            raise ArtifactFormatError(f"tagger payload missing field {name!r}")
        if not isinstance(payload[name], kind):
            shape = "an array" if kind is list else "an object"
            raise ArtifactFormatError(f"tagger payload field {name!r} must be {shape}")
    weights = payload["weights"]
    for feature, per_tag in weights.items():
        if not isinstance(per_tag, dict):
            raise ArtifactFormatError(
                f"tagger payload field 'weights' entry {feature!r} must be an object"
            )
    try:
        return TagModel(
            tagset=tuple(payload["tagset"]), tagdict=payload["tagdict"], weights=weights
        )
    except ValueError as err:
        raise ArtifactFormatError(f"tagger payload is malformed: {err}") from None


def parse_conll(text: str) -> list[list[tuple[str, str]]]:
    """Parse "word TAB tag" lines with blank lines between sentences."""
    sentences: list[list[tuple[str, str]]] = []
    current: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            if current:
                sentences.append(current)
                current = []
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"line {lineno}: expected 'word TAB tag'")
        current.append((parts[0], parts[1]))
    if current:
        sentences.append(current)
    return sentences
