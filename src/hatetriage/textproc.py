"""Tweet-aware tokenization, Porter stemming, syllable counting, and token ids.

Every function here is a pure function over strings, the stemmer included:
it keeps no state between calls, so any number of threads may call it at
once. This module is the lexical substrate for the n-gram, sentiment,
readability, and surface features.
A tweet's tokens are its leading retweet marker, if any (split_retweet()),
followed by the tokens of each whitespace chunk (classify_chunk()), so
extraction can classify each distinct chunk once; tokenize() does the
whole tweet. A token's word is token_word(); the n-gram stream holds its
stem_word(), and the tagger reads it unstemmed, as stems would corrupt the
tagger's suffix features.

Token streams travel as ids: a StringTable numbers distinct strings once,
and TokenDocs holds many documents as one flat id array with document
offsets, the compressed-row layout the sparse matrices use.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np


class TokenKind(Enum):
    WORD = "word"
    URL = "url"
    MENTION = "mention"
    HASHTAG = "hashtag"
    RETWEET = "retweet"
    PUNCT = "punct"
    OTHER = "other"


# bound once: looking a member up on its Enum class costs more than the test
_WORD, _HASHTAG, _MENTION, _URL = TokenKind.WORD, TokenKind.HASHTAG, TokenKind.MENTION, TokenKind.URL


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    kind: TokenKind


# Placeholder pseudo-words given by token_word(). They are deliberately
# alphabetic so the stemmer and the vectorizer treat them like ordinary words.
URL_PLACEHOLDER = "URLHERE"
MENTION_PLACEHOLDER = "MENTIONHERE"

# A URL, a mention or a hashtag at the front of what is left of a chunk,
# tried in that order; a URL takes the rest of the chunk.
_LEADING = re.compile(
    r"(?P<url>(?:[a-zA-Z][a-zA-Z0-9+.-]*://|www\.)\S+)|(?P<mention>@\w+)|(?P<hashtag>#\w+)"
)
_LEADING_KIND = {"url": TokenKind.URL, "mention": TokenKind.MENTION, "hashtag": TokenKind.HASHTAG}
# Apostrophes inside a word ("ain't") stay part of the word; everything else
# peels off the edges as punctuation.
_WORD_CHARS = frozenset("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_'")


def classify_chunk(chunk: str) -> list[Token]:
    """Split one whitespace-delimited chunk into tokens, dropping no characters.

    Mentions and hashtags chain ("#a#b" is two hashtags): each match is
    taken at an offset, so a chunk is scanned once, however long its chain.
    """
    out: list[Token] = []
    pos = 0
    n = len(chunk)
    while m := _LEADING.match(chunk, pos):
        kind = _LEADING_KIND[m.lastgroup]
        out.append(Token(m.group(), kind))
        pos = m.end()
        if kind is TokenKind.URL:
            if pos < n:
                out.append(Token(chunk[pos:], TokenKind.PUNCT))
            return out
        if pos == n:
            return out
    # Peel leading and trailing non-word characters into Punct tokens.
    start, end = pos, n
    while start < end and chunk[start] not in _WORD_CHARS:
        start += 1
    while end > start and chunk[end - 1] not in _WORD_CHARS:
        end -= 1
    if start > pos:
        out.append(Token(chunk[pos:start], TokenKind.PUNCT))
    core = chunk[start:end]
    if core:
        kind = TokenKind.WORD if any(c.isalnum() for c in core) else TokenKind.OTHER
        out.append(Token(core, kind))
    if end < n:
        out.append(Token(chunk[end:], TokenKind.PUNCT))
    return out


def one_word(chunk: str) -> bool:
    """Whether classify_chunk(chunk) is the one Word token `chunk`: all word
    characters, one alphanumeric, so no URL, mention or hashtag starts it."""
    return _WORD_CHARS.issuperset(chunk) and chunk.strip("_'") != ""


def split_retweet(text: str) -> tuple[Token | None, list[str]]:
    """The whitespace chunks of `text`, with a leading "RT" (any case) taken
    off as a retweet marker; None when there is none. An "RT" anywhere else
    stays a chunk like any other."""
    chunks = text.split()
    if chunks and chunks[0].lower() == "rt":
        return Token(chunks[0], TokenKind.RETWEET), chunks[1:]
    return None, chunks


def tokenize(text: str) -> list[Token]:
    """Segment a tweet into typed tokens.

    URLs, @-mentions, and #-hashtags come out as single tokens of their kind;
    a leading "RT" (any case) becomes a RetweetMarker; remaining chunks split
    on whitespace with leading/trailing punctuation peeled into Punct tokens.
    No non-whitespace character of the input is ever dropped.
    """
    marker, chunks = split_retweet(text)
    tokens = [] if marker is None else [marker]
    for chunk in chunks:
        tokens.extend(classify_chunk(chunk))
    return tokens


_VOWELS = frozenset("aeiouy")


def count_syllables(word: str) -> int:
    """Heuristic syllable count: vowel groups (aeiouy), silent final "e"
    dropped unless it is the only group, minimum 1. Case-insensitive.

    Words of the "-eate" family (create, permeated, delineating) get one
    extra group: their "ea" is a hiatus, not a digraph.
    """
    if not word:
        raise ValueError("count_syllables requires a non-empty word")
    w = word.lower()
    groups = 0
    prev_vowel = False
    for ch in w:
        is_vowel = ch in _VOWELS
        if is_vowel and not prev_vowel:
            groups += 1
        prev_vowel = is_vowel
    if w.endswith(("eate", "eated", "eating")):
        groups += 1
    if groups > 1 and w.endswith("e"):
        groups -= 1
    return max(groups, 1)


def _by_last_two(suffixes) -> dict[str, tuple[str, ...]]:
    """Suffixes grouped by their last two letters, in the given order
    within each group."""
    groups: dict[str, list[str]] = {}
    for suffix in suffixes:
        groups.setdefault(suffix[-2:], []).append(suffix)
    return {end: tuple(group) for end, group in groups.items()}


# The Porter stemmer (Porter 1980), following the canonical reference
# behavior including its standard departures. Each step takes the word as
# it stands and returns the new word; nothing is kept between calls.

_STEP2 = {
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
    "izer": "ize", "bli": "ble", "alli": "al", "entli": "ent",
    "eli": "e", "ousli": "ous", "ization": "ize", "ation": "ate",
    "ator": "ate", "alism": "al", "iveness": "ive", "fulness": "ful",
    "ousness": "ous", "aliti": "al", "iviti": "ive", "biliti": "ble",
    "logi": "log",
}

_STEP3 = {
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic",
    "ical": "ic", "ful": "", "ness": "",
}

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)

# Steps 2 to 4 test only the suffixes that end in the word's last two
# letters (every suffix has at least two). Each group keeps its step's
# order, so the first suffix that matches is the one a scan of the whole
# step would find.
_STEP2_ENDS = _by_last_two(_STEP2)
_STEP3_ENDS = _by_last_two(_STEP3)
_STEP4_ENDS = _by_last_two(_STEP4)


def _form(word: str) -> str:
    """The consonant/vowel form of `word`, one "c" or "v" per letter: a, e,
    i, o and u are vowels, and so is a y that follows a consonant."""
    form = ""
    for ch in word:
        form += "v" if ch in "aeiou" or (ch == "y" and form[-1:] == "c") else "c"
    return form


def _measure(word: str) -> int:
    """Porter's m: the number of vowel-consonant pairs in `word`."""
    return _form(word).count("vc")


def _ends_cvc(word: str) -> bool:
    """Whether `word` ends consonant-vowel-consonant, the last not w, x or y."""
    return _form(word).endswith("cvc") and word[-1] not in "wxy"


def _step1ab(w: str) -> str:
    """Plurals (step 1a); then -eed becomes -ee when m > 0, and -ed or -ing
    goes when the stem before it holds a vowel, and the stem is tidied."""
    if w[-1] == "s":
        if w.endswith(("sses", "ies")):
            w = w[:-2]
        elif w[-2] != "s":
            w = w[:-1]
    if w.endswith("eed"):
        return w[:-1] if _measure(w[:-3]) > 0 else w
    stem = w[:-2] if w.endswith("ed") else w[:-3] if w.endswith("ing") else ""
    if "v" not in _form(stem):
        return w
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if len(stem) >= 2 and stem[-1] == stem[-2] and _form(stem)[-1] == "c":
        return stem if stem[-1] in "lsz" else stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(w: str) -> str:
    """A final y after a vowel in the stem becomes i."""
    if w.endswith("y") and "v" in _form(w[:-1]):
        return w[:-1] + "i"
    return w


def _replace_suffix(w: str, table: dict[str, str], ends: dict[str, tuple[str, ...]]) -> str:
    """Steps 2 and 3: the first suffix of `table` that ends `w` is replaced
    by its entry when the stem before it has m > 0."""
    for suffix in ends.get(w[-2:], ()):
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            return stem + table[suffix] if _measure(stem) > 0 else w
    return w


def _step4(w: str) -> str:
    """The first step-4 suffix that ends `w` is dropped when the stem before
    it has m > 1; -ion counts only after s or t."""
    for suffix in _STEP4_ENDS.get(w[-2:], ()):
        if w.endswith(suffix):
            stem = w[: -len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                continue
            return stem if _measure(stem) > 1 else w
    return w


def _step5(w: str) -> str:
    """A final e, then one l of a final ll, go when m allows; both tests
    read the measure of the word as this step finds it."""
    m = _measure(w)
    if w[-1] == "e" and (m > 1 or (m == 1 and not _ends_cvc(w[:-1]))):
        w = w[:-1]
    if m > 1 and w.endswith("ll"):
        w = w[:-1]
    return w


def porter_stem(word: str) -> str:
    """Stem one lowercase alphabetic word."""
    if not word:
        raise ValueError("porter_stem requires a non-empty word")
    if len(word) <= 2:
        return word
    w = _step1c(_step1ab(word))
    w = _replace_suffix(w, _STEP2, _STEP2_ENDS)
    w = _replace_suffix(w, _STEP3, _STEP3_ENDS)
    return _step5(_step4(w))


def token_word(surface: str, kind: TokenKind) -> str | None:
    """The word a token puts in the word streams: a Word's surface lowercased,
    a hashtag's without its "#", the placeholder of a URL or a mention, and
    None for the retweet marker, punctuation, other tokens and a bare "#"."""
    if kind is _WORD:
        return surface.lower()
    if kind is _HASHTAG:
        return surface.lower().lstrip("#") or None
    return URL_PLACEHOLDER if kind is _URL else MENTION_PLACEHOLDER if kind is _MENTION else None


def stem_word(word: str) -> str:
    """The stem of a token_word; placeholders pass through unstemmed, so
    they stay recognizable in the n-gram stream."""
    return word if word in (URL_PLACEHOLDER, MENTION_PLACEHOLDER) else porter_stem(word)


def preprocess(text: str) -> list[str]:
    """The stemmed word stream of `text`: stem_word of each unstemmed word."""
    return list(map(stem_word, unstemmed_words(text)))


def unstemmed_words(text: str) -> list[str]:
    """The unstemmed word stream of `text`, as handed to the POS tagger:
    the token_word of each of its tokens that has one."""
    words = (token_word(t.surface, t.kind) for t in tokenize(text))
    return [w for w in words if w is not None]


class StringTable:
    """Distinct strings numbered 0, 1, ... as they are first given:
    `strings[k]` has the id k and `ids` maps back. A table only grows, so
    an id keeps its string."""

    __slots__ = ("strings", "ids", "_derived")

    def __init__(self, strings: Iterable[str] = ()):
        self.strings: list[str] = []
        self.ids: dict[str, int] = {}
        self._derived: dict[int, tuple[object, np.ndarray]] = {}
        for s in strings:
            self.id(s)

    def __len__(self) -> int:
        return len(self.strings)

    def id(self, s: str) -> int:
        k = self.ids.get(s)
        if k is None:
            self.strings.append(s)
            k = self.ids[s] = len(self.strings) - 1
        return k

    def derived(self, owner, fn, dtype, width: int = 1) -> np.ndarray:
        """fn(s) of every string s in id order, a row of `width` values each
        when width > 1, kept per owner, which the table keeps alive, and
        extended as the table grows. Threads that extend it at once each
        get all."""
        done = self._derived.get(id(owner), (None, None))[1]
        new = self.strings[0 if done is None else len(done) :]
        if done is None or new:
            values = map(fn, new) if width == 1 else chain.from_iterable(map(fn, new))
            new = np.fromiter(values, dtype, len(new) * width)
            new = new.reshape(-1, width) if width > 1 else new
            done = new if done is None else np.concatenate((done, new))
            self._derived[id(owner)] = (owner, done)
        return done


def gather_segments(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where to take the segments [starts[i], starts[i] + lengths[i]) from,
    one after another, and the offset of each in the result (and its end)."""
    offsets = np.zeros(len(lengths) + 1, np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1]), offsets


class TokenDocs:
    """Documents of tokens as ids into a StringTable: document i is the
    strings of ids[offsets[i]:offsets[i + 1]], and offsets[0] is 0. It
    reads as a sequence of token tuples, equal to any sequence of them."""

    __slots__ = ("ids", "offsets", "table")

    def __init__(self, ids: np.ndarray, offsets: np.ndarray, table: StringTable):
        self.ids, self.offsets, self.table = ids, offsets, table

    @classmethod
    def of(cls, docs) -> "TokenDocs":
        """`docs` if it is TokenDocs, else its token lists numbered into a
        new table."""
        if isinstance(docs, TokenDocs):
            return docs
        docs = list(docs)
        table = StringTable()
        ids = [table.id(token) for doc in docs for token in doc]
        return cls(np.array(ids, np.intp), np.cumsum([0, *map(len, docs)]), table)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> tuple[str, ...]:
        i = range(len(self))[i]
        ids = self.ids[self.offsets[i] : self.offsets[i + 1]].tolist()
        return tuple(map(self.table.strings.__getitem__, ids))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (TokenDocs, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == tuple(b) for a, b in zip(self, other))

    def rows(self, indices) -> "TokenDocs":
        """The given documents, in the given order, over the same table."""
        idx = np.asarray(indices, dtype=np.intp)
        take, offsets = gather_segments(self.offsets[idx], np.diff(self.offsets)[idx])
        return TokenDocs(self.ids[take], offsets, self.table)
