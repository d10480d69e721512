"""Tweet-aware tokenization, Porter stemming, and syllable counting.

Everything here is a pure function over strings; this module is the lexical
substrate for the n-gram, sentiment, readability, and surface features.
tokenize() runs once per tweet; word_streams() turns its tokens into both
the stemmed n-gram stream and the unstemmed tagger stream in one pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class TokenKind(Enum):
    WORD = "word"
    URL = "url"
    MENTION = "mention"
    HASHTAG = "hashtag"
    RETWEET = "retweet"
    PUNCT = "punct"
    OTHER = "other"


@dataclass(frozen=True)
class Token:
    surface: str
    kind: TokenKind


# Placeholder pseudo-words inserted by word_streams(). They are deliberately
# alphabetic so the stemmer and the vectorizer treat them like ordinary words.
URL_PLACEHOLDER = "URLHERE"
MENTION_PLACEHOLDER = "MENTIONHERE"

_URL_RE = re.compile(r"(?:[a-zA-Z][a-zA-Z0-9+.-]*://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
# Apostrophes inside a word ("ain't") stay part of the word; everything else
# peels off the edges as punctuation.
_WORD_CHARS = re.compile(r"[0-9A-Za-z_']")


def _classify_chunk(chunk: str) -> list[Token]:
    """Split one whitespace-delimited chunk into tokens, dropping no characters."""
    m = _URL_RE.match(chunk)
    if m:
        out = [Token(m.group(0), TokenKind.URL)]
        rest = chunk[m.end():]
        if rest:
            out.append(Token(rest, TokenKind.PUNCT))
        return out
    for rx, kind in ((_MENTION_RE, TokenKind.MENTION), (_HASHTAG_RE, TokenKind.HASHTAG)):
        m = rx.match(chunk)
        if m:
            out = [Token(m.group(0), kind)]
            rest = chunk[m.end():]
            if rest:
                out.extend(_classify_chunk(rest))
            return out
    # Peel leading and trailing non-word characters into Punct tokens.
    start, end = 0, len(chunk)
    while start < end and not _WORD_CHARS.match(chunk[start]):
        start += 1
    while end > start and not _WORD_CHARS.match(chunk[end - 1]):
        end -= 1
    out: list[Token] = []
    if start > 0:
        out.append(Token(chunk[:start], TokenKind.PUNCT))
    core = chunk[start:end]
    if core:
        kind = TokenKind.WORD if any(c.isalnum() for c in core) else TokenKind.OTHER
        out.append(Token(core, kind))
    if end < len(chunk):
        out.append(Token(chunk[end:], TokenKind.PUNCT))
    return out


def tokenize(text: str) -> list[Token]:
    """Segment a tweet into typed tokens.

    URLs, @-mentions, and #-hashtags come out as single tokens of their kind;
    a leading "RT" (any case) becomes a RetweetMarker; remaining chunks split
    on whitespace with leading/trailing punctuation peeled into Punct tokens.
    No non-whitespace character of the input is ever dropped.
    """
    tokens: list[Token] = []
    chunks = text.split()
    for i, chunk in enumerate(chunks):
        if i == 0 and chunk.lower() == "rt":
            tokens.append(Token(chunk, TokenKind.RETWEET))
            continue
        tokens.extend(_classify_chunk(chunk))
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


class _PorterStemmer:
    """Suffix-stripping stemmer (Porter 1980), following the canonical
    reference behavior including its standard departures.

    The buffer convention: ``b`` holds the word, ``k`` indexes its last live
    character, and ``j`` marks the stem end set by the latest suffix match.
    """

    def __init__(self) -> None:
        self.b = ""
        self.k = 0
        self.j = 0

    def _cons(self, i: int) -> bool:
        ch = self.b[i]
        if ch in "aeiou":
            return False
        if ch == "y":
            return True if i == 0 else not self._cons(i - 1)
        return True

    def _m(self) -> int:
        # number of VC sequences in b[0..j]
        n = 0
        i = 0
        while True:
            if i > self.j:
                return n
            if not self._cons(i):
                break
            i += 1
        i += 1
        while True:
            while True:
                if i > self.j:
                    return n
                if self._cons(i):
                    break
                i += 1
            i += 1
            n += 1
            while True:
                if i > self.j:
                    return n
                if not self._cons(i):
                    break
                i += 1
            i += 1

    def _vowel_in_stem(self) -> bool:
        return any(not self._cons(i) for i in range(self.j + 1))

    def _double_cons(self, j: int) -> bool:
        return j >= 1 and self.b[j] == self.b[j - 1] and self._cons(j)

    def _cvc(self, i: int) -> bool:
        if i < 2 or not self._cons(i) or self._cons(i - 1) or not self._cons(i - 2):
            return False
        return self.b[i] not in "wxy"

    def _ends(self, s: str) -> bool:
        length = len(s)
        if length > self.k + 1 or self.b[self.k - length + 1 : self.k + 1] != s:
            return False
        self.j = self.k - length
        return True

    def _set_to(self, s: str) -> None:
        self.b = self.b[: self.j + 1] + s
        self.k = self.j + len(s)

    def _replace_if_m(self, s: str) -> None:
        if self._m() > 0:
            self._set_to(s)

    def _step1ab(self) -> None:
        if self.b[self.k] == "s":
            if self._ends("sses"):
                self.k -= 2
            elif self._ends("ies"):
                self._set_to("i")
            elif self.b[self.k - 1] != "s":
                self.k -= 1
        if self._ends("eed"):
            if self._m() > 0:
                self.k -= 1
        elif (self._ends("ed") or self._ends("ing")) and self._vowel_in_stem():
            self.k = self.j
            if self._ends("at"):
                self._set_to("ate")
            elif self._ends("bl"):
                self._set_to("ble")
            elif self._ends("iz"):
                self._set_to("ize")
            elif self._double_cons(self.k):
                if self.b[self.k] not in "lsz":
                    self.k -= 1
            elif self._m() == 1 and self._cvc(self.k):
                self._set_to("e")

    def _step1c(self) -> None:
        if self._ends("y") and self._vowel_in_stem():
            self.b = self.b[: self.k] + "i"

    _STEP2 = (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("bli", "ble"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
        ("logi", "log"),
    )

    _STEP3 = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    )

    def _apply_table(self, table) -> None:
        for suffix, repl in table:
            if self._ends(suffix):
                self._replace_if_m(repl)
                return

    def _step4(self) -> None:
        for suffix in (
            "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
            "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
        ):
            if self._ends(suffix):
                if suffix == "ion" and (self.j < 0 or self.b[self.j] not in "st"):
                    continue
                if self._m() > 1:
                    self.k = self.j
                return

    def _step5(self) -> None:
        self.j = self.k
        if self.b[self.k] == "e":
            a = self._m()
            if a > 1 or (a == 1 and not self._cvc(self.k - 1)):
                self.k -= 1
        if self.b[self.k] == "l" and self._double_cons(self.k) and self._m() > 1:
            self.k -= 1

    def stem(self, word: str) -> str:
        self.b = word
        self.k = len(word) - 1
        self.j = 0
        if self.k <= 1:
            return word
        self._step1ab()
        self._step1c()
        self._apply_table(self._STEP2)
        self._apply_table(self._STEP3)
        self._step4()
        self._step5()
        return self.b[: self.k + 1]


_STEMMER = _PorterStemmer()


def porter_stem(word: str) -> str:
    """Stem one lowercase alphabetic word."""
    if not word:
        raise ValueError("porter_stem requires a non-empty word")
    return _STEMMER.stem(word)


def word_streams(
    tokens: list[Token], stems: dict[str, str] | None = None
) -> tuple[list[str], list[str]]:
    """The stemmed and the unstemmed word streams of one tokenized tweet.

    Both streams are lowercased and drop the retweet marker, punctuation and
    other non-word tokens; URLs and mentions become placeholders, which pass
    through unstemmed so they stay recognizable in the n-gram stream, and
    hashtags lose their "#". The unstemmed stream feeds the POS tagger, whose
    suffix features stems would corrupt.

    `stems` memoizes the stemmer per distinct word; pass one dict across a
    batch of tweets to stem each word once.
    """
    if stems is None:
        stems = {}
    stemmed: list[str] = []
    words: list[str] = []
    for tok in tokens:
        if tok.kind in (TokenKind.RETWEET, TokenKind.PUNCT, TokenKind.OTHER):
            continue
        if tok.kind is TokenKind.URL:
            stemmed.append(URL_PLACEHOLDER)
            words.append(URL_PLACEHOLDER)
        elif tok.kind is TokenKind.MENTION:
            stemmed.append(MENTION_PLACEHOLDER)
            words.append(MENTION_PLACEHOLDER)
        else:
            surface = tok.surface.lower()
            if tok.kind is TokenKind.HASHTAG:
                surface = surface.lstrip("#")
                if not surface:
                    continue
            stem = stems.get(surface)
            if stem is None:
                stem = stems[surface] = _STEMMER.stem(surface)
            stemmed.append(stem)
            words.append(surface)
    return stemmed, words


def preprocess(text: str) -> list[str]:
    """The stemmed word stream of `text`; see word_streams()."""
    return word_streams(tokenize(text))[0]


def unstemmed_words(text: str) -> list[str]:
    """The unstemmed word stream of `text`, as handed to the POS tagger;
    see word_streams()."""
    return word_streams(tokenize(text))[1]
