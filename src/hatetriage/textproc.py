"""Tweet-aware tokenization, Porter stemming, and syllable counting.

Everything here is a pure function over strings; this module is the lexical
substrate for the n-gram, sentiment, readability, and surface features.
A tweet's tokens are its leading retweet marker, if any (split_retweet()),
followed by the tokens of each whitespace chunk (classify_chunk()), so
extraction can classify each distinct chunk once; tokenize() does the
whole tweet. word_streams() turns tokens into both the stemmed n-gram
stream and the unstemmed tagger stream in one pass.
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


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    kind: TokenKind


# Placeholder pseudo-words inserted by word_streams(). They are deliberately
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
        if not self.b.endswith(s, 0, self.k + 1):
            return False
        self.j = self.k - len(s)
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
    # order, so the first suffix that matches is the one a scan of the
    # whole step would find.
    _STEP2_ENDS = _by_last_two(_STEP2)
    _STEP3_ENDS = _by_last_two(_STEP3)
    _STEP4_ENDS = _by_last_two(_STEP4)

    def _candidates(self, ends: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
        """The suffixes in `ends` that can end the word."""
        return ends.get(self.b[self.k - 1 : self.k + 1], ()) if self.k >= 1 else ()

    def _apply_table(self, table: dict[str, str], ends: dict[str, tuple[str, ...]]) -> None:
        for suffix in self._candidates(ends):
            if self._ends(suffix):
                self._replace_if_m(table[suffix])
                return

    def _step4(self) -> None:
        for suffix in self._candidates(self._STEP4_ENDS):
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
        self._apply_table(self._STEP2, self._STEP2_ENDS)
        self._apply_table(self._STEP3, self._STEP3_ENDS)
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
