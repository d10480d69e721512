"""Reference implementations of textproc, as they were written before the
shipped code was sped up. Tests compare the shipped code against these.

- the two word streams, the stemmed and the unstemmed, each spelled out
  on its own: each tokenizes and walks the tokens once;
- the chunk classifier, which recursed once per chained hashtag or mention
  before it became a loop;
- the Porter stemmer, which tried every suffix of each step in turn before
  it dispatched on the word's last two letters.
"""

import re

from hatetriage.textproc import (
    MENTION_PLACEHOLDER,
    URL_PLACEHOLDER,
    Token,
    TokenKind,
    porter_stem,
    tokenize,
)


def reference_preprocess(text: str) -> list[str]:
    out: list[str] = []
    for tok in tokenize(text):
        if tok.kind in (TokenKind.RETWEET, TokenKind.PUNCT, TokenKind.OTHER):
            continue
        if tok.kind is TokenKind.URL:
            out.append(URL_PLACEHOLDER)
        elif tok.kind is TokenKind.MENTION:
            out.append(MENTION_PLACEHOLDER)
        else:
            surface = tok.surface.lower()
            if tok.kind is TokenKind.HASHTAG:
                surface = surface.lstrip("#")
                if not surface:
                    continue
            out.append(porter_stem(surface) if surface else surface)
    return out


def reference_unstemmed_words(text: str) -> list[str]:
    out: list[str] = []
    for tok in tokenize(text):
        if tok.kind in (TokenKind.RETWEET, TokenKind.PUNCT, TokenKind.OTHER):
            continue
        if tok.kind is TokenKind.URL:
            out.append(URL_PLACEHOLDER)
        elif tok.kind is TokenKind.MENTION:
            out.append(MENTION_PLACEHOLDER)
        else:
            surface = tok.surface.lower()
            if tok.kind is TokenKind.HASHTAG:
                surface = surface.lstrip("#")
                if not surface:
                    continue
            out.append(surface)
    return out


_URL_RE = re.compile(r"(?:[a-zA-Z][a-zA-Z0-9+.-]*://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
_WORD_CHARS = re.compile(r"[0-9A-Za-z_']")


def reference_classify_chunk(chunk: str) -> list[Token]:
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
                out.extend(reference_classify_chunk(rest))
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


class ReferencePorterStemmer:
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

    STEP4 = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    def _apply_table(self, table) -> None:
        for suffix, repl in table:
            if self._ends(suffix):
                self._replace_if_m(repl)
                return

    def _step4(self) -> None:
        for suffix in self.STEP4:
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


def reference_porter_stem(word: str) -> str:
    return ReferencePorterStemmer().stem(word)


# every suffix a step of the stemmer tests, for building words that reach it
PORTER_SUFFIXES = tuple(
    dict.fromkeys(
        ("s", "sses", "ies", "ss", "eed", "ed", "ing", "at", "bl", "iz", "y")
        + tuple(s for s, _ in ReferencePorterStemmer._STEP2)
        + tuple(s for s, _ in ReferencePorterStemmer._STEP3)
        + ReferencePorterStemmer.STEP4
        + ("e", "ll")
    )
)
