"""Reference implementation of the chunk memo's analysis, as it was written
before the memo walked each new chunk once: every new chunk's tokens were
walked four times, by classify_chunk, by the word streams, by the sentiment
codes and by the surface counts, and a word's syllables and sentiment flags
were derived again for every chunk that held it. Tests compare the shipped
memo's tables against it exactly.
"""

from array import array

from hatetriage.lexfeat import BOOSTER, BOOSTERS, NEGATION, NEGATIONS, UPPER
from hatetriage.textproc import (
    MENTION_PLACEHOLDER,
    URL_PLACEHOLDER,
    StringTable,
    TokenKind,
    classify_chunk,
    count_syllables,
    porter_stem,
)


def reference_word_streams(tokens, stems):
    stemmed, words = [], []
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
                stem = stems[surface] = porter_stem(surface)
            stemmed.append(stem)
            words.append(surface)
    return stemmed, words


def reference_sentiment_codes(tokens):
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


def reference_surface_counts(tokens):
    """Hashtags, mentions, URLs, words and syllables of a token list."""
    hashtags = mentions = urls = words = syllables = 0
    for t in tokens:
        if t.kind is TokenKind.WORD:
            words += 1
            syllables += count_syllables(t.surface)
        elif t.kind is TokenKind.HASHTAG:
            hashtags += 1
            words += 1
            body = t.surface.lstrip("#")
            if body:
                syllables += count_syllables(body)
        elif t.kind is TokenKind.MENTION:
            mentions += 1
        elif t.kind is TokenKind.URL:
            urls += 1
    return hashtags, mentions, urls, words, syllables


class ReferenceChunkTables:
    """The memo's tables, with `arrays` as six flat lists: for each chunk in
    turn its word ids, word offsets, token word ids, token flags, token
    offsets and 8 counts."""

    def __init__(self):
        self.chunks = {}
        self.stems = {}
        self.words, self.stemmed, self.stem_of = StringTable(), StringTable(), array("q")
        self.arrays = ([], [0], [], [], [0], [])

    def add(self, chunk: str) -> int:
        k = self.chunks.get(chunk)
        if k is not None:
            return k
        ids, tokens = self.words.ids, classify_chunk(chunk)
        stemmed, words = reference_word_streams(tokens, self.stems)
        for word, stem in zip(words, stemmed):
            if word not in ids:
                self.stem_of.append(self.stemmed.id(stem))
                self.words.id(word)
        low, flags, sentiment_counts = reference_sentiment_codes(tokens)
        words_of, word_at, token_words, token_flags, token_at, counts = self.arrays
        words_of += map(ids.__getitem__, words)
        word_at.append(len(words_of))
        token_words += (ids.get(w, -1) for w in low)  # None, no word, is -1
        token_flags += flags
        token_at.append(len(token_words))
        counts += (*reference_surface_counts(tokens), *sentiment_counts)
        k = self.chunks[chunk] = len(self.chunks)
        return k
