"""Reference implementations of the two word streams, as they were written
before word_streams() merged them: each tokenizes on its own and walks the
tokens once. Tests compare the single-pass code against these."""

from hatetriage.textproc import (
    MENTION_PLACEHOLDER,
    URL_PLACEHOLDER,
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
