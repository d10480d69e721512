"""Reference implementations of vocabulary fitting and counting, as they were
written before the n-gram count table: fit_vocab collects document
frequencies in a dict over every document's n-gram set, and every transform
enumerates each document's n-grams and looks them up in the vocabulary.
Tests compare the table-derived vocabularies and blocks against these.

The matrices here are scipy.sparse ones, as the package held them before
its own numpy CSR: TF-IDF weighting and row normalization, feature
assembly and the class margins are written as they were then, so tests can
require the numpy forms to equal them bit for bit."""

import math

import numpy as np
from scipy import sparse

from hatetriage.vectorize import Vocabulary


def _ngrams(doc, n_lo, n_hi):
    for n in range(n_lo, n_hi + 1):
        for i in range(len(doc) - n + 1):
            yield " ".join(doc[i : i + n])


def reference_fit_vocab(docs, n_lo, n_hi, min_df, max_df_ratio) -> Vocabulary:
    if not docs:
        raise ValueError("fit_vocab requires a non-empty corpus")
    df: dict[str, int] = {}
    for doc in docs:
        for ngram in set(_ngrams(doc, n_lo, n_hi)):
            df[ngram] = df.get(ngram, 0) + 1
    max_df = max_df_ratio * len(docs)
    kept = sorted(t for t, d in df.items() if min_df <= d <= max_df)
    if not kept:
        raise ValueError("document-frequency bounds left an empty vocabulary")
    return Vocabulary(
        ngrams=tuple(kept),
        df=tuple(df[t] for t in kept),
        n_docs=len(docs),
        n_lo=n_lo,
        n_hi=n_hi,
        min_df=min_df,
        max_df_ratio=max_df_ratio,
    )


def reference_count_matrix(vocab: Vocabulary, docs) -> sparse.csr_matrix:
    index = {t: i for i, t in enumerate(vocab.ngrams)}
    data, indices, indptr = [], [], [0]
    for doc in docs:
        counts: dict[int, float] = {}
        for ngram in _ngrams(doc, vocab.n_lo, vocab.n_hi):
            col = index.get(ngram)
            if col is not None:
                counts[col] = counts.get(col, 0.0) + 1.0
        for col in sorted(counts):
            indices.append(col)
            data.append(counts[col])
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
        shape=(len(docs), len(vocab)),
    )


def reference_idf(vocab: Vocabulary) -> np.ndarray:
    """Each column's idf, computed term by term from its df."""
    return np.array(
        [math.log((1 + vocab.n_docs) / (1 + d)) + 1.0 for d in vocab.df], dtype=np.float64
    )


def reference_tfidf_matrix(vocab: Vocabulary, docs) -> sparse.csr_matrix:
    m = reference_count_matrix(vocab, docs)
    idf = reference_idf(vocab)
    if len(vocab):
        m = m.multiply(sparse.csr_matrix(idf)).tocsr()
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return sparse.diags(scale).dot(m).tocsr()


def reference_assemble(word: sparse.csr_matrix, pos: sparse.csr_matrix, scalars) -> sparse.csr_matrix:
    """[word | pos | scalars], the scalar block already standardized."""
    return sparse.hstack([word, pos, sparse.csr_matrix(scalars)], format="csr")


def reference_margins(X: sparse.csr_matrix, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    return X.dot(weights.T) + bias


def reference_columns(m, cols):
    """CSRMatrix.columns as it was before it read a prebuilt inverse map:
    a full-width map built on every call."""
    from hatetriage.vectorize import CSRMatrix, _indptr

    cols = np.asarray(cols, dtype=np.int64)
    colmap = np.full(m.shape[1], -1, dtype=np.int32)
    colmap[cols] = np.arange(len(cols), dtype=np.int32)
    mapped = colmap[m.indices]
    keep = mapped >= 0
    shape = (m.shape[0], len(cols))
    if (np.diff(cols) > 0).all():
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        return CSRMatrix(m.data[keep], mapped[keep], _indptr(np.diff(kept_before[m.indptr])), shape)
    return CSRMatrix.from_entries(m.row_ids()[keep], mapped[keep], m.data[keep], shape)
