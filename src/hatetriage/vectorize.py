"""N-gram vocabularies, TF-IDF blocks, feature assembly, and L1 selection.

Conventions fixed here: idf(t) = ln((1 + n_docs)/(1 + df(t))) + 1 with raw
term counts, rows L2-normalized after weighting; vocabulary columns follow
lexicographic ngram order so fitted artifacts are deterministic. Scalar
blocks are standardized to train-set mean 0 / variance 1 with the transform
stored for predict time; a zero-variance column is centered to all zeros
without dividing.

A fitted `Vocabulary` is its column list, the n-grams in column order with
their document frequencies; it derives its idf vector from them once, when
built, and its n-gram keys on first use; every transform and the saved
artifact read them.

A corpus that is fitted on is counted once: `NgramTable.build` enumerates
every document's n-grams into a documents x distinct-n-grams count table.
A vocabulary fitted on some of its rows takes its document frequencies from
the table, and the count and TF-IDF blocks of any of its rows are slices of
the table with the columns mapped to the vocabulary's order, so folds that
refit on different rows never enumerate the n-grams again. Token lists (new
tweets at predict time) are looked up by integer keys: the vocabulary packs
each of its n-grams into one key once (`NgramKeys`), and a batch's n-grams
are keyed and found with a few numpy operations; rows of a table the
vocabulary was not fitted from are refused.

Count-mode transforms (raw tf, no idf, no normalization) are also provided;
the naive Bayes model consumes those.

Every sparse matrix here is a CSRMatrix, held in numpy arrays, so feature
extraction and predict never import scipy; only the sparse logistic and SVM
fits in linmodel wrap its arrays in scipy.sparse.
"""

from __future__ import annotations

import math
import warnings
import weakref
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

COEF_KEEP_THRESHOLD = 1e-6

SENTIMENT_NAMES = ("pos", "neg", "neu", "compound")
READABILITY_NAMES = ("fk_grade", "reading_ease")
SURFACE_NAMES = (
    "count_hashtags",
    "count_mentions",
    "count_retweets",
    "count_urls",
    "has_hashtag",
    "has_mention",
    "has_retweet",
    "has_url",
    "num_chars",
    "num_words",
    "num_syllables",
)
# the scalar columns' registry entries, in assembled order
SCALAR_REGISTRY = (
    tuple(("sentiment", n) for n in SENTIMENT_NAMES)
    + tuple(("readability", n) for n in READABILITY_NAMES)
    + tuple(("surface", n) for n in SURFACE_NAMES)
)
SCALAR_WIDTH = len(SCALAR_REGISTRY)


@dataclass(frozen=True)
class Vocabulary:
    """The columns of one n-gram block: column i is ngrams[i], seen in df[i]
    of the n_docs fitted documents. The fields are checked once when built
    (lists are taken as tuples), and `idf` (float64, one per column) is
    built from them then, beside the fields. The integer keys that token
    lists are looked up by (`NgramKeys`) are derived on the first token-list
    transform, so loading a model or slicing a count table never pays for
    them."""

    ngrams: tuple[str, ...]
    df: tuple[int, ...]
    n_docs: int
    n_lo: int
    n_hi: int
    min_df: int
    max_df_ratio: float
    # set by a fit on table rows: the table, held weakly so that a vocabulary
    # never keeps it alive, and the table column of each vocabulary column
    source: tuple[weakref.ref, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        # a loaded payload holds lists
        object.__setattr__(self, "ngrams", tuple(self.ngrams))
        object.__setattr__(self, "df", tuple(self.df))
        if len(self.ngrams) != len(self.df):
            raise ValueError(f"{len(self.ngrams)} n-grams but {len(self.df)} document frequencies")
        if not all(type(t) is str for t in self.ngrams) or any(
            a >= b for a, b in zip(self.ngrams, self.ngrams[1:])
        ):
            raise ValueError("n-grams must be strings in strictly increasing order")
        if not 1 <= self.n_lo <= self.n_hi:
            raise ValueError("require 1 <= n_lo <= n_hi")
        if self.min_df < 1:
            raise ValueError("min_df must be >= 1")
        if not 0.0 < self.max_df_ratio <= 1.0:
            raise ValueError("max_df_ratio must lie in (0, 1]")
        n, max_df = self.n_docs, self.max_df_ratio * self.n_docs
        if not all(type(d) is int and self.min_df <= d <= max_df for d in self.df):
            raise ValueError(f"document frequencies must be ints from min_df to {max_df}")
        idf = [math.log((1 + n) / (1 + d)) + 1.0 for d in self.df]
        object.__setattr__(self, "idf", np.array(idf, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.ngrams)

    def table_columns(self, table: "NgramTable") -> np.ndarray | None:
        """The table column of each vocabulary column when this vocabulary
        was fitted from `table`, else None."""
        if self.source is None or self.source[0]() is not table:
            return None
        return self.source[1]

    @cached_property
    def ngram_keys(self) -> "NgramKeys":
        """The vocabulary's n-grams as integer keys, derived on first use."""
        return NgramKeys(self)


class NgramKeys:
    """A vocabulary's n-grams as integer keys, to look token lists up by.

    Each token of the vocabulary's n-grams (split at single spaces) gets an
    id from 1 to V; any other token, and the end of each document, is 0.
    With base B = V + 1, the n-gram of token ids d_1..d_n has the key

        K(d_1) = d_1,    K(d_1..d_n) = B * K(d_1..d_{n-1}) + d_n + B,

    its ids as base-B digits plus B + B^2 + ... + B^(n-1). The keys of
    order n therefore fill a range of their own, and a run of n tokens that
    holds a 0 has a 0 digit, which no vocabulary key has: it matches
    nothing, so no n-gram spans an unknown token or two documents. A token
    that holds a space is unknown, as no vocabulary token does: the
    vocabulary n-gram "a b" is the two tokens "a" and "b", never the one
    token "a b". (A vocabulary fitted on such tokens may hold an n-gram whose
    token count lies outside n_lo..n_hi; it gets no key and matches nothing.)

    `sorted_keys` holds the keys ascending, then one key above every key a
    document can make, so that `np.searchsorted` never runs off the end;
    `columns` holds each sorted key's column. Keys are int64 while that top
    key, B + B^2 + ... + B^n_hi, fits; beyond that, the same arithmetic runs
    on Python ints in object arrays, which is slower but exact.
    """

    __slots__ = ("n_lo", "n_hi", "token_ids", "base", "dtype", "sorted_keys", "columns")

    def __init__(self, vocab: Vocabulary):
        self.n_lo, self.n_hi = vocab.n_lo, vocab.n_hi
        grams = [ngram.split(" ") for ngram in vocab.ngrams]
        tokens = dict.fromkeys(t for gram in grams for t in gram)
        self.token_ids = dict(zip(tokens, range(1, len(tokens) + 1)))
        self.base = len(tokens) + 1
        top = sum(self.base**m for m in range(1, self.n_hi + 1))
        self.dtype = np.int64 if top <= np.iinfo(np.int64).max else object
        # each n-gram, read as a document, starts a run of its own length
        lengths = np.fromiter(map(len, grams), np.int64, len(grams))
        starts = np.cumsum(lengths + 1) - (lengths + 1)
        columns = ((lengths >= self.n_lo) & (lengths <= self.n_hi)).nonzero()[0]
        keys, n = self.run_keys(grams)
        keys = keys[(lengths[columns] - self.n_lo) * n + starts[columns]]
        order = keys.argsort()
        self.sorted_keys = np.append(keys[order], np.array([top], dtype=self.dtype))
        self.columns = columns[order]

    def run_keys(self, docs: Sequence[Sequence[str]]) -> tuple[np.ndarray, int]:
        """The key of every run of n_lo..n_hi tokens in docs, each document
        followed by its end: for each order, ascending, one key for each of
        the n token positions, so key j is that of the run that starts at
        position j % n. Returns the keys and n."""
        tokens: list = []
        for doc in docs:
            tokens += doc
            tokens.append(None)  # the document's end, id 0 like an unknown token
        n = len(tokens)
        # ends of runs that start near the last position, so every order has n keys
        tokens += [None] * (self.n_hi - 1)
        ids = np.fromiter(map(self.token_ids.get, tokens, repeat(0)), self.dtype, len(tokens))
        key, digits = ids, ids + self.base
        keys = [key[:n]] if self.n_lo == 1 else []
        for order in range(2, self.n_hi + 1):
            key = key[:-1] * self.base + digits[order - 1 :]
            if order >= self.n_lo:
                keys.append(key[:n])
        return np.concatenate(keys), n


_INT32_MAX = np.iinfo(np.int32).max
# below every (row, column) pair a token-list lookup counts
_BEFORE_ALL = np.array([-1])


def _indptr(lengths) -> np.ndarray:
    """Row pointers for rows of the given lengths: int32, as scipy.sparse
    chooses, unless the entries outgrow it."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr.astype(np.int32) if indptr[-1] <= _INT32_MAX else indptr


class CSRMatrix:
    """A sparse matrix in compressed sparse row form, held in numpy arrays.

    Row i has the column indices indices[indptr[i]:indptr[i + 1]], in
    ascending order and each at most once, with their values at the same
    positions of data. Every constructor and operation here returns that
    form. The solvers wrap these arrays in scipy.sparse without copying;
    everything else, predict included, uses numpy alone.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape):
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = (int(shape[0]), int(shape[1]))

    @property
    def nnz(self) -> int:
        return len(self.data)

    @classmethod
    def from_entries(cls, rows, cols, values, shape) -> "CSRMatrix":
        """The matrix with the given (row, column, value) entries, in any
        order; entries at the same position are summed."""
        n_rows, n_cols = int(shape[0]), int(shape[1])
        key = np.asarray(rows, dtype=np.int64) * n_cols + np.asarray(cols, dtype=np.int64)
        order = np.argsort(key)
        key, values = key[order], np.asarray(values)[order]
        repeated = key[1:] == key[:-1]
        if repeated.any():
            first = np.flatnonzero(np.concatenate(([True], ~repeated)))
            key, values = key[first], np.add.reduceat(values, first)
        return cls(
            values,
            (key % n_cols).astype(np.int32),
            _indptr(np.bincount(key // n_cols, minlength=n_rows)),
            (n_rows, n_cols),
        )

    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        """The nonzero entries of a 2-D array; exact zeros are dropped."""
        dense = np.atleast_2d(dense)
        rows, cols = np.nonzero(dense)
        return cls(
            dense[rows, cols],
            cols.astype(np.int32),
            _indptr(np.bincount(rows, minlength=dense.shape[0])),
            dense.shape,
        )

    @staticmethod
    def hstack(blocks: Sequence["CSRMatrix"]) -> "CSRMatrix":
        """The blocks side by side; every block must have the same rows."""
        n_rows = blocks[0].shape[0]
        if any(b.shape[0] != n_rows for b in blocks):
            raise ValueError("hstack blocks disagree on row count")
        lengths = [np.diff(b.indptr) for b in blocks]
        indptr = _indptr(sum(lengths, np.zeros(n_rows, dtype=np.int64)))
        data = np.empty(indptr[-1], dtype=np.result_type(*(b.data for b in blocks)))
        indices = np.empty(indptr[-1], dtype=np.int32)
        # where the next block's entries of each row go
        row_end = indptr[:-1].astype(np.int64)
        col0 = 0
        for block, length in zip(blocks, lengths):
            dest = np.repeat(row_end - block.indptr[:-1], length) + np.arange(block.nnz)
            data[dest] = block.data
            indices[dest] = block.indices + col0
            row_end += length
            col0 += block.shape[1]
        return CSRMatrix(data, indices, indptr, (n_rows, col0))

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def rows(self, idx) -> "CSRMatrix":
        """The given rows, in the given order."""
        idx = np.asarray(idx, dtype=np.int64)
        starts = self.indptr[idx].astype(np.int64)
        lengths = self.indptr[idx + 1] - starts
        indptr = _indptr(lengths)
        take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CSRMatrix(self.data[take], self.indices[take], indptr, (len(idx), self.shape[1]))

    def columns(self, cols) -> "CSRMatrix":
        """The given columns, in the given order; each may appear once."""
        cols = np.asarray(cols, dtype=np.int64)
        colmap = np.full(self.shape[1], -1, dtype=np.int32)
        colmap[cols] = np.arange(len(cols), dtype=np.int32)
        mapped = colmap[self.indices]
        keep = mapped >= 0
        shape = (self.shape[0], len(cols))
        if (np.diff(cols) > 0).all():
            # an ascending selection keeps every row's indices ascending
            kept_before = np.concatenate(([0], np.cumsum(keep)))
            return CSRMatrix(
                self.data[keep], mapped[keep], _indptr(np.diff(kept_before[self.indptr])), shape
            )
        return CSRMatrix.from_entries(self.row_ids()[keep], mapped[keep], self.data[keep], shape)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.row_ids(), self.indices] = self.data
        return out


def as_csr(X) -> CSRMatrix:
    """X as a CSRMatrix of float64: a FeatureMatrix's matrix or a CSRMatrix
    as it is, an object with a tocsr() method (a scipy.sparse matrix) from
    its arrays, anything else as a dense array."""
    if isinstance(X, FeatureMatrix):
        return X.matrix
    if isinstance(X, CSRMatrix):
        m = X
    elif hasattr(X, "tocsr"):
        m = X.tocsr()
        m = CSRMatrix.from_entries(
            np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data, m.shape
        )
    else:
        return CSRMatrix.from_dense(np.asarray(X, dtype=np.float64))
    if m.data.dtype != np.float64:
        m = CSRMatrix(m.data.astype(np.float64), m.indices, m.indptr, m.shape)
    return m


@dataclass
class FeatureMatrix:
    """A model input; pipeline.FittedFeatures names its columns."""

    matrix: CSRMatrix

    def __post_init__(self):
        self.matrix = as_csr(self.matrix)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    def project(self, columns: Sequence[int]) -> "FeatureMatrix":
        """Restrict to the given columns, in the given order."""
        cols = list(columns)
        if cols and (min(cols) < 0 or max(cols) >= self.n_cols):
            raise ValueError("projection column out of range")
        if len(set(cols)) != len(cols):
            raise ValueError("projection columns repeat")
        return FeatureMatrix(self.matrix.columns(cols))


def _ngrams(doc: Sequence[str], n_lo: int, n_hi: int):
    """Every n-gram of orders n_lo..n_hi, by order, then by start position."""
    for n in range(n_lo, n_hi + 1):
        for i in range(len(doc) - n + 1):
            yield " ".join(doc[i : i + n])


def _ngram_at(doc: Sequence[str], n_lo: int, n_hi: int, step: int) -> str:
    """The n-gram that `_ngrams` yields at position `step`."""
    for n in range(n_lo, n_hi + 1):
        width = max(0, len(doc) - n + 1)
        if step < width:
            return " ".join(doc[step : step + n])
        step -= width
    raise IndexError("step beyond the document's n-grams")


def _narrowest(values: array) -> np.ndarray:
    """Non-negative integers in the narrowest unsigned type that holds them."""
    out = np.frombuffer(values, dtype=np.intc)
    return out.astype(np.min_scalar_type(out.max(initial=0)))


@dataclass(frozen=True, eq=False)
class NgramTable:
    """Counts of the n-grams of orders n_lo..n_hi in every document of a
    corpus: a documents x distinct-n-grams CSR matrix with sorted indices.

    Columns are numbered in order of first appearance. Only integer arrays
    are kept: a column's n-gram is rebuilt from `docs` at its first
    occurrence (the row, and the step of that row's `_ngrams` walk), and only
    for the columns a vocabulary keeps.
    """

    docs: Sequence[Sequence[str]]
    n_lo: int
    n_hi: int
    counts: CSRMatrix
    first_row: np.ndarray
    first_step: np.ndarray

    @classmethod
    def build(cls, docs: Sequence[Sequence[str]], n_lo: int, n_hi: int) -> "NgramTable":
        if not 1 <= n_lo <= n_hi:
            raise ValueError("require 1 <= n_lo <= n_hi")
        ids: dict[str, int] = {}
        first_row, first_step = array("i"), array("i")
        data, indices, rows = array("i"), array("i"), array("i")
        for row, doc in enumerate(docs):
            row_counts: dict[int, int] = {}
            for step, ngram in enumerate(_ngrams(doc, n_lo, n_hi)):
                col = ids.get(ngram)
                if col is None:
                    col = ids[ngram] = len(ids)
                    first_row.append(row)
                    first_step.append(step)
                row_counts[col] = row_counts.get(col, 0) + 1
            indices.extend(row_counts)
            data.extend(row_counts.values())
            rows.extend([row] * len(row_counts))
        n_cols = len(ids)
        del ids  # free the strings before the arrays are converted: a lower peak
        counts = CSRMatrix.from_entries(
            np.frombuffer(rows, dtype=np.intc),
            np.frombuffer(indices, dtype=np.intc),
            _narrowest(data),
            (len(docs), n_cols),
        )
        return cls(
            docs=docs,
            n_lo=n_lo,
            n_hi=n_hi,
            counts=counts,
            first_row=_narrowest(first_row),
            first_step=_narrowest(first_step),
        )

    def ngram(self, col: int) -> str:
        doc = self.docs[int(self.first_row[col])]
        return _ngram_at(doc, self.n_lo, self.n_hi, int(self.first_step[col]))

    def rows(self, indices) -> "TableRows":
        return TableRows(self, np.asarray(list(indices), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class TableRows:
    """Documents that are already counted: rows of a table, in the given
    order. fit_vocab and the transforms accept these in place of token lists."""

    table: NgramTable
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def counts(self) -> CSRMatrix:
        return self.table.counts.rows(self.rows)


def fit_vocab(
    docs: Sequence[Sequence[str]] | TableRows,
    n_lo: int,
    n_hi: int,
    min_df: int,
    max_df_ratio: float,
) -> Vocabulary:
    """Collect ngrams of orders n_lo..n_hi, filter by document frequency,
    and assign dense indices in lexicographic order.

    Token lists are counted into a throwaway table first; table rows are
    read as they are, so a vocabulary fitted on them transforms rows of the
    same table by slicing it. The bounds are checked by the table and the
    Vocabulary."""
    if not len(docs):
        raise ValueError("fit_vocab requires a non-empty corpus")
    if not isinstance(docs, TableRows):
        docs = NgramTable.build(docs, n_lo, n_hi).rows(range(len(docs)))
    table = docs.table
    if (table.n_lo, table.n_hi) != (n_lo, n_hi):
        raise ValueError(
            f"table counts orders {table.n_lo}..{table.n_hi}, not {n_lo}..{n_hi}"
        )
    # a row holds each of its n-grams once, so column occupancy is the df
    df = np.bincount(docs.counts().indices, minlength=table.counts.shape[1])
    cols = np.flatnonzero((df >= min_df) & (df <= max_df_ratio * len(docs)))
    names = [table.ngram(c) for c in cols.tolist()]
    order = sorted(range(len(names)), key=names.__getitem__)
    if not order:
        raise ValueError(
            "document-frequency bounds left an empty vocabulary; lower min_df "
            "or raise max_df_ratio"
        )
    cols = cols[order]
    return Vocabulary(
        ngrams=tuple(names[i] for i in order),
        df=tuple(df[cols].tolist()),
        n_docs=len(docs),
        n_lo=n_lo,
        n_hi=n_hi,
        min_df=min_df,
        max_df_ratio=max_df_ratio,
        source=(weakref.ref(table), cols),
    )


def _count_matrix(vocab: Vocabulary, docs: Sequence[Sequence[str]] | TableRows) -> CSRMatrix:
    """Raw counts of the vocabulary's n-grams: a slice of the table for rows
    of the table `vocab` was fitted from, else a keyed lookup of the token
    lists, one numpy pass over the whole batch.

    The lookup keys every run of n_lo..n_hi tokens of the batch from
    shifted views of its token ids (`NgramKeys.run_keys`), finds all of
    them in the sorted vocabulary keys with one `searchsorted`, and counts
    the (row, column) pairs that hit. A token that holds a space matches
    nothing (`NgramKeys`)."""
    if isinstance(docs, TableRows):
        columns = vocab.table_columns(docs.table)
        if columns is None:
            raise ValueError("table rows given for a vocabulary not fitted from that table")
        return as_csr(docs.counts().columns(columns))
    known = vocab.ngram_keys
    n_docs, n_cols = len(docs), len(vocab)
    keys, n = known.run_keys(docs)
    # each token position's row, times n_cols: a (row, column) pair is one int
    row_base: list[int] = []
    for row, doc in enumerate(docs):
        row_base += [row * n_cols] * (len(doc) + 1)
    at = known.sorted_keys.searchsorted(keys)
    hit = (known.sorted_keys[at] == keys).nonzero()[0]
    pairs = known.columns[at[hit]] + np.array(row_base, dtype=np.int64)[hit % n]
    pairs.sort()
    # the first of each run of equal pairs, and len(pairs) after the last
    edges = np.concatenate((_BEFORE_ALL, pairs, _BEFORE_ALL))
    first = (edges[1:] != edges[:-1]).nonzero()[0]
    pairs = pairs[first[:-1]]
    indptr = pairs.searchsorted(np.arange(0, (n_docs + 1) * n_cols, n_cols))
    return CSRMatrix(
        np.subtract(first[1:], first[:-1], dtype=np.float64),
        (pairs % n_cols).astype(np.int32),
        indptr if len(pairs) > _INT32_MAX else indptr.astype(np.int32),
        (n_docs, n_cols),
    )


def transform_counts(vocab: Vocabulary, docs: Sequence[Sequence[str]] | TableRows) -> FeatureMatrix:
    """Raw term counts; unknown ngrams ignored."""
    return FeatureMatrix(_count_matrix(vocab, docs))


def transform_tfidf(vocab: Vocabulary, docs: Sequence[Sequence[str]] | TableRows) -> FeatureMatrix:
    """tf * idf with smoothed idf, then exact row L2 normalization."""
    m = _count_matrix(vocab, docs)
    weighted = m.data * vocab.idf[m.indices]
    # each row's squares are summed in column order by one reduceat, as
    # scipy.sparse sums a CSR row, so the norms equal the scipy form's bitwise
    filled = np.flatnonzero(np.diff(m.indptr))
    norms = np.zeros(m.shape[0])
    norms[filled] = np.sqrt(np.add.reduceat(weighted * weighted, m.indptr[filled]))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return FeatureMatrix(CSRMatrix(weighted * scale[m.row_ids()], m.indices, m.indptr, m.shape))


@dataclass(frozen=True)
class Standardizer:
    """Stored mean/scale transform for the scalar feature columns."""

    means: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self):
        # a loaded payload holds lists
        object.__setattr__(self, "means", tuple(self.means))
        object.__setattr__(self, "scales", tuple(self.scales))
        if len(self.means) != len(self.scales):
            raise ValueError(f"{len(self.means)} means but {len(self.scales)} scales")
        if not all(math.isfinite(m) for m in self.means):
            raise ValueError("means must be finite")
        if not all(math.isfinite(s) and s > 0 for s in self.scales):
            raise ValueError("scales must be finite and positive")

    def apply(self, scalars: np.ndarray) -> np.ndarray:
        means = np.array(self.means)
        scales = np.array(self.scales)
        if scalars.shape[1] != means.shape[0]:
            raise ValueError("scalar width does not match the stored transform")
        return (scalars - means) / scales

    @classmethod
    def fit(cls, scalars: np.ndarray) -> "Standardizer":
        means = scalars.mean(axis=0)
        variances = scalars.var(axis=0)
        # zero-variance columns center to zero without dividing
        scales = np.where(variances > 0, np.sqrt(variances), 1.0)
        return cls(means=tuple(float(v) for v in means), scales=tuple(float(v) for v in scales))


def _scalar_rows(sentiment, readability, surface) -> np.ndarray:
    s = np.asarray(sentiment, dtype=np.float64)
    r = np.asarray(readability, dtype=np.float64)
    f = np.asarray(surface, dtype=np.float64)
    for arr, width, name in ((s, 4, "sentiment"), (r, 2, "readability"), (f, 11, "surface")):
        if arr.ndim != 2 or arr.shape[1] != width:
            raise ValueError(f"{name} rows must have width {width}")
    if not (s.shape[0] == r.shape[0] == f.shape[0]):
        raise ValueError("scalar blocks disagree on row count")
    return np.hstack([s, r, f])


def assemble_features(
    word_block: FeatureMatrix,
    pos_block: FeatureMatrix,
    sentiment,
    readability,
    surface,
    standardizer: Standardizer | None = None,
    standardize: bool = True,
) -> tuple[FeatureMatrix, Standardizer | None]:
    """Concatenate [word | pos | sentiment | readability | surface].

    With standardize on and no stored transform, fits one on these rows
    (train mode); a provided transform is applied as-is (predict mode).
    Returns the matrix and the transform used (None when off).
    """
    scalars = _scalar_rows(sentiment, readability, surface)
    n_rows = scalars.shape[0]
    if word_block.n_rows != n_rows or pos_block.n_rows != n_rows:
        raise ValueError(
            f"row-count mismatch: word {word_block.n_rows}, pos {pos_block.n_rows}, "
            f"scalars {n_rows}"
        )
    if standardize:
        if standardizer is None:
            standardizer = Standardizer.fit(scalars)
        scalars = standardizer.apply(scalars)
    else:
        standardizer = None
    matrix = CSRMatrix.hstack(
        [word_block.matrix, pos_block.matrix, CSRMatrix.from_dense(scalars)]
    )
    return FeatureMatrix(matrix), standardizer


class Selection(list):
    """The columns an L1 selection keeps, ascending, as a list of ints that
    callers count, compare and project with as before; train_meta holds the
    selection fit's per-class TrainMeta."""

    def __init__(self, columns, train_meta=()):
        super().__init__(columns)
        self.train_meta = tuple(train_meta)


def select_l1(X: FeatureMatrix, y, C: float, tol: float) -> Selection:
    """Columns kept by an OvR L1 logistic fit: any class coefficient with
    magnitude above 1e-6 retains the column. Warns when a class fit did not
    converge, since its columns are then those of an unfinished solve."""
    from .linmodel import fit_logreg  # local import, linmodel depends on this module

    model = fit_logreg(X, y, penalty="l1", C=C, class_weight="uniform", tol=tol)
    unconverged = [
        cls for cls, meta in zip(model.classes, model.train_meta) if not meta.converged
    ]
    if unconverged:
        warnings.warn(
            f"L1 selection at C={C}, tol={tol} did not converge for classes "
            f"{unconverged}; the selected columns come from an unconverged fit",
            RuntimeWarning,
            stacklevel=2,
        )
    keep = sorted(
        int(j)
        for j in np.nonzero(np.abs(model.weights).max(axis=0) > COEF_KEEP_THRESHOLD)[0]
    )
    if not keep:
        raise ValueError(
            f"L1 selection at C={C} zeroed every column; increase C to keep features"
        )
    return Selection(keep, model.train_meta)
