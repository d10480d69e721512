"""N-gram vocabularies, TF-IDF blocks, feature assembly, and L1 selection.

Conventions fixed here: idf(t) = ln((1 + n_docs)/(1 + df(t))) + 1 with raw
term counts, rows L2-normalized after weighting; vocabulary columns follow
lexicographic ngram order so fitted artifacts are deterministic. Scalar
blocks are standardized to train-set mean 0 / variance 1 with the transform
stored for predict time; a zero-variance column is centered to all zeros
without dividing.

A fitted `Vocabulary` is its column list, the n-grams in column order with
their document frequencies, each n-gram n_lo..n_hi non-empty tokens joined
by single spaces; it derives its idf vector from them once, when built, and
its n-gram keys on first use; every transform and the saved artifact read
them.

Fitting and lookup share one token rule and one key rule (`KeyRule`): a
token that is empty or holds a space is unknown, and every run of known
tokens inside one document is packed into one integer key by Horner's rule.
A corpus that is fitted on is counted once: `NgramTable.build` keys every
document's n-grams and counts them into a documents x distinct-n-grams
table, with a few numpy operations and no n-gram strings. A vocabulary
fitted on some of its rows takes its document frequencies and names from
the table, so folds that refit on different rows never enumerate the
n-grams again. Every count and TF-IDF block is one keyed lookup of token
lists: the vocabulary packs each of its n-grams into one key once
(`NgramKeys`), and a batch's n-grams are keyed and found with a few numpy
operations, so a document is counted alike by the table it was fitted from
and by the lookup.

Count-mode transforms (raw tf, no idf, no normalization) are also provided;
the naive Bayes model consumes those.

Every sparse matrix here is a CSRMatrix, held in numpy arrays, so feature
extraction and predict never import scipy; only the sparse logistic and SVM
fits in linmodel wrap its arrays in scipy.sparse.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .textproc import TokenDocs

COEF_KEEP_THRESHOLD = 1e-6


@dataclass(frozen=True)
class Vocabulary:
    """The columns of one n-gram block: column i is ngrams[i], seen in df[i]
    of the n_docs fitted documents. The fields are checked once when built
    (lists are taken as tuples), and `idf` (float64, one per column) is
    built from them then, beside the fields. The integer keys that token
    lists are looked up by (`NgramKeys`) are derived on the first transform,
    so loading a model never pays for them."""

    ngrams: tuple[str, ...]
    df: tuple[int, ...]
    n_docs: int
    n_lo: int
    n_hi: int
    min_df: int
    max_df_ratio: float

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
        # the one form a fit makes, and the one token lists are keyed by
        for tokens in (ngram.split(" ") for ngram in self.ngrams):
            if not self.n_lo <= len(tokens) <= self.n_hi or "" in tokens:
                raise ValueError(f"n-gram {' '.join(tokens)!r} is not {self.n_lo} to "
                                 f"{self.n_hi} non-empty tokens joined by single spaces")
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

    @cached_property
    def ngram_keys(self) -> "NgramKeys":
        """The vocabulary's n-grams as integer keys, derived on first use."""
        return NgramKeys(self)


class KeyRule:
    """Token ids and n-gram keys: the one rule by which a corpus is counted
    (`NgramTable`) and token lists are looked up (`NgramKeys`).

    A rule is over V known tokens, with ids 1 to V. Every other token and
    the end of each document are 0; so are an empty token and one that
    holds a space, which no fitted n-gram holds (a fitted n-gram is
    non-empty tokens joined by single spaces: "a b" is the tokens "a" and
    "b", never the one token "a b"). With base B = V + 1, the n-gram of
    token ids d_1..d_n has the key

        K(d_1) = d_1,    K(d_1..d_n) = B * K(d_1..d_{n-1}) + d_n + B,

    its ids as base-B digits plus B + B^2 + ... + B^(n-1). The keys of
    order n therefore fill a range of their own, all below `top` = B + B^2
    + ... + B^n_hi, and a run of n tokens that holds a 0 has a 0 digit,
    which the key of no n-gram of known tokens has. Keys are int64 while
    `top` fits; beyond that, the same arithmetic runs on Python ints in
    object arrays, which is slower but exact.
    """

    __slots__ = ("n_lo", "n_hi", "base", "top", "dtype")

    def __init__(self, n_known: int, n_lo: int, n_hi: int):
        self.n_lo, self.n_hi = n_lo, n_hi
        self.base = n_known + 1
        self.top = sum(self.base**m for m in range(1, n_hi + 1))
        self.dtype = np.int64 if self.top <= np.iinfo(np.int64).max else object

    def ids(self, docs: TokenDocs, token_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rule id of every token of docs (token_ids holds it for each
        id of the docs' table), each document followed by its end, and the
        document of each of these n positions. The ids go on past position
        n, so that a run of every order starts at each of them."""
        lengths = np.diff(docs.offsets)
        rows = np.repeat(np.arange(len(lengths)), lengths + 1)
        ids = np.zeros(len(rows) + self.n_hi - 1, self.dtype)
        ids[np.arange(len(docs.ids)) + np.repeat(np.arange(len(lengths)), lengths)] = token_ids[docs.ids]
        return ids, rows

    def run_keys(self, ids: np.ndarray, n: int) -> np.ndarray:
        """The key of every run of n_lo..n_hi ids that starts at one of the
        first n positions: for each order, ascending, one key for each
        position, so key j is that of the run of order n_lo + j // n that
        starts at position j % n."""
        key, digits = ids, ids + self.base
        keys = [key[:n]] if self.n_lo == 1 else []
        for order in range(2, self.n_hi + 1):
            key = key[:-1] * self.base + digits[order - 1 :]
            if order >= self.n_lo:
                keys.append(key[:n])
        return np.concatenate(keys)


class NgramKeys(KeyRule):
    """A vocabulary's n-grams as integer keys, to look token lists up by.

    The key rule is over the tokens of the vocabulary's n-grams (split at
    single spaces), so a run of a document that holds any other token, or
    spans two documents, matches nothing. `sorted_keys` holds the keys
    ascending, then `top`, which is above every key a document can make, so
    that `np.searchsorted` never runs off the end; `columns` holds each
    sorted key's column.
    """

    __slots__ = ("token_ids", "sorted_keys", "columns")

    def __init__(self, vocab: Vocabulary):
        grams = TokenDocs.of(ngram.split(" ") for ngram in vocab.ngrams)
        super().__init__(len(grams.table), vocab.n_lo, vocab.n_hi)
        # a token's rule id is one more than its id in the n-grams' table
        self.token_ids = grams.table.ids
        ids, rows = self.ids(grams, np.arange(1, self.base))
        # each n-gram, read as a document, starts a run of its own length
        lengths = np.diff(grams.offsets)
        starts = grams.offsets[:-1] + np.arange(len(lengths))
        keys = self.run_keys(ids, len(rows))[(lengths - self.n_lo) * len(rows) + starts]
        self.columns = keys.argsort()
        self.sorted_keys = np.append(keys[self.columns], np.array([self.top], dtype=self.dtype))

    def token_id(self, token: str) -> int:
        return self.token_ids.get(token, -1) + 1


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

    def columns(self, cols, inverse: np.ndarray | None = None) -> "CSRMatrix":
        """The given columns, in the given order; each may appear once.
        `inverse` is column_inverse(cols, n_cols)[1], built here when not
        given."""
        if inverse is None:
            cols, inverse = column_inverse(cols, self.shape[1])
        mapped = inverse[self.indices]
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

    def project(self, columns: Sequence[int], inverse: np.ndarray | None = None) -> "FeatureMatrix":
        """Restrict to the given columns, in the given order; `inverse` as
        for CSRMatrix.columns."""
        return FeatureMatrix(self.matrix.columns(columns, inverse))


def column_inverse(columns: Sequence[int], width: int) -> tuple[np.ndarray, np.ndarray]:
    """`columns` as int64, and the place of each of `width` columns among
    them (int32, -1 for a column not among them): what a projection onto
    `columns` reads, built once for every matrix projected alike."""
    cols = np.array(columns, dtype=np.int64)
    if len(cols) and (cols.min() < 0 or cols.max() >= width):
        raise ValueError("projection column out of range")
    inverse = np.full(width, -1, dtype=np.int32)
    inverse[cols] = np.arange(len(cols), dtype=np.int32)
    if np.count_nonzero(inverse >= 0) != len(cols):
        raise ValueError("projection columns repeat")
    return cols, inverse


def _count_pairs(pairs: np.ndarray, n_rows: int, n_cols: int) -> CSRMatrix:
    """How often each (row, column) pair occurs, each given as the one int
    row * n_cols + column: an n_rows x n_cols matrix of the counts, in the
    narrowest unsigned type that holds them. Sorts `pairs` in place."""
    pairs.sort()
    # the first of each run of equal pairs, and len(pairs) after the last
    edges = np.concatenate((_BEFORE_ALL, pairs, _BEFORE_ALL))
    first = (edges[1:] != edges[:-1]).nonzero()[0]
    pairs, counts = pairs[first[:-1]], np.diff(first)
    indptr = pairs.searchsorted(np.arange(n_rows + 1) * n_cols)
    return CSRMatrix(
        counts.astype(np.min_scalar_type(counts.max(initial=0))),
        (pairs % n_cols).astype(np.int32),
        indptr if len(pairs) > _INT32_MAX else indptr.astype(np.int32),
        (n_rows, n_cols),
    )


@dataclass(frozen=True, eq=False)
class NgramTable:
    """Counts of the n-grams of orders n_lo..n_hi in every document of a
    corpus: a documents x distinct-n-grams CSR matrix with sorted indices.

    The n-grams are keyed by the same token and key rule (`KeyRule`) as a
    token-list lookup, over the corpus's own tokens, so a token that is
    empty or holds a space ends runs there too, and a document is counted
    alike as a table row and as a token list. Columns are numbered in key
    order. Only integer arrays are kept: a column's n-gram is rebuilt from
    `docs` at its first occurrence, and only for the columns a vocabulary
    keeps. Row c of `first` locates column c's first occurrence: its row,
    the position of its first token there, and its length, in the narrowest
    unsigned type that holds them.
    """

    docs: TokenDocs
    n_lo: int
    n_hi: int
    counts: CSRMatrix
    first: np.ndarray

    @classmethod
    def build(cls, docs: Sequence[Sequence[str]] | TokenDocs, n_lo: int, n_hi: int) -> "NgramTable":
        if not 1 <= n_lo <= n_hi:
            raise ValueError("require 1 <= n_lo <= n_hi")
        docs = TokenDocs.of(docs)
        # rule ids 1..V for the strings of the table that occur and are known
        strings = docs.table.strings
        seen = np.zeros(len(strings), bool)
        seen[docs.ids] = True
        known = [k for k in seen.nonzero()[0].tolist() if strings[k] and " " not in strings[k]]
        token_ids = np.zeros(len(seen), np.int64)
        token_ids[known] = np.arange(1, len(known) + 1)
        rule = KeyRule(len(known), n_lo, n_hi)
        ids, rows = rule.ids(docs, token_ids)
        n = len(rows)
        # drop the runs that hold a 0: they span an unknown token or two documents
        zeros = np.concatenate(([0], np.cumsum(ids == 0)))
        runs = np.concatenate(
            [zeros[order : order + n] == zeros[:n] for order in range(n_lo, n_hi + 1)]
        ).nonzero()[0]
        keys, at, cols = np.unique(
            rule.run_keys(ids, n)[runs], return_index=True, return_inverse=True
        )
        counts = _count_pairs(rows[runs % n] * len(keys) + cols, len(docs), len(keys))
        # run j is of order n_lo + j // n and starts at position j % n
        order, position = np.divmod(runs[at], n)
        row = rows[position]
        first = np.stack((row, position - rows.searchsorted(row), order + n_lo), axis=1)
        first = first.astype(np.min_scalar_type(first.max(initial=0)))
        return cls(docs=docs, n_lo=n_lo, n_hi=n_hi, counts=counts, first=first)

    def ngram(self, col: int) -> str:
        row, start, length = self.first[col].tolist()
        at = self.docs.offsets[row] + start
        return " ".join(map(self.docs.table.strings.__getitem__, self.docs.ids[at : at + length].tolist()))

    def rows(self, indices) -> "TableRows":
        return TableRows(self, np.asarray(list(indices), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class TableRows:
    """Documents that are already counted: rows of a table, in the given
    order, which fit_vocab accepts in place of token lists."""

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
    read as they are, so refits on rows of one table never count again. The
    bounds are checked by the table and the Vocabulary."""
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
    )


def _count_matrix(vocab: Vocabulary, docs: Sequence[Sequence[str]] | TokenDocs) -> CSRMatrix:
    """Raw counts of the vocabulary's n-grams in the token lists, one numpy
    pass over the whole batch.

    The lookup keys every run of n_lo..n_hi tokens of the batch from
    shifted views of its token ids (`NgramKeys.run_keys`), finds all of
    them in the sorted vocabulary keys with one `searchsorted`, and counts
    the (row, column) pairs that hit, as a table build counts its own. A
    token that is empty or holds a space is unknown in both (`KeyRule`)."""
    known = vocab.ngram_keys
    docs = TokenDocs.of(docs)
    ids, rows = known.ids(docs, docs.table.derived(known, known.token_id, np.int64))
    n = len(rows)
    keys = known.run_keys(ids, n)
    at = known.sorted_keys.searchsorted(keys)
    hit = (known.sorted_keys[at] == keys).nonzero()[0]
    pairs = rows[hit % n] * len(vocab) + known.columns[at[hit]]
    return as_csr(_count_pairs(pairs, len(docs), len(vocab)))


def transform_counts(vocab: Vocabulary, docs: Sequence[Sequence[str]] | TokenDocs) -> FeatureMatrix:
    """Raw term counts; unknown ngrams ignored."""
    return FeatureMatrix(_count_matrix(vocab, docs))


def transform_tfidf(vocab: Vocabulary, docs: Sequence[Sequence[str]] | TokenDocs) -> FeatureMatrix:
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


def assemble_features(
    word_block: FeatureMatrix,
    pos_block: FeatureMatrix,
    scalars,
    standardizer: Standardizer | None = None,
) -> tuple[FeatureMatrix, Standardizer | None]:
    """Concatenate [word | pos | scalars], the scalars one row per document
    (lexfeat.SCALAR_COLUMNS names their columns), with `standardizer`
    applied to the scalars when one is given. Returns the matrix and the
    standardizer as given.
    """
    scalars = np.asarray(scalars, dtype=np.float64)
    n_rows = scalars.shape[0]
    if word_block.n_rows != n_rows or pos_block.n_rows != n_rows:
        raise ValueError(
            f"row-count mismatch: word {word_block.n_rows}, pos {pos_block.n_rows}, "
            f"scalars {n_rows}"
        )
    if standardizer is not None:
        scalars = standardizer.apply(scalars)
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
