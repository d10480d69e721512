"""End-to-end feature pipeline shared by evaluation and the CLI.

This module turns raw tweet texts into the per-document ingredients every
feature block needs (stemmed tokens, POS tag sequences, scalar scores),
fits the corpus-dependent feature state (vocabularies, standardization,
L1 column selection) on a chosen training subset, and bundles everything
a standalone predictor needs into one versioned artifact.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from ._serialize import ArtifactFormatError, dump_artifact, load_artifact
from .lexfeat import (
    SCALAR_COLUMNS,
    SentimentLexicon,
    TokenCodes,
    WordTables,
    readability,
    sentiment_scores,
    surface_features,
)
from .linmodel import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    LinearModel,
    TrainMeta,
    fit_linear_svm,
    fit_logreg,
    fit_multinomial_nb,
    model_from_payload,
    model_payload,
    predict,
)
from .postag import TagModel, tag_batch
from .postag import load_model as load_tag_model
from .postag import save_model as save_tag_model
from .textproc import StringTable, TokenDocs, TokenKind, classify_chunk, gather_segments, one_word
from .textproc import split_retweet, stem_word
from .vectorize import (
    CSRMatrix,
    FeatureMatrix,
    NgramTable,
    Standardizer,
    Vocabulary,
    assemble_features,
    column_inverse,
    fit_vocab,
    select_l1,
    transform_counts,
    transform_tfidf,
)

PIPELINE_MAGIC = "pipeline"
PIPELINE_FORMAT_VERSION = 2

MODEL_KINDS = ("logreg", "svm", "nb")

_PENALTIES = {"logreg": ("l1", "l2"), "svm": ("l2",), "nb": ("none",)}

# the matrix each model kind reads: naive Bayes the raw n-gram counts, the
# other kinds the assembled TF-IDF + scalar matrix
_MATRIX_READ = {"logreg": "tfidf", "svm": "tfidf", "nb": "counts"}


def _finite_positive(value: float) -> bool:
    """False for NaN, infinities, zero and negatives."""
    return math.isfinite(value) and value > 0


class SettingError(ValueError):
    """A ModelConfig field out of range; field names it, so a caller can
    report the setting the value came from."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class FeatureSettings:
    """Corpus-independent knobs of the feature stage."""

    word_ngram_lo: int = 1
    word_ngram_hi: int = 3
    pos_ngram_lo: int = 1
    pos_ngram_hi: int = 3
    min_df: int = 5
    max_df_ratio: float = 0.75
    standardize: bool = True
    select: bool = True
    select_c: float = 1.0
    select_tol: float = 1e-4

    def __post_init__(self):
        if not 1 <= self.word_ngram_lo <= self.word_ngram_hi:
            raise ValueError("require 1 <= word_ngram_lo <= word_ngram_hi")
        if not 1 <= self.pos_ngram_lo <= self.pos_ngram_hi:
            raise ValueError("require 1 <= pos_ngram_lo <= pos_ngram_hi")
        if self.min_df < 1:
            raise ValueError("min_df must be >= 1")
        if not 0.0 < self.max_df_ratio <= 1.0:
            raise ValueError("max_df_ratio must lie in (0, 1]")
        if not _finite_positive(self.select_c):
            raise ValueError(f"select_c must be finite and positive, got {self.select_c!r}")
        if not _finite_positive(self.select_tol):
            raise ValueError(f"select_tol must be finite and positive, got {self.select_tol!r}")


@dataclass(frozen=True)
class ModelConfig:
    """One classifier configuration: kind, penalty, strength, weighting.

    For naive Bayes the C slot carries the Laplace smoothing strength and
    penalty must be "none"; class_weight is ignored there because the class
    priors already encode imbalance.
    """

    kind: str
    penalty: str
    C: float
    class_weight: str = "uniform"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise SettingError("kind", f"unknown model kind {self.kind!r}")
        if self.penalty not in _PENALTIES[self.kind]:
            raise SettingError(
                "penalty", f"model kind {self.kind!r} does not support penalty {self.penalty!r}"
            )
        if not _finite_positive(self.C):
            raise SettingError("C", f"C must be finite and positive, got {self.C!r}")
        if self.class_weight not in ("uniform", "balanced"):
            raise SettingError(
                "class_weight",
                f"class_weight must be 'uniform' or 'balanced', got {self.class_weight!r}",
            )

    def describe(self) -> str:
        return (
            f"{self.kind} penalty={self.penalty} C={self.C:g} "
            f"class_weight={self.class_weight}"
        )


@dataclass(frozen=True, eq=False)
class Ingredients:
    """Per-document raw material for every feature block: the stemmed words
    and the POS tags, each block TokenDocs (one flat id array with document
    offsets, beside its id -> string table; token sequences given here are
    numbered into a new table), and `scalars`, a float64 array with one row
    per document and one column per lexfeat.SCALAR_COLUMNS entry
    (read-only as extract_ingredients writes it).

    Extraction is row-independent, so any subset of rows can later be used
    to fit or transform without touching the other rows. The n-gram count
    tables that fit_features fits vocabularies from are kept here, one per
    n-gram block and order range, and live exactly as long as these
    ingredients.
    """

    word_docs: TokenDocs
    pos_docs: TokenDocs
    scalars: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "word_docs", TokenDocs.of(self.word_docs))
        object.__setattr__(self, "pos_docs", TokenDocs.of(self.pos_docs))
        n = len(self.word_docs)
        if len(self.pos_docs) != n or self.scalars.shape != (n, len(SCALAR_COLUMNS)):
            raise ValueError(
                f"ingredient blocks disagree on document count, or scalars are not "
                f"{len(SCALAR_COLUMNS)} columns wide"
            )
        # count tables by (block, n_lo, n_hi); a cache, not a field
        object.__setattr__(self, "_tables", {})

    def __len__(self) -> int:
        return len(self.word_docs)

    def ngram_table(self, block: str, n_lo: int, n_hi: int) -> NgramTable:
        """The count table of one n-gram block ("word-ngram" or "pos-ngram")
        over every document, built on first request."""
        key = (block, n_lo, n_hi)
        if key not in self._tables:
            docs = self.word_docs if block == "word-ngram" else self.pos_docs
            self._tables[key] = NgramTable.build(docs, n_lo, n_hi)
        return self._tables[key]


# the most distinct whitespace chunks a loaded model's memo holds between
# predict calls; at about 390 B a chunk (386-399 B measured), with its words
# and what is derived from them, that is about 3.2 MB
MEMO_CHUNKS = 8192


class _ChunkTables(WordTables):
    """What a ChunkMemo knows: the word tables (lexfeat.WordTables), each
    word's stem in `stemmed` (stem_of), `chunks` numbering the chunks, and
    `arrays`, holding flat, for every chunk c in turn, its codes
    (WordTables.codes): its word ids (words_of, with offsets word_at), its
    tokens' word ids (-1 for no Word) and flags (token_words and
    token_flags, with offsets token_at), and its 8 counts. What chunks added
    since the last gather() put in `arrays`, and their new words' stems, wait
    for it."""

    def __init__(self):
        super().__init__()
        self.chunks: dict[str, int] = {}
        self.stemmed, self.stem_of = StringTable(), array("q")
        # words_of, word_at, token_words, token_flags, token_at, counts
        self.arrays = (array("q"), array("q", [0]), array("q"), array("q"), array("q", [0]), array("q"))
        self.pending = tuple([] for _ in range(6))

    def add(self, chunk: str) -> int:
        """The id of `chunk`, its tokens walked once when it is new."""
        k = self.chunks.get(chunk)
        if k is not None:
            return k
        if one_word(chunk):  # its own Word token, taken with no classifying
            word, flag, chunk_counts = self.token(chunk, TokenKind.WORD)
            ids, token_ids, flags = (word,), (word,), (flag,)
        else:
            ids, token_ids, flags, chunk_counts = self.codes(classify_chunk(chunk))
        words_of, word_at, token_words, token_flags, token_at, counts = self.pending
        words_of += ids
        word_at.append(len(self.arrays[0]) + len(words_of))
        token_words += token_ids
        token_flags += flags
        token_at.append(len(self.arrays[2]) + len(token_words))
        counts += chunk_counts
        k = self.chunks[chunk] = len(self.chunks)
        return k

    def gather(self, cids: np.ndarray, doc_at: np.ndarray) -> tuple:
        """For the documents of the chunks cids, document i of cids[doc_at[i]
        :doc_at[i + 1]]: their word offsets, word ids and stem ids, their
        token offsets, token word ids and flags, and their summed counts.
        Only copies are returned, so no view holds an array past the lock."""
        for values, added in zip(self.arrays, self.pending):
            values.extend(added)
            added.clear()
        self.stem_of.extend(self.stemmed.id(stem_word(w)) for w in self.words.strings[len(self.stem_of):])
        words_of, word_at, token_words, token_flags, token_at, counts = (
            np.frombuffer(a, np.int64) for a in self.arrays
        )

        def segments(at, *values):
            take, offsets = gather_segments(at[cids], at[cids + 1] - at[cids])
            return (offsets[doc_at], *(v[take] for v in values))

        word_offsets, words = segments(word_at, words_of)
        doc = np.repeat(np.arange(len(doc_at) - 1), np.diff(doc_at))
        # per-document sums of small ints, exact in float64
        summed = [np.bincount(doc, c[cids], len(doc_at) - 1) for c in counts.reshape(-1, 8).T]
        return (word_offsets, words, np.frombuffer(self.stem_of, np.int64)[words],
                *segments(token_at, token_words, token_flags), np.stack(summed, 1).astype(np.int64))


class ChunkMemo:
    """What extract_ingredients learns about each distinct whitespace chunk
    (`tables`): ids for its chunks, words and stems, given once, with what
    is derived per word, and per chunk the codes of one walk over its
    tokens, in flat arrays. The word and stem tables also keep what later
    stages derive per string (StringTable.derived): the tagger's rows of
    each word, its lexicon valence, and a vocabulary's token id of each
    stem.

    Every value depends on its key alone, so any number of calls may share
    a memo without changing a result, also from several threads: a call
    adds and reads chunks under `lock`, and clear() swaps in fresh tables,
    so a call in progress keeps those it started with."""

    def __init__(self):
        self.lock = threading.Lock()
        self.tables = _ChunkTables()

    def __len__(self) -> int:
        return len(self.tables.chunks)

    def clear(self) -> None:
        self.tables = _ChunkTables()


def extract_ingredients(
    texts, tagger: TagModel, lexicon: SentimentLexicon, memo: ChunkMemo | None = None
) -> Ingredients:
    """Tokenize, stem, tag, and score every text once, up front.

    Tweets repeat their chunks and words, so each distinct chunk is walked
    once and each distinct word stemmed and counted once, into `memo`: a
    fresh one that lives for this call when none is given (training,
    evaluation, report), or a loaded model's, which predict calls share. A
    given memo that holds more than MEMO_CHUNKS chunks when the call ends
    is emptied, so a long stream of new chunks cannot grow it past one
    call's worth.

    A tweet is its leading retweet marker, if any, then its chunks, so its
    streams are its chunks' segments of the memo's arrays, gathered for all
    tweets at once: the stem ids are the word block, the word ids go to the
    tagger, and the tokens' codes to one sentiment_scores call (the marker
    is never a negation or a booster, so it is left out). Its counts are
    its chunks' sums, which one surface_features call makes its surface
    columns, and readability follows. No later stage turns a token into an
    id again: the tagger, the n-gram tables and the vocabulary lookup read
    these ids.
    """
    texts = list(texts)
    if memo is None:
        memo = ChunkMemo()
    tables = memo.tables  # this call's, even if another thread clears the memo
    cids, per_doc, retweets = [], [], []
    with memo.lock:
        known, add = tables.chunks.get, tables.add
        for text in texts:
            marker, chunks = split_retweet(text)
            ids = list(map(known, chunks))
            cids += map(add, chunks) if None in ids else ids
            per_doc.append(len(chunks))
            retweets.append(marker is not None)
        doc_at = np.cumsum([0, *per_doc])
        word_at, words, stems, token_at, token_words, token_flags, counts = tables.gather(
            np.array(cids, np.intp), doc_at
        )
    pos_docs = tag_batch(tagger, TokenDocs(words, word_at, tables.words))
    sentiment = sentiment_scores(
        TokenCodes(token_words, token_flags, token_at, counts[:, 5:], tables.words), lexicon
    )
    surf = surface_features(texts, counts, np.array(retweets, np.int64))
    # counts 3 and 4 are a tweet's words and syllables; tweets with no
    # countable words are scored as one empty word so the readability
    # formulas stay defined
    read = readability(np.maximum(1, counts[:, 3]), np.maximum(1, counts[:, 4]))
    if len(memo) > MEMO_CHUNKS:
        memo.clear()
    table = np.column_stack((*sentiment, *read, *surf)).astype(np.float64)
    table.flags.writeable = False
    return Ingredients(word_docs=TokenDocs(stems, word_at, tables.stemmed), pos_docs=pos_docs,
                       scalars=table.reshape(len(texts), len(SCALAR_COLUMNS)))


@dataclass(frozen=True)
class FittedFeatures:
    """Everything corpus-dependent that transform-time needs, each fact
    once: the vocabularies hold their n-gram orders and df bounds, and
    standardizer and selected_columns are None exactly when standardization
    and selection are off. registry names every column of the assembled
    matrix as (block, name), the scalar ones by lexfeat.SCALAR_COLUMNS; it
    is derived from the vocabularies once, beside the fields, and each
    matrix's input columns with their inverse map once, on first use
    (projection; input_names names them). train_matrix is feature_matrix's
    matrix of the rows fit_features fitted on, and selection_meta is the
    selection fit's per-class TrainMeta; neither is compared or saved, so a
    loaded pipeline has None in both."""

    word_vocab: Vocabulary
    pos_vocab: Vocabulary
    standardizer: Standardizer | None
    selected_columns: tuple[int, ...] | None
    train_matrix: FeatureMatrix | None = field(default=None, compare=False, repr=False)
    selection_meta: tuple[TrainMeta, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "registry", (
            tuple(("word-ngram", t) for t in self.word_vocab.ngrams)
            + tuple(("pos-ngram", t) for t in self.pos_vocab.ngrams)
            + SCALAR_COLUMNS
        ))

    @cached_property
    def _projections(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        # derived on first use, after load_pipeline has checked selected_columns
        ngrams = len(self.word_vocab) + len(self.pos_vocab)
        found = {}
        for matrix, width in (("tfidf", len(self.registry)), ("counts", ngrams)):
            cols = range(width) if self.selected_columns is None else self.selected_columns
            found[matrix] = column_inverse([c for c in cols if c < width], width)
        return found

    def projection(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """The registry column of each column a model of `kind` reads, as
        int64, and its inverse map (vectorize.column_inverse): the selected
        columns (all when selection is off) of the assembled matrix, or of
        its leading n-gram span for raw counts (naive Bayes). Built once
        per matrix."""
        return self._projections[_MATRIX_READ[kind]]

    def input_names(self, kind: str) -> list[tuple[str, str]]:
        """The registry name, (block, name), of each column a model of
        `kind` reads (projection(kind)), in its order."""
        return [self.registry[c] for c in self.projection(kind)[0].tolist()]


def fit_features(
    ingredients: Ingredients, y, settings: FeatureSettings, indices=None
) -> FittedFeatures:
    """Fit vocabularies, standardization, and L1 selection on the given
    rows only; rows outside `indices` never influence the result. The
    rows' matrix is built by feature_matrix, as for any other rows, from
    the fitted vocabularies and standardizer; selection is fitted on it,
    and it is returned, projected onto the kept columns, as the result's
    train_matrix.

    The n-grams of every document are counted once per ingredients, so a
    refit on other rows (the next fold) fits its vocabularies from the same
    tables; the blocks are looked up from the rows' tokens, as for any
    other rows."""
    if indices is None:
        indices = range(len(ingredients))
    indices = list(indices)
    wrows = ingredients.ngram_table(
        "word-ngram", settings.word_ngram_lo, settings.word_ngram_hi
    ).rows(indices)
    prows = ingredients.ngram_table(
        "pos-ngram", settings.pos_ngram_lo, settings.pos_ngram_hi
    ).rows(indices)
    bounds = (settings.min_df, settings.max_df_ratio)
    fitted = FittedFeatures(
        word_vocab=fit_vocab(wrows, settings.word_ngram_lo, settings.word_ngram_hi, *bounds),
        pos_vocab=fit_vocab(prows, settings.pos_ngram_lo, settings.pos_ngram_hi, *bounds),
        standardizer=Standardizer.fit(ingredients.scalars[indices]) if settings.standardize else None,
        selected_columns=None,
    )
    assembled = feature_matrix(fitted, ingredients, indices)
    if not settings.select:
        return replace(fitted, train_matrix=assembled)
    y_sub = [int(y[i]) for i in indices]
    selection = select_l1(assembled, y_sub, C=settings.select_c, tol=settings.select_tol)
    return replace(
        fitted,
        selected_columns=tuple(selection),
        train_matrix=assembled.project(selection),
        selection_meta=selection.train_meta,
    )


def _row_docs(ingredients: Ingredients, indices):
    """The row list (all rows by default) and its word and POS documents."""
    indices = list(range(len(ingredients)) if indices is None else indices)
    return indices, ingredients.word_docs.rows(indices), ingredients.pos_docs.rows(indices)


def feature_matrix(
    fitted: FittedFeatures, ingredients: Ingredients, indices=None
) -> FeatureMatrix:
    """Assembled TF-IDF + scalar matrix for the given rows, projected onto
    the columns logreg and svm read when selection is active."""
    indices, wdocs, pdocs = _row_docs(ingredients, indices)
    assembled, _ = assemble_features(
        transform_tfidf(fitted.word_vocab, wdocs),
        transform_tfidf(fitted.pos_vocab, pdocs),
        ingredients.scalars[indices],
        fitted.standardizer,
    )
    if fitted.selected_columns is None:
        return assembled
    return assembled.project(*fitted.projection("logreg"))


def count_matrix(
    fitted: FittedFeatures, ingredients: Ingredients, indices=None
) -> FeatureMatrix:
    """Raw n-gram count matrix for count-based models (naive Bayes).

    Scalar blocks are excluded (they can be negative); the L1 selection is
    intersected with the n-gram column span, which aligns one-to-one with
    the leading columns of the assembled matrix.
    """
    _, wdocs, pdocs = _row_docs(ingredients, indices)
    combined = FeatureMatrix(CSRMatrix.hstack([
        transform_counts(fitted.word_vocab, wdocs).matrix,
        transform_counts(fitted.pos_vocab, pdocs).matrix,
    ]))
    if fitted.selected_columns is None:
        return combined
    kept = fitted.projection("nb")
    if not len(kept[0]):
        raise ValueError(
            "L1 selection kept no n-gram columns; count-based models need at "
            "least one (raise select_c or disable selection)"
        )
    return combined.project(*kept)


def model_input_matrix(
    kind: str, fitted: FittedFeatures, ingredients: Ingredients, indices=None
) -> FeatureMatrix:
    """The matrix a model of `kind` reads for the given rows."""
    if _MATRIX_READ[kind] == "counts":
        return count_matrix(fitted, ingredients, indices)
    return feature_matrix(fitted, ingredients, indices)


def train_input_matrix(
    kind: str, fitted: FittedFeatures, ingredients: Ingredients, indices=None
) -> FeatureMatrix:
    """The model input of the rows `fitted` was fitted on, which `indices`
    names (all rows by default): the TF-IDF matrix fit_features kept, or
    the count matrix built now."""
    if _MATRIX_READ[kind] == "tfidf":
        return fitted.train_matrix
    return model_input_matrix(kind, fitted, ingredients, indices)


class SplitInputs:
    """The train and test model inputs of one split of ingredient rows, for
    features fitted on its training rows. Each matrix is built on the first
    request of a kind that reads it and then shared by every such kind; a
    ValueError while building it is kept and raised for each of them."""

    def __init__(self, fitted: FittedFeatures, ingredients: Ingredients, train_idx, test_idx):
        self.fitted = fitted
        self.ingredients = ingredients
        self.train_idx = train_idx
        self.test_idx = test_idx
        self._built: dict[str, tuple[FeatureMatrix, FeatureMatrix] | str] = {}

    def get(self, kind: str) -> tuple[FeatureMatrix, FeatureMatrix]:
        """(train, test) inputs of a model of `kind`."""
        matrix = _MATRIX_READ[kind]
        if matrix not in self._built:
            try:
                self._built[matrix] = (
                    train_input_matrix(kind, self.fitted, self.ingredients, self.train_idx),
                    model_input_matrix(kind, self.fitted, self.ingredients, self.test_idx),
                )
            except ValueError as exc:
                self._built[matrix] = str(exc)
        built = self._built[matrix]
        if isinstance(built, str):
            raise ValueError(built)
        return built


def fit_config_model(
    config: ModelConfig,
    X,
    y,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LinearModel:
    """Dispatch one ModelConfig to the matching solver."""
    if config.kind == "logreg":
        return fit_logreg(
            X,
            y,
            penalty=config.penalty,
            C=config.C,
            class_weight=config.class_weight,
            tol=tol,
            max_iter=max_iter,
        )
    if config.kind == "svm":
        return fit_linear_svm(
            X,
            y,
            C=config.C,
            class_weight=config.class_weight,
            tol=tol,
            max_iter=max_iter,
        )
    return fit_multinomial_nb(X, y, alpha=config.C)


def kind_penalty(kind: str, penalty: str) -> str:
    """The penalty a model of `kind` takes when `penalty` is asked for: the
    asked one for a kind with a choice (logreg), else the kind's only one
    (svm l2, nb none)."""
    if kind not in MODEL_KINDS:
        raise SettingError("kind", f"unknown model kind {kind!r}")
    options = _PENALTIES[kind]
    return penalty if len(options) > 1 else options[0]


def build_grid(models, penalties, cs, class_weights) -> tuple[ModelConfig, ...]:
    """Cartesian product of grid axes, with penalties normalized per model
    kind by kind_penalty and duplicates dropped."""
    configs: list[ModelConfig] = []
    seen = set()
    for kind in models:
        for penalty in penalties:
            normalized = kind_penalty(kind, penalty)
            for c in cs:
                for cw in class_weights:
                    key = (kind, normalized, float(c), cw)
                    if key in seen:
                        continue
                    seen.add(key)
                    configs.append(
                        ModelConfig(
                            kind=kind, penalty=normalized, C=float(c), class_weight=cw
                        )
                    )
    if not configs:
        raise ValueError("grid is empty")
    return tuple(configs)


@dataclass(frozen=True)
class PipelineModel:
    """Self-contained trained pipeline: tagger, lexicon, feature state, and
    the classifier, everything prediction needs in one artifact. Beside the
    fields, `memo` is the ChunkMemo every pipeline_predict call on this
    model shares, also from several threads; it lives as long as the
    model."""

    tagger: TagModel
    lexicon: SentimentLexicon
    fitted: FittedFeatures
    model: LinearModel
    config: ModelConfig

    def __post_init__(self):
        # a cache, not a field
        object.__setattr__(self, "memo", ChunkMemo())


def pipeline_predict(pm: PipelineModel, texts) -> tuple[np.ndarray, np.ndarray]:
    """Labels (class codes) and per-class scores for raw texts."""
    texts = list(texts)
    if not texts:
        return np.zeros(0, dtype=np.int64), np.zeros((0, len(pm.model.classes)))
    ingredients = extract_ingredients(texts, pm.tagger, pm.lexicon, pm.memo)
    fm = model_input_matrix(pm.config.kind, pm.fitted, ingredients)
    return predict(pm.model, fm, return_scores=True)


def _fields(obj) -> dict:
    """A dataclass's fields by name, not deep-copied as by asdict; tuples
    serialize as JSON arrays."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def save_pipeline(pm: PipelineModel) -> bytes:
    fitted = pm.fitted
    payload = {
        "tagger": save_tag_model(pm.tagger).decode("utf-8"),
        "lexicon": dict(pm.lexicon.valences),
        "word_vocab": _fields(fitted.word_vocab),
        "pos_vocab": _fields(fitted.pos_vocab),
        "standardizer": None if fitted.standardizer is None else _fields(fitted.standardizer),
        "selected_columns": fitted.selected_columns,
        "config": _fields(pm.config),
        "model": model_payload(pm.model),
    }
    return dump_artifact(PIPELINE_MAGIC, PIPELINE_FORMAT_VERSION, payload)


def _payload_field(payload: dict, name: str, parse):
    """parse(payload[name]); a missing or malformed field raises
    ArtifactFormatError naming it."""
    if name not in payload:
        raise ArtifactFormatError(f"pipeline payload missing field {name!r}")
    try:
        return parse(payload[name])
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ArtifactFormatError(f"pipeline payload field {name!r} is malformed: {err}") from None


def _require(ok: bool, name: str, why: str) -> None:
    if not ok:
        raise ArtifactFormatError(f"pipeline payload field {name!r} is malformed: {why}")


def _check_consistent(pm: PipelineModel) -> None:
    """The selected columns, standardizer and model weights must agree with
    the vocabularies and each other, or prediction would fail or misread."""
    fitted = pm.fitted
    std = fitted.standardizer
    _require(std is None or len(std.means) == len(SCALAR_COLUMNS), "standardizer",
             f"needs {len(SCALAR_COLUMNS)} means and scales")
    width = len(fitted.registry)
    cols = fitted.selected_columns
    _require(
        cols is None
        or (
            all(type(c) is int for c in cols)
            and all(a < b for a, b in zip((-1, *cols), (*cols, width)))
        ),
        "selected_columns",
        f"not strictly increasing column numbers below {width}",
    )
    expected = len(fitted.projection(pm.config.kind)[0])
    _require(
        pm.model.n_features == expected,
        "model",
        f"weights have {pm.model.n_features} columns; {pm.config.kind} reads {expected}",
    )


def load_pipeline(data: bytes) -> PipelineModel:
    """Read a saved pipeline; a missing, malformed or inconsistent field
    raises ArtifactFormatError naming it."""
    _, payload = load_artifact(data, PIPELINE_MAGIC, (PIPELINE_FORMAT_VERSION,))
    fitted = FittedFeatures(
        word_vocab=_payload_field(payload, "word_vocab", lambda d: Vocabulary(**d)),
        pos_vocab=_payload_field(payload, "pos_vocab", lambda d: Vocabulary(**d)),
        standardizer=_payload_field(
            payload, "standardizer", lambda std: None if std is None else Standardizer(**std)
        ),
        selected_columns=_payload_field(
            payload, "selected_columns", lambda cols: None if cols is None else tuple(cols)
        ),
    )
    pm = PipelineModel(
        tagger=_payload_field(payload, "tagger", lambda t: load_tag_model(t.encode("utf-8"))),
        lexicon=_payload_field(
            payload, "lexicon", lambda lex: SentimentLexicon(valences=dict(lex))
        ),
        fitted=fitted,
        model=_payload_field(payload, "model", model_from_payload),
        config=_payload_field(payload, "config", lambda cfg: ModelConfig(**cfg)),
    )
    _check_consistent(pm)
    return pm
