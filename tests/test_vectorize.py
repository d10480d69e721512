import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from hatetriage.linmodel import LinearModel, decision_margins
from hatetriage.pipeline import FittedFeatures
from hatetriage.vectorize import (
    CSRMatrix,
    FeatureMatrix,
    NgramTable,
    Standardizer,
    Vocabulary,
    _count_matrix,
    assemble_features,
    column_inverse,
    fit_vocab,
    select_l1,
    transform_counts,
    transform_tfidf,
)
from vectorize_reference import (
    reference_assemble,
    reference_columns,
    reference_count_matrix,
    reference_fit_vocab,
    reference_idf,
    reference_margins,
    reference_tfidf_matrix,
)

token = st.sampled_from(["a", "b", "c", "d", "e"])
docs_strategy = st.lists(st.lists(token, max_size=6), min_size=1, max_size=10)


def reloaded(vocab: Vocabulary) -> Vocabulary:
    """vocab through the JSON round trip that save_pipeline and
    load_pipeline give it."""
    return Vocabulary(**json.loads(json.dumps(dataclasses.asdict(vocab))))


def tiny_blocks(n_rows: int):
    word = FeatureMatrix(np.zeros((n_rows, 3)))
    pos = FeatureMatrix(np.zeros((n_rows, 2)))
    # sentiment, readability, then surface columns
    scalars = np.tile([0.1, 0.2, 0.7, 0.0, 1.0, 100.0, *range(11)], (n_rows, 1))
    return word, pos, scalars


class TestFitVocab:
    def test_enumeration_with_bigrams(self):
        v = fit_vocab([["a", "b"], ["a"]], 1, 2, min_df=1, max_df_ratio=1.0)
        assert v.ngrams == ("a", "a b", "b")
        assert v.df == (2, 1, 1)

    def test_min_df_filter(self):
        v = fit_vocab([["a", "b"], ["a"]], 1, 2, min_df=2, max_df_ratio=1.0)
        assert v.ngrams == ("a",)

    def test_empty_doc_plus_word(self):
        v = fit_vocab([[], ["x"]], 1, 1, min_df=1, max_df_ratio=1.0)
        assert v.ngrams == ("x",)

    def test_max_df_drops_ubiquitous(self):
        docs = [["a", "b"], ["a", "c"], ["a", "d"], ["a", "e"]]
        v = fit_vocab(docs, 1, 1, min_df=1, max_df_ratio=0.75)
        assert "a" not in v.ngrams  # df 4 > 3
        assert set(v.ngrams) == {"b", "c", "d", "e"}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_vocab([], 1, 1, 1, 1.0)

    def test_all_filtered_rejected(self):
        with pytest.raises(ValueError, match="min_df"):
            fit_vocab([["a"]], 1, 1, min_df=5, max_df_ratio=1.0)

    def test_bad_order_bounds(self):
        with pytest.raises(ValueError):
            fit_vocab([["a"]], 2, 1, 1, 1.0)
        with pytest.raises(ValueError):
            fit_vocab([["a"]], 0, 1, 1, 1.0)

    @given(docs_strategy)
    def test_indices_dense_and_lexicographic(self, docs):
        try:
            v = fit_vocab(docs, 1, 2, min_df=1, max_df_ratio=1.0)
        except ValueError:
            return  # corpus was all-empty docs
        assert sorted(v.ngrams) == list(v.ngrams)
        assert len(set(v.ngrams)) == len(v.ngrams)

    @given(docs_strategy)
    def test_df_bounds_hold(self, docs):
        try:
            v = fit_vocab(docs, 1, 2, min_df=1, max_df_ratio=0.9)
        except ValueError:
            return
        for d in v.df:
            assert 1 <= d <= 0.9 * v.n_docs


class TestVocabulary:
    GOOD = dict(ngrams=("a", "b"), df=(1, 2), n_docs=2, n_lo=1, n_hi=2, min_df=1, max_df_ratio=1.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("df", (1,)),
            ("ngrams", ("b", "a")),
            ("ngrams", ("a", "a")),
            ("ngrams", ("a", 3)),
            ("df", (1, True)),
            ("df", (1, 2.0)),
            ("df", (0, 2)),
            ("df", (1, 3)),
            ("n_lo", 0),
            ("n_hi", 0),
            ("min_df", 0),
            ("max_df_ratio", 0.0),
            ("max_df_ratio", 1.5),
            # each n-gram is n_lo..n_hi non-empty tokens joined by single spaces
            ("ngrams", ("a  b", "b")),
            ("ngrams", (" a", "b")),
            ("ngrams", ("a", "b c d")),
            ("n_lo", 2),
        ],
    )
    def test_malformed_field_rejected(self, name, value):
        with pytest.raises(ValueError):
            Vocabulary(**{**self.GOOD, name: value})

    def test_lists_taken_as_tuples(self):
        v = Vocabulary(**{**self.GOOD, "ngrams": ["a", "b"], "df": [1, 2]})
        assert v == Vocabulary(**self.GOOD)
        assert (v.ngrams, v.df) == (("a", "b"), (1, 2))


class TestTransformTfidf:
    def test_term_in_all_docs_has_idf_one(self):
        v = fit_vocab([["a"], ["a"]], 1, 1, 1, 1.0)
        assert v.idf[v.ngrams.index("a")] == pytest.approx(1.0)

    def test_term_in_one_of_two(self):
        v = fit_vocab([["a", "b"], ["a"]], 1, 1, 1, 1.0)
        assert v.idf[v.ngrams.index("b")] == pytest.approx(math.log(3 / 2) + 1, abs=1e-9)

    def test_idf_is_the_per_term_log(self):
        """idf is math.log term by term, the expression saved models were
        weighted with; numpy's vectorized log can differ from it in the last
        bit, for a few of these document frequencies among others."""
        n = 25000
        v = Vocabulary(
            ngrams=tuple(f"t{d:05d}" for d in range(1, n + 1)),
            df=tuple(range(1, n + 1)),
            n_docs=n, n_lo=1, n_hi=1, min_df=1, max_df_ratio=1.0,
        )
        assert v.idf.tobytes() == reference_idf(v).tobytes()

    def test_two_doc_hand_computed_values(self):
        # doc1 = [a, b], doc2 = [a]: idf(a)=1, idf(b)=ln(3/2)+1;
        # row1 pre-norm = (1, 1.405465...) then L2-normalized, row2 = (1, 0)
        v = fit_vocab([["a", "b"], ["a"]], 1, 1, 1, 1.0)
        fm = transform_tfidf(v, [["a", "b"], ["a"]])
        idf_b = math.log(3 / 2) + 1
        norm = math.sqrt(1 + idf_b**2)
        dense = fm.matrix.toarray()
        assert dense[0, 0] == pytest.approx(1 / norm, abs=1e-9)
        assert dense[0, 1] == pytest.approx(idf_b / norm, abs=1e-9)
        assert dense[1].tolist() == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_empty_doc_zero_row(self):
        v = fit_vocab([["a"]], 1, 1, 1, 1.0)
        fm = transform_tfidf(v, [[]])
        assert fm.matrix.nnz == 0

    def test_out_of_vocab_doc_zero_row(self):
        v = fit_vocab([["a"]], 1, 1, 1, 1.0)
        fm = transform_tfidf(v, [["z", "q"]])
        assert fm.matrix.nnz == 0

    def test_raw_tf_counts_repeats(self):
        v = fit_vocab([["a", "a", "b"]], 1, 1, 1, 1.0)
        counts = transform_counts(v, [["a", "a", "b"]]).matrix.toarray()
        assert counts.tolist() == [[2.0, 1.0]]

    @given(docs_strategy)
    def test_rows_have_unit_or_zero_norm(self, docs):
        try:
            v = fit_vocab(docs, 1, 2, 1, 1.0)
        except ValueError:
            return
        fm = transform_tfidf(v, docs)
        norms = np.sqrt((fm.matrix.toarray() ** 2).sum(axis=1))
        for norm in norms:
            assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0


def assert_same_csr(got: sparse.csr_matrix, want: sparse.csr_matrix):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


# an empty token, and one that holds a space, are unknown to the table as to
# the keyed lookup: "a b" as one token is not the bigram of "a" and "b"
table_token = st.sampled_from(["a", "b", "c", "d", "a b", ""])


def known_tokens_only(docs):
    """docs with each token that is empty or holds a space replaced by "z",
    which table_token does not draw."""
    return [[t if t and " " not in t else "z" for t in doc] for doc in docs]


def reference_fit_known(docs, n_lo, n_hi, min_df, max_df_ratio):
    """The reference vocabulary of docs' known tokens: reference_fit_vocab on
    known_tokens_only(docs), without the n-grams that hold "z". Raises
    ValueError when no n-gram is left."""
    ref = reference_fit_vocab(known_tokens_only(docs), n_lo, n_hi, min_df, max_df_ratio)
    kept = [i for i, ngram in enumerate(ref.ngrams) if "z" not in ngram.split(" ")]
    if not kept:
        raise ValueError("document-frequency bounds left an empty vocabulary")
    return dataclasses.replace(
        ref, ngrams=[ref.ngrams[i] for i in kept], df=[ref.df[i] for i in kept]
    )


@st.composite
def table_case(draw):
    docs = draw(st.lists(st.lists(table_token, max_size=7), min_size=1, max_size=12))
    row = st.integers(0, len(docs) - 1)
    n_lo = draw(st.integers(1, 3))
    return {
        "docs": docs,
        "fit_rows": draw(st.lists(row, min_size=1, max_size=15)),
        "transform_rows": draw(st.lists(row, max_size=15)),
        "n_lo": n_lo,
        "n_hi": draw(st.integers(n_lo, 3)),
        "min_df": draw(st.integers(1, 3)),
        "max_df_ratio": draw(st.sampled_from([0.2, 0.5, 0.75, 1.0]) | st.floats(0.05, 1.0)),
    }


class TestNgramTable:
    """A vocabulary fitted on table rows, and the blocks looked up from the
    same rows' token lists, equal the dict-and-lookup reference bit for
    bit."""

    @settings(max_examples=300, deadline=None)
    @given(table_case())
    def test_slices_equal_reference(self, case):
        docs = case["docs"]
        n_lo, n_hi = case["n_lo"], case["n_hi"]
        table = NgramTable.build(docs, n_lo, n_hi)
        fit_docs = [docs[i] for i in case["fit_rows"]]
        bounds = (case["min_df"], case["max_df_ratio"])
        try:
            want = reference_fit_known(fit_docs, n_lo, n_hi, *bounds)
        except ValueError:
            with pytest.raises(ValueError, match="empty vocabulary"):
                fit_vocab(table.rows(case["fit_rows"]), n_lo, n_hi, *bounds)
            return
        got = fit_vocab(table.rows(case["fit_rows"]), n_lo, n_hi, *bounds)
        assert got == want
        assert reloaded(got) == got
        assert got.idf.tobytes() == reference_idf(want).tobytes()

        # the rows' token lists, as the table's TokenDocs and as plain lists,
        # equal the reference on the lists' known tokens
        idx = case["transform_rows"]
        plain = known_tokens_only(docs[i] for i in idx)
        want_counts = FeatureMatrix(reference_count_matrix(want, plain)).matrix
        want_tfidf = FeatureMatrix(reference_tfidf_matrix(want, plain)).matrix
        for rows in (table.docs.rows(idx), [docs[i] for i in idx]):
            assert_same_csr(_count_matrix(got, rows), want_counts)
            assert_same_csr(transform_counts(got, rows).matrix, want_counts)
            assert_same_csr(transform_tfidf(got, rows).matrix, want_tfidf)

    @pytest.mark.parametrize("transform", [transform_counts, transform_tfidf])
    def test_transforms_refuse_table_rows(self, transform):
        """Table rows are fit_vocab's input only; a transform reads tokens."""
        table = NgramTable.build([["a", "b"]], 1, 2)
        vocab = fit_vocab(table.rows([0]), 1, 2, 1, 1.0)
        with pytest.raises(TypeError):
            transform(vocab, table.rows([0]))

    def test_order_range_must_match_table(self):
        table = NgramTable.build([["a", "b"]], 1, 2)
        with pytest.raises(ValueError, match="orders 1..2"):
            fit_vocab(table.rows([0]), 1, 3, 1, 1.0)

    def test_counts_of_each_ngram(self):
        table = NgramTable.build([["b", "a", "b"], [], ["c", "a"]], 1, 2)
        columns = table.counts.toarray().T.tolist()
        by_ngram = {table.ngram(c): columns[c] for c in range(table.counts.shape[1])}
        assert by_ngram == {
            "b": [2, 0, 0],
            "a": [1, 0, 1],
            "b a": [1, 0, 0],
            "a b": [1, 0, 0],
            "c": [0, 0, 1],
            "c a": [0, 0, 1],
        }

    @settings(max_examples=300, deadline=None)
    @given(table_case())
    @example({
        "docs": [["a b"], ["a", "b"]], "fit_rows": [0, 1], "transform_rows": [0, 1],
        "n_lo": 1, "n_hi": 2, "min_df": 1, "max_df_ratio": 1.0,
    })
    def test_table_rows_and_token_lists_agree(self, case):
        """A document is counted alike as a table row and as a token list,
        even where a token is empty or holds a space: the lookup of the
        fitted rows' token lists finds each n-gram in as many of them as
        the table's document frequency says."""
        docs = case["docs"]
        table = NgramTable.build(docs, case["n_lo"], case["n_hi"])
        try:
            vocab = fit_vocab(
                table.rows(case["fit_rows"]), case["n_lo"], case["n_hi"], 1, 1.0
            )
        except ValueError:
            assume(False)
        counts = transform_counts(vocab, [docs[i] for i in case["fit_rows"]]).matrix
        assert np.bincount(counts.indices, minlength=len(vocab)).tolist() == list(vocab.df)


lookup_token = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def lookup_case(draw):
    """A vocabulary fitted on whitespace-free tokens and a batch to look up:
    its documents may be empty, repeat n-grams, or hold tokens ("f", "g")
    that no fitted n-gram holds."""
    n_lo = draw(st.integers(1, 3))
    return {
        "fit_docs": draw(st.lists(st.lists(lookup_token, max_size=7), min_size=1, max_size=8)),
        "n_lo": n_lo,
        "n_hi": draw(st.integers(n_lo, 3)),
        "min_df": draw(st.integers(1, 2)),
        "docs": draw(st.lists(
            st.lists(lookup_token | st.sampled_from(["f", "g"]), max_size=9),
            min_size=1, max_size=6,
        )),
    }


def assert_lookup_equals_reference(vocab, docs):
    want_counts = reference_count_matrix(vocab, docs)
    assert_same_csr(_count_matrix(vocab, docs), want_counts)
    assert_same_csr(transform_counts(vocab, docs).matrix, FeatureMatrix(want_counts).matrix)
    assert_same_csr(
        transform_tfidf(vocab, docs).matrix,
        FeatureMatrix(reference_tfidf_matrix(vocab, docs)).matrix,
    )


class TestKeyedLookup:
    """Token lists are looked up by packed integer n-gram keys, to the same
    counts and TF-IDF, bit for bit, as the string-keyed reference."""

    @settings(max_examples=300, deadline=None)
    @given(lookup_case())
    def test_batches_and_single_documents_equal_reference(self, case):
        try:
            vocab = fit_vocab(case["fit_docs"], case["n_lo"], case["n_hi"], case["min_df"], 1.0)
        except ValueError:
            assume(False)
        docs = case["docs"]
        assert_lookup_equals_reference(vocab, docs)
        for doc in docs:
            assert_lookup_equals_reference(vocab, [doc])
        # a loaded vocabulary derives its keys afresh, to the same result
        assert_lookup_equals_reference(reloaded(vocab), docs)

    def test_no_documents(self):
        vocab = fit_vocab([["a", "b"]], 1, 2, 1, 1.0)
        assert_lookup_equals_reference(vocab, [])
        assert _count_matrix(vocab, []).shape == (0, 3)

    def test_keys_are_derived_on_the_first_token_list_lookup(self):
        vocab = reloaded(fit_vocab([["a", "b"]], 1, 2, 1, 1.0))
        assert "ngram_keys" not in vars(vocab)
        transform_tfidf(vocab, [["a"]])
        assert vars(vocab)["ngram_keys"] is vocab.ngram_keys

    def test_token_with_a_space_is_unknown(self):
        """A fitted n-gram is tokens joined by single spaces, so the n-gram
        "a b" is the tokens "a" and "b"; the token "a b" matches nothing,
        where the string-keyed reference counts it as that bigram."""
        vocab = fit_vocab([["a", "b"]], 1, 2, 1, 1.0)
        assert vocab.ngrams == ("a", "a b", "b")
        docs = [["a b"], ["a", "b"], ["b", "a b", "a"]]
        assert _count_matrix(vocab, docs).toarray().tolist() == [
            [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 1.0]
        ]
        assert reference_count_matrix(vocab, [["a b"]]).toarray().tolist() == [[0.0, 1.0, 0.0]]

    @pytest.mark.parametrize("n_hi, dtype", [(7, np.int64), (8, object)])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_both_sides_of_the_int64_key_limit(self, n_hi, dtype, data):
        """With 300 distinct tokens the base is 301: keys of up to 7 tokens
        fit int64 (301 + 301^2 + ... + 301^7 < 2^63) and keys of up to 8 do
        not, so they are Python ints. The table built from the fitted
        documents keys them over the same 300 tokens. Either way the
        vocabulary fitted on its rows equals the reference's, and the counts
        equal the reference's, for documents made of pieces of the fitted
        ones (so that long n-grams hit) and of unknown tokens."""
        tokens = [f"t{i}" for i in range(300)]
        rng = np.random.default_rng(n_hi)
        fit_docs = [tokens] + [list(rng.choice(tokens[:12], size=14)) for _ in range(8)]
        table = NgramTable.build(fit_docs, 1, n_hi)
        vocab = fit_vocab(table.rows(range(len(fit_docs))), 1, n_hi, 1, 1.0)
        assert vocab == reference_fit_vocab(fit_docs, 1, n_hi, 1, 1.0)
        keys = vocab.ngram_keys
        assert (keys.base, keys.dtype) == (301, dtype)
        piece = st.builds(
            lambda doc, start, width: doc[start : start + width],
            st.sampled_from(fit_docs), st.integers(0, 299), st.integers(0, n_hi + 2),
        )
        doc = st.lists(piece | st.just(["unknown"]), max_size=4).map(
            lambda pieces: [t for p in pieces for t in p]
        )
        assert_lookup_equals_reference(vocab, data.draw(st.lists(doc, min_size=1, max_size=4)))


value = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False) | st.just(0.0)


@st.composite
def dense_block(draw, n_rows=None, max_cols=8):
    """A small float64 array, about half of its cells zero."""
    n = draw(st.integers(0, 6)) if n_rows is None else n_rows
    d = draw(st.integers(0, max_cols))
    cells = draw(st.lists(value, min_size=n * d, max_size=n * d))
    return np.array(cells, dtype=np.float64).reshape(n, d)


class TestCSRMatrixAgainstScipy:
    """Every CSRMatrix operation equals the scipy.sparse one it replaced bit
    for bit: the same sorted indices, row pointers and values, and the same
    dtypes. TF-IDF is compared on token documents here and on vocabularies
    fitted from table rows in TestNgramTable."""

    @settings(max_examples=200, deadline=None)
    @given(dense_block(), st.data())
    def test_rows_columns_and_hstack(self, dense, data):
        want = sparse.csr_matrix(dense)
        got = CSRMatrix.from_dense(dense)
        assert_same_csr(got, want)
        assert np.array_equal(got.toarray(), dense)
        n, d = dense.shape
        idx = data.draw(st.lists(st.integers(0, n - 1), max_size=8) if n else st.just([]))
        assert_same_csr(got.rows(idx), want[idx])
        picked = data.draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d) if d else st.just([]))
        ordered = want[:, picked].tocsr()
        ordered.sort_indices()
        assert_same_csr(got.columns(picked), ordered)
        assert_same_csr(got.columns(sorted(picked)), want[:, sorted(picked)].tocsr())
        other = data.draw(dense_block(n_rows=n))
        assert_same_csr(
            CSRMatrix.hstack([got, CSRMatrix.from_dense(other), got]),
            sparse.hstack([want, sparse.csr_matrix(other), want], format="csr"),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from("abcdefghijkl"), max_size=40), min_size=1, max_size=6),
        st.integers(1, 3),
    )
    def test_tfidf_of_long_documents(self, docs, n_hi):
        """Rows of up to a hundred terms, so the norm's summation order shows."""
        assume(any(docs))
        vocab = fit_vocab(docs, 1, n_hi, 1, 1.0)
        assert_same_csr(
            transform_tfidf(vocab, docs).matrix,
            FeatureMatrix(reference_tfidf_matrix(vocab, docs)).matrix,
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(*(
        dense_block(n_rows=n, max_cols=c) for c in (6, 4)
    ), st.lists(st.lists(value, min_size=17, max_size=17), min_size=n, max_size=n))))
    def test_assembly(self, blocks):
        word, pos, scalars = blocks
        std = Standardizer.fit(np.array(scalars))
        fm, _ = assemble_features(FeatureMatrix(word), FeatureMatrix(pos), scalars, std)
        scalars = std.apply(np.array(scalars))
        want = reference_assemble(sparse.csr_matrix(word), sparse.csr_matrix(pos), scalars)
        assert_same_csr(fm.matrix, want)

    @settings(max_examples=200, deadline=None)
    @given(dense_block(), st.integers(1, 3), st.data())
    def test_margins(self, dense, k, data):
        d = dense.shape[1]
        weights = np.array(
            data.draw(st.lists(value, min_size=k * d, max_size=k * d)), dtype=np.float64
        ).reshape(k, d)
        bias = np.array(data.draw(st.lists(value, min_size=k, max_size=k)), dtype=np.float64)
        model = LinearModel(weights, bias, tuple(range(k)), "hinge", "l2", 1.0)
        got = decision_margins(model, CSRMatrix.from_dense(dense))
        want = reference_margins(sparse.csr_matrix(dense), weights, bias)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestAssembleFeatures:
    def test_column_arithmetic(self):
        word = FeatureMatrix(np.zeros((2, 100)))
        pos = FeatureMatrix(np.zeros((2, 50)))
        fm, _ = assemble_features(
            word, pos, np.hstack([np.zeros((2, 4)), np.ones((2, 2)), np.zeros((2, 11))])
        )
        assert fm.n_cols == 100 + 50 + 4 + 2 + 11 == 167

    def test_standardized_columns_zero_mean(self):
        rng = np.random.default_rng(1)
        word, pos, _ = tiny_blocks(30)
        sent = rng.random((30, 4))
        read = rng.random((30, 2)) * 50
        surf = rng.integers(0, 9, (30, 11)).astype(float)
        scalars = np.hstack([sent, read, surf])
        fm, _ = assemble_features(word, pos, scalars, Standardizer.fit(scalars))
        scalars = fm.matrix.toarray()[:, 5:]
        assert np.abs(scalars.mean(axis=0)).max() < 1e-9

    def test_zero_variance_column_passes_as_zeros(self):
        word, pos, scalars = tiny_blocks(5)  # all rows identical
        fm, _ = assemble_features(word, pos, scalars, Standardizer.fit(scalars))
        scalars = fm.matrix.toarray()[:, 5:]
        assert np.all(scalars == 0.0)

    def test_stored_transform_reapplies(self):
        rng = np.random.default_rng(2)
        word, pos, _ = tiny_blocks(10)
        scalars = rng.random((10, 17))
        std = Standardizer.fit(scalars)
        word2, pos2, _ = tiny_blocks(3)
        fm2, std2 = assemble_features(word2, pos2, scalars[:3], standardizer=std)
        assert std2 is std
        expected = std.apply(scalars[:3])
        assert np.allclose(fm2.matrix.toarray()[:, 5:], expected)

    def test_standardize_off_keeps_raw(self):
        word, pos, scalars = tiny_blocks(4)
        fm, std = assemble_features(word, pos, scalars)
        assert std is None
        assert np.allclose(fm.matrix.toarray()[:, 5:9], scalars[:, :4])

    def test_row_mismatch_rejected(self):
        word, pos, scalars = tiny_blocks(4)
        word_bad = FeatureMatrix(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="mismatch"):
            assemble_features(word_bad, pos, scalars)

    @staticmethod
    def tiny_fitted():
        """Fitted features of three word and two POS unigrams, and their
        assembled matrix over the fitted documents."""
        words, tags = [["a", "b", "c"], ["c"]], [["N", "V"], ["N"]]
        fitted = FittedFeatures(
            word_vocab=fit_vocab(words, 1, 1, 1, 1.0),
            pos_vocab=fit_vocab(tags, 1, 1, 1, 1.0),
            standardizer=None,
            selected_columns=None,
        )
        _, _, scalars = tiny_blocks(2)
        fm, _ = assemble_features(
            transform_tfidf(fitted.word_vocab, words),
            transform_tfidf(fitted.pos_vocab, tags),
            scalars,
        )
        return fitted, fm

    def test_registry_order_and_blocks(self):
        # the fitted registry names the assembled columns: word, POS, scalars
        fitted, _ = self.tiny_fitted()
        blocks = [b for b, _ in fitted.registry]
        assert blocks == (
            ["word-ngram"] * 3 + ["pos-ngram"] * 2 + ["sentiment"] * 4
            + ["readability"] * 2 + ["surface"] * 11
        )
        assert fitted.registry[:5] == (
            ("word-ngram", "a"), ("word-ngram", "b"), ("word-ngram", "c"),
            ("pos-ngram", "N"), ("pos-ngram", "V"),
        )
        assert fitted.registry[5] == ("sentiment", "pos")
        assert fitted.registry[9] == ("readability", "fk_grade")

    def test_registry_is_bijection(self):
        fitted, fm = self.tiny_fitted()
        assert len(fitted.registry) == fm.n_cols == len(set(fitted.registry))


class TestFeatureMatrix:
    def test_projection_preserves_values_and_names(self):
        # a column keeps its values, and so its place in the registry order
        m = np.arange(12, dtype=float).reshape(3, 4)
        fm = FeatureMatrix(m)
        assert np.array_equal(fm.project([1, 3]).matrix.toarray(), m[:, [1, 3]])
        assert np.array_equal(fm.project([3, 0]).matrix.toarray(), m[:, [3, 0]])

    def test_projection_out_of_range(self):
        fm = FeatureMatrix(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            fm.project([2])

    def test_projection_negative_or_repeated_column_rejected(self):
        fm = FeatureMatrix(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="out of range"):
            fm.project([-1, 0])
        with pytest.raises(ValueError, match="repeat"):
            fm.project([2, 0, 2])
        assert fm.project([]).n_cols == 0

    @settings(max_examples=150, deadline=None)
    @given(dense_block(max_cols=10), st.data())
    def test_projection_through_a_built_inverse_equals_todays(self, dense, data):
        """A selection's int64 columns and inverse map, built once by
        column_inverse and read by every matrix projected alike (as
        FittedFeatures holds them), project exactly as the full-width map
        built on every call did, for ascending and unsorted selections."""
        d = dense.shape[1]
        picked = data.draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d) if d else st.just([]))
        other = np.array(data.draw(st.lists(value, min_size=3 * d, max_size=3 * d))).reshape(3, d)
        for cols in (sorted(picked), picked):
            held = column_inverse(cols, d)
            for m in (CSRMatrix.from_dense(dense), CSRMatrix.from_dense(other)):
                want = reference_columns(m, cols)
                for got in (m.columns(*held), FeatureMatrix(m).project(*held).matrix,
                            FeatureMatrix(m).project(cols).matrix):
                    assert got.shape == want.shape
                    for name in ("data", "indices", "indptr"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_indices_sorted_within_rows(self):
        m = sparse.csr_matrix(
            (np.array([1.0, 2.0]), np.array([2, 0]), np.array([0, 2])), shape=(1, 3)
        )
        fm = FeatureMatrix(m)
        assert fm.matrix.indices.tolist() == [0, 2]
        assert fm.matrix.data.tolist() == [2.0, 1.0]


class TestSelectL1:
    @staticmethod
    def toy():
        rng = np.random.default_rng(7)
        n = 60
        y = np.array([0] * 30 + [1] * 30)
        separator = np.where(y == 0, -2.0, 2.0) + rng.normal(0, 0.1, n)
        noise = rng.normal(0, 1.0, (n, 20))
        X = np.column_stack([separator, noise])
        return FeatureMatrix(X), y

    def test_keeps_separating_column(self):
        X, y = self.toy()
        keep = select_l1(X, y, C=1.0, tol=1e-5)
        assert 0 in keep

    def test_tiny_c_errors_with_advice(self):
        X, y = self.toy()
        with pytest.raises(ValueError, match="increase C"):
            select_l1(X, y, C=1e-6, tol=1e-5)

    def test_selection_sorted_unique(self):
        X, y = self.toy()
        keep = select_l1(X, y, C=1.0, tol=1e-5)
        assert keep == sorted(set(keep))

    def test_carries_the_selection_fit_meta(self):
        X, y = self.toy()
        keep = select_l1(X, y, C=1.0, tol=1e-5)
        assert len(keep.train_meta) == 2
        assert all(m.converged and m.iterations > 0 for m in keep.train_meta)

    def test_unconverged_fit_warns(self, monkeypatch):
        from hatetriage import linmodel

        fit_logreg = linmodel.fit_logreg
        monkeypatch.setattr(
            linmodel, "fit_logreg", lambda *a, **kw: fit_logreg(*a, **kw, max_iter=1)
        )
        X, y = self.toy()
        with pytest.warns(RuntimeWarning, match=r"C=1\.0, tol=1e-05 .* classes \[0, 1\]"):
            select_l1(X, y, C=1.0, tol=1e-5)

    def test_converged_fit_is_silent(self):
        X, y = self.toy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            select_l1(X, y, C=1.0, tol=1e-5)

    def test_same_columns_on_either_storage(self, monkeypatch):
        """The toy matrix is full, so its fit is held dense; held as CSR it
        keeps the same columns after an equally converged fit."""
        from hatetriage import linmodel

        X, y = self.toy()
        dense = select_l1(X, y, C=1.0, tol=1e-5)
        monkeypatch.setattr(linmodel, "_dense_storage", lambda X: False)
        csr = select_l1(X, y, C=1.0, tol=1e-5)
        assert list(csr) == list(dense)
        assert [m.converged for m in csr.train_meta] == [m.converged for m in dense.train_meta]


class TestStandardizer:
    def test_fit_apply_roundtrip(self):
        rng = np.random.default_rng(3)
        data = rng.random((20, 5)) * 10
        std = Standardizer.fit(data)
        out = std.apply(data)
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert np.abs(out.std(axis=0) - 1).max() < 1e-9

    @pytest.mark.parametrize(
        "means, scales",
        [
            ((0.0,), (1.0, 1.0)),
            ((math.nan,), (1.0,)),
            ((math.inf,), (1.0,)),
            ((0.0,), (0.0,)),
            ((0.0,), (-1.0,)),
            ((0.0,), (math.nan,)),
            ((0.0,), (math.inf,)),
        ],
    )
    def test_malformed_transform_rejected(self, means, scales):
        with pytest.raises(ValueError):
            Standardizer(means, scales)

    def test_width_mismatch(self):
        std = Standardizer.fit(np.random.default_rng(0).random((5, 3)))
        with pytest.raises(ValueError):
            std.apply(np.zeros((2, 4)))

