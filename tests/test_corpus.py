import pytest
from hypothesis import given
from hypothesis import strategies as st

from hatetriage.corpus import (
    CorpusFormatError,
    Label,
    LabeledTweet,
    corpus_stats,
    crosscheck_labels,
    derive_label,
    parse_corpus,
    stats_report_csv,
    stats_report_text,
    stratified_split,
)

HEADER = b"id,count,hate_speech,offensive_language,neither,class,tweet\n"


def make_tweet(i: int, label: Label) -> LabeledTweet:
    counts = [0, 0, 0]
    counts[label.value] = 3
    return LabeledTweet(
        id=str(i),
        text=f"tweet {i}",
        count_total=3,
        count_hate=counts[0],
        count_offensive=counts[1],
        count_neither=counts[2],
        label=label,
    )


def make_corpus(n_hate: int, n_off: int, n_neither: int) -> list[LabeledTweet]:
    out = []
    for lab, n in [(Label.HATE, n_hate), (Label.OFFENSIVE, n_off), (Label.NEITHER, n_neither)]:
        out.extend(make_tweet(len(out) + j, lab) for j in range(n))
    return out


class TestDeriveLabel:
    def test_strict_majority(self):
        assert derive_label(2, 1, 0) == Label.HATE

    def test_three_way_tie(self):
        assert derive_label(1, 1, 1) is None

    def test_unanimous(self):
        assert derive_label(0, 0, 5) == Label.NEITHER

    def test_two_way_tie(self):
        assert derive_label(2, 2, 0) is None

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            derive_label(0, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            derive_label(-1, 2, 0)

    @given(st.lists(st.integers(0, 9), min_size=3, max_size=3).filter(lambda c: sum(c) > 0))
    def test_permutation_equivariant(self, counts):
        # rotating the counts rotates the winning class the same way
        base = derive_label(*counts)
        rotated = derive_label(counts[2], counts[0], counts[1])
        if base is None:
            assert rotated is None
        else:
            assert rotated == Label((base.value + 1) % 3)


class TestParseCorpus:
    def test_single_row(self):
        recs = parse_corpus(HEADER + b"t1,3,0,3,0,1,some text\n")
        assert len(recs) == 1
        r = recs[0]
        assert r.id == "t1"
        assert r.counts == (0, 3, 0)
        assert r.label == Label.OFFENSIVE
        assert r.text == "some text"

    def test_empty_stream(self):
        assert parse_corpus(b"") == []

    def test_count_mismatch_names_row(self):
        data = HEADER + b"a,3,1,1,1,1,ok\nb,3,1,1,0,0,bad\n"
        with pytest.raises(CorpusFormatError) as e:
            parse_corpus(data)
        assert e.value.row == 2

    def test_wrong_arity_names_row(self):
        with pytest.raises(CorpusFormatError) as e:
            parse_corpus(HEADER + b"a,3,1,1,1\n")
        assert e.value.row == 1

    def test_non_integer_count(self):
        with pytest.raises(CorpusFormatError):
            parse_corpus(HEADER + b"a,3,x,1,1,1,hmm\n")

    def test_missing_column_rejected(self):
        with pytest.raises(CorpusFormatError):
            parse_corpus(b"id,count,tweet\na,0,hi\n")

    @pytest.mark.parametrize("column", ["count", "hate_speech", "offensive_language", "neither",
                                        "tweet", "id", "class"])
    def test_repeated_header_name_rejected(self, column):
        """A second column of a name the parser reads is an error at row 0
        naming it, not a column that silently wins."""
        header = b"id,count,hate_speech,offensive_language,neither,class,tweet," + column.encode()
        with pytest.raises(CorpusFormatError, match=f"'{column}'") as e:
            parse_corpus(header + b"\na,3,0,0,3,2,hi,3\n")
        assert e.value.row == 0

    def test_repeated_unread_header_name_accepted(self):
        data = b"count,hate_speech,offensive_language,neither,tweet,note,note\n3,0,0,3,hi,x,y\n"
        assert parse_corpus(data)[0].text == "hi"

    def test_columns_matched_by_name_not_position(self):
        data = b"tweet,neither,offensive_language,hate_speech,count,id\nhi,0,0,3,3,z\n"
        recs = parse_corpus(data)
        assert recs[0].label == Label.HATE
        assert recs[0].id == "z"

    def test_unnamed_index_column(self):
        data = b",count,hate_speech,offensive_language,neither,class,tweet\n0,3,0,0,3,2,hi\n"
        assert parse_corpus(data)[0].id == "0"

    def test_id_defaults_to_ordinal(self):
        data = b"count,hate_speech,offensive_language,neither,tweet\n3,3,0,0,hi\n3,0,3,0,yo\n"
        assert [r.id for r in parse_corpus(data)] == ["0", "1"]

    def test_quoted_tweet_with_commas(self):
        data = HEADER + b'a,3,0,0,3,2,"hi, there ""friend"""\n'
        assert parse_corpus(data)[0].text == 'hi, there "friend"'

    def test_tie_row_keeps_record_without_label(self):
        data = HEADER + b"a,4,2,2,0,0,hmm\n"
        recs = parse_corpus(data)
        assert recs[0].label is None

    def test_undecodable_bytes_rejected(self):
        with pytest.raises(UnicodeDecodeError):
            parse_corpus(HEADER + b"a,3,0,0,3,2,\xff\xfe\n")

    def test_byte_order_mark_dropped(self):
        bom = b"\xef\xbb\xbf"
        recs = parse_corpus(bom + HEADER + b"a,3,0,0,3,2,hi\n")
        assert [(r.id, r.text, r.label) for r in recs] == [("a", "hi", Label.NEITHER)]
        unnamed = b",count,hate_speech,offensive_language,neither,class,tweet\n0,3,0,0,3,2,hi\n"
        recs = parse_corpus(bom + unnamed)
        assert [(r.id, r.text, r.label) for r in recs] == [("0", "hi", Label.NEITHER)]

    def test_only_a_leading_byte_order_mark_dropped(self):
        recs = parse_corpus(HEADER + "a,3,0,0,3,2,\ufeffhi\n".encode("utf-8"))
        assert recs[0].text == "\ufeffhi"

    def test_two_coder_row_gets_no_label(self):
        data = HEADER + b"a,2,2,0,0,0,hm\n"
        assert parse_corpus(data)[0].label is None

    def test_crosscheck_flags_disagreement(self):
        data = HEADER + b"a,3,3,0,0,0,x\nb,3,0,3,0,2,y\n"
        assert crosscheck_labels(parse_corpus(data)) == ["b"]

    def test_derived_label_matches_class_column_when_consistent(self):
        rows = [b"a,3,3,0,0,0,x", b"b,3,0,3,0,1,y", b"c,6,1,1,4,2,z"]
        recs = parse_corpus(HEADER + b"\n".join(rows) + b"\n")
        for r in recs:
            assert r.label == r.claimed_label


class TestLabeledTweet:
    def test_count_sum_enforced(self):
        with pytest.raises(ValueError):
            LabeledTweet("a", "x", 3, 1, 1, 0)

    def test_label_requires_three_coders(self):
        with pytest.raises(ValueError):
            LabeledTweet("a", "x", 2, 2, 0, 0, label=Label.HATE)


class TestCorpusStats:
    def test_single_unanimous_record(self):
        stats = corpus_stats([make_tweet(0, Label.HATE)])
        assert stats.majority_share[Label.HATE] == 1.0
        assert stats.unanimous_share[Label.HATE] == 1.0
        assert stats.agreement == 1.0

    def test_shares_use_total_denominator(self):
        # one tie row dilutes the shares
        recs = [
            make_tweet(0, Label.OFFENSIVE),
            LabeledTweet("t", "x", 4, 2, 2, 0, label=None),
        ]
        stats = corpus_stats(recs)
        assert stats.n_total == 2
        assert stats.n_labeled == 1
        assert stats.majority_share[Label.OFFENSIVE] == 0.5

    def test_majority_shares_sum_to_labeled_mass(self):
        recs = make_corpus(2, 5, 3) + [LabeledTweet("t", "x", 4, 2, 2, 0)]
        stats = corpus_stats(recs)
        total = sum(stats.majority_share.values())
        assert total == pytest.approx(stats.n_labeled / stats.n_total)

    def test_agreement_mixes_majorities(self):
        recs = [
            LabeledTweet("a", "x", 3, 2, 1, 0, label=Label.HATE),
            make_tweet(1, Label.NEITHER),
        ]
        assert corpus_stats(recs).agreement == pytest.approx((2 / 3 + 1.0) / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats([])

    def test_report_text_round_trips_keys(self):
        text = stats_report_text(corpus_stats(make_corpus(1, 2, 1)))
        keys = [line.split("=")[0] for line in text.strip().splitlines()]
        assert keys[:2] == ["n_total", "n_labeled"]
        assert "majority_share_hate" in keys
        assert "agreement" in keys

    def test_report_csv_has_header_and_rows(self):
        out = stats_report_csv(corpus_stats(make_corpus(1, 2, 1)))
        lines = out.strip().splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == 10


class TestStratifiedSplit:
    def test_counting_argument_100_records(self):
        recs = make_corpus(5, 76, 19)
        train, hold = stratified_split(recs, 0.10, seed=7)
        assert len(train) + len(hold) == 100
        sizes = {
            lab: sum(1 for r in hold if r.label == lab)
            for lab in (Label.HATE, Label.OFFENSIVE, Label.NEITHER)
        }
        assert sizes[Label.HATE] in (0, 1)
        assert sizes[Label.OFFENSIVE] in (7, 8)
        assert sizes[Label.NEITHER] in (1, 2)

    def test_same_seed_identical(self):
        recs = make_corpus(5, 20, 10)
        assert stratified_split(recs, 0.2, 3) == stratified_split(recs, 0.2, 3)

    def test_different_seed_differs(self):
        recs = make_corpus(5, 40, 20)
        a = stratified_split(recs, 0.2, 1)
        b = stratified_split(recs, 0.2, 2)
        assert a != b

    def test_two_records_forced_partition(self):
        recs = [make_tweet(0, Label.HATE), make_tweet(1, Label.OFFENSIVE)]
        train, hold = stratified_split(recs, 0.5, seed=0)
        assert len(train) == 1 and len(hold) == 1

    def test_partition_is_exact(self):
        recs = make_corpus(7, 31, 12)
        train, hold = stratified_split(recs, 0.25, seed=5)
        ids = sorted(r.id for r in train) + sorted(r.id for r in hold)
        assert sorted(ids) == sorted(r.id for r in recs)
        assert len(set(ids)) == len(recs)

    def test_unlabeled_record_rejected(self):
        recs = [make_tweet(0, Label.HATE), LabeledTweet("t", "x", 4, 2, 2, 0)]
        with pytest.raises(ValueError):
            stratified_split(recs, 0.5, 0)

    def test_fraction_bounds(self):
        recs = make_corpus(2, 2, 2)
        for frac in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                stratified_split(recs, frac, 0)

    def test_multirecord_class_must_keep_train_side(self):
        recs = make_corpus(2, 2, 0)
        with pytest.raises(ValueError, match="hate|offensive"):
            stratified_split(recs, 0.9, 0)

    def test_empty_holdout_rejected(self):
        recs = make_corpus(0, 2, 0)
        with pytest.raises(ValueError):
            stratified_split(recs, 0.01, 0)

    @given(
        st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)).filter(
            lambda t: sum(t) >= 4
        ),
        st.floats(0.2, 0.5),
        st.integers(0, 99),
    )
    def test_proportions_within_one_record(self, sizes, frac, seed):
        recs = make_corpus(*sizes)
        try:
            train, hold = stratified_split(recs, frac, seed)
        except ValueError:
            return  # degenerate rounding rejected by contract
        for lab, n in zip((Label.HATE, Label.OFFENSIVE, Label.NEITHER), sizes):
            got = sum(1 for r in hold if r.label == lab)
            assert abs(got - frac * n) <= 1.0
