"""Labeled-corpus ingestion, majority-label derivation, prevalence statistics,
and deterministic stratified splitting.

The CSV layout follows the public release of the crowd-labeled data: a header
row naming at least {count, hate_speech, offensive_language, neither, tweet},
with optional id and class columns. Columns are matched by header name, never
by position. The class column, when present, is kept for cross-checking but
the label is always recomputed from the three count columns.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field
from enum import IntEnum


class Label(IntEnum):
    HATE = 0
    OFFENSIVE = 1
    NEITHER = 2

    @property
    def display(self) -> str:
        return self.name.lower()


LABELS = (Label.HATE, Label.OFFENSIVE, Label.NEITHER)


class CorpusFormatError(ValueError):
    """Raised for malformed rows; carries the 1-based data row number."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


@dataclass(frozen=True)
class LabeledTweet:
    id: str
    text: str
    count_total: int
    count_hate: int
    count_offensive: int
    count_neither: int
    label: Label | None = None
    claimed_label: Label | None = field(default=None, compare=False)

    def __post_init__(self):
        counts = (self.count_hate, self.count_offensive, self.count_neither)
        if min(self.count_total, *counts) < 0:
            raise ValueError("coder counts must be non-negative")
        if sum(counts) != self.count_total:
            raise ValueError(
                f"coder counts {counts} do not sum to count_total={self.count_total}"
            )
        # a derived label implies at least three coders
        if self.label is not None and self.count_total < 3:
            raise ValueError("labeled records require count_total >= 3")

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.count_hate, self.count_offensive, self.count_neither)


@dataclass(frozen=True)
class CorpusStats:
    n_total: int
    n_labeled: int
    majority_share: dict[Label, float]
    unanimous_share: dict[Label, float]
    agreement: float


def derive_label(count_hate: int, count_offensive: int, count_neither: int) -> Label | None:
    """Strict-majority label: the unique argmax of the three coder counts,
    or None on a tie (such records stay in the corpus but unlabeled)."""
    counts = (count_hate, count_offensive, count_neither)
    if any(c < 0 for c in counts):
        raise ValueError("coder counts must be non-negative")
    if sum(counts) == 0:
        raise ValueError("derive_label requires at least one coder vote")
    top = max(counts)
    winners = [i for i, c in enumerate(counts) if c == top]
    if len(winners) != 1:
        return None
    return Label(winners[0])


_REQUIRED = ("count", "hate_speech", "offensive_language", "neither", "tweet")
# every column the parser reads by name
_READ = _REQUIRED + ("id", "class")


def parse_corpus(source: bytes | io.BufferedIOBase) -> list[LabeledTweet]:
    """Parse the labeled corpus from CSV bytes (RFC-4180, UTF-8, header row).

    Labels are recomputed from the count columns; an inconsistent row (counts
    not summing to the coder total) raises CorpusFormatError with its row
    number, and a header that names a column the parser reads more than
    once raises it at row 0. Undecodable bytes are a hard error so token
    counts stay reproducible. A leading UTF-8 byte-order mark, as
    spreadsheet programs write one, is dropped.
    """
    raw = source if isinstance(source, bytes) else source.read()
    text = raw.decode("utf-8-sig")  # strict: bad bytes must not be smoothed over
    if not text.strip():
        return []
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    names = [name.strip() for name in header]
    repeated = [c for c in _READ if names.count(c) > 1]
    if repeated:
        raise CorpusFormatError(0, f"header names columns {repeated} more than once")
    cols = {name: i for i, name in enumerate(names)}
    missing = [c for c in _REQUIRED if c not in cols]
    if missing:
        raise CorpusFormatError(0, f"header is missing columns {missing}")
    id_col = cols.get("id")
    if id_col is None and header and header[0].strip() == "":
        id_col = 0  # pandas-style unnamed index column
    class_col = cols.get("class")

    def intfield(row: list[str], col: int, name: str, rownum: int) -> int:
        try:
            return int(row[col])
        except ValueError:
            raise CorpusFormatError(rownum, f"non-integer {name}: {row[col]!r}") from None

    records: list[LabeledTweet] = []
    for rownum, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise CorpusFormatError(rownum, f"expected {len(header)} fields, got {len(row)}")
        total = intfield(row, cols["count"], "count", rownum)
        ch = intfield(row, cols["hate_speech"], "hate_speech", rownum)
        co = intfield(row, cols["offensive_language"], "offensive_language", rownum)
        cn = intfield(row, cols["neither"], "neither", rownum)
        if min(total, ch, co, cn) < 0:
            raise CorpusFormatError(rownum, "negative coder count")
        if ch + co + cn != total:
            raise CorpusFormatError(
                rownum, f"counts {ch}+{co}+{cn} do not sum to count={total}"
            )
        claimed = None
        if class_col is not None and row[class_col].strip() != "":
            code = intfield(row, class_col, "class", rownum)
            if code not in (0, 1, 2):
                raise CorpusFormatError(rownum, f"class code out of range: {code}")
            claimed = Label(code)
        # label only for records with the three-coder minimum
        label = derive_label(ch, co, cn) if total >= 3 else None
        records.append(
            LabeledTweet(
                id=row[id_col] if id_col is not None else str(rownum - 1),
                text=row[cols["tweet"]],
                count_total=total,
                count_hate=ch,
                count_offensive=co,
                count_neither=cn,
                label=label,
                claimed_label=claimed,
            )
        )
    return records


def crosscheck_labels(records: list[LabeledTweet]) -> list[str]:
    """Ids of records whose recorded class column disagrees with the label
    recomputed from counts (rows lacking either side are skipped)."""
    return [
        r.id
        for r in records
        if r.claimed_label is not None and r.label is not None and r.label != r.claimed_label
    ]


def corpus_stats(records: list[LabeledTweet]) -> CorpusStats:
    """Per-class strict-majority and unanimous shares (over all records, so
    tie rows dilute the shares) plus mean plurality agreement."""
    if not records:
        raise ValueError("corpus_stats requires a non-empty corpus")
    n = len(records)
    majority = {lab: 0 for lab in LABELS}
    unanimous = {lab: 0 for lab in LABELS}
    agreement_sum = 0.0
    n_coded = 0
    n_labeled = 0
    for r in records:
        if r.label is not None:
            n_labeled += 1
            majority[r.label] += 1
            if r.counts[r.label] == r.count_total:
                unanimous[r.label] += 1
        if r.count_total > 0:
            n_coded += 1
            agreement_sum += max(r.counts) / r.count_total
    return CorpusStats(
        n_total=n,
        n_labeled=n_labeled,
        majority_share={lab: majority[lab] / n for lab in LABELS},
        unanimous_share={lab: unanimous[lab] / n for lab in LABELS},
        agreement=agreement_sum / n_coded if n_coded else 0.0,
    )


def stats_report_text(stats: CorpusStats) -> str:
    """Flat key=value rendering of corpus statistics."""
    lines = [f"n_total={stats.n_total}", f"n_labeled={stats.n_labeled}"]
    for lab in LABELS:
        lines.append(f"majority_share_{lab.display}={stats.majority_share[lab]:.6f}")
    for lab in LABELS:
        lines.append(f"unanimous_share_{lab.display}={stats.unanimous_share[lab]:.6f}")
    lines.append(f"agreement={stats.agreement:.6f}")
    return "\n".join(lines) + "\n"


def stats_report_csv(stats: CorpusStats) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["metric", "value"])
    for line in stats_report_text(stats).splitlines():
        key, value = line.split("=", 1)
        w.writerow([key, value])
    return out.getvalue()


def stratified_split(
    records: list[LabeledTweet], holdout_fraction: float, seed: int
) -> tuple[list[LabeledTweet], list[LabeledTweet]]:
    """Deterministic class-stratified partition into (train, holdout).

    Per-class holdout sizes are the floor of the target with the remainder
    going to the classes with the largest fractional parts, so the overall
    holdout size is round(fraction * n) and each class is within one record
    of its exact proportion. A class may contribute zero records to the
    holdout, but a class losing its entire training side is an error.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must lie in (0, 1)")
    if any(r.label is None for r in records):
        raise ValueError("stratified_split requires every record to be labeled")
    if not records:
        raise ValueError("stratified_split requires a non-empty corpus")

    by_class: dict[Label, list[int]] = {}
    for i, r in enumerate(records):
        by_class.setdefault(r.label, []).append(i)

    n = len(records)
    total_target = round(holdout_fraction * n)
    classes = sorted(by_class)
    floors = {}
    remainders = []
    for lab in classes:
        exact = holdout_fraction * len(by_class[lab])
        floors[lab] = int(exact)
        remainders.append((-(exact - int(exact)), lab.value, lab))
    leftover = total_target - sum(floors.values())
    for _, _, lab in sorted(remainders)[: max(leftover, 0)]:
        floors[lab] += 1

    rng = random.Random(seed)
    train: list[int] = []
    holdout: list[int] = []
    for lab in classes:
        idx = list(by_class[lab])
        rng.shuffle(idx)
        take = floors[lab]
        # a multi-record class must keep a training side; a singleton class
        # may be forced wholly onto one side by the rounding
        if take >= len(idx) and len(idx) > 1:
            raise ValueError(
                f"holdout_fraction {holdout_fraction} leaves no training records "
                f"for class {lab.display}"
            )
        holdout.extend(idx[:take])
        train.extend(idx[take:])
    if not holdout or not train:
        side = "holdout" if not holdout else "train"
        raise ValueError(f"holdout_fraction {holdout_fraction} produces an empty {side}")
    train.sort()
    holdout.sort()
    return [records[i] for i in train], [records[i] for i in holdout]
