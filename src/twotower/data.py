"""Interaction-log ingestion and training-example construction.

Raw purchase events ``(user, item, day)`` are turned into next-n-day
prediction examples: each example pairs a pseudo-user (the sequence of items
purchased before a cut day) with one item purchased during the following
horizon window.  This module also owns the month-based split, the degree
filter, the empirical marginals and their per-example log-bias lookup,
negative sampling for the binary-label loss, and shuffled batch iteration.

Pseudo-users are keyed by their exact (truncated) item sequence: two
examples share a user identity iff their sequences are identical.
"""

from __future__ import annotations

import datetime
import logging
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

logger = logging.getLogger(__name__)

UserKey = tuple[int, ...]

# Integer day indices fall into consecutive months of this many days.
DAYS_PER_MONTH = 30

NEGATIVE_STRATEGIES = ("user-marginal", "item-marginal", "product-of-marginals", "uniform")


class IngestError(ValueError):
    """Raised for malformed or empty input logs; carries the line number."""


@dataclass(frozen=True)
class InteractionRecord:
    """One purchase event after vocabulary mapping."""

    user_id: int
    item_id: int
    day: int


@dataclass(frozen=True)
class TrainingExample:
    """A pseudo-user sequence with one target purchase from its horizon window.

    ``pseudo_user`` holds the items bought strictly before ``day``,
    most-recent-last and truncated to the configured maximum length.
    """

    user_id: int
    pseudo_user: UserKey
    target_item: int
    day: int


@dataclass(frozen=True)
class LabeledExample:
    """A (pseudo-user, item) pair with a binary label for the BCE loss."""

    user_id: int
    pseudo_user: UserKey
    target_item: int
    day: int
    label: int


@dataclass
class InteractionLog:
    """Parsed event log: records plus the vocabulary and calendar maps."""

    records: list[InteractionRecord]
    user_vocab: dict[str, int]
    item_vocab: dict[str, int]
    day_to_month: dict[int, int]

    @property
    def num_users(self) -> int:
        return len(self.user_vocab)

    @property
    def num_items(self) -> int:
        return len(self.item_vocab)

    @property
    def num_months(self) -> int:
        return max(self.day_to_month.values()) if self.day_to_month else 0


@dataclass
class EmpiricalMarginals:
    """Empirical pseudo-user and item marginals of a training set.

    The exponentials of each log map sum to one over its support; raw counts
    are kept so that samplers and tests can recompute probabilities exactly.
    """

    log_p_user: dict[UserKey, float]
    log_p_item: dict[int, float]
    count_user: dict[UserKey, int]
    count_item: dict[int, int]
    total: int

    def floor_log(self) -> float:
        """Log-probability assigned to keys unseen in the training set."""
        return -math.log(self.total + 1)

    def log_bias(self, examples: Sequence[TrainingExample]) -> tuple[np.ndarray, np.ndarray]:
        """The bias-correction terms ``log p(u)`` and ``log p(i)`` of each
        example's pseudo-user and target; unseen keys get :meth:`floor_log`."""
        floor = self.floor_log()
        log_p_u = np.fromiter((self.log_p_user.get(ex.pseudo_user, floor) for ex in examples), float, len(examples))
        log_p_i = np.fromiter((self.log_p_item.get(ex.target_item, floor) for ex in examples), float, len(examples))
        return log_p_u, log_p_i


@dataclass
class DatasetSplit:
    """Month-interval split.  Validation deliberately overlaps the final
    training month; only the test month is disjoint from training."""

    train: list[TrainingExample]
    validation: list[TrainingExample]
    test: list[TrainingExample]
    month_index: dict[int, int]


def _parse_day_field(raw: str) -> Union[int, datetime.date]:
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        return datetime.date.fromisoformat(raw)


def ingest_logs(source: Union[IO[str], IO[bytes], Iterable[str]], delimiter: str = ",") -> InteractionLog:
    """Parse a delimited event log into records and dense vocabularies.

    Each line must read ``user,item,date`` where the date is either an
    ISO ``YYYY-MM-DD`` date or a non-negative integer day index.  Integer and
    ISO dates cannot be mixed within one log.  Vocabulary ids are assigned in
    first-appearance order; records come back sorted by ``(user, day)`` with
    the input order preserved for ties.  Duplicate lines are retained: the
    interaction counts drive the empirical marginals downstream.

    For ISO input, day 0 is the earliest date in the log and months are
    calendar months; for integer input, months are consecutive
    ``DAYS_PER_MONTH``-day buckets.  Month ordinals are 1-based.
    """
    if not delimiter:
        raise ValueError("delimiter must not be empty")
    user_vocab: dict[str, int] = {}
    item_vocab: dict[str, int] = {}
    parsed: list[tuple[int, int, Union[int, datetime.date]]] = []
    mode: str | None = None  # "int" or "date"

    for lineno, line in enumerate(source, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(delimiter)
        if len(fields) != 3:
            raise IngestError(f"line {lineno}: expected 3 fields separated by {delimiter!r}, got {len(fields)}")
        user_raw, item_raw, day_raw = (f.strip() for f in fields)
        if not user_raw or not item_raw:
            raise IngestError(f"line {lineno}: empty user or item field")
        try:
            day_value = _parse_day_field(day_raw)
        except ValueError as exc:
            raise IngestError(f"line {lineno}: cannot parse date {day_raw!r}") from exc
        this_mode = "int" if isinstance(day_value, int) else "date"
        if mode is None:
            mode = this_mode
        elif mode != this_mode:
            raise IngestError(f"line {lineno}: mixes integer days with ISO dates")
        if this_mode == "int" and day_value < 0:
            raise IngestError(f"line {lineno}: negative day index {day_value}")
        if user_raw not in user_vocab:
            user_vocab[user_raw] = len(user_vocab)
        if item_raw not in item_vocab:
            item_vocab[item_raw] = len(item_vocab)
        parsed.append((user_vocab[user_raw], item_vocab[item_raw], day_value))

    if not parsed:
        raise IngestError("input log is empty")

    if mode == "date":
        dates = [p[2] for p in parsed]
        epoch: datetime.date = min(dates)  # type: ignore[type-var]
        days = [(d - epoch).days for d in dates]  # type: ignore[operator]
        max_day = max(days)
        epoch_month = epoch.year * 12 + (epoch.month - 1)
        day_to_month = {}
        for d in range(max_day + 1):
            date = epoch + datetime.timedelta(days=d)
            day_to_month[d] = date.year * 12 + (date.month - 1) - epoch_month + 1
    else:
        days = [p[2] for p in parsed]  # type: ignore[misc]
        max_day = max(days)
        day_to_month = {d: d // DAYS_PER_MONTH + 1 for d in range(max_day + 1)}

    records = [InteractionRecord(u, i, day) for (u, i, _), day in zip(parsed, days)]
    records.sort(key=lambda r: (r.user_id, r.day))
    return InteractionLog(records, user_vocab, item_vocab, day_to_month)


def build_examples(
    records: Sequence[InteractionRecord],
    horizon_days: int,
    max_seq_len: int,
) -> list[TrainingExample]:
    """Enumerate next-n-day prediction examples from sorted records.

    For each user and each of their purchase days ``t`` with non-empty prior
    history, one example is emitted per purchase event inside ``[t, t+n)``.
    The pseudo-user is the chronological prior-purchase sequence truncated to
    the most recent ``max_seq_len`` items.  Users without prior history on a
    given day contribute nothing for that day.
    """
    if horizon_days < 1:
        raise ValueError("horizon_days must be >= 1")
    if max_seq_len < 1:
        raise ValueError("max_seq_len must be >= 1")

    examples: list[TrainingExample] = []
    by_user: dict[int, list[InteractionRecord]] = {}
    for rec in records:
        by_user.setdefault(rec.user_id, []).append(rec)

    for user_id in sorted(by_user):
        history = by_user[user_id]  # already day-sorted per ingest contract
        distinct_days = sorted({rec.day for rec in history})
        for cut in distinct_days:
            prior = [rec.item_id for rec in history if rec.day < cut]
            if not prior:
                continue
            pseudo = tuple(prior[-max_seq_len:])
            for rec in history:
                if cut <= rec.day < cut + horizon_days:
                    examples.append(
                        TrainingExample(user_id=user_id, pseudo_user=pseudo, target_item=rec.item_id, day=cut)
                    )
    return examples


def split_by_time(
    examples: Sequence[TrainingExample],
    months_total: int,
    month_index: dict[int, int],
) -> DatasetSplit:
    """Partition examples into train/validation/test month intervals.

    With a span of ``T`` months, training covers months ``1..T-1``,
    validation covers month ``T-1`` (overlapping the last training month by
    construction) and test covers month ``T``.  Examples beyond month ``T``
    are dropped.
    """
    if months_total < 3:
        raise ValueError("months_total must be >= 3")
    train: list[TrainingExample] = []
    validation: list[TrainingExample] = []
    test: list[TrainingExample] = []
    for ex in examples:
        month = month_index[ex.day]
        if month > months_total:
            continue
        if month <= months_total - 1:
            train.append(ex)
        if month == months_total - 1:
            validation.append(ex)
        if month == months_total:
            test.append(ex)
    if not train:
        logger.warning("train split is empty for months_total=%d", months_total)
    return DatasetSplit(train, validation, test, dict(month_index))


def _filter_examples(examples: Sequence[TrainingExample], min_degree: int) -> list[TrainingExample]:
    # Iterated to a fixed point so every survivor meets the threshold within
    # the surviving set itself.
    current = list(examples)
    while True:
        user_deg = Counter(ex.pseudo_user for ex in current)
        item_deg = Counter(ex.target_item for ex in current)
        kept = [ex for ex in current if user_deg[ex.pseudo_user] >= min_degree and item_deg[ex.target_item] >= min_degree]
        if len(kept) == len(current):
            return kept
        current = kept


def filter_sparse(split: DatasetSplit, min_degree: int = 3) -> DatasetSplit:
    """Drop examples whose pseudo-user or target falls below ``min_degree``
    interactions, independently within each split."""
    if min_degree < 1:
        raise ValueError("min_degree must be >= 1")
    return DatasetSplit(
        train=_filter_examples(split.train, min_degree),
        validation=_filter_examples(split.validation, min_degree),
        test=_filter_examples(split.test, min_degree),
        month_index=split.month_index,
    )


def compute_marginals(train_examples: Sequence[TrainingExample]) -> EmpiricalMarginals:
    """Count pseudo-user keys and target items over the training examples."""
    if not train_examples:
        raise ValueError("cannot compute marginals of an empty training set")
    count_user: Counter[UserKey] = Counter(ex.pseudo_user for ex in train_examples)
    count_item: Counter[int] = Counter(ex.target_item for ex in train_examples)
    total = len(train_examples)
    log_p_user = {key: math.log(c / total) for key, c in count_user.items()}
    log_p_item = {item: math.log(c / total) for item, c in count_item.items()}
    return EmpiricalMarginals(log_p_user, log_p_item, dict(count_user), dict(count_item), total)


def sample_negatives_bce(
    train_examples: Sequence[TrainingExample],
    strategy: str,
    num_items: int,
    ratio: int = 1,
    rng_seed: int = 0,
) -> list[LabeledExample]:
    """Expand positives into a labeled set with ``ratio`` negatives each.

    The four strategies realize the noise distributions
    ``p_n(u,i) proportional to {p(u), p(i), p(u)p(i), 1}``:

    * ``user-marginal``   keep the positive's pseudo-user, item uniform over
      the vocabulary (``p_n = p(u)/K``);
    * ``item-marginal``   keep the positive's item, pseudo-user uniform over
      the distinct training keys (``p_n = p(i)/M``);
    * ``product-of-marginals``   pseudo-user and item drawn independently
      from their empirical marginals;
    * ``uniform``   both drawn uniformly from their universes
      (``p_n = 1/(MK)``).

    Negatives inherit the day of the positive they were drawn for, so they
    feed the same monthly batches.
    """
    if strategy not in NEGATIVE_STRATEGIES:
        raise ValueError(f"unknown negative-sampling strategy {strategy!r}; choose from {NEGATIVE_STRATEGIES}")
    if ratio < 1:
        raise ValueError("ratio must be >= 1")

    rng = np.random.default_rng(rng_seed)
    user_keys = sorted({ex.pseudo_user for ex in train_examples})
    key_owner = {}
    for ex in train_examples:
        key_owner.setdefault(ex.pseudo_user, ex.user_id)
    positives = list(train_examples)

    out: list[LabeledExample] = []
    for ex in positives:
        out.append(LabeledExample(ex.user_id, ex.pseudo_user, ex.target_item, ex.day, label=1))
        for _ in range(ratio):
            if strategy == "user-marginal":
                key = ex.pseudo_user
                item = int(rng.integers(num_items))
            elif strategy == "item-marginal":
                key = user_keys[int(rng.integers(len(user_keys)))]
                item = ex.target_item
            elif strategy == "product-of-marginals":
                key = positives[int(rng.integers(len(positives)))].pseudo_user
                item = positives[int(rng.integers(len(positives)))].target_item
            else:  # uniform
                key = user_keys[int(rng.integers(len(user_keys)))]
                item = int(rng.integers(num_items))
            out.append(LabeledExample(key_owner.get(key, ex.user_id), key, item, ex.day, label=0))
    return out


def make_batches(examples: Sequence, batch_size: int, rng: np.random.Generator) -> Iterator[list]:
    """Yield shuffled fixed-size batches of ``examples``.

    The final short batch is emitted as-is.  Identical inputs and generator
    state give an identical batch stream.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = rng.permutation(len(examples))
    for start in range(0, len(examples), batch_size):
        yield [examples[idx] for idx in order[start : start + batch_size]]


def write_examples_tsv(examples: Sequence[TrainingExample], marginals: EmpiricalMarginals, path: str) -> None:
    """Write the multinomial-format example file.

    Columns: user key, space-separated item sequence, target item, and the
    two log-marginal bias terms from ``marginals`` (6 decimal places).
    """
    log_p_u, log_p_i = marginals.log_bias(examples)
    with open(path, "w", encoding="utf-8") as out:
        for ex, lpu, lpi in zip(examples, log_p_u.tolist(), log_p_i.tolist()):
            seq = " ".join(str(i) for i in ex.pseudo_user)
            out.write(f"{ex.user_id}\t{seq}\t{ex.target_item}\t{lpu:.6f}\t{lpi:.6f}\n")


def write_labeled_tsv(examples: Sequence[LabeledExample], path: str) -> None:
    """Write the binary-label example file (bias columns replaced by the label)."""
    with open(path, "w", encoding="utf-8") as out:
        for ex in examples:
            seq = " ".join(str(i) for i in ex.pseudo_user)
            out.write(f"{ex.user_id}\t{seq}\t{ex.target_item}\t{ex.label}\n")


def write_marginals_tsv(marginals: EmpiricalMarginals, path: str) -> None:
    """Write user-key and item marginals with raw counts, one entry per line."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"total\t{marginals.total}\n")
        for key in sorted(marginals.log_p_user):
            seq = " ".join(str(i) for i in key)
            out.write(f"user\t{seq}\t{marginals.count_user[key]}\t{marginals.log_p_user[key]:.6f}\n")
        for item in sorted(marginals.log_p_item):
            out.write(f"item\t{item}\t{marginals.count_item[item]}\t{marginals.log_p_item[item]:.6f}\n")
