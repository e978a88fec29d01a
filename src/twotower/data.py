"""Interaction-log ingestion and training-example construction.

Raw purchase events ``(user, item, day)`` are turned into next-n-day
prediction examples: each example pairs a pseudo-user (the sequence of items
purchased before a cut day) with one item purchased during the following
horizon window.  This module also owns the month-based split, the degree
filter, the empirical marginals and their per-example log-bias lookup,
negative sampling for the binary-label loss, and shuffled batch iteration.

Everything is held as integer columns: events as ``(user, item, day,
month)``, examples as ``(user, key, target, day, month)``.  Each distinct
pseudo-user sequence is stored once, as a row of one CSR ``Sequences`` table
shared by the train, validation and test examples; its row is its key id.
Key ids follow the sorted order of the sequences as tuples, and two examples
share a user identity iff their key ids are equal.
"""

from __future__ import annotations

import datetime
import itertools
import logging
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import IO, Union

import numpy as np

logger = logging.getLogger(__name__)

# Integer day indices fall into consecutive months of this many days.
DAYS_PER_MONTH = 30
# Day indices stay below this bound, so day arithmetic never leaves int64.
MAX_DAY = 2**53

NEGATIVE_STRATEGIES = ("user-marginal", "item-marginal", "product-of-marginals", "uniform")


class IngestError(ValueError):
    """Raised for malformed or empty input logs; carries the line number."""


@dataclass(frozen=True)
class Sequences:
    """Item sequences in CSR form: sequence ``k`` is ``items[offsets[k]:offsets[k + 1]]``."""

    offsets: np.ndarray  # (K + 1,) int64, starting at 0
    items: np.ndarray  # (offsets[-1],) int64

    @classmethod
    def of(cls, sequences: Iterable[Sequence[int]]) -> "Sequences":
        sequences = list(sequences)
        offsets = np.r_[0, np.cumsum([len(seq) for seq in sequences], dtype=np.int64)]
        return cls(offsets, np.fromiter(itertools.chain.from_iterable(sequences), dtype=np.int64, count=offsets[-1]))

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, k: int) -> tuple[int, ...]:
        return tuple(self.items[self.offsets[k] : self.offsets[k + 1]].tolist())

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return (self[k] for k in range(len(self)))

    def take(self, rows: np.ndarray) -> "Sequences":
        """The sequences at ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        return Sequences(np.r_[0, np.cumsum(lengths)], self.items[_ranges(starts, lengths)])


@dataclass
class Events:
    """Purchase events as columns, sorted by ``(user, day)`` with the input
    order kept for ties; ``month`` is each event's 1-based month."""

    user: np.ndarray
    item: np.ndarray
    day: np.ndarray
    month: np.ndarray

    def __len__(self) -> int:
        return self.user.size


@dataclass
class InteractionLog:
    """Parsed event log: the events, the vocabularies and ``epoch``, the date
    of day 0 of an ISO-dated log (``None`` for integer days)."""

    records: Events
    user_vocab: dict[str, int]
    item_vocab: dict[str, int]
    epoch: datetime.date | None

    @property
    def num_users(self) -> int:
        return len(self.user_vocab)

    @property
    def num_items(self) -> int:
        return len(self.item_vocab)

    @property
    def num_months(self) -> int:
        return int(self.records.month.max())

    def first_day(self, month: int) -> int:
        """The first day of ``month`` (day 0 in month 1), or the day after the
        last event when the log ends before ``month``."""
        if month > self.num_months:
            return int(self.records.day.max()) + 1
        if self.epoch is None:
            return (month - 1) * DAYS_PER_MONTH
        year, month0 = divmod(self.epoch.year * 12 + self.epoch.month - 1 + month - 1, 12)
        return max(0, (datetime.date(year, month0 + 1, 1) - self.epoch).days)


@dataclass
class Examples:
    """Training examples as columns: row ``r`` pairs pseudo-user ``key[r]`` (a
    row of the shared ``table``), cut for ``user[r]`` on ``day[r]`` in
    ``month[r]``, with item ``target[r]``; a binary-label set adds ``label``."""

    table: Sequences
    user: np.ndarray
    key: np.ndarray
    target: np.ndarray
    day: np.ndarray
    month: np.ndarray
    label: np.ndarray | None = None

    def __len__(self) -> int:
        return self.user.size

    def take(self, rows: np.ndarray) -> "Examples":
        """The examples at ``rows`` (indices or a mask), sharing the table."""
        label = None if self.label is None else self.label[rows]
        return Examples(
            self.table, self.user[rows], self.key[rows], self.target[rows], self.day[rows], self.month[rows], label
        )

    def pseudo_users(self) -> Sequences:
        """Each example's pseudo-user sequence, in row order."""
        return self.table.take(self.key)


@dataclass
class EmpiricalMarginals:
    """Empirical pseudo-user and item marginals of a training set: counts
    per key id and per item id, and ``log(count / total)``, where a zero
    count gets :meth:`floor_log`.  The exponentials of each log sum to one
    over the counted support."""

    count_user: np.ndarray
    count_item: np.ndarray
    total: int = field(init=False)
    log_p_user: np.ndarray = field(init=False)
    log_p_item: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.total = int(self.count_item.sum())
        self.log_p_user = self._log_p(self.count_user)
        self.log_p_item = self._log_p(self.count_item)

    def floor_log(self) -> float:
        """Log-probability assigned to keys unseen in the training set."""
        return -math.log(self.total + 1)

    def _log_p(self, counts: np.ndarray) -> np.ndarray:
        # math.log once per distinct count: np.log differs from it in the
        # last bit for some ratios.
        distinct, inverse = np.unique(counts, return_inverse=True)
        logs = [math.log(c / self.total) if c else self.floor_log() for c in distinct.tolist()]
        return np.array(logs, dtype=float)[inverse]

    def log_bias(self, examples: Examples) -> tuple[np.ndarray, np.ndarray]:
        """The bias-correction terms ``log p(u)`` and ``log p(i)`` of each
        example's pseudo-user and target."""
        return self.log_p_user[examples.key], self.log_p_item[examples.target]


@dataclass
class DatasetSplit:
    """Month-interval split.  Validation deliberately overlaps the final
    training month; only the test month is disjoint from training."""

    train: Examples
    validation: Examples
    test: Examples


def _parse_day_field(raw: str) -> Union[int, datetime.date]:
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        return datetime.date.fromisoformat(raw)


def ingest_logs(source: Union[IO[str], IO[bytes], Iterable[str]], delimiter: str = ",") -> InteractionLog:
    """Parse a delimited event log into event columns and dense vocabularies.

    Each line must read ``user,item,date`` where the date is either an
    ISO ``YYYY-MM-DD`` date or a non-negative integer day index.  Integer and
    ISO dates cannot be mixed within one log.  Vocabulary ids are assigned in
    first-appearance order; events come back sorted by ``(user, day)`` with
    the input order preserved for ties.  Duplicate lines are retained: the
    interaction counts drive the empirical marginals downstream.  A leading
    UTF-8 byte-order mark is dropped; a NUL byte in a field is an error.

    For ISO input, day 0 is the earliest date in the log and months are
    calendar months; for integer input, months are consecutive
    ``DAYS_PER_MONTH``-day buckets.  Month ordinals are 1-based.
    """
    if not delimiter:
        raise ValueError("delimiter must not be empty")
    user_vocab: dict[str, int] = {}
    item_vocab: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    values: list = []
    mode: str | None = None  # "int" or "date"

    for lineno, line in enumerate(source, start=1):
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        if lineno == 1:
            line = line.removeprefix("\ufeff")  # a UTF-8 byte-order mark is not part of the first user
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "\0" in line:
            raise IngestError(f"line {lineno}: NUL byte in a field")
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
        if this_mode == "int" and day_value >= MAX_DAY:
            raise IngestError(f"line {lineno}: day index {day_value} is not below {MAX_DAY}")
        if user_raw not in user_vocab:
            user_vocab[user_raw] = len(user_vocab)
        if item_raw not in item_vocab:
            item_vocab[item_raw] = len(item_vocab)
        users.append(user_vocab[user_raw])
        items.append(item_vocab[item_raw])
        values.append(day_value)

    if not values:
        raise IngestError("input log is empty")

    epoch = None
    if mode == "date":
        epoch = min(values)
        epoch_month = epoch.year * 12 + epoch.month - 1
        day = np.array([(date - epoch).days for date in values], dtype=np.int64)
        month = np.array([date.year * 12 + date.month - epoch_month for date in values], dtype=np.int64)
    else:
        day = np.array(values, dtype=np.int64)
        month = day // DAYS_PER_MONTH + 1
    user = np.array(users, dtype=np.int64)
    order = np.lexsort((day, user))
    events = Events(user[order], np.array(items, dtype=np.int64)[order], day[order], month[order])
    return InteractionLog(events, user_vocab, item_vocab, epoch)


def build_examples(records: Events, horizon_days: int, max_seq_len: int) -> Examples:
    """Enumerate next-n-day prediction examples from sorted events.

    For each user and each of their purchase days ``t`` with non-empty prior
    history, one example is emitted per purchase event inside ``[t, t+n)``.
    The pseudo-user is the chronological prior-purchase sequence truncated to
    the most recent ``max_seq_len`` items.  Users without prior history on a
    given day contribute nothing for that day.  Examples come in the order
    user, cut day, target event.
    """
    if horizon_days < 1:
        raise ValueError("horizon_days must be >= 1")
    if max_seq_len < 1:
        raise ValueError("max_seq_len must be >= 1")
    user, item, day = records.user, records.item, records.day
    first_of_user = np.r_[True, user[1:] != user[:-1]]
    # A cut is the first event of each purchase day of a user but the first.
    cuts = np.flatnonzero(~first_of_user & np.r_[True, day[1:] != day[:-1]])
    user_start = np.maximum.accumulate(np.where(first_of_user, np.arange(len(records)), 0))

    # Each cut's window ends at the user's first event on or after day t + n:
    # events sort by (user, rank of day) as one integer.
    distinct_days = np.unique(day)
    width = distinct_days.size + 1
    sort_key = user * width + np.searchsorted(distinct_days, day)
    horizon_end = day[cuts] + min(horizon_days, MAX_DAY)
    ends = np.searchsorted(sort_key, user[cuts] * width + np.searchsorted(distinct_days, horizon_end))

    # The pseudo-user of a cut is the user's items before it, at most max_seq_len,
    # laid out as rows padded with -1 so that row order is tuple order.
    starts = np.maximum(user_start[cuts], cuts - max_seq_len)
    lengths = cuts - starts
    padded = np.full((cuts.size, int(lengths.max(initial=0))), -1, dtype=np.int64)
    filled = np.arange(padded.shape[1]) < lengths[:, None]
    padded[filled] = item[_ranges(starts, lengths)]
    distinct, cut_key = np.unique(padded, axis=0, return_inverse=True)
    kept = distinct >= 0
    table = Sequences(np.r_[0, np.cumsum(kept.sum(axis=1))], distinct[kept])

    counts = ends - cuts
    source = np.repeat(np.arange(cuts.size), counts)
    target = item[_ranges(cuts, counts)]
    return Examples(table, user[cuts][source], cut_key.ravel()[source], target, day[cuts][source], records.month[cuts][source])


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated positions ``starts[k], ..., starts[k] + lengths[k] - 1``."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)


def split_by_time(examples: Examples, months_total: int) -> DatasetSplit:
    """Partition examples into train/validation/test month intervals.

    With a span of ``T`` months, training covers months ``1..T-1``,
    validation covers month ``T-1`` (overlapping the last training month by
    construction) and test covers month ``T``.  Examples beyond month ``T``
    are dropped.
    """
    if months_total < 3:
        raise ValueError("months_total must be >= 3")
    month = examples.month
    train = examples.take(month <= months_total - 1)
    if not len(train):
        logger.warning("train split is empty for months_total=%d", months_total)
    return DatasetSplit(train, examples.take(month == months_total - 1), examples.take(month == months_total))


def _filter_examples(examples: Examples, min_degree: int) -> Examples:
    # Iterated to a fixed point so every survivor meets the threshold within
    # the surviving set itself.
    while True:
        key_degree = np.bincount(examples.key)[examples.key]
        item_degree = np.bincount(examples.target)[examples.target]
        keep = (key_degree >= min_degree) & (item_degree >= min_degree)
        if keep.all():
            return examples
        examples = examples.take(keep)


def filter_sparse(split: DatasetSplit, min_degree: int = 3) -> DatasetSplit:
    """Drop examples whose pseudo-user or target falls below ``min_degree``
    interactions, independently within each split."""
    if min_degree < 1:
        raise ValueError("min_degree must be >= 1")
    return DatasetSplit(*(_filter_examples(part, min_degree) for part in (split.train, split.validation, split.test)))


def compute_marginals(train_examples: Examples, num_items: int) -> EmpiricalMarginals:
    """Count pseudo-user keys (over the whole key table) and target items
    (over the ``num_items`` vocabulary) in the training examples."""
    if not len(train_examples):
        raise ValueError("cannot compute marginals of an empty training set")
    return EmpiricalMarginals(
        np.bincount(train_examples.key, minlength=len(train_examples.table)),
        np.bincount(train_examples.target, minlength=num_items),
    )


def first_owners(keys: np.ndarray, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, ascending, and the user of each one's first occurrence."""
    distinct, first = np.unique(keys, return_index=True)
    return distinct, users[first]


def smallest_keys(keys: np.ndarray, m: int) -> np.ndarray:
    """The columns of the ``m >= 1`` smallest keys of each row, in no set
    order.  Over i.i.d. keys this draws ``m`` columns without replacement:
    uniform keys give a uniform subset, keys ``-(log w + Gumbel)`` the
    successive draw with weights ``w`` (Gumbel-top-k).  A column keyed above
    every eligible one is never picked while its row holds ``m`` eligible keys."""
    return np.argpartition(keys, m - 1, axis=1)[:, :m]


def sample_negatives_bce(
    train_examples: Examples,
    strategy: str,
    num_items: int,
    ratio: int = 1,
    rng_seed: int = 0,
) -> Examples:
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

    Each positive is followed by its negatives.  A negative belongs to the
    user of its key's first training example, and inherits the day of the
    positive it was drawn for, so it feeds the same monthly batches.
    """
    if strategy not in NEGATIVE_STRATEGIES:
        raise ValueError(f"unknown negative-sampling strategy {strategy!r}; choose from {NEGATIVE_STRATEGIES}")
    if ratio < 1:
        raise ValueError("ratio must be >= 1")

    rng = np.random.default_rng(rng_seed)
    user_keys, owners = first_owners(train_examples.key, train_examples.user)
    owner = np.zeros(len(train_examples.table), dtype=np.int64)
    owner[user_keys] = owners
    vocabulary = np.arange(num_items)
    keys = {"item-marginal": user_keys, "product-of-marginals": train_examples.key, "uniform": user_keys}.get(strategy)
    items = {"user-marginal": vocabulary, "product-of-marginals": train_examples.target, "uniform": vocabulary}.get(strategy)

    draws = len(train_examples) * ratio  # keys first, then items; a strategy draws only the columns it changes
    neg_key = np.repeat(train_examples.key, ratio) if keys is None else keys[rng.integers(keys.size, size=draws)]
    neg_item = np.repeat(train_examples.target, ratio) if items is None else items[rng.integers(items.size, size=draws)]

    def interleave(positive: np.ndarray, negative: np.ndarray) -> np.ndarray:
        return np.column_stack((positive, negative.reshape(-1, ratio))).ravel()

    n = len(train_examples)
    return Examples(
        train_examples.table,
        interleave(train_examples.user, owner[neg_key]),
        interleave(train_examples.key, neg_key),
        interleave(train_examples.target, neg_item),
        np.repeat(train_examples.day, ratio + 1),
        np.repeat(train_examples.month, ratio + 1),
        interleave(np.ones(n, dtype=np.int64), np.zeros(n * ratio, dtype=np.int64)),
    )


def make_batches(num_examples: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield the example indices of shuffled fixed-size batches.

    The final short batch is emitted as-is.  Identical inputs and generator
    state give an identical batch stream.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = rng.permutation(num_examples)
    for start in range(0, num_examples, batch_size):
        yield order[start : start + batch_size]


def _row_text(examples: Examples) -> list[str]:
    """Each example's user, space-separated item sequence and target."""
    keys = np.unique(examples.key).tolist()
    seq = dict(zip(keys, (" ".join(map(str, examples.table[k])) for k in keys)))
    columns = (examples.user.tolist(), examples.key.tolist(), examples.target.tolist())
    return [f"{u}\t{seq[k]}\t{t}" for u, k, t in zip(*columns)]


def write_examples_tsv(examples: Examples, marginals: EmpiricalMarginals, path: str) -> None:
    """Write the multinomial-format example file.

    Columns: user key, space-separated item sequence, target item, and the
    two log-marginal bias terms from ``marginals`` (6 decimal places).
    """
    log_p_u, log_p_i = marginals.log_bias(examples)
    with open(path, "w", encoding="utf-8") as out:
        for row, lpu, lpi in zip(_row_text(examples), log_p_u.tolist(), log_p_i.tolist()):
            out.write(f"{row}\t{lpu:.6f}\t{lpi:.6f}\n")


def write_labeled_tsv(examples: Examples, path: str) -> None:
    """Write the binary-label example file (bias columns replaced by the label)."""
    with open(path, "w", encoding="utf-8") as out:
        for row, label in zip(_row_text(examples), examples.label.tolist()):
            out.write(f"{row}\t{label}\n")


def write_marginals_tsv(marginals: EmpiricalMarginals, table: Sequences, path: str) -> None:
    """Write the counted user keys (``table`` rows) and items with their
    counts and logs, one entry per line, each in ascending id order."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"total\t{marginals.total}\n")
        for key in np.flatnonzero(marginals.count_user).tolist():
            seq = " ".join(map(str, table[key]))
            out.write(f"user\t{seq}\t{marginals.count_user[key]}\t{marginals.log_p_user[key]:.6f}\n")
        for item in np.flatnonzero(marginals.count_item).tolist():
            out.write(f"item\t{item}\t{marginals.count_item[item]}\t{marginals.log_p_item[item]:.6f}\n")
