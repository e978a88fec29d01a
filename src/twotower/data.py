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
import functools
import itertools
import logging
import math
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import IO, Union

import numpy as np

from . import container

logger = logging.getLogger(__name__)

# Integer day indices fall into consecutive months of this many days.
DAYS_PER_MONTH = 30
# Day indices stay below this bound, so day arithmetic never leaves int64.
MAX_DAY = 2**53
# Lines read or written at a time.  Each holds a few small strings, and a
# whole log's would outgrow the interpreter's free small-object memory (and
# with it the peak resident memory); the old per-line loops held one line's.
BLOCK = 256

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


def _parse_day_field(raw: str) -> Union[int, datetime.date, None]:
    """An integer day index or an ISO date, or ``None`` for neither."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return datetime.date.fromisoformat(raw)
    except ValueError:
        return None


# A byte that is not UTF-8, decoded with ``errors="surrogateescape"``: a lone surrogate.
_NOT_UTF8 = re.compile("[\ud800-\udfff]")
# The ASCII characters that ``str.strip`` removes, "\n" aside.
_ASCII_SPACE = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f"


def _check_line(lineno: int, line: str, delimiter: str, mode: type | None) -> None:
    """Raise the ``IngestError`` of line ``lineno`` in a log whose first event
    has a day of type ``mode`` (``None`` when unknown); return if it is valid."""
    if _NOT_UTF8.search(line):
        raise IngestError(f"line {lineno}: not valid UTF-8")
    line = line.strip()
    if not line or line.startswith("#"):
        return
    if "\0" in line:
        raise IngestError(f"line {lineno}: NUL byte in a field")
    fields = line.split(delimiter)
    if len(fields) != 3:
        raise IngestError(f"line {lineno}: expected 3 fields separated by {delimiter!r}, got {len(fields)}")
    user_raw, item_raw, day_raw = (f.strip() for f in fields)
    if not user_raw or not item_raw:
        raise IngestError(f"line {lineno}: empty user or item field")
    day_value = _parse_day_field(day_raw)
    if day_value is None:
        raise IngestError(f"line {lineno}: cannot parse date {day_raw!r}")
    if mode is not None and type(day_value) is not mode:
        raise IngestError(f"line {lineno}: mixes integer days with ISO dates")
    if isinstance(day_value, int) and day_value < 0:
        raise IngestError(f"line {lineno}: negative day index {day_value}")
    if isinstance(day_value, int) and day_value >= MAX_DAY:
        raise IngestError(f"line {lineno}: day index {day_value} is not below {MAX_DAY}")


def _event_lines(body: str) -> tuple[str, bool]:
    """The event lines of ``body`` joined by line feeds (every line but
    blank ones and comments, stripped), and whether its fields may hold
    whitespace to strip.  CRLF line ends, which stripping would drop, are
    dropped first, so that a log with no other whitespace takes the path
    that strips nothing; a lone carriage return keeps it on the other."""
    lines = body.replace("\r\n", "\n") if "\r" in body else body
    spaced = not lines.isascii() or any(c in lines for c in _ASCII_SPACE)
    if spaced or "#" in lines or "\n\n" in lines or lines.startswith("\n"):
        return "\n".join(line for line in map(str.strip, body.split("\n")) if line and line[0] != "#"), spaced
    return lines.removesuffix("\n"), False


def ingest_logs(source: Union[IO[str], IO[bytes]], delimiter: str = ",") -> InteractionLog:
    """Parse a delimited event log into event columns and dense vocabularies.

    Each line must read ``user,item,date`` where the date is either an
    ISO ``YYYY-MM-DD`` date or a non-negative integer day index.  Integer and
    ISO dates cannot be mixed within one log.  Vocabulary ids are assigned in
    first-appearance order; events come back sorted by ``(user, day)`` with
    the input order preserved for ties.  Duplicate lines are retained: the
    interaction counts drive the empirical marginals downstream.  Only a
    line feed ends a line; blank lines and ``#`` comments are skipped, and
    whitespace around a line and around each field is dropped.  A leading UTF-8
    byte-order mark is dropped; a NUL byte in a field, or a byte that is not
    UTF-8 anywhere in a line, is an error.

    For ISO input, day 0 is the earliest date in the log and months are
    calendar months; for integer input, months are consecutive
    ``DAYS_PER_MONTH``-day buckets.  Month ordinals are 1-based.
    """
    if not delimiter:
        raise ValueError("delimiter must not be empty")
    text = source.read()
    body = (text.decode("utf-8", errors="surrogateescape") if isinstance(text, bytes) else text).removeprefix("\ufeff")
    ascii_text = body.isascii()
    joined, spaced = _event_lines(body)
    count = joined.count("\n") + 1 if joined else 0

    # Whole-text and column checks mark the suspect events (and lines not
    # UTF-8); the one per-line check raises on the first of them.
    flagged = [] if ascii_text or not _NOT_UTF8.search(body) else [
        k for k, line in enumerate(body.split("\n"), start=1) if _NOT_UTF8.search(line)
    ]
    data = joined.replace(delimiter, "\0").encode("utf-8", "surrogatepass")
    codes = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(codes == ord("\n"))
    # An event holds two delimiters, NUL bytes in ``data``; no line holds one with a "\n".
    delimiters = np.bincount(np.searchsorted(newlines, np.flatnonzero(codes == 0)), minlength=count)
    suspect = (delimiters != 2) | ("\n" in delimiter)
    if "\0" in body:
        suspect |= np.array(["\0" in line for line in joined.split("\n")], dtype=bool)

    # Fields are read from the events before the first suspect one, which
    # raises, a block at a time, so that few of their strings live at once.
    # Ids number the keys in first-appearance order.
    n = int(np.argmax(suspect)) if suspect.any() else count
    ends = np.r_[-1, newlines, len(data)]  # the "\n" before and after each event
    user_vocab: dict[str, int] = {}
    item_vocab: dict[str, int] = {}
    day_index: dict[str, int] = {}
    ids = np.empty((3, n), dtype=np.int64)
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        fields = data[ends[start] + 1 : ends[stop]].decode("utf-8", "surrogatepass").replace("\0", "\n").split("\n")
        if spaced:
            fields = list(map(str.strip, fields))
        columns = (fields[0::3], fields[1::3], fields[2::3])
        for column, vocab, out in zip(columns, (user_vocab, item_vocab, day_index), ids[:, start:stop]):
            vocab.update(zip(itertools.filterfalse(vocab.__contains__, dict.fromkeys(column)), itertools.count(len(vocab))))
            out[:] = np.fromiter(map(vocab.__getitem__, column), dtype=np.int64, count=stop - start)
    user, item, day_id = ids
    if "" in user_vocab or "" in item_vocab:
        suspect[:n] |= (user == user_vocab.get("", -1)) | (item == item_vocab.get("", -1))

    # Each distinct day string is parsed once.
    values = list(map(_parse_day_field, day_index))
    mode = type(values[day_id[0]]) if values and values[day_id[0]] is not None else None
    bad = np.array([type(v) is not mode or mode is int and not 0 <= v < MAX_DAY for v in values], dtype=bool)
    suspect[:n] |= bad[day_id]
    if flagged or suspect.any():
        lines = body.split("\n")
        lineno = [k for k, line in enumerate(map(str.strip, lines), start=1) if line and line[0] != "#"]
        for k in sorted(flagged + np.array(lineno, dtype=np.int64)[suspect].tolist()):  # each one raises
            _check_line(k, lines[k - 1], delimiter, mode)
    if not count:
        raise IngestError("input log is empty")

    if mode is int:
        epoch = None
        day = np.array(values, dtype=np.int64)[day_id]
        month = day // DAYS_PER_MONTH + 1
    else:
        epoch = min(values)
        epoch_month = epoch.year * 12 + epoch.month - 1
        day = np.array([(date - epoch).days for date in values], dtype=np.int64)[day_id]
        month = np.array([date.year * 12 + date.month - epoch_month for date in values], dtype=np.int64)[day_id]
    order = np.lexsort((day, user))
    return InteractionLog(Events(user[order], item[order], day[order], month[order]), user_vocab, item_vocab, epoch)


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
    # Rows sorted by their columns, the first column first (np.lexsort of no
    # column raises), and numbered by run of equal rows.
    order = np.lexsort(padded.T[::-1]) if cuts.size else np.arange(0)
    ordered = padded[order]
    first = np.ones(cuts.size, dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    cut_key = np.empty(cuts.size, dtype=np.int64)
    cut_key[order] = np.cumsum(first) - 1
    distinct = ordered[first]
    kept = distinct >= 0
    table = Sequences(np.r_[0, np.cumsum(kept.sum(axis=1))], distinct[kept])

    counts = ends - cuts
    source = np.repeat(np.arange(cuts.size), counts)
    target = item[_ranges(cuts, counts)]
    return Examples(table, user[cuts][source], cut_key[source], target, day[cuts][source], records.month[cuts][source])


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


def _text(values: np.ndarray, form: Callable[[np.ndarray], list[str]]) -> list[str]:
    """The text of each entry of ``values``; ``form`` formats the distinct
    entries, ascending, so each is formatted once (-0.0 would print as 0.0,
    but no log marginal is -0.0)."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array(form(distinct), dtype=object)[inverse].tolist()


def _each(fmt: Callable[[object], str]) -> Callable[[np.ndarray], list[str]]:
    return lambda values: list(map(fmt, values.tolist()))


_INT, _LOG = _each(str), _each("{:.6f}".format)


def _sequence_text(table: Sequences, keys: np.ndarray) -> list[str]:
    """The rows of ``table`` at ``keys``, as space-separated items."""
    rows = table.take(keys)
    items, offsets = _text(rows.items, _INT), rows.offsets.tolist()
    return [" ".join(items[a:b]) for a, b in zip(offsets, offsets[1:])]


def _write_tsv(path: str, *columns: list[str], head: str = "") -> None:
    """Write ``head``, then one line of tab-separated cells per row of
    ``columns``, ``BLOCK`` lines at a time."""
    with container.writing(path) as out:
        out.write(head)
        for start in range(0, len(columns[0]), BLOCK):
            out.write("\n".join(map("\t".join, zip(*(column[start : start + BLOCK] for column in columns)))) + "\n")


def _example_columns(examples: Examples) -> list[list[str]]:
    """Each example's user, space-separated item sequence and target."""
    sequences = functools.partial(_sequence_text, examples.table)
    return [_text(examples.user, _INT), _text(examples.key, sequences), _text(examples.target, _INT)]


def write_examples_tsv(examples: Examples, marginals: EmpiricalMarginals, path: str) -> None:
    """Write the multinomial-format example file.

    Columns: user key, space-separated item sequence, target item, and the
    two log-marginal bias terms from ``marginals`` (6 decimal places).
    """
    log_p_u, log_p_i = marginals.log_bias(examples)
    _write_tsv(path, *_example_columns(examples), _text(log_p_u, _LOG), _text(log_p_i, _LOG))


def write_labeled_tsv(examples: Examples, path: str) -> None:
    """Write the binary-label example file (bias columns replaced by the label)."""
    _write_tsv(path, *_example_columns(examples), _text(examples.label, _INT))


def write_marginals_tsv(marginals: EmpiricalMarginals, table: Sequences, path: str) -> None:
    """Write the counted user keys (``table`` rows) and items with their
    counts and logs, one entry per line, each in ascending id order."""
    keys, items = np.flatnonzero(marginals.count_user), np.flatnonzero(marginals.count_item)
    _write_tsv(
        path,
        ["user"] * keys.size + ["item"] * items.size,
        _sequence_text(table, keys) + _INT(items),
        _text(np.r_[marginals.count_user[keys], marginals.count_item[items]], _INT),
        _text(np.r_[marginals.log_p_user[keys], marginals.log_p_item[items]], _LOG),
        head=f"total\t{marginals.total}\n",
    )
