"""Data pipeline: ingestion, windowing, splitting, marginals, sampling."""

import datetime
import importlib.util
import io
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from reference import (
    InteractionRecord,
    TrainingExample,
    events_of,
    example_rows,
    examples_of,
    reference_build_examples,
    reference_filter,
    reference_ingest_logs,
    reference_marginals,
    reference_write_examples_tsv,
    reference_write_labeled_tsv,
    reference_write_marginals_tsv,
)
from twotower import data as data_module
from twotower.data import (
    DatasetSplit,
    EmpiricalMarginals,
    IngestError,
    build_examples,
    compute_marginals,
    filter_sparse,
    ingest_logs,
    make_batches,
    sample_negatives_bce,
    split_by_time,
    write_examples_tsv,
    write_labeled_tsv,
    write_marginals_tsv,
)


def event_rows(log):
    """``(user, item, day)`` per event of an ingested log, in its order."""
    records = log.records
    return list(zip(records.user.tolist(), records.item.tolist(), records.day.tolist()))


class TestIngest:
    def test_three_lines_parse(self):
        log = ingest_logs(io.StringIO("u1,i1,0\nu1,i2,3\nu2,i3,5\n"))
        assert len(log.records) == 3
        assert log.num_users == 2
        assert log.num_items == 3

    def test_malformed_date_names_line(self):
        with pytest.raises(IngestError, match="line 1"):
            ingest_logs(io.StringIO("u1,i1,notadate\n"))

    def test_field_count_error_names_line(self):
        with pytest.raises(IngestError, match="line 2"):
            ingest_logs(io.StringIO("u1,i1,0\nu1,i1\n"))

    def test_empty_input_rejected(self):
        with pytest.raises(IngestError, match="empty"):
            ingest_logs(io.StringIO(""))

    def test_duplicate_events_both_retained(self):
        log = ingest_logs(io.StringIO("u1,i1,4\nu1,i1,4\n"))
        assert len(log.records) == 2
        assert event_rows(log) == [(0, 0, 4), (0, 0, 4)]

    def test_records_sorted_by_user_then_day(self):
        log = ingest_logs(io.StringIO("u2,i1,9\nu1,i2,7\nu1,i1,2\nu1,i3,2\n"))
        # u2 -> 0, u1 -> 1; the two day-2 events of u1 keep their input order
        assert event_rows(log) == [(0, 0, 9), (1, 0, 2), (1, 2, 2), (1, 1, 7)]

    def test_ties_keep_input_order_in_a_long_log(self):
        rng = np.random.default_rng(4)
        lines = [(int(rng.integers(2)), k, int(rng.integers(3))) for k in range(400)]
        log = ingest_logs(io.StringIO("".join(f"u{u},i{i},{d}\n" for u, i, d in lines)))
        user_id = {0: log.user_vocab["u0"], 1: log.user_vocab["u1"]}
        expected = sorted(((user_id[u], i, d) for u, i, d in lines), key=lambda r: (r[0], r[2]))
        assert event_rows(log) == expected

    def test_iso_dates_become_day_offsets_and_calendar_months(self, tiny_log):
        assert tiny_log.records.day.min() == 0  # earliest date is the epoch
        # 2023-01-05 .. 2023-03-02: January days map to month 1, March to 3
        months = dict(zip(tiny_log.records.day.tolist(), tiny_log.records.month.tolist()))
        assert months[0] == 1 and months[15] == 1 and months[36] == 2 and months[56] == 3
        assert tiny_log.num_months == 3
        # the first day of each month, counted from the epoch (day 0 for month 1)
        assert [tiny_log.first_day(m) for m in (1, 2, 3, 4)] == [0, 27, 55, 57]

    def test_integer_days_use_30_day_months(self):
        log = ingest_logs(io.StringIO("u1,i1,0\nu1,i1,29\nu1,i1,30\n"))
        assert log.records.month.tolist() == [1, 1, 2]
        assert [log.first_day(m) for m in (1, 2, 3)] == [0, 30, 31]

    def test_mixed_date_formats_rejected(self):
        with pytest.raises(IngestError, match="mixes"):
            ingest_logs(io.StringIO("u1,i1,3\nu1,i2,2023-01-01\n"))

    def test_custom_delimiter(self):
        log = ingest_logs(io.StringIO("u1|i1|0\n"), delimiter="|")
        assert log.num_items == 1

    def test_empty_delimiter_rejected(self):
        with pytest.raises(ValueError, match="delimiter"):
            ingest_logs(io.StringIO("u1,i1,0\n"), delimiter="")

    def test_bytes_input_accepted(self):
        log = ingest_logs(io.BytesIO(b"u1,i1,0\n"))
        assert len(log.records) == 1

    @pytest.mark.parametrize("source", [io.StringIO, lambda text: io.BytesIO(text.encode())], ids=["text", "bytes"])
    def test_byte_order_mark_is_not_part_of_the_first_user(self, source):
        text = "u1,a,0\nu1,b,40\nu2,a,41\n"
        plain, marked = ingest_logs(source(text)), ingest_logs(source("\ufeff" + text))
        assert marked.user_vocab == plain.user_vocab == {"u1": 0, "u2": 1}
        assert event_rows(marked) == event_rows(plain)

    def test_nul_byte_names_line(self):
        with pytest.raises(IngestError, match="line 2: NUL"):
            ingest_logs(io.StringIO("u1,a,0\nu\x001,b,40\n"))

    def test_far_days_cost_one_entry_per_event(self):
        """Months come per event, so a day index of 10**12 and the widest ISO
        range are two-line logs like any other."""
        log = ingest_logs(io.StringIO(f"a,x,0\nb,y,{10**12}\n"))
        assert log.records.day.tolist() == [0, 10**12]
        assert log.records.month.tolist() == [1, 10**12 // 30 + 1]
        assert log.num_months == 10**12 // 30 + 1
        log = ingest_logs(io.StringIO("a,x,9999-12-31\nb,y,0001-01-01\n"))
        assert log.records.day.tolist() == [3652058, 0]
        assert log.records.month.tolist() == [9999 * 12, 1]
        assert log.first_day(9999 * 12) == 3652058 - 30
        assert log.first_day(9999 * 12 + 1) == 3652059

    def test_day_index_beyond_bound_rejected(self):
        with pytest.raises(IngestError, match="line 2"):
            ingest_logs(io.StringIO(f"a,x,0\nb,y,{2**53}\n"))


# Delimiters, whitespace around fields and lines (a delimiter's own
# characters left out), and the characters of users and items: inner
# whitespace, "#", a byte-order mark, "\r" and "\x85", which a line split
# at every line boundary (``str.splitlines``) would break a line at.  An
# ASCII log draws from the ASCII characters alone.
DELIMITERS = [",", "|", "\t", "::"]
PADDING = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000"
TOKEN_CHARS = "ab#\r \xe9\x85\ufeff"
# The error each mutation of a valid log makes, for ``mutated_logs``.
MUTATIONS = ["fields", "empty_user", "bad_date", "mixed", "negative", "too_big", "nul", "not_utf8"]


def _event_line(parts: list[str], delimiter: str) -> str:
    """An event line from ``[pad, user, pad, pad, item, pad, pad, day, pad]``."""
    return "".join(parts[0:3]) + delimiter + "".join(parts[3:6]) + delimiter + "".join(parts[6:9])


@st.composite
def valid_logs(draw):
    """A valid log as ``(lines, delimiter, iso, newline, bom, trailing)``: an
    event line is a list of parts (see ``_event_line``), any other line (blank,
    whitespace or a ``#`` comment, which may hold a NUL) a string."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    iso = draw(st.booleans())
    ascii_only = draw(st.booleans())
    padding = "".join(c for c in PADDING if c not in delimiter and (c.isascii() or not ascii_only))
    pad = st.text(alphabet=padding, max_size=2)
    token_chars = "".join(c for c in TOKEN_CHARS if c.isascii() or not ascii_only)
    token = st.text(alphabet=token_chars, min_size=1, max_size=3).map(str.strip).filter(lambda t: t and t[0] not in "#\ufeff")
    if iso:
        dates = st.dates(datetime.date(2020, 1, 1), datetime.date(2021, 12, 31))
        day = dates.map(datetime.date.isoformat)
    else:
        day = st.builds(str.format, st.sampled_from(["{}", "0{}", "+{}"]), st.integers(0, 400))
    event = st.builds(list, st.tuples(pad, token, pad, pad, token, pad, pad, day, pad))
    other = st.one_of(pad, st.builds(lambda p, c: p + "#" + c, pad, st.text(alphabet="ab,|#\0\t ", max_size=4)))
    lines = draw(st.lists(event, min_size=1, max_size=12))
    for position in draw(st.lists(st.integers(0, 11), max_size=3)):  # duplicate lines
        lines.insert(position % len(lines), list(lines[position % len(lines)]))
    for position in draw(st.lists(st.integers(0, 15), max_size=4)):
        lines.insert(position % (len(lines) + 1), draw(other))
    return lines, delimiter, iso, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()), draw(st.booleans())


def _render(lines, delimiter, newline, bom, trailing) -> str:
    text = newline.join(line if isinstance(line, str) else _event_line(line, delimiter) for line in lines)
    return ("\ufeff" if bom else "") + text + (newline if trailing else "")


def _mutate(draw, lines: list, delimiter: str, iso: bool, kind: str) -> None:
    """Make one mutation of ``kind`` (``MUTATIONS``) to the lines of a log; a
    "not_utf8" line holds a lone surrogate, a byte that is not UTF-8 once
    encoded with ``errors="surrogateescape"``."""
    events = [k for k, line in enumerate(lines) if not isinstance(line, str)]
    if kind == "not_utf8":
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k] if isinstance(lines[k], str) else _event_line(lines[k], delimiter)
        at = draw(st.integers(0, len(line)))
        lines[k] = line[:at] + "\udcff" + line[at:]
        return
    if not events:  # an earlier mutation left no event to change
        return
    if kind == "mixed":  # the first event sets the day format, so mix in a later one
        lines.append(list(lines[events[0]]))
        events.append(len(lines) - 1)
        k = events[draw(st.integers(1, len(events) - 1))]
    else:
        k = draw(st.sampled_from(events))
    parts = lines[k]
    if kind == "fields":  # one field more, or one less
        line = _event_line(parts, delimiter)
        lines[k] = line + delimiter + "x" if draw(st.booleans()) else line.replace(delimiter, "", 1)
    elif kind == "empty_user":
        parts[1] = ""
    elif kind == "nul":
        parts[1] = parts[1][:1] + "\0" + parts[1][1:]
    else:
        parts[7] = {
            "bad_date": draw(st.sampled_from(["2023-13-45", "x1", "", "1.5"])),
            "mixed": "5" if iso else "2021-03-04",
            "negative": "-3",
            "too_big": str(2**53 + draw(st.integers(0, 5))),
        }[kind]


@st.composite
def mutated_logs(draw, kinds: list[str]):
    """A valid log with one mutation of each of ``kinds``, as ``(text, delimiter)``."""
    lines, delimiter, iso, newline, bom, trailing = draw(valid_logs())
    for kind in kinds:
        _mutate(draw, lines, delimiter, iso, kind)
    return _render(lines, delimiter, newline, bom, trailing), delimiter


def _ingest_outcome(ingest, data: bytes, as_text: bool, delimiter: str):
    """The log ``ingest`` reads from ``data`` (as a text or a byte stream),
    or the message of its ``IngestError``."""
    source = io.StringIO(data.decode("utf-8", errors="surrogateescape")) if as_text else io.BytesIO(data)
    try:
        log = ingest(source, delimiter=delimiter)
    except IngestError as exc:
        return str(exc)
    records = log.records
    columns = (records.user.tolist(), records.item.tolist(), records.day.tolist(), records.month.tolist())
    return list(log.user_vocab.items()), list(log.item_vocab.items()), columns, log.epoch


class TestIngestMatchesReference:
    """The whole-text ``ingest_logs`` against the per-line loop it replaced
    (``reference_ingest_logs``): equal logs from valid input, the same
    ``IngestError`` (message and line) from input with faults.  Fields are
    read ``block`` lines at a time, so that small logs span several blocks."""

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(log=valid_logs(), as_text=st.booleans(), block=st.sampled_from([1, 2, 5, data_module.BLOCK]))
    def test_valid_logs(self, log, as_text, block):
        lines, delimiter, iso, newline, bom, trailing = log
        raw = _render(lines, delimiter, newline, bom, trailing).encode("utf-8")
        expected = _ingest_outcome(reference_ingest_logs, raw, as_text, delimiter)
        assert not isinstance(expected, str)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_module, "BLOCK", block)
            assert _ingest_outcome(ingest_logs, raw, as_text, delimiter) == expected
        assert (expected[3] is not None) == iso

    @pytest.mark.parametrize("kind", MUTATIONS)
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(data=st.data(), as_text=st.booleans(), block=st.sampled_from([1, 3, data_module.BLOCK]))
    def test_one_fault_names_the_same_line(self, kind, data, as_text, block):
        self._same_error(data.draw(mutated_logs([kind])), as_text, block)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data(), kinds=st.lists(st.sampled_from(MUTATIONS), min_size=2, max_size=2), as_text=st.booleans())
    def test_the_first_of_two_faults_is_named(self, data, kinds, as_text):
        self._same_error(data.draw(mutated_logs(kinds)), as_text, data.draw(st.sampled_from([1, 3, data_module.BLOCK])))

    @staticmethod
    def _same_error(log, as_text, block):
        text, delimiter = log
        raw = text.encode("utf-8", errors="surrogateescape")
        expected = _ingest_outcome(reference_ingest_logs, raw, as_text, delimiter)
        assert isinstance(expected, str) and expected.startswith("line ")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_module, "BLOCK", block)
            assert _ingest_outcome(ingest_logs, raw, as_text, delimiter) == expected


class TestCrlfLineEnds:
    """A log whose only whitespace is its CRLF line ends reads as its LF
    copy, on the path that strips no field; a lone carriage return stays in
    its field."""

    LOG = "u1,i1,0\nu2,i2,3\nu1,i3,40\nu3,i1,75\n"

    @pytest.mark.parametrize("log", [LOG, LOG.rstrip("\n")], ids=["trailing", "no-trailing"])
    def test_crlf_log_takes_the_path_that_strips_nothing(self, log):
        assert data_module._event_lines(log.replace("\n", "\r\n")) == (log.rstrip("\n"), False)

    @pytest.mark.parametrize("fault", ["", "u4,i2\n", "u4,,5\n", "u4,i2,x\n", "u4,i2,-1\n", "# note\n\n"])
    def test_crlf_log_reads_as_its_lf_copy(self, fault):
        lf = (self.LOG + fault + "u5,i4,80\n").encode("utf-8")
        crlf = lf.replace(b"\n", b"\r\n")
        for as_text in (False, True):
            assert _ingest_outcome(ingest_logs, crlf, as_text, ",") == _ingest_outcome(ingest_logs, lf, as_text, ",")

    def test_lone_carriage_return_stays_in_its_field(self):
        text = "u1,i\r1,0\r\nu2,i2,3\r\n"
        assert data_module._event_lines(text)[1]
        assert list(ingest_logs(io.BytesIO(text.encode("utf-8"))).item_vocab) == ["i\r1", "i2"]


def brute_force_windows(records, horizon, max_len):
    """Independent enumeration: walk every purchase day of every user."""
    expected = []
    users = sorted({r.user_id for r in records})
    for u in users:
        mine = [r for r in records if r.user_id == u]
        for cut in sorted({r.day for r in mine}):
            prior = [r.item_id for r in mine if r.day < cut]
            if not prior:
                continue
            for r in mine:
                if cut <= r.day < cut + horizon:
                    expected.append((u, tuple(prior[-max_len:]), r.item_id, cut))
    return sorted(expected)


class TestBuildExamples:
    def test_two_purchases_one_example(self):
        examples = build_examples(events_of([(0, 7, 1), (0, 9, 5)]), horizon_days=30, max_seq_len=10)
        assert example_rows(examples) == [(0, (7,), 9, 5)]
        assert examples.month.tolist() == [1]

    def test_single_purchase_yields_nothing(self):
        examples = build_examples(events_of([(0, 1, 3)]), 30, 10)
        assert example_rows(examples) == [] and len(examples.table) == 0

    def test_four_purchase_user_matches_hand_enumeration(self):
        # purchases: i0@d1, i1@d2, i2@d3, i3@d5 with a 2-day horizon
        records = [(0, 0, 1), (0, 1, 2), (0, 2, 3), (0, 3, 5)]
        examples = build_examples(events_of(records), horizon_days=2, max_seq_len=10)
        got = sorted((u, seq, t, d) for u, seq, t, d in example_rows(examples))
        # by hand: cut@2 -> targets i1@2, i2@3; cut@3 -> i2@3; cut@5 -> i3@5
        assert got == [
            (0, (0,), 1, 2),
            (0, (0,), 2, 2),
            (0, (0, 1), 2, 3),
            (0, (0, 1, 2), 3, 5),
        ]
        assert got == brute_force_windows([InteractionRecord(*r) for r in records], 2, 10)

    def test_matches_brute_force_on_random_logs(self):
        rng = np.random.default_rng(42)
        records = [(int(rng.integers(5)), int(rng.integers(8)), int(rng.integers(40))) for _ in range(120)]
        events = events_of(records)
        objects = [InteractionRecord(*r) for r in zip(events.user.tolist(), events.item.tolist(), events.day.tolist())]
        for horizon, max_len in [(1, 3), (7, 2), (40, 10)]:
            examples = build_examples(events, horizon, max_len)
            assert sorted(example_rows(examples)) == brute_force_windows(objects, horizon, max_len)

    def test_windowing_causality_invariant(self):
        rng = np.random.default_rng(7)
        records = [(int(rng.integers(4)), int(rng.integers(6)), int(rng.integers(30))) for _ in range(80)]
        by_user = {}
        for user, item, day in records:
            by_user.setdefault(user, []).append((item, day))
        horizon = 5
        examples = build_examples(events_of(records), horizon, max_seq_len=4)
        for user, seq, target, cut in example_rows(examples):
            prior_days = [day for item, day in by_user[user] if item in seq and day < cut]
            assert prior_days, "pseudo-user items must predate the cut day"
            target_days = [day for item, day in by_user[user] if item == target]
            assert any(cut <= d < cut + horizon for d in target_days)
            assert len(seq) <= 4

    def test_key_ids_sort_a_prefix_before_its_extensions(self):
        """The ``-1`` padding sorts a pseudo-user before its own extensions,
        and item 0 after the end of a shorter sequence."""
        # cuts: user 0 (0,) (0, 0) (0, 0, 1); user 1 (0,) (0, 2); user 2 (1,) (1, 0)
        records = [(0, 0, 0), (0, 0, 1), (0, 1, 2), (0, 3, 3), (1, 0, 0), (1, 2, 1), (1, 3, 2)]
        records += [(2, 1, 0), (2, 0, 1), (2, 3, 2)]
        examples = build_examples(events_of(records), horizon_days=1, max_seq_len=10)
        assert list(examples.table) == [(0,), (0, 0), (0, 0, 1), (0, 2), (1,), (1, 0)]
        assert list(examples.pseudo_users()) == [row[1] for row in example_rows(examples)]

    @pytest.mark.parametrize("max_seq_len", [1, 50])
    def test_key_ids_follow_sorted_tuple_order(self, max_seq_len):
        """Key ids number the distinct pseudo-users as ``sorted(set(tuples))``,
        for one-item keys and for 50-item histories over few items."""
        rng = np.random.default_rng(max_seq_len)
        records = [(int(rng.integers(4)), int(rng.integers(5)), int(rng.integers(150))) for _ in range(400)]
        examples = build_examples(events_of(records), horizon_days=3, max_seq_len=max_seq_len)
        pseudo_users = list(examples.pseudo_users())
        assert list(examples.table) == sorted(set(pseudo_users))
        assert max(map(len, pseudo_users)) == max_seq_len

    def test_truncation_keeps_most_recent(self):
        examples = build_examples(events_of([(0, i, i) for i in range(6)]), horizon_days=1, max_seq_len=2)
        last = [row for row in example_rows(examples) if row[3] == 5][0]
        assert last[1] == (3, 4)


def _examples(days, months=None):
    """One example per day, all of user 0 with pseudo-user (1,) and target 0."""
    return examples_of([(0, (1,), 0, day) for day in days], months=months)


class TestSplitByTime:
    def test_paper_interval_semantics(self):
        examples = _examples(range(10), months=range(1, 11))  # one per month
        split = split_by_time(examples, months_total=10)
        assert set(split.train.month.tolist()) == set(range(1, 10))
        assert split.validation.month.tolist() == [9]
        assert split.test.month.tolist() == [10]
        # validation overlaps the final training month by construction
        assert split.validation.day.tolist() == [8] and 8 in split.train.day.tolist()

    def test_too_few_months_rejected(self):
        with pytest.raises(ValueError):
            split_by_time(_examples([]), months_total=2)

    def test_all_in_final_month_warns_and_returns_empty_train(self, caplog):
        examples = _examples([25, 27], months=[3, 3])
        with caplog.at_level("WARNING"):
            split = split_by_time(examples, months_total=3)
        assert len(split.train) == 0
        assert len(split.test) == 2
        assert any("empty" in rec.message for rec in caplog.records)

    def test_months_beyond_total_are_dropped(self):
        examples = _examples([5, 45], months=[1, 5])
        split = split_by_time(examples, months_total=3)
        assert split.train.day.tolist() == [5]
        assert len(split.test) == 0 and len(split.validation) == 0

    def test_membership_on_random_examples(self):
        rng = np.random.default_rng(3)
        days = rng.integers(0, 60, size=200)
        examples = _examples(days.tolist(), months=(days // 10 + 1).tolist())
        split = split_by_time(examples, months_total=6)
        month = days // 10 + 1
        assert split.train.day.tolist() == days[month <= 5].tolist()
        assert split.validation.day.tolist() == days[month == 5].tolist()
        assert split.test.day.tolist() == days[month == 6].tolist()


class TestFilterSparse:
    def _split(self, rows):
        empty = examples_of([])
        return DatasetSplit(train=empty, validation=empty, test=examples_of(rows))

    def test_rare_item_removed_from_test(self):
        rows = [
            (0, (1,), 5, 0),
            (0, (1,), 5, 1),
            (0, (1,), 7, 2),  # item 7 appears twice only
            (0, (1,), 7, 3),
        ]
        filtered = filter_sparse(self._split(rows), min_degree=3)
        assert 7 not in filtered.test.target.tolist()

    def test_min_degree_one_is_identity(self):
        rng = np.random.default_rng(0)
        rows = [(0, (int(rng.integers(3)),), int(rng.integers(4)), d) for d in range(30)]
        filtered = filter_sparse(self._split(rows), min_degree=1)
        assert example_rows(filtered.test) == rows

    def test_matches_brute_force_fixpoint(self):
        rng = np.random.default_rng(11)
        rows = [(0, (int(rng.integers(5)),), int(rng.integers(6)), d) for d in range(60)]
        filtered = filter_sparse(self._split(rows), min_degree=3)
        kept = [(ex.user_id, ex.pseudo_user, ex.target_item, ex.day) for ex in reference_filter(
            [TrainingExample(*row) for row in rows], 3
        )]
        assert example_rows(filtered.test) == kept
        users = Counter(row[1] for row in kept)
        items = Counter(row[2] for row in kept)
        for _, seq, target, _ in kept:
            assert users[seq] >= 3 and items[target] >= 3

    def test_min_degree_below_one_rejected(self):
        with pytest.raises(ValueError):
            filter_sparse(self._split([]), min_degree=0)


class TestMarginals:
    def test_item_counts(self):
        examples = examples_of([(0, (u,), t, 0) for u, t in [(1, 0), (2, 0), (3, 1), (4, 2)]])
        marginals = compute_marginals(examples, num_items=3)
        assert marginals.log_p_item[0] == pytest.approx(math.log(0.5), abs=1e-12)
        assert marginals.total == 4

    def test_single_example_gives_log_one(self):
        marginals = compute_marginals(examples_of([(0, (1,), 2, 0)]), num_items=3)
        assert marginals.log_p_user[0] == 0.0  # key 0 is (1,)
        assert marginals.log_p_item[2] == 0.0

    def test_normalization_invariant(self):
        rng = np.random.default_rng(5)
        rows = [
            (0, tuple(rng.integers(0, 4, size=rng.integers(1, 4)).tolist()), int(rng.integers(6)), 0) for _ in range(500)
        ]
        marginals = compute_marginals(examples_of(rows), num_items=6)
        seen_user, seen_item = marginals.count_user > 0, marginals.count_item > 0
        assert math.fsum(np.exp(marginals.log_p_user[seen_user])) == pytest.approx(1.0, abs=1e-9)
        assert math.fsum(np.exp(marginals.log_p_item[seen_item])) == pytest.approx(1.0, abs=1e-9)
        assert marginals.count_user.sum() == marginals.total
        assert marginals.count_item.sum() == marginals.total

    def test_log_bias_reads_training_marginals_with_floor(self):
        """A pseudo-user and an item seen only in validation get ``floor_log()``."""
        rows = [(0, (1,), 2, 0), (0, (1,), 3, 0), (0, (1,), 2, 40), (9, (9,), 9, 40), (0, (1,), 9, 41)]
        examples = examples_of(rows)  # one key table for train and validation
        marginals = compute_marginals(examples.take(np.arange(2)), num_items=10)
        floor = marginals.floor_log()
        assert floor == pytest.approx(-math.log(3))
        log_p_u, log_p_i = marginals.log_bias(examples.take(np.arange(2, 5)))
        assert log_p_u.tolist() == [0.0, floor, 0.0]
        assert log_p_i.tolist() == [math.log(0.5), floor, floor]

    def test_logs_are_math_log_bit_for_bit(self):
        """14 of 37 is a ratio whose ``np.log`` differs from ``math.log`` in
        the last bit; the marginals hold the latter, as the example files did."""
        rows = [(0, (1,), 0, 0)] * 14 + [(0, (2,), 1, 0)] * 23
        marginals = compute_marginals(examples_of(rows), num_items=2)
        assert float(np.log(14 / 37)) != math.log(14 / 37)
        assert marginals.log_p_user[0] == math.log(14 / 37) == marginals.log_p_item[0]
        assert marginals.log_p_user[1] == math.log(23 / 37) == marginals.log_p_item[1]

    def test_logs_are_nonpositive(self):
        rng = np.random.default_rng(8)
        rows = [(0, (int(rng.integers(3)),), int(rng.integers(3)), 0) for _ in range(50)]
        marginals = compute_marginals(examples_of(rows), num_items=3)
        assert np.all(marginals.log_p_user <= 0)
        assert np.all(marginals.log_p_item <= 0)


def _positives(counts: dict[tuple, int], items: dict[int, int]):
    """Training examples with the requested pseudo-user and item frequencies."""
    keys = sorted(counts)
    item_ids = sorted(items)
    k_iter = [k for k in keys for _ in range(counts[k])]
    i_iter = [i for i in item_ids for _ in range(items[i])]
    assert len(k_iter) == len(i_iter)
    return examples_of([(key[0], key, item, day) for day, (key, item) in enumerate(zip(k_iter, i_iter))])


class TestNegativeSampling:
    def test_cardinality(self):
        positives = examples_of([(0, (1,), 2, d) for d in range(10)])
        labeled = sample_negatives_bce(positives, "uniform", num_items=5, ratio=1, rng_seed=0)
        assert len(labeled) == 20
        assert labeled.label.tolist() == [1, 0] * 10

    def test_ratio_two(self):
        positives = examples_of([(0, (1,), 2, d) for d in range(4)])
        labeled = sample_negatives_bce(positives, "uniform", num_items=5, ratio=2, rng_seed=0)
        assert labeled.label.tolist() == [1, 0, 0] * 4

    def test_user_marginal_keeps_pseudo_user(self):
        positives = examples_of([(u, (u, u + 1), u, 0) for u in range(6)])
        labeled = sample_negatives_bce(positives, "user-marginal", num_items=9, ratio=3, rng_seed=1)
        rows = example_rows(labeled)
        for k, (user, seq, _, _, label) in enumerate(rows):
            if label == 0:  # the positive it follows has the same pseudo-user and user
                assert (user, seq) == rows[k - k % 4][:2]

    def test_item_marginal_keeps_target(self):
        positives = examples_of([(u, (u,), u % 3, 0) for u in range(6)])
        labeled = sample_negatives_bce(positives, "item-marginal", num_items=9, ratio=2, rng_seed=1)
        rows = example_rows(labeled)
        for k, (user, seq, target, _, label) in enumerate(rows):
            if label == 0:  # the positive's target, and the owner of the drawn key
                assert target == rows[k - k % 3][2]
                assert (user, seq) == (seq[0], seq)

    def test_negatives_inherit_day(self):
        positives = examples_of([(0, (1,), 2, 17)])
        labeled = sample_negatives_bce(positives, "uniform", num_items=4, ratio=2, rng_seed=0)
        assert labeled.day.tolist() == [17, 17, 17]
        assert labeled.month.tolist() == [1, 1, 1]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            sample_negatives_bce(examples_of([(0, (1,), 2, 0)]), "nope", num_items=3)

    def test_deterministic_under_seed(self):
        positives = examples_of([(0, (u,), u, 0) for u in range(5)])
        a = sample_negatives_bce(positives, "product-of-marginals", num_items=7, rng_seed=9)
        b = sample_negatives_bce(positives, "product-of-marginals", num_items=7, rng_seed=9)
        assert example_rows(a) == example_rows(b)

    @pytest.mark.parametrize(
        "strategy",
        ["user-marginal", "item-marginal", "product-of-marginals", "uniform"],
    )
    def test_sampling_distribution_chi_square(self, strategy):
        """Sampled (pseudo-user, item) frequencies match the declared noise law."""
        num_items = 4
        keys = {(0,): 100, (1,): 60, (2,): 40}
        items = {0: 120, 1: 50, 2: 20, 3: 10}
        positives = _positives(keys, items)
        total = len(positives)
        ratio = 500  # 200 positives x 500 = 1e5 negative draws
        labeled = sample_negatives_bce(positives, strategy, num_items=num_items, ratio=ratio, rng_seed=12345)
        negatives = [(seq, target) for _, seq, target, _, label in example_rows(labeled) if label == 0]
        assert len(negatives) == total * ratio

        p_u = {k: c / total for k, c in keys.items()}
        p_i = {i: c / total for i, c in items.items()}
        key_list = sorted(keys)
        if strategy == "user-marginal":
            cells = {(k, i): p_u[k] / num_items for k in key_list for i in range(num_items)}
        elif strategy == "item-marginal":
            cells = {(k, i): p_i.get(i, 0.0) / len(key_list) for k in key_list for i in range(num_items)}
        elif strategy == "product-of-marginals":
            cells = {(k, i): p_u[k] * p_i.get(i, 0.0) for k in key_list for i in range(num_items)}
        else:
            cells = {(k, i): 1.0 / (len(key_list) * num_items) for k in key_list for i in range(num_items)}
        cells = {cell: p for cell, p in cells.items() if p > 0}

        observed = Counter(negatives)
        assert set(observed) <= set(cells)
        obs = np.array([observed.get(cell, 0) for cell in sorted(cells)])
        exp = np.array([cells[cell] for cell in sorted(cells)]) * len(negatives)
        result = chisquare(obs, exp)
        assert result.pvalue > 0.001


class TestBatches:
    def test_batch_sizes(self):
        rng = np.random.default_rng(0)
        batches = list(make_batches(130, 64, rng))
        assert [len(b) for b in batches] == [64, 64, 2]
        assert sorted(np.concatenate(batches).tolist()) == list(range(130))

    def test_same_seed_same_stream(self):
        a = [b.tolist() for b in make_batches(50, 8, np.random.default_rng(3))]
        b = [b.tolist() for b in make_batches(50, 8, np.random.default_rng(3))]
        assert a == b

    def test_empty_month_yields_nothing(self):
        assert list(make_batches(0, 4, np.random.default_rng(0))) == []


class TestExampleFile:
    def test_written_format(self, tmp_path):
        examples = examples_of([(3, (1, 2), 7, 5)])
        count_item = np.zeros(8, dtype=np.int64)
        count_item[[6, 7]] = 3, 1
        marginals = EmpiricalMarginals(np.array([2]), count_item)  # p(key 0) = 1/2, p(7) = 1/4
        path = tmp_path / "ex.tsv"
        write_examples_tsv(examples, marginals, str(path))
        assert path.read_text() == "3\t1 2\t7\t-0.693147\t-1.386294\n"

    def test_labeled_format(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        write_labeled_tsv(examples_of([(3, (1, 2), 7, 5)], labels=[0]), str(path))
        assert path.read_text() == "3\t1 2\t7\t0\n"


_LOGGEN_SPEC = importlib.util.spec_from_file_location("loggen", Path(__file__).resolve().parent.parent / "bench" / "loggen.py")


@pytest.fixture(scope="module")
def incremental_prepared():
    """The benchmark's ``incremental``-shaped log (seed 1) through the
    pipeline at the default settings: the vocabulary size, the filtered
    split and its training marginals."""
    loggen = importlib.util.module_from_spec(_LOGGEN_SPEC)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "loggen", loggen)  # a dataclass looks its module up there
        _LOGGEN_SPEC.loader.exec_module(loggen)
    events = loggen.generate(loggen.LogShape(users=500, items=400, events=4000, months=6), 1)
    log = ingest_logs(io.StringIO("".join(f"u{u},i{i},{d}\n" for u, i, d in events.tolist())))
    split = filter_sparse(split_by_time(build_examples(log.records, 30, 20), log.num_months), 3)
    return log.num_items, split, compute_marginals(split.train, log.num_items)


class TestWritersMatchReference:
    """Each writer writes the bytes of the per-row writer it replaced
    (``tests/reference.py``) on an ``incremental``-shaped log."""

    @staticmethod
    def _same_bytes(tmp_path, write, reference, *args):
        write(*args, str(tmp_path / "new.tsv"))
        reference(*args, str(tmp_path / "reference.tsv"))
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "reference.tsv").read_bytes()
        return (tmp_path / "new.tsv").read_bytes()

    @pytest.mark.parametrize("part", ["train", "validation", "test", "empty"])
    def test_example_splits(self, tmp_path, incremental_prepared, part):
        _, split, marginals = incremental_prepared
        examples = split.train.take(np.zeros(0, dtype=np.int64)) if part == "empty" else getattr(split, part)
        written = self._same_bytes(tmp_path, write_examples_tsv, reference_write_examples_tsv, examples, marginals)
        assert written.count(b"\n") == len(examples)

    @pytest.mark.parametrize("empty", [False, True], ids=["product-of-marginals", "empty"])
    def test_labeled_set(self, tmp_path, incremental_prepared, empty):
        num_items, split, _ = incremental_prepared
        labeled = sample_negatives_bce(split.train, "product-of-marginals", num_items, ratio=2, rng_seed=3)
        labeled = labeled.take(np.zeros(0, dtype=np.int64)) if empty else labeled
        written = self._same_bytes(tmp_path, write_labeled_tsv, reference_write_labeled_tsv, labeled)
        assert written.count(b"\n") == len(labeled)

    def test_marginals(self, tmp_path, incremental_prepared):
        _, split, marginals = incremental_prepared
        self._same_bytes(tmp_path, write_marginals_tsv, reference_write_marginals_tsv, marginals, split.train.table)


def _rows(examples):
    return [(ex.user_id, ex.pseudo_user, ex.target_item, ex.day) for ex in examples]


@st.composite
def event_logs(draw):
    """``(user, item, day)`` lines over few users, items and days, so that
    same-day purchases are common, with some lines repeated verbatim."""
    lines = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 7), st.integers(0, 40)), min_size=1, max_size=50))
    for position in draw(st.lists(st.integers(0, 49), max_size=8)):
        position %= len(lines)
        lines.insert(position, lines[position])
    return lines


class TestColumnarMatchesReference:
    """The columnar data layer against the object-based one it replaced
    (``tests/reference.py``), on generated logs."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        lines=event_logs(),
        horizon_days=st.integers(1, 45),
        max_seq_len=st.integers(1, 6),
        min_degree=st.integers(1, 4),
    )
    def test_examples_filter_and_marginals(self, lines, horizon_days, max_seq_len, min_degree):
        log = ingest_logs(io.StringIO("".join(f"u{u},i{i},{d}\n" for u, i, d in lines)))
        parsed = [(log.user_vocab[f"u{u}"], log.item_vocab[f"i{i}"], d) for u, i, d in lines]
        records = [InteractionRecord(*row) for row in sorted(parsed, key=lambda r: (r[0], r[2]))]
        assert event_rows(log) == [(r.user_id, r.item_id, r.day) for r in records]

        examples = build_examples(log.records, horizon_days, max_seq_len)
        reference = reference_build_examples(records, horizon_days, max_seq_len)
        assert example_rows(examples) == _rows(reference)
        # key ids number the distinct pseudo-users in sorted-tuple order
        assert list(examples.table) == sorted({ex.pseudo_user for ex in reference})
        assert examples.month.tolist() == [day // 30 + 1 for day in examples.day.tolist()]

        empty = examples.take(np.zeros(0, dtype=np.int64))
        kept = filter_sparse(DatasetSplit(examples, empty, empty), min_degree).train
        kept_reference = reference_filter(reference, min_degree)
        assert example_rows(kept) == _rows(kept_reference)
        if not kept_reference:
            return
        marginals = compute_marginals(kept, log.num_items)
        expected = reference_marginals(kept_reference)
        assert marginals.total == expected.total
        seen_keys = np.flatnonzero(marginals.count_user).tolist()
        seen_items = np.flatnonzero(marginals.count_item).tolist()
        assert {examples.table[k]: int(marginals.count_user[k]) for k in seen_keys} == expected.count_user
        assert {i: int(marginals.count_item[i]) for i in seen_items} == expected.count_item
        assert {examples.table[k]: float(marginals.log_p_user[k]) for k in seen_keys} == expected.log_p_user
        assert {i: float(marginals.log_p_item[i]) for i in seen_items} == expected.log_p_item
        unseen = np.r_[marginals.log_p_user[marginals.count_user == 0], marginals.log_p_item[marginals.count_item == 0]]
        assert np.all(unseen == -math.log(expected.total + 1))
