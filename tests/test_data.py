"""Data pipeline: ingestion, windowing, splitting, marginals, sampling."""

import io
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from twotower.data import (
    DatasetSplit,
    EmpiricalMarginals,
    IngestError,
    InteractionRecord,
    TrainingExample,
    build_examples,
    compute_marginals,
    filter_sparse,
    ingest_logs,
    make_batches,
    sample_negatives_bce,
    split_by_time,
    write_examples_tsv,
)


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
        assert log.records[0] == log.records[1]

    def test_records_sorted_by_user_then_day(self):
        log = ingest_logs(io.StringIO("u2,i1,9\nu1,i2,7\nu1,i1,2\n"))
        assert [(r.user_id, r.day) for r in log.records] == sorted((r.user_id, r.day) for r in log.records)

    def test_iso_dates_become_day_offsets_and_calendar_months(self, tiny_log):
        days = {r.day for r in tiny_log.records}
        assert min(days) == 0  # earliest date is the epoch
        # 2023-01-05 .. 2023-03-02: January days map to month 1, March to 3
        assert tiny_log.day_to_month[0] == 1
        assert tiny_log.num_months == 3

    def test_integer_days_use_30_day_months(self):
        log = ingest_logs(io.StringIO("u1,i1,0\nu1,i1,29\nu1,i1,30\n"))
        assert log.day_to_month[29] == 1
        assert log.day_to_month[30] == 2

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
        records = [InteractionRecord(0, 7, 1), InteractionRecord(0, 9, 5)]
        examples = build_examples(records, horizon_days=30, max_seq_len=10)
        assert len(examples) == 1
        ex = examples[0]
        assert ex.pseudo_user == (7,)
        assert ex.target_item == 9
        assert ex.day == 5

    def test_single_purchase_yields_nothing(self):
        assert build_examples([InteractionRecord(0, 1, 3)], 30, 10) == []

    def test_four_purchase_user_matches_hand_enumeration(self):
        # purchases: i0@d1, i1@d2, i2@d3, i3@d5 with a 2-day horizon
        records = [
            InteractionRecord(0, 0, 1),
            InteractionRecord(0, 1, 2),
            InteractionRecord(0, 2, 3),
            InteractionRecord(0, 3, 5),
        ]
        examples = build_examples(records, horizon_days=2, max_seq_len=10)
        got = sorted((e.user_id, e.pseudo_user, e.target_item, e.day) for e in examples)
        # by hand: cut@2 -> targets i1@2, i2@3; cut@3 -> i2@3; cut@5 -> i3@5
        assert got == [
            (0, (0,), 1, 2),
            (0, (0,), 2, 2),
            (0, (0, 1), 2, 3),
            (0, (0, 1, 2), 3, 5),
        ]
        assert got == brute_force_windows(records, 2, 10)

    def test_matches_brute_force_on_random_logs(self):
        rng = np.random.default_rng(42)
        records = [
            InteractionRecord(int(rng.integers(5)), int(rng.integers(8)), int(rng.integers(40)))
            for _ in range(120)
        ]
        records.sort(key=lambda r: (r.user_id, r.day))
        for horizon, max_len in [(1, 3), (7, 2), (40, 10)]:
            examples = build_examples(records, horizon, max_len)
            got = sorted((e.user_id, e.pseudo_user, e.target_item, e.day) for e in examples)
            assert got == brute_force_windows(records, horizon, max_len)

    def test_windowing_causality_invariant(self):
        rng = np.random.default_rng(7)
        records = sorted(
            (InteractionRecord(int(rng.integers(4)), int(rng.integers(6)), int(rng.integers(30))) for _ in range(80)),
            key=lambda r: (r.user_id, r.day),
        )
        by_user = {}
        for r in records:
            by_user.setdefault(r.user_id, []).append(r)
        horizon = 5
        for ex in build_examples(records, horizon, max_seq_len=4):
            prior_days = [r.day for r in by_user[ex.user_id] if r.item_id in ex.pseudo_user and r.day < ex.day]
            assert prior_days, "pseudo-user items must predate the cut day"
            target_days = [r.day for r in by_user[ex.user_id] if r.item_id == ex.target_item]
            assert any(ex.day <= d < ex.day + horizon for d in target_days)
            assert len(ex.pseudo_user) <= 4

    def test_truncation_keeps_most_recent(self):
        records = [InteractionRecord(0, i, i) for i in range(6)]
        examples = build_examples(records, horizon_days=1, max_seq_len=2)
        last = [e for e in examples if e.day == 5][0]
        assert last.pseudo_user == (3, 4)


def _example(day: int, user=0, item=0) -> TrainingExample:
    return TrainingExample(user_id=user, pseudo_user=(1,), target_item=item, day=day)


class TestSplitByTime:
    def _month_index(self, months: int, days_per_month: int = 10):
        return {d: d // days_per_month + 1 for d in range(months * days_per_month)}

    def test_paper_interval_semantics(self):
        month_index = self._month_index(10)
        examples = [_example(day=m * 10 - 5) for m in range(1, 11)]  # one per month
        split = split_by_time(examples, months_total=10, month_index=month_index)
        train_months = {month_index[e.day] for e in split.train}
        assert train_months == set(range(1, 10))
        assert {month_index[e.day] for e in split.validation} == {9}
        assert {month_index[e.day] for e in split.test} == {10}
        # validation overlaps the final training month by construction
        assert set(map(id, split.validation)) <= set(map(id, split.train))

    def test_too_few_months_rejected(self):
        with pytest.raises(ValueError):
            split_by_time([], months_total=2, month_index={})

    def test_all_in_final_month_warns_and_returns_empty_train(self, caplog):
        month_index = self._month_index(3)
        examples = [_example(day=25), _example(day=27)]
        with caplog.at_level("WARNING"):
            split = split_by_time(examples, months_total=3, month_index=month_index)
        assert split.train == []
        assert len(split.test) == 2
        assert any("empty" in rec.message for rec in caplog.records)

    def test_months_beyond_total_are_dropped(self):
        month_index = self._month_index(5)
        examples = [_example(day=5), _example(day=45)]  # months 1 and 5
        split = split_by_time(examples, months_total=3, month_index=month_index)
        assert split.train == [examples[0]]
        assert split.test == [] and split.validation == []

    def test_membership_on_random_examples(self):
        rng = np.random.default_rng(3)
        month_index = self._month_index(6)
        examples = [_example(day=int(rng.integers(0, 60))) for _ in range(200)]
        split = split_by_time(examples, months_total=6, month_index=month_index)
        for ex in examples:
            m = month_index[ex.day]
            assert (ex in split.train) == (m <= 5)
            assert (ex in split.validation) == (m == 5)
            assert (ex in split.test) == (m == 6)


def brute_force_degree_filter(examples, min_degree):
    kept = list(examples)
    while True:
        users = Counter(e.pseudo_user for e in kept)
        items = Counter(e.target_item for e in kept)
        nxt = [e for e in kept if users[e.pseudo_user] >= min_degree and items[e.target_item] >= min_degree]
        if len(nxt) == len(kept):
            return nxt
        kept = nxt


class TestFilterSparse:
    def _split(self, test_examples):
        return DatasetSplit(train=[], validation=[], test=test_examples, month_index={})

    def test_rare_item_removed_from_test(self):
        examples = [
            TrainingExample(0, (1,), 5, 0),
            TrainingExample(0, (1,), 5, 1),
            TrainingExample(0, (1,), 7, 2),  # item 7 appears twice only
            TrainingExample(0, (1,), 7, 3),
        ]
        filtered = filter_sparse(self._split(examples), min_degree=3)
        assert all(e.target_item != 7 for e in filtered.test)

    def test_min_degree_one_is_identity(self):
        rng = np.random.default_rng(0)
        examples = [
            TrainingExample(0, (int(rng.integers(3)),), int(rng.integers(4)), d) for d in range(30)
        ]
        filtered = filter_sparse(self._split(examples), min_degree=1)
        assert filtered.test == examples

    def test_matches_brute_force_fixpoint(self):
        rng = np.random.default_rng(11)
        examples = [
            TrainingExample(0, (int(rng.integers(5)),), int(rng.integers(6)), d) for d in range(60)
        ]
        filtered = filter_sparse(self._split(examples), min_degree=3)
        assert filtered.test == brute_force_degree_filter(examples, 3)
        users = Counter(e.pseudo_user for e in filtered.test)
        items = Counter(e.target_item for e in filtered.test)
        for e in filtered.test:
            assert users[e.pseudo_user] >= 3 and items[e.target_item] >= 3

    def test_min_degree_below_one_rejected(self):
        with pytest.raises(ValueError):
            filter_sparse(self._split([]), min_degree=0)


class TestMarginals:
    def test_item_counts(self):
        examples = [TrainingExample(0, (u,), t, 0) for u, t in [(1, 0), (2, 0), (3, 1), (4, 2)]]
        marginals = compute_marginals(examples)
        assert marginals.log_p_item[0] == pytest.approx(math.log(0.5), abs=1e-12)
        assert marginals.total == 4

    def test_single_example_gives_log_one(self):
        marginals = compute_marginals([TrainingExample(0, (1,), 2, 0)])
        assert marginals.log_p_user[(1,)] == 0.0
        assert marginals.log_p_item[2] == 0.0

    def test_normalization_invariant(self):
        rng = np.random.default_rng(5)
        examples = [
            TrainingExample(0, tuple(rng.integers(0, 4, size=rng.integers(1, 4))), int(rng.integers(6)), 0)
            for _ in range(500)
        ]
        marginals = compute_marginals(examples)
        assert math.fsum(math.exp(v) for v in marginals.log_p_user.values()) == pytest.approx(1.0, abs=1e-9)
        assert math.fsum(math.exp(v) for v in marginals.log_p_item.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(marginals.count_user.values()) == marginals.total
        assert sum(marginals.count_item.values()) == marginals.total

    def test_log_bias_reads_training_marginals_with_floor(self):
        """A pseudo-user and an item seen only in validation get ``floor_log()``."""
        train = [TrainingExample(0, (1,), 2, 0), TrainingExample(0, (1,), 3, 0)]
        validation = [TrainingExample(0, (1,), 2, 40), TrainingExample(9, (9,), 9, 40), TrainingExample(0, (1,), 9, 41)]
        marginals = compute_marginals(train)
        floor = marginals.floor_log()
        assert floor == pytest.approx(-math.log(3))
        log_p_u, log_p_i = marginals.log_bias(validation)
        assert log_p_u.tolist() == [0.0, floor, 0.0]
        assert log_p_i.tolist() == [math.log(0.5), floor, floor]

    def test_logs_are_nonpositive(self):
        rng = np.random.default_rng(8)
        examples = [TrainingExample(0, (int(rng.integers(3)),), int(rng.integers(3)), 0) for _ in range(50)]
        marginals = compute_marginals(examples)
        assert all(v <= 0 for v in marginals.log_p_user.values())
        assert all(v <= 0 for v in marginals.log_p_item.values())


def _positives(counts: dict[tuple, int], items: dict[int, int]) -> list[TrainingExample]:
    """Training examples with the requested pseudo-user and item frequencies."""
    out = []
    keys = sorted(counts)
    item_ids = sorted(items)
    k_iter = [k for k in keys for _ in range(counts[k])]
    i_iter = [i for i in item_ids for _ in range(items[i])]
    assert len(k_iter) == len(i_iter)
    for day, (key, item) in enumerate(zip(k_iter, i_iter)):
        out.append(TrainingExample(user_id=key[0], pseudo_user=key, target_item=item, day=day))
    return out


class TestNegativeSampling:
    def test_cardinality(self):
        positives = [TrainingExample(0, (1,), 2, d) for d in range(10)]
        labeled = sample_negatives_bce(positives, "uniform", num_items=5, ratio=1, rng_seed=0)
        assert len(labeled) == 20
        assert sum(1 for e in labeled if e.label == 0) == 10

    def test_ratio_two(self):
        positives = [TrainingExample(0, (1,), 2, d) for d in range(4)]
        labeled = sample_negatives_bce(positives, "uniform", num_items=5, ratio=2, rng_seed=0)
        assert sum(1 for e in labeled if e.label == 0) == 8

    def test_user_marginal_keeps_pseudo_user(self):
        positives = [TrainingExample(u, (u, u + 1), u, 0) for u in range(6)]
        labeled = sample_negatives_bce(positives, "user-marginal", num_items=9, ratio=3, rng_seed=1)
        keys = {e.pseudo_user for e in positives}
        for e in labeled:
            if e.label == 0:
                assert e.pseudo_user in keys

    def test_item_marginal_keeps_target(self):
        positives = [TrainingExample(u, (u,), u % 3, 0) for u in range(6)]
        labeled = sample_negatives_bce(positives, "item-marginal", num_items=9, ratio=2, rng_seed=1)
        by_pos = [e for e in labeled if e.label == 0]
        assert {e.target_item for e in by_pos} <= {0, 1, 2}

    def test_negatives_inherit_day(self):
        positives = [TrainingExample(0, (1,), 2, day=17)]
        labeled = sample_negatives_bce(positives, "uniform", num_items=4, ratio=2, rng_seed=0)
        assert all(e.day == 17 for e in labeled)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            sample_negatives_bce([TrainingExample(0, (1,), 2, 0)], "nope", num_items=3)

    def test_deterministic_under_seed(self):
        positives = [TrainingExample(0, (u,), u, 0) for u in range(5)]
        a = sample_negatives_bce(positives, "product-of-marginals", num_items=7, rng_seed=9)
        b = sample_negatives_bce(positives, "product-of-marginals", num_items=7, rng_seed=9)
        assert a == b

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
        negatives = [e for e in labeled if e.label == 0]
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

        observed = Counter((e.pseudo_user, e.target_item) for e in negatives)
        assert set(observed) <= set(cells)
        obs = np.array([observed.get(cell, 0) for cell in sorted(cells)])
        exp = np.array([cells[cell] for cell in sorted(cells)]) * len(negatives)
        result = chisquare(obs, exp)
        assert result.pvalue > 0.001


class TestBatches:
    def test_batch_sizes(self):
        examples = [_example(day=d) for d in range(130)]
        rng = np.random.default_rng(0)
        sizes = [len(b) for b in make_batches(examples, 64, rng)]
        assert sizes == [64, 64, 2]

    def test_same_seed_same_stream(self):
        examples = [_example(day=d) for d in range(50)]
        a = [tuple(id(e) for e in b) for b in make_batches(examples, 8, np.random.default_rng(3))]
        b = [tuple(id(e) for e in b) for b in make_batches(examples, 8, np.random.default_rng(3))]
        assert a == b

    def test_empty_month_yields_nothing(self):
        assert list(make_batches([], 4, np.random.default_rng(0))) == []


class TestExampleFile:
    def test_written_format(self, tmp_path):
        examples = [TrainingExample(3, (1, 2), 7, 5)]
        marginals = EmpiricalMarginals({(1, 2): math.log(0.5)}, {7: math.log(0.25)}, {(1, 2): 2}, {7: 1}, total=4)
        path = tmp_path / "ex.tsv"
        write_examples_tsv(examples, marginals, str(path))
        assert path.read_text() == "3\t1 2\t7\t-0.693147\t-1.386294\n"

    def test_labeled_format(self, tmp_path):
        from twotower.data import LabeledExample, write_labeled_tsv

        path = tmp_path / "labeled.tsv"
        write_labeled_tsv([LabeledExample(3, (1, 2), 7, 5, label=0)], str(path))
        assert path.read_text() == "3\t1 2\t7\t0\n"
