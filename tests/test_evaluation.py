"""Eval-case construction, ranking, Recall/NDCG oracles, popularity stats."""

import math

import numpy as np
import pytest

from reference import events_of, example_rows, examples_of
from twotower.data import Sequences
from twotower.evaluation import (
    EvalCase,
    EvalPool,
    PoolTooSmallError,
    build_eval_cases,
    evaluate,
    ndcg_at_n,
    popularity_counts,
    popularity_stats,
    rank_candidates,
    recall_at_n,
)
from twotower.model import EncoderConfig, ModelParams, encode_item, encode_user, score

ENC = EncoderConfig("mean")


def brute_recall(ranking, positives, cutoff):
    """Loop-and-count implementation kept deliberately naive."""
    hits = 0
    for candidate in list(ranking)[:cutoff]:
        if candidate in positives:
            hits += 1
    return hits / (1.0 * min(len(positives), cutoff))


def brute_ndcg(ranking, positives, cutoff):
    dcg = 0.0
    rank = 0
    for candidate in list(ranking)[:cutoff]:
        rank += 1
        if candidate in positives:
            dcg += math.log(2.0) / math.log(rank + 1.0)
    ideal = 0.0
    for rank in range(1, min(len(positives), cutoff) + 1):
        ideal += math.log(2.0) / math.log(rank + 1.0)
    return dcg / ideal


def _case(positives, candidates, cutoff, task="ir"):
    return EvalCase(task=task, query=0, positives=frozenset(positives), candidates=tuple(candidates), cutoff=cutoff)


class TestMetricFormulas:
    def test_single_positive_inside_cutoff(self):
        case = _case({5}, range(10), cutoff=10)
        ranking = [9, 8, 5, 0, 1, 2, 3, 4, 6, 7]
        assert recall_at_n(case, ranking) == 1.0

    def test_two_positives_one_hit(self):
        case = _case({1, 2}, range(20), cutoff=10)
        ranking = [1] + [x for x in range(20) if x not in (1, 2)] + [2]
        assert recall_at_n(case, ranking) == 0.5

    def test_cutoff_smaller_than_positives(self):
        case = _case({1, 2, 3}, range(10), cutoff=2)
        ranking = [1, 2] + [x for x in range(10) if x not in (1, 2)]
        assert recall_at_n(case, ranking) == 1.0  # denominator min(3, 2)

    def test_ndcg_rank_one(self):
        case = _case({4}, range(5), cutoff=5)
        assert ndcg_at_n(case, [4, 0, 1, 2, 3]) == pytest.approx(1.0)

    def test_ndcg_rank_two(self):
        case = _case({4}, range(12), cutoff=10)
        ranking = [0, 4] + [x for x in range(12) if x not in (0, 4)]
        assert ndcg_at_n(case, ranking) == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)

    def test_ndcg_outside_cutoff(self):
        case = _case({11}, range(12), cutoff=10)
        ranking = list(range(11)) + [11]
        assert ndcg_at_n(case, ranking) == 0.0

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            pool = int(rng.integers(3, 30))
            cutoff = int(rng.integers(1, pool + 3))
            num_pos = int(rng.integers(1, pool))
            candidates = list(range(pool))
            positives = set(int(x) for x in rng.choice(pool, size=num_pos, replace=False))
            ranking = list(rng.permutation(pool))
            case = _case(positives, candidates, cutoff)
            assert recall_at_n(case, ranking) == pytest.approx(brute_recall(ranking, positives, cutoff), abs=1e-12)
            assert ndcg_at_n(case, ranking) == pytest.approx(brute_ndcg(ranking, positives, cutoff), abs=1e-12)

    def test_hitrate_equals_recall_for_single_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pool = 20
            positive = int(rng.integers(pool))
            ranking = list(rng.permutation(pool))
            cutoff = int(rng.integers(1, pool))
            case = _case({positive}, range(pool), cutoff)
            hit = 1.0 if positive in ranking[:cutoff] else 0.0
            assert recall_at_n(case, ranking) == hit

    def test_ndcg_is_one_iff_leading_ranks_are_all_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pool = int(rng.integers(3, 15))
            cutoff = int(rng.integers(1, pool))
            num_pos = int(rng.integers(1, pool))
            positives = frozenset(int(x) for x in rng.choice(pool, size=num_pos, replace=False))
            ranking = [int(x) for x in rng.permutation(pool)]
            case = _case(positives, range(pool), cutoff)
            leading = min(num_pos, cutoff)
            all_leading_positive = all(c in positives for c in ranking[:leading])
            assert (ndcg_at_n(case, ranking) == pytest.approx(1.0, abs=1e-12)) == all_leading_positive

    def test_permutation_below_cutoff_is_invisible(self):
        rng = np.random.default_rng(2)
        case = _case({3, 7}, range(15), cutoff=5)
        ranking = list(rng.permutation(15))
        shuffled_tail = ranking[:5] + list(rng.permutation(ranking[5:]))
        assert recall_at_n(case, ranking) == recall_at_n(case, shuffled_tail)
        assert ndcg_at_n(case, ranking) == pytest.approx(ndcg_at_n(case, shuffled_tail), abs=1e-15)


def make_test_examples(num_users=6, num_items=8, per_user=2, day=95):
    rows = []
    for u in range(num_users):
        for k in range(per_user):
            rows.append((u, (u % num_items, (u + 1) % num_items), (u + k) % num_items, day + k))
    return examples_of(rows)


class TestBuildCases:
    def test_pool_size_matches_protocol(self):
        examples = examples_of([(u, (u % 3,), u % 7, 90) for u in range(40)])
        cases, pool = build_eval_cases(examples, "ir", num_negatives=5, seed=0, cutoff=3)
        assert len(cases) == 40
        for case in cases:
            assert len(case.candidates) == 6  # 1 positive + 5 negatives
            assert case.positives <= set(case.candidates)

    def test_standard_protocol_pool_of_one_hundred(self):
        """1 positive + 99 sampled negatives per case."""
        examples = examples_of([(u, (u,), u + 10, 90) for u in range(120)])
        cases, _ = build_eval_cases(examples, "ir", num_negatives=99, seed=3, cutoff=10)
        for case in cases:
            assert len(case.candidates) == 100
            assert len(case.positives) == 1
            assert len(set(case.candidates)) == 100  # drawn without replacement

    def test_zero_negatives_gives_trivial_recall(self):
        examples = examples_of([(0, (1,), 4, 90)])
        cases, pool = build_eval_cases(examples, "ir", num_negatives=0, seed=0, cutoff=5)
        params = ModelParams.initialize(8, 4, 0.25, 0)
        ranking = rank_candidates(cases[0], params, ENC, pool)
        assert recall_at_n(cases[0], ranking) == 1.0

    def test_negatives_never_collide_with_user_positives(self):
        examples = make_test_examples()
        cases, _ = build_eval_cases(examples, "ir", num_negatives=3, seed=1, cutoff=3)
        positives_by_user = {}
        rows = example_rows(examples)
        for user, _, target, _ in rows:
            positives_by_user.setdefault(user, set()).add(target)
        for case, (user, _, _, _) in zip(cases, sorted(rows, key=lambda r: (r[0], r[3], r[2], r[1]))):
            negatives = set(case.candidates) - case.positives
            assert not (negatives & positives_by_user[user])

    def test_pool_too_small_rejected(self):
        examples = examples_of([(0, (1,), 4, 90)])
        with pytest.raises(ValueError, match="pool"):
            build_eval_cases(examples, "ir", num_negatives=10, seed=0, cutoff=5)

    def test_settings_are_checked_before_the_pool(self):
        """A bad cutoff is a plain ``ValueError``, not a too-small pool."""
        examples = examples_of([(0, (1,), 4, 90)])
        with pytest.raises(PoolTooSmallError):
            build_eval_cases(examples, "ir", num_negatives=10, seed=0, cutoff=5)
        with pytest.raises(ValueError, match="cutoff") as info:
            build_eval_cases(examples, "ir", num_negatives=10, seed=0, cutoff=0)
        assert not isinstance(info.value, PoolTooSmallError)

    def test_deterministic_under_seed(self):
        examples = make_test_examples()
        a, _ = build_eval_cases(examples, "ir", num_negatives=3, seed=9, cutoff=3)
        b, _ = build_eval_cases(examples, "ir", num_negatives=3, seed=9, cutoff=3)
        assert a == b

    def test_user_targeting_symmetry(self):
        examples = make_test_examples()
        cases, pool = build_eval_cases(examples, "ut", num_negatives=2, seed=2, cutoff=3)
        assert pool.user_keys is not None
        for case in cases:
            assert isinstance(case.query, int)  # the item
            for cand in case.candidates:
                assert 0 <= cand < len(pool.user_keys)


class TestRanking:
    def test_order_follows_scores(self):
        params = ModelParams.initialize(4, 3, 0.25, 0)
        params.item_embeddings[:] = np.array(
            [[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]
        )
        case = EvalCase("ir", 0, frozenset({1}), (1, 2, 3), 3)  # query: key 0, the sequence (0,)
        ranking = rank_candidates(case, params, ENC, EvalPool("ir", Sequences.of([(0,)])))
        assert ranking == [1, 2, 3]

    def test_ties_break_by_ascending_id(self):
        params = ModelParams.initialize(5, 2, 0.25, 0)
        params.item_embeddings[:] = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.5, 0.0], [0.0, 1.0]])
        # items 1,2,3 all have cosine 1 with the query row 0
        case = EvalCase("ir", 0, frozenset({2}), (3, 1, 2, 4), 4)
        ranking = rank_candidates(case, params, ENC, EvalPool("ir", Sequences.of([(0,)])))
        assert ranking == [1, 2, 3, 4]

    def test_matches_pairwise_scoring_oracle(self):
        params = ModelParams.initialize(9, 4, 0.25, 3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            seq = tuple(int(x) for x in rng.integers(0, 9, size=rng.integers(1, 4)))
            candidates = tuple(int(x) for x in rng.choice(9, size=5, replace=False))
            case = EvalCase("ir", 0, frozenset({candidates[0]}), candidates, 3)
            ranking = rank_candidates(case, params, ENC, EvalPool("ir", Sequences.of([seq])))
            user = encode_user(seq, params, ENC)
            scored = sorted(
                candidates,
                key=lambda item: (-score(user, encode_item(item, params), params.temperature), item),
            )
            assert ranking == scored

    def test_ut_ranking_uses_user_tower(self):
        params = ModelParams.initialize(6, 3, 0.25, 5)
        keys = ((0,), (1, 2), (3,))
        pool = EvalPool("ut", Sequences.of(keys), user_keys=np.arange(3), key_owner=np.arange(3))
        case = EvalCase("ut", 4, frozenset({1}), (0, 1, 2), 3)
        ranking = rank_candidates(case, params, ENC, pool)
        item_vec = encode_item(4, params)
        scored = sorted(
            range(3), key=lambda pos: (-score(encode_user(keys[pos], params, ENC), item_vec, params.temperature), pos)
        )
        assert ranking == scored


class TestPopularity:
    def test_constant_popularity(self):
        counts = np.array([0, 100, 100, 100])
        median, mean = popularity_stats([[1, 2], [3]], counts)
        assert median == 100 and mean == 100

    def test_hand_built_log(self):
        records = events_of([(0, 1, 10), (1, 1, 20), (0, 2, 30), (0, 3, 400)])  # day 400 is outside the window
        items, users = popularity_counts(records, anchor_day=365, window_days=365)
        assert items.tolist() == [0, 2, 1, 0]
        assert users.tolist() == [2, 1]
        median, mean = popularity_stats([[1, 2, 3]], items)
        assert median == 1 and mean == pytest.approx(1.0)

    def test_window_boundaries(self):
        records = events_of([(0, 1, 0), (0, 1, 364), (0, 1, 365)])
        items, _ = popularity_counts(records, anchor_day=365, window_days=365)
        assert items[1] == 2  # day 365 is outside [0, 365)


class TestEvaluate:
    def test_aggregate_is_mean_of_cases(self):
        examples = make_test_examples()
        cases, pool = build_eval_cases(examples, "ir", num_negatives=3, seed=0, cutoff=3)
        params = ModelParams.initialize(8, 4, 0.25, 1)
        report = evaluate(cases, pool, params, ENC, keep_per_case=True)
        assert report.num_cases == len(cases)
        assert report.recall_at_n == pytest.approx(np.mean([c["recall"] for c in report.per_case]))
        assert report.ndcg_at_n == pytest.approx(np.mean([c["ndcg"] for c in report.per_case]))
        assert 0.0 <= report.recall_at_n <= 1.0
        assert 0.0 <= report.ndcg_at_n <= 1.0

    def test_popularity_attached_when_records_given(self):
        examples = make_test_examples()
        cases, pool = build_eval_cases(examples, "ir", num_negatives=3, seed=0, cutoff=3)
        params = ModelParams.initialize(8, 4, 0.25, 1)
        records = events_of([(0, i % 8, 50) for i in range(40)])
        report = evaluate(cases, pool, params, ENC, records=records, anchor_day=90)
        assert report.popularity_median is not None
        assert report.popularity_mean == pytest.approx(5.0)  # every item appears 5 times

    def test_deterministic_reports(self):
        examples = make_test_examples()
        params = ModelParams.initialize(8, 4, 0.25, 1)
        reports = []
        for _ in range(2):
            cases, pool = build_eval_cases(examples, "ir", num_negatives=3, seed=7, cutoff=3)
            reports.append(evaluate(cases, pool, params, ENC))
        assert reports[0] == reports[1]


def reference_cases(rows, task, num_negatives, seed, cutoff):
    """The case draw as first written, over ``(user, pseudo-user, target,
    day)`` rows: one ``np.isin`` per case, then ``rng.choice`` over that
    case's eligible negatives."""
    rng = np.random.default_rng(seed)
    ordered = sorted(rows, key=lambda r: (r[0], r[3], r[2], r[1]))
    out = []
    if task == "ir":
        pool_arr = np.array(sorted({target for _, _, target, _ in ordered}), dtype=np.int64)
        positives = {}
        for user, _, target, _ in ordered:
            positives.setdefault(user, set()).add(target)
        for user, seq, target, _ in ordered:
            eligible = pool_arr[~np.isin(pool_arr, sorted(positives[user]))]
            negs = rng.choice(eligible, size=num_negatives, replace=False) if num_negatives else []
            out.append((seq, target, (target, *[int(n) for n in negs])))
        return out
    keys = sorted({seq for _, seq, _, _ in ordered})
    key_index = {key: pos for pos, key in enumerate(keys)}
    positives = {}
    for _, seq, target, _ in ordered:
        positives.setdefault(target, set()).add(key_index[seq])
    all_indices = np.arange(len(keys))
    for _, seq, target, _ in ordered:
        eligible = all_indices[~np.isin(all_indices, sorted(positives[target]))]
        negs = rng.choice(eligible, size=num_negatives, replace=False) if num_negatives else []
        positive = key_index[seq]
        out.append((target, positive, (positive, *[int(n) for n in negs])))
    return out


def random_rows(rng, num_users=30, num_items=40, count=120):
    """Test example rows with repeated users, items and pseudo-user keys."""
    out = []
    for _ in range(count):
        user = int(rng.integers(num_users))
        seq = tuple(int(x) for x in rng.integers(0, num_items, size=int(rng.integers(1, 5))))
        out.append((user, seq, int(rng.integers(num_items)), int(rng.integers(90, 120))))
    return out


class TestCaseDrawUnchanged:
    @pytest.mark.parametrize("task", ["ir", "ut"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 101])
    def test_matches_per_case_reference(self, task, seed):
        rows = random_rows(np.random.default_rng(seed + 1000))
        for num_negatives in (0, 5, 15):
            cases, pool = build_eval_cases(examples_of(rows), task, num_negatives=num_negatives, seed=seed, cutoff=4)
            queries = [pool.table[c.query] if task == "ir" else c.query for c in cases]
            got = [(query, next(iter(c.positives)), c.candidates) for query, c in zip(queries, cases)]
            assert got == reference_cases(rows, task, num_negatives, seed, 4)


def oracle_scores(case, params, enc, pool):
    """Per-case reference scores from ``encode_user`` and ``score``."""
    if case.task == "ir":
        user = encode_user(pool.table[case.query], params, enc)
        return {c: score(user, params.item_embeddings[c], params.temperature) for c in case.candidates}
    item = params.item_embeddings[case.query]
    keys = pool.user_keys.tolist()
    return {c: score(encode_user(pool.table[keys[c]], params, enc), item, params.temperature) for c in case.candidates}


class TestRankingIndexMatchesOracle:
    """``evaluate`` and ``rank_candidates`` rank exactly like the per-case oracle,
    exact ties included."""

    @staticmethod
    def tied_setup(seed, aggregator):
        rng = np.random.default_rng(seed)
        num_items = 40
        params = ModelParams.initialize(num_items, 6, 0.2, seed)
        params.attention_vector[:] = rng.normal(size=6)
        # Duplicate item rows: items 5, 6 and 7 score exactly alike for every query.
        params.item_embeddings[6] = params.item_embeddings[5]
        params.item_embeddings[7] = params.item_embeddings[5]
        rows = random_rows(rng, num_items=num_items)
        # (3,), (3, 3) and (9, 3) are different keys; the first two share the
        # vector under every aggregator, (9, 3) ties with them under "last".
        for user, seq in enumerate([(3,), (3, 3), (9, 3)]):
            for target in (5, 11, 12):
                rows.append((100 + user, seq, target, 95))
        return params, examples_of(rows), EncoderConfig(aggregator)

    @pytest.mark.parametrize("aggregator", ["mean", "last", "attention"])
    @pytest.mark.parametrize("task", ["ir", "ut"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_evaluate_and_rank_candidates(self, aggregator, task, seed):
        params, examples, enc = self.tied_setup(seed, aggregator)
        cases, pool = build_eval_cases(examples, task, num_negatives=25, seed=seed, cutoff=5)
        report = evaluate(cases, pool, params, enc, keep_per_case=True)
        recalls, ndcgs, tied = [], [], 0
        for case, row in zip(cases, report.per_case):
            scores = oracle_scores(case, params, enc, pool)
            expected = sorted(case.candidates, key=lambda c: (-scores[c], c))
            tied += len(set(scores.values())) < len(scores)
            assert rank_candidates(case, params, enc, pool) == expected
            top = expected[: case.cutoff]
            if task == "ut":
                top = [int(pool.key_owner[idx]) for idx in top]
            assert row["top"] == top
            assert row["recall"] == recall_at_n(case, expected)
            assert row["ndcg"] == ndcg_at_n(case, expected)
            recalls.append(row["recall"])
            ndcgs.append(row["ndcg"])
        assert tied > 0  # the exact-tie path is exercised
        assert report.recall_at_n == float(np.mean(recalls))
        assert report.ndcg_at_n == float(np.mean(ndcgs))
