"""Eval-case construction, ranking, Recall/NDCG oracles, popularity stats."""

import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from reference import encode_user, events_of, example_rows, examples_of, reference_order, reference_rank, score
from twotower import evaluation
from twotower.data import Sequences
from twotower.evaluation import (
    RANK_CHUNK,
    EvalPool,
    PoolTooSmallError,
    RankingIndex,
    build_eval_cases,
    evaluate,
    popularity_counts,
    popularity_stats,
    positive_rank,
    rank_metrics,
    select_top_n,
    top_n,
)
from twotower.model import ModelParams


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


def metrics(positive, ranking, cutoff):
    """Recall and NDCG of one case whose ``ranking`` holds its ``positive``."""
    recall, ndcg = rank_metrics(np.array([list(ranking).index(positive)]), cutoff)
    return float(recall[0]), float(ndcg[0])


class TestMetricFormulas:
    def test_single_positive_inside_cutoff(self):
        ranking = [9, 8, 5, 0, 1, 2, 3, 4, 6, 7]
        assert metrics(5, ranking, cutoff=10)[0] == 1.0

    def test_ndcg_rank_one(self):
        assert metrics(4, [4, 0, 1, 2, 3], cutoff=5)[1] == pytest.approx(1.0)

    def test_ndcg_rank_two(self):
        ranking = [0, 4] + [x for x in range(12) if x not in (0, 4)]
        assert metrics(4, ranking, cutoff=10)[1] == pytest.approx(1.0 / math.log2(3.0), abs=1e-12)

    def test_ndcg_outside_cutoff(self):
        ranking = list(range(11)) + [11]
        assert metrics(11, ranking, cutoff=10) == (0.0, 0.0)

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            pool = int(rng.integers(3, 30))
            cutoff = int(rng.integers(1, pool + 3))
            positive = int(rng.integers(pool))
            ranking = list(rng.permutation(pool))
            recall, ndcg = metrics(positive, ranking, cutoff)
            assert recall == pytest.approx(brute_recall(ranking, {positive}, cutoff), abs=1e-12)
            assert ndcg == pytest.approx(brute_ndcg(ranking, {positive}, cutoff), abs=1e-12)

    def test_hitrate_equals_recall_for_single_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pool = 20
            positive = int(rng.integers(pool))
            ranking = list(rng.permutation(pool))
            cutoff = int(rng.integers(1, pool))
            hit = 1.0 if positive in ranking[:cutoff] else 0.0
            assert metrics(positive, ranking, cutoff)[0] == hit

    def test_ndcg_is_one_iff_leading_ranks_are_all_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pool = int(rng.integers(3, 15))
            cutoff = int(rng.integers(1, pool))
            positive = int(rng.integers(pool))
            ranking = [int(x) for x in rng.permutation(pool)]
            assert (metrics(positive, ranking, cutoff)[1] == pytest.approx(1.0, abs=1e-12)) == (ranking[0] == positive)

    def test_permutation_below_cutoff_is_invisible(self):
        rng = np.random.default_rng(2)
        ranking = list(rng.permutation(15))
        shuffled_tail = ranking[:5] + list(rng.permutation(ranking[5:]))
        for positive in range(15):
            assert metrics(positive, ranking, 5) == metrics(positive, shuffled_tail, 5)

    def test_gains_are_the_reciprocal_log2_of_the_rank(self):
        """Bit for bit ``1 / log2(k + 2)``; a cutoff past every rank builds no longer table."""
        ranks = np.arange(40)
        for cutoff in (1, 7, 40, 10**12):
            recall, ndcg = rank_metrics(ranks, cutoff)
            assert recall.tolist() == [float(k < cutoff) for k in range(40)]
            assert ndcg.tolist() == [1.0 / math.log2(k + 2) if k < cutoff else 0.0 for k in range(40)]


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
        assert cases.candidates.shape == (40, 6)  # 1 positive + 5 negatives
        assert np.all(cases.candidates[:, 0] == cases.positive)

    def test_standard_protocol_pool_of_one_hundred(self):
        """1 positive + 99 sampled negatives per case."""
        examples = examples_of([(u, (u,), u + 10, 90) for u in range(120)])
        cases, _ = build_eval_cases(examples, "ir", num_negatives=99, seed=3, cutoff=10)
        assert cases.candidates.shape == (120, 100)
        assert cases.positive.shape == (120,)
        assert np.all(np.diff(np.sort(cases.candidates, axis=1), axis=1) > 0)  # drawn without replacement

    def test_zero_negatives_gives_trivial_recall(self):
        examples = examples_of([(0, (1,), 4, 90)])
        cases, pool = build_eval_cases(examples, "ir", num_negatives=0, seed=0, cutoff=5)
        params = ModelParams.initialize(8, 4, 0.25, 0)
        assert cases.candidates.tolist() == [[4]]
        assert evaluate(cases, pool, params).recall_at_n == 1.0

    def test_negatives_never_collide_with_user_positives(self):
        examples = make_test_examples()
        cases, _ = build_eval_cases(examples, "ir", num_negatives=3, seed=1, cutoff=3)
        positives_by_user = {}
        rows = example_rows(examples)
        for user, _, target, _ in rows:
            positives_by_user.setdefault(user, set()).add(target)
        ordered = sorted(rows, key=lambda r: (r[0], r[3], r[2], r[1]))
        for negatives, (user, _, _, _) in zip(cases.candidates[:, 1:].tolist(), ordered):
            assert not (set(negatives) & positives_by_user[user])

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
        assert (a.task, a.cutoff) == (b.task, b.cutoff)
        for name in ("query", "positive", "candidates"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_user_targeting_symmetry(self):
        examples = make_test_examples()
        cases, pool = build_eval_cases(examples, "ut", num_negatives=2, seed=2, cutoff=3)
        assert pool.user_keys is not None
        assert cases.query.dtype.kind == "i"  # the items
        assert np.all((0 <= cases.candidates) & (cases.candidates < len(pool.user_keys)))


def rank_one(index, task, query, candidates):
    """The ranking of one case as a list: its top N at N = the row width."""
    ids = np.array([candidates])
    return top_n(index.scores(task, np.array([query]), ids), ids, len(candidates))[0][0].tolist()


class TestRanking:
    def test_order_follows_scores(self):
        params = ModelParams.initialize(4, 3, 0.25, 0)
        params.item_embeddings[:] = np.array(
            [[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]
        )
        index = RankingIndex.build(params, Sequences.of([(0,)]))  # user row 0: the sequence (0,)
        assert rank_one(index, "ir", 0, [1, 2, 3]) == [1, 2, 3]

    def test_ties_break_by_ascending_id(self):
        params = ModelParams.initialize(5, 2, 0.25, 0)
        params.item_embeddings[:] = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.5, 0.0], [0.0, 1.0]])
        # items 1,2,3 all have cosine 1 with the query row 0
        index = RankingIndex.build(params, Sequences.of([(0,)]))
        assert rank_one(index, "ir", 0, [3, 1, 2, 4]) == [1, 2, 3, 4]

    def test_matches_pairwise_scoring_oracle(self):
        params = ModelParams.initialize(9, 4, 0.25, 3)
        rng = np.random.default_rng(4)
        seqs = [tuple(int(x) for x in rng.integers(0, 9, size=rng.integers(1, 4))) for _ in range(20)]
        candidates = np.array([rng.choice(9, size=5, replace=False) for _ in seqs])
        index = RankingIndex.build(params, Sequences.of(seqs))
        row_scores = index.scores("ir", np.arange(20), candidates)
        ranked, scores = top_n(row_scores, candidates, 5)
        ranks = positive_rank(row_scores, candidates, candidates[:, 0])
        for seq, row, got, got_scores, rank in zip(seqs, candidates.tolist(), ranked.tolist(), scores, ranks):
            user = encode_user(seq, params)
            oracle = {item: score(user, params.item_embeddings[item], params.temperature) for item in row}
            assert got == sorted(row, key=lambda item: (-oracle[item], item))
            assert rank == got.index(row[0])
            np.testing.assert_allclose(got_scores, [oracle[item] for item in got], rtol=0, atol=1e-12)

    def test_ut_ranking_uses_user_tower(self):
        params = ModelParams.initialize(6, 3, 0.25, 5)
        keys = ((0,), (1, 2), (3,))
        index = RankingIndex.build(params, Sequences.of(keys))
        item_vec = params.item_embeddings[4]
        scored = sorted(
            range(3), key=lambda pos: (-score(encode_user(keys[pos], params), item_vec, params.temperature), pos)
        )
        assert rank_one(index, "ut", 4, [0, 1, 2]) == scored


class TestPopularity:
    def test_constant_popularity(self):
        counts = np.array([0, 100, 100, 100])
        median, mean = popularity_stats(np.array([1, 2, 3]), counts)
        assert median == 100 and mean == 100

    def test_hand_built_log(self):
        records = events_of([(0, 1, 10), (1, 1, 20), (0, 2, 30), (0, 3, 400)])  # day 400 is outside the window
        items, users = popularity_counts(records, anchor_day=365, window_days=365)
        assert items.tolist() == [0, 2, 1, 0]
        assert users.tolist() == [2, 1]
        median, mean = popularity_stats(np.array([[1, 2, 3]]), items)
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
        report = evaluate(cases, pool, params, keep_per_case=True)
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
        report = evaluate(cases, pool, params, records=records, anchor_day=90)
        assert report.popularity_median is not None
        assert report.popularity_mean == pytest.approx(5.0)  # every item appears 5 times

    def test_deterministic_reports(self):
        examples = make_test_examples()
        params = ModelParams.initialize(8, 4, 0.25, 1)
        reports = []
        for _ in range(2):
            cases, pool = build_eval_cases(examples, "ir", num_negatives=3, seed=7, cutoff=3)
            reports.append(evaluate(cases, pool, params))
        assert reports[0] == reports[1]


def random_rows(rng, num_users=30, num_items=40, count=120):
    """Test example rows with repeated users, items and pseudo-user keys."""
    out = []
    for _ in range(count):
        user = int(rng.integers(num_users))
        seq = tuple(int(x) for x in rng.integers(0, num_items, size=int(rng.integers(1, 5))))
        out.append((user, seq, int(rng.integers(num_items)), int(rng.integers(90, 120))))
    return out


def case_groups(rows, task):
    """Per case of ``(user, pseudo-user, target, day)`` rows, in the order
    ``build_eval_cases`` puts them: its exclusion group, its positive as a
    candidate id, and the set of its eligible negatives."""
    ordered = sorted(rows, key=lambda r: (r[0], r[3], r[2], r[1]))
    excluded = {}
    if task == "ir":
        universe = {target for _, _, target, _ in rows}
        for user, _, target, _ in rows:
            excluded.setdefault(user, set()).add(target)
        return [(user, target, universe - excluded[user]) for user, _, target, _ in ordered]
    index = {key: pos for pos, key in enumerate(sorted({tuple(seq) for _, seq, _, _ in rows}))}
    for _, seq, target, _ in rows:
        excluded.setdefault(target, set()).add(index[tuple(seq)])
    universe = set(index.values())
    return [(target, index[tuple(seq)], universe - excluded[target]) for _, seq, target, _ in ordered]


def reference_draw(rows, task, num_negatives, seed):
    """The keyed draw one case at a time, in case order: each case takes the
    next ``len(universe)`` doubles of the stream as the keys of the sorted
    universe, keys every member outside its eligible pool 2.0, and keeps the
    members with the ``num_negatives`` smallest keys (sorted: the order of a
    row's negatives is free).  Per case: ``(positive, negatives)``."""
    rng = np.random.default_rng(seed)
    universe = sorted({r[2] for r in rows}) if task == "ir" else range(len({tuple(r[1]) for r in rows}))
    out = []
    for _, positive, eligible in case_groups(rows, task):
        keys = [key if member in eligible else 2.0 for member, key in zip(universe, rng.random(len(universe)))]
        out.append((positive, sorted(universe[j] for j in np.argsort(keys)[:num_negatives])))
    return out


def assert_valid_draw(cases, groups):
    """Each row holds its positive first, then distinct eligible negatives."""
    for row, (_, positive, eligible) in zip(cases.candidates.tolist(), groups):
        assert row[0] == positive
        assert len(set(row[1:])) == len(row) - 1
        assert set(row[1:]) <= eligible


class TestCaseDraw:
    @pytest.mark.parametrize("task", ["ir", "ut"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 101])
    def test_matches_per_case_reference(self, task, seed):
        rows = random_rows(np.random.default_rng(seed + 1000))
        for num_negatives in (0, 5, 15):
            cases, _ = build_eval_cases(examples_of(rows), task, num_negatives=num_negatives, seed=seed, cutoff=4)
            got = [(row[0], sorted(row[1:])) for row in cases.candidates.tolist()]
            assert got == reference_draw(rows, task, num_negatives, seed)

    @pytest.mark.parametrize("task", ["ir", "ut"])
    def test_negatives_are_uniform_over_each_groups_pool(self, task):
        """Eight users each buy two of eight items, 300 times over: every
        exclusion group (a user for IR, an item for UT) leaves six eligible
        negatives, and its 1,800 drawn negatives spread evenly over them
        (one chi-square over all groups, one degree of freedom lost per group)."""
        rows = [(u, (u,), (u + j) % 8, 90 + r) for u in range(8) for j in range(2) for r in range(300)]
        cases, _ = build_eval_cases(examples_of(rows), task, num_negatives=3, seed=11, cutoff=3)
        groups = case_groups(rows, task)
        assert_valid_draw(cases, groups)
        drawn = {group: Counter() for group, _, _ in groups}
        for row, (group, _, _) in zip(cases.candidates[:, 1:].tolist(), groups):
            drawn[group].update(row)
        eligible = {group: sorted(pool) for group, _, pool in groups}
        observed = np.array([drawn[group][c] for group in sorted(drawn) for c in eligible[group]])
        assert observed.size == 8 * 6 and observed.sum() == 8 * 1_800
        assert chisquare(observed, ddof=len(drawn) - 1).pvalue > 0.001


    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple),
                st.integers(0, 9),
                st.integers(90, 99),
            ),
            min_size=1,
            max_size=30,
        ),
        task=st.sampled_from(["ir", "ut"]),
        request=st.sampled_from(["none", "one", "all", "one too many"]),
        seed=st.integers(0, 2**16),
    )
    def test_draw_properties(self, rows, task, request, seed):
        """Positive first, no excluded or repeated negative, the same draw for
        the same seed, and a too-small pool refused exactly when the smallest
        group holds fewer eligible negatives than requested."""
        groups = case_groups(rows, task)
        smallest = min(len(eligible) for _, _, eligible in groups)
        num_negatives = {"none": 0, "one": 1, "all": smallest, "one too many": smallest + 1}[request]
        examples = examples_of(rows)
        if num_negatives > smallest:
            what = "item" if task == "ir" else "user"
            message = f"{what} pool too small: {smallest} eligible negatives, {num_negatives} requested"
            with pytest.raises(PoolTooSmallError, match=message):
                build_eval_cases(examples, task, num_negatives=num_negatives, seed=seed, cutoff=3)
            return
        cases, _ = build_eval_cases(examples, task, num_negatives=num_negatives, seed=seed, cutoff=3)
        again, _ = build_eval_cases(examples, task, num_negatives=num_negatives, seed=seed, cutoff=3)
        assert cases.candidates.shape == (len(rows), 1 + num_negatives)
        np.testing.assert_array_equal(cases.candidates, again.candidates)
        assert_valid_draw(cases, groups)

    @pytest.mark.parametrize("task", ["ir", "ut"])
    def test_block_boundary_inside_a_group(self, task, monkeypatch):
        """Blocks of two cases split the cases of user 0 (five, IR) and of
        item 0 (four, UT); each block keys its own exclusions, and the draw
        is the one a single block makes."""
        rows = [(0, (0,), 0, 90 + r) for r in range(3)] + [(0, (0,), 1, 95), (0, (1,), 0, 96)]
        rows += [(u, (u,), u + 1, 90) for u in range(1, 9)]
        examples = examples_of(rows)
        whole, _ = build_eval_cases(examples, task, num_negatives=5, seed=4, cutoff=3)
        universe = len({r[2] for r in rows}) if task == "ir" else len({r[1] for r in rows})
        monkeypatch.setattr(evaluation, "CASE_CELLS", 2 * universe)
        blocks, _ = build_eval_cases(examples, task, num_negatives=5, seed=4, cutoff=3)
        assert_valid_draw(blocks, case_groups(rows, task))
        np.testing.assert_array_equal(blocks.candidates, whole.candidates)


def oracle_scores(cases, pool, params):
    """Per-case reference scores from ``encode_user`` and ``score``, one
    dict per case; each distinct pseudo-user is encoded once."""
    encoded = {}

    def user(key):
        if key not in encoded:
            encoded[key] = encode_user(pool.table[key], params)
        return encoded[key]

    out = []
    for query, candidates in zip(cases.query.tolist(), cases.candidates.tolist()):
        if cases.task == "ir":
            out.append({c: score(user(query), params.item_embeddings[c], params.temperature) for c in candidates})
        else:
            item = params.item_embeddings[query]
            keys = pool.user_keys
            out.append({c: score(user(int(keys[c])), item, params.temperature) for c in candidates})
    return out


class TestRankingIndexMatchesOracle:
    """``evaluate``, ``positive_rank`` and ``top_n`` rank exactly like the
    per-case oracle, exact ties included, over more cases than one
    ``RANK_CHUNK``."""

    @staticmethod
    def tied_setup(seed, aggregator):
        rng = np.random.default_rng(seed)
        num_items = 40
        params = ModelParams.initialize(num_items, 6, 0.2, seed, aggregator)
        params.attention_vector[:] = rng.normal(size=6)
        # Duplicate item rows: items 5, 6 and 7 score exactly alike for every query.
        params.item_embeddings[6] = params.item_embeddings[5]
        params.item_embeddings[7] = params.item_embeddings[5]
        rows = random_rows(rng, num_items=num_items, count=2 * RANK_CHUNK + 20)
        # (3,), (3, 3) and (9, 3) are different keys; the first two share the
        # vector under every aggregator, (9, 3) ties with them under "last".
        for user, seq in enumerate([(3,), (3, 3), (9, 3)]):
            for target in (5, 11, 12):
                rows.append((100 + user, seq, target, 95))
        return params, examples_of(rows)

    @pytest.mark.parametrize("aggregator", ["mean", "last", "attention"])
    @pytest.mark.parametrize("task", ["ir", "ut"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_evaluate_and_rank_candidates(self, aggregator, task, seed):
        params, examples = self.tied_setup(seed, aggregator)
        cases, pool = build_eval_cases(examples, task, num_negatives=25, seed=seed, cutoff=5)
        assert len(cases) > 2 * RANK_CHUNK
        report = evaluate(cases, pool, params, keep_per_case=True)
        index, queries = RankingIndex.for_cases(cases, pool, params)
        row_scores = index.scores(task, queries, cases.candidates)
        ranked = top_n(row_scores, cases.candidates, cases.candidates.shape[1])[0].tolist()
        ranks = positive_rank(row_scores, cases.candidates, cases.positive).tolist()
        recalls, ndcgs, tied = [], [], 0
        for c, (scores, row) in enumerate(zip(oracle_scores(cases, pool, params), report.per_case)):
            expected = sorted(cases.candidates[c].tolist(), key=lambda cand: (-scores[cand], cand))
            tied += len(set(scores.values())) < len(scores)
            assert ranked[c] == expected
            top = expected[:5]
            if task == "ut":
                top = [int(pool.key_owner[idx]) for idx in top]
            assert row["top"] == top
            query = int(cases.query[c])
            assert row["query"] == (list(pool.table[query]) if task == "ir" else query)
            k = expected.index(int(cases.positive[c]))
            assert ranks[c] == k
            assert row["recall"] == (1.0 if k < 5 else 0.0)
            assert row["ndcg"] == (1.0 / math.log2(k + 2) if k < 5 else 0.0)
            recalls.append(row["recall"])
            ndcgs.append(row["ndcg"])
        assert tied > 0  # the exact-tie path is exercised
        assert report.recall_at_n == float(np.mean(recalls))
        assert report.ndcg_at_n == float(np.mean(ndcgs))

    @pytest.mark.parametrize("aggregator", ["mean", "attention"])
    @pytest.mark.parametrize("task", ["ir", "ut"])
    def test_one_row_over_the_vocabulary(self, aggregator, task):
        """The shape ``retrieve`` ranks: one query against every item or key."""
        params, examples = self.tied_setup(0, aggregator)
        cases, pool = build_eval_cases(examples, "ut", num_negatives=0, seed=0, cutoff=5)
        index = RankingIndex.build(params, pool.table.take(pool.user_keys))
        size = params.num_items if task == "ir" else len(pool.user_keys)
        query = 1 if task == "ir" else 5  # a key row, or item 5 (tied with items 6 and 7)
        ids = np.arange(size)[None]
        row_scores = index.scores(task, np.array([query]), ids)
        ranked, scores = top_n(row_scores, ids, size)
        if task == "ir":
            user = encode_user(pool.table[int(pool.user_keys[query])], params)
            oracle = [score(user, params.item_embeddings[i], params.temperature) for i in range(size)]
        else:
            item = params.item_embeddings[query]
            oracle = [score(encode_user(pool.table[int(k)], params), item, params.temperature) for k in pool.user_keys]
        assert ranked.shape == scores.shape == (1, size)
        assert ranked[0].tolist() == sorted(range(size), key=lambda c: (-oracle[c], c))
        np.testing.assert_allclose(scores[0], [oracle[c] for c in ranked[0].tolist()], rtol=0, atol=1e-12)
        for n in (1, 5, size + 3):  # the top N that ``retrieve`` prints is the head of that order
            head, head_scores = top_n(row_scores, ids, n)
            assert head[0].tolist() == ranked[0, :n].tolist()
            assert head_scores[0].tolist() == scores[0, :n].tolist()
        assert ranked.tolist() == reference_rank(index, task, np.array([query]), ids)[0].tolist()

    @pytest.mark.parametrize("chunk", [1, 7, evaluation.ENCODE_CHUNK])
    def test_user_rows_do_not_depend_on_the_chunk(self, chunk, monkeypatch):
        """Under attention pooling a key's row keeps its bytes however many
        keys share its encoder batch."""
        rng = np.random.default_rng(5)
        params = ModelParams.initialize(40, 6, 0.2, 5, "attention")
        params.attention_vector[:] = rng.normal(size=6)
        sequences = Sequences.of(rng.integers(0, 40, size=rng.integers(1, 51)).tolist() for _ in range(30))
        alone = np.vstack([RankingIndex.build(params, sequences.take(np.array([k]))).users for k in range(len(sequences))])
        monkeypatch.setattr(evaluation, "ENCODE_CHUNK", chunk)
        assert RankingIndex.build(params, sequences).users.tobytes() == alone.tobytes()


# Scores from a few distinct values, so that ties straddle the N-th position;
# 0.0 and -0.0 compare equal and tie too.
TIED_SCORES = np.array([-1.5, -0.0, 0.0, 0.25, 0.25, 3.0])


class TestRankWithoutSorting:
    """``positive_rank`` and ``top_n`` give exactly what the full sort of
    ``reference_order`` gives: the rank of one entry and the head of the order."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        rows=st.sampled_from([1, 2, 9, RANK_CHUNK + 3]),
        width=st.integers(1, 14),
        levels=st.integers(1, len(TIED_SCORES)),
        cutoff=st.sampled_from(["one", "inside", "width", "above"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_sort(self, rows, width, levels, cutoff, seed):
        rng = np.random.default_rng(seed)
        scores = rng.choice(TIED_SCORES[:levels], size=(rows, width))
        ids = np.stack([rng.choice(3 * width, size=width, replace=False) for _ in range(rows)])  # distinct per row
        n = {"one": 1, "inside": max(1, width // 2), "width": width, "above": width + 5}[cutoff]
        order, ordered_scores = reference_order(scores, ids)
        got, got_scores = top_n(scores, ids, n)
        assert got.shape == got_scores.shape == (rows, min(n, width))
        np.testing.assert_array_equal(got, order[:, :n])
        np.testing.assert_array_equal(got_scores, ordered_scores[:, :n])
        # The selection holds the same entries in some order.
        picked, picked_scores = select_top_n(scores, ids, n)
        row_order = np.lexsort((picked, -picked_scores))
        np.testing.assert_array_equal(np.take_along_axis(picked, row_order, axis=1), got)
        np.testing.assert_array_equal(np.take_along_axis(picked_scores, row_order, axis=1), got_scores)
        positive = ids[np.arange(rows), rng.integers(width, size=rows)]  # anywhere in the row
        expected_rank = np.argmax(order == positive[:, None], axis=1)
        np.testing.assert_array_equal(positive_rank(scores, ids, positive), expected_rank)

    def test_ties_across_the_cutoff_are_taken_by_ascending_id(self):
        scores = np.array([[1.0, 2.0, 1.0, 1.0, 0.5], [1.0, 2.0, 3.0, 0.0, -1.0]])
        ids = np.array([[9, 4, 7, 2, 0], [9, 4, 7, 2, 0]])
        got, got_scores = top_n(scores, ids, 3)
        assert got.tolist() == [[4, 2, 7], [7, 4, 9]]
        assert got_scores.tolist() == [[2.0, 1.0, 1.0], [3.0, 2.0, 1.0]]
        assert positive_rank(scores, ids, ids[:, 0]).tolist() == [3, 2]
        assert positive_rank(scores, ids, np.array([7, 0])).tolist() == [2, 4]


class TestDistinctVectorsOfTheRankedTable:
    @pytest.mark.parametrize("task", ["ir", "ut"])
    def test_only_the_candidate_table_is_searched_for_equal_vectors(self, monkeypatch, task):
        """IR ranks items and UT user-table rows: ``evaluate`` finds the
        distinct vectors of that table alone."""
        cases, pool = build_eval_cases(make_test_examples(), task, num_negatives=3, seed=4, cutoff=2)
        params = ModelParams.initialize(8, 4, 0.25, 0)
        searched = []
        distinct_rows = evaluation.distinct_rows
        monkeypatch.setattr(evaluation, "distinct_rows", lambda table: searched.append(table.shape) or distinct_rows(table))
        evaluate(cases, pool, params)
        assert searched == [(8, 4) if task == "ir" else (len(pool.user_keys), 4)]


class TestEqualVectorsTie:
    """Candidates whose vectors are equal score exactly alike wherever they sit
    in a row, so they rank by ascending id.  Scored with one matrix-vector
    product per row, a candidate in the BLAS kernel's tail slots scored other
    last bits than an equal row in another slot."""

    @staticmethod
    def assert_adjacent_by_id(scores, ids, low, high):
        """``low`` ranks right before ``high`` in every row, and ``positive_rank``
        places each id where the full ranking does."""
        ranked = top_n(scores, ids, ids.shape[1])[0]
        at_low = np.argmax(ranked == low, axis=1)
        np.testing.assert_array_equal(np.argmax(ranked == high, axis=1), at_low + 1)
        np.testing.assert_array_equal(positive_rank(scores, ids, np.full(len(ids), low)), at_low)
        np.testing.assert_array_equal(positive_rank(scores, ids, np.full(len(ids), high)), at_low + 1)
        np.testing.assert_array_equal(positive_rank(scores, ids, ids[:, 0]), np.argmax(ranked == ids[:, :1], axis=1))

    @staticmethod
    def tied_rows(rng, width, count, pool, first_last):
        """``count`` rows of ``width`` distinct ids from ``pool``: the two ids of
        ``first_last`` in the first and last slots, in alternating order."""
        a, b = first_last
        others = np.setdiff1d(pool, first_last)
        middle = np.stack([rng.choice(others, size=width - 2, replace=False) for _ in range(count)])
        swap = np.arange(count) % 2 == 1
        return np.column_stack([np.where(swap, b, a), middle, np.where(swap, a, b)])

    @pytest.mark.parametrize("width", [26, 30, 101])
    def test_case_rows(self, width):
        rng = np.random.default_rng(width)
        params = ModelParams.initialize(120, 32, 0.05, 0)
        params.item_embeddings[7] = params.item_embeddings[5]
        sequences = Sequences.of(rng.integers(0, 120, size=3).tolist() for _ in range(40))
        index = RankingIndex.build(params, sequences)
        ids = self.tied_rows(rng, width, 40, np.arange(120), (5, 7))
        self.assert_adjacent_by_id(index.scores("ir", np.arange(40), ids), ids, 5, 7)
        # evaluate ranks the same rows: the positive in the first slot, the cutoff the row width.
        cases = evaluation.EvalCases("ir", width, np.arange(40), ids[:, 0].copy(), ids)
        report = evaluate(cases, EvalPool(sequences), params, keep_per_case=True)
        for row in report.per_case:
            assert row["top"].index(7) == row["top"].index(5) + 1

    def test_one_row_over_the_vocabulary(self):
        """The row ``retrieve`` scores: every item of a 4k+1 vocabulary, its
        first and last rows equal."""
        size = 4 * 60 + 1
        rng = np.random.default_rng(3)
        params = ModelParams.initialize(size, 32, 0.05, 3)
        params.item_embeddings[size - 1] = params.item_embeddings[0]
        index = RankingIndex.build(params, Sequences.of(rng.integers(0, size, size=2).tolist() for _ in range(30)))
        ids = np.arange(size)[None]
        scores = np.vstack([index.scores("ir", np.array([query]), ids) for query in range(30)])
        self.assert_adjacent_by_id(scores, np.repeat(ids, 30, axis=0), 0, size - 1)
        ranked = top_n(scores, np.repeat(ids, 30, axis=0), size)[0]
        np.testing.assert_array_equal(ranked, reference_rank(index, "ir", np.arange(30), np.repeat(ids, 30, axis=0))[0])

    def test_user_targeting_over_keys_equal_under_last_pooling(self):
        """Keys ``(4, 9)`` and ``(11, 9)`` pool to item 9's vector under ``last``."""
        rng = np.random.default_rng(5)
        params = ModelParams.initialize(60, 32, 0.05, 5, "last")
        keys = [(4, 9)] + [(k, 10 + k) for k in range(1, 40)] + [(11, 9)]  # last items 9, 11..49, 9
        index = RankingIndex.build(params, Sequences.of(keys))
        ids = self.tied_rows(rng, 30, 60, np.arange(len(keys)), (0, len(keys) - 1))
        self.assert_adjacent_by_id(index.scores("ut", np.arange(60), ids), ids, 0, len(keys) - 1)


class TestReportInvariance:
    """``evaluate``'s report depends on the cases, not on how they fall into
    blocks, the order they come in, or what else is asked of the report."""

    @staticmethod
    def tied_cases(task):
        """Cases over tied keys and items, and a log that covers every user and item."""
        params, examples = TestRankingIndexMatchesOracle.tied_setup(1, "last")
        cases, pool = build_eval_cases(examples, task, num_negatives=25, seed=1, cutoff=5)
        records = events_of([(u, i % 40, 60 + i % 40) for u in range(103) for i in range(u, u + 1 + u % 7)])
        return cases, pool, params, records

    @pytest.mark.parametrize("task", ["ir", "ut"])
    def test_bytes_do_not_depend_on_the_block(self, task, monkeypatch):
        cases, pool, params, records = self.tied_cases(task)
        kwargs = dict(records=records, anchor_day=100, keep_per_case=True)
        expected = json.dumps(dataclasses.asdict(evaluate(cases, pool, params, **kwargs)))
        for chunk in (1, 7, 128):
            monkeypatch.setattr(evaluation, "RANK_CHUNK", chunk)
            assert json.dumps(dataclasses.asdict(evaluate(cases, pool, params, **kwargs))) == expected

    @pytest.mark.parametrize("task", ["ir", "ut"])
    def test_bytes_do_not_depend_on_the_case_order(self, task):
        """Permuted cases give the permuted per-case records; the aggregates
        are the same except that NDCG is the float mean in case order."""
        cases, pool, params, records = self.tied_cases(task)
        kwargs = dict(records=records, anchor_day=100, keep_per_case=True)
        report = evaluate(cases, pool, params, **kwargs)
        perm = np.random.default_rng(0).permutation(len(cases))
        shuffled = evaluation.EvalCases(task, cases.cutoff, cases.query[perm], cases.positive[perm], cases.candidates[perm])
        permuted = evaluate(shuffled, pool, params, **kwargs)
        assert json.dumps(permuted.per_case) == json.dumps([report.per_case[c] for c in perm])
        assert permuted.ndcg_at_n == float(np.mean([row["ndcg"] for row in permuted.per_case]))
        permuted.per_case, permuted.ndcg_at_n = report.per_case, report.ndcg_at_n
        assert json.dumps(dataclasses.asdict(permuted)) == json.dumps(dataclasses.asdict(report))

    @pytest.mark.parametrize("task", ["ir", "ut"])
    def test_metrics_do_not_depend_on_what_is_kept(self, task):
        cases, pool, params, records = self.tied_cases(task)
        plain = evaluate(cases, pool, params)
        for kwargs in (dict(keep_per_case=True), dict(records=records, anchor_day=100), dict(records=records)):
            report = evaluate(cases, pool, params, **kwargs)
            assert (report.recall_at_n, report.ndcg_at_n) == (plain.recall_at_n, plain.ndcg_at_n)

    @pytest.mark.parametrize("task", ["ir", "ut"])
    @pytest.mark.parametrize("cutoff", [1, 5, 13, 30])
    def test_popularity_matches_the_ordered_top_n(self, task, cutoff):
        """Popularity read from the unordered top-N selection equals the
        statistics of the ordered top N, with and without per-case records."""
        params, examples = TestRankingIndexMatchesOracle.tied_setup(1, "last")
        cases, pool = build_eval_cases(examples, task, num_negatives=25, seed=1, cutoff=cutoff)
        _, _, _, records = self.tied_cases(task)
        index, queries = RankingIndex.for_cases(cases, pool, params)
        ordered = top_n(index.scores(task, queries, cases.candidates), cases.candidates, cutoff)[0]
        if task == "ut":
            ordered = pool.key_owner[ordered]
        item_counts, user_counts = popularity_counts(records, anchor_day=100)
        expected = popularity_stats(ordered, item_counts if task == "ir" else user_counts)
        for keep in (False, True):
            report = evaluate(cases, pool, params, records=records, anchor_day=100, keep_per_case=keep)
            assert (report.popularity_median, report.popularity_mean) == expected
