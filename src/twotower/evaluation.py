"""Ranking evaluation for item recommendation (IR) and user targeting (UT).

The protocol pairs every test positive with a fixed number of uniformly
sampled negatives from the task's candidate pool, ranks the pool by match
score and reports Recall@N and NDCG@N averaged per case, plus popularity
statistics (trailing-window interaction counts) of the retrieved objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Events, Examples, Sequences, first_owners, smallest_keys
from .model import ModelParams, encode_user_batch, normalize_rows

TASKS = ("ir", "ut")
ENCODE_CHUNK = 512  # pseudo-users per encoder batch in RankingIndex.build; bounds its (N, d) gather, changes no bit
RANK_CHUNK = 128  # cases per scored block in evaluate; bounds a block to RANK_CHUNK x (distinct vectors) scores
CASE_CELLS = 2**17  # random keys per block of cases in build_eval_cases (1 MiB); sets the peak memory of a draw


class PoolTooSmallError(ValueError):
    """The candidate pool holds fewer eligible negatives than requested."""


@dataclass
class EvalCases:
    """The ranking problems of one task as columns: case ``c`` ranks the row
    ``candidates[c]``, which holds its ``positive``, for ``query[c]``
    (``build_eval_cases`` puts the positive first, then the negatives).

    For IR a query is a pseudo-user key id and candidates are item ids; for
    UT a query is an item id and candidates are indices into the eval pool's
    ``user_keys``.
    """

    task: str
    cutoff: int
    query: np.ndarray  # (n,)
    positive: np.ndarray  # (n,)
    candidates: np.ndarray  # (n, C)

    def __len__(self) -> int:
        return self.query.size


@dataclass
class EvalPool:
    """Shared candidate universe for a batch of cases: the key table the
    key ids refer to and, for UT, the candidate key ids (ascending) with the
    user each one stands for.  The task is the cases' ``EvalCases.task``."""

    table: Sequences
    user_keys: np.ndarray | None = None
    key_owner: np.ndarray | None = None


@dataclass
class EvalReport:
    task: str
    cutoff: int
    num_cases: int
    recall_at_n: float
    ndcg_at_n: float
    popularity_median: float | None = None
    popularity_mean: float | None = None
    per_case: list[dict] | None = None


def _case_frame(
    test_examples: Examples, task: str, num_negatives: int, cutoff: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Sequences, EvalPool]:
    """What the draw of ``build_eval_cases`` starts from, after its checks on
    its arguments: each case's query and positive, the candidate universe,
    each case's exclusion group as a row of ``excluded`` (the group's
    positives as universe slots), and the pool."""
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}")
    if num_negatives < 0:
        raise ValueError("num_negatives must be >= 0")
    if cutoff < 1:
        raise ValueError("top-N cutoff must be >= 1")
    if not len(test_examples):
        raise ValueError("no test examples to evaluate")
    ex = test_examples
    ex = ex.take(np.lexsort((ex.key, ex.target, ex.day, ex.user)))

    # (exclusion group, query, positive) per case: IR groups by user, UT by item.
    if task == "ir":
        universe = np.unique(ex.target)
        groups, queries, positives = ex.user, ex.key, ex.target
        slots = np.searchsorted(universe, positives)
        pool = EvalPool(ex.table)
    else:
        user_keys, owners = first_owners(ex.key, ex.user)
        universe = np.arange(user_keys.size)
        groups, queries, positives = ex.target, ex.target, np.searchsorted(user_keys, ex.key)
        slots = positives
        pool = EvalPool(ex.table, user_keys, owners)
    # Each exclusion group's distinct positives as universe slots, one CSR row per group.
    group_of = np.unique(groups, return_inverse=True)[1]
    pairs = np.unique(group_of * universe.size + slots)  # distinct (group, slot), grouped
    sizes = np.bincount(pairs // universe.size)
    excluded = Sequences(np.r_[0, np.cumsum(sizes)], pairs % universe.size)
    eligible = universe.size - int(sizes.max())
    if eligible < num_negatives:
        what = "item" if task == "ir" else "user"
        raise PoolTooSmallError(f"{what} pool too small: {eligible} eligible negatives, {num_negatives} requested")
    return queries, positives, universe, group_of, excluded, pool


def build_eval_cases(
    test_examples: Examples,
    task: str,
    num_negatives: int,
    seed: int,
    cutoff: int,
) -> tuple[EvalCases, EvalPool]:
    """One case per (query, positive) pair with sampled negatives, in the
    order of the examples by (user, day, target, key).

    IR: each test example's target is the positive, negatives drawn
    uniformly without replacement from the test item pool excluding every
    positive of that user.  UT is symmetric over pseudo-user keys; a key
    stands for the smallest user id among its examples.  The draw takes
    ``CASE_CELLS`` random keys at a time, so its result does not depend on
    how the cases fall into blocks.
    """
    queries, positives, universe, group_of, excluded, pool = _case_frame(test_examples, task, num_negatives, cutoff)
    rng = np.random.default_rng(seed)
    candidates = np.empty((queries.size, 1 + num_negatives), dtype=np.int64)
    candidates[:, 0] = positives
    if num_negatives:
        # One i.i.d. uniform key per (case, universe slot), a group's positives keyed
        # above 1: a case's smallest keys are a uniform draw from its eligible pool.
        block = max(1, CASE_CELLS // universe.size)
        for start in range(0, queries.size, block):
            rows = slice(start, start + block)
            mask = excluded.take(group_of[rows])
            keys = rng.random((len(mask), universe.size))
            keys[np.repeat(np.arange(len(mask)), np.diff(mask.offsets)), mask.items] = 2.0
            candidates[rows, 1:] = universe[smallest_keys(keys, num_negatives)]
    return EvalCases(task, cutoff, queries, positives, candidates), pool


def restore_eval_cases(
    test_examples: Examples,
    task: str,
    num_negatives: int,
    cutoff: int,
    arrays: dict[str, np.ndarray],
) -> tuple[EvalCases, EvalPool]:
    """The cases and pool of ``build_eval_cases`` on these arguments, with
    the candidates of ``arrays``, the ``query``, ``positive`` and
    ``candidates`` columns of earlier cases and, for UT, their pool's
    ``user_keys`` and ``key_owner``.  It raises the errors of
    ``build_eval_cases`` on the arguments, and a ``ValueError`` unless the
    arrays hold the queries, positives and pool of these test examples and
    int64 candidate rows of ``1 + num_negatives`` ids of the pool, each
    row's positive first."""
    queries, positives, universe, _, _, pool = _case_frame(test_examples, task, num_negatives, cutoff)
    expected = [("query", queries), ("positive", positives)]
    if task == "ut":
        expected += [("user_keys", pool.user_keys), ("key_owner", pool.key_owner)]
    candidates = arrays["candidates"]
    if (
        not all(np.array_equal(arrays[name], column) for name, column in expected)
        or candidates.dtype != np.int64
        or candidates.shape != (queries.size, 1 + num_negatives)
        or not np.array_equal(candidates[:, 0], positives)
    ):
        raise ValueError("the cases do not match the test examples")
    member = np.zeros(int(universe[-1]) + 1, dtype=bool)
    member[universe] = True
    if candidates.min() < 0 or candidates.max() >= member.size or not member[candidates].all():
        raise ValueError("a candidate lies outside the pool")
    return EvalCases(task, cutoff, queries, positives, candidates), pool


def distinct_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``table``, rows byte-equal after ``+ 0.0`` (which
    folds -0.0 into 0.0) counted once, and the index of each row among them."""
    table = table + 0.0
    keys = table.view(np.dtype((np.void, table.itemsize * table.shape[1])))[:, 0]
    _, first, slot = np.unique(keys, return_index=True, return_inverse=True)
    return table[first], slot


@dataclass
class RankingIndex:
    """Row-normalized item table and row-normalized vectors of distinct
    pseudo-users, built once per parameter snapshot, and the distinct
    vectors of the table a task ranks, built when first read, so that a
    block of cases is scored with one matrix product and one gather."""

    items: np.ndarray  # (num_items, d)
    users: np.ndarray  # (num_sequences, d); row r encodes the r-th sequence
    temperature: float

    @classmethod
    def build(cls, params: ModelParams, sequences: Sequences) -> "RankingIndex":
        """Encode each of the distinct ``sequences`` once, as a row of the user
        table, ``ENCODE_CHUNK`` at a time (a batch gathers one row per
        position).  A row does not depend on the chunk its sequence falls in."""
        items, _ = normalize_rows(params.item_embeddings)
        users = np.empty((len(sequences), params.dim))
        for start in range(0, len(sequences), ENCODE_CHUNK):
            chunk = sequences.take(np.arange(start, min(start + ENCODE_CHUNK, len(sequences))))
            users[start : start + len(chunk)] = encode_user_batch(chunk, params).vectors
        users, _ = normalize_rows(users)
        return cls(items, users, params.temperature)

    @cached_property
    def distinct_items(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct item vectors, which IR ranks, and each item's slot among them."""
        return distinct_rows(self.items)

    @cached_property
    def distinct_users(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct user-table vectors, which UT ranks, and each row's slot among them."""
        return distinct_rows(self.users)

    @classmethod
    def for_cases(cls, cases: EvalCases, pool: EvalPool, params: ModelParams) -> tuple["RankingIndex", np.ndarray]:
        """The index of the cases and each case's query as :meth:`scores` takes
        it.  IR encodes the cases' distinct query keys in ascending order and
        queries by row, UT encodes the pool's keys."""
        if cases.task == "ut":
            return cls.build(params, pool.table.take(pool.user_keys)), cases.query
        keys, row = np.unique(cases.query, return_inverse=True)
        return cls.build(params, pool.table.take(keys)), row

    def scores(self, task: str, queries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """The match score of every entry of ``candidates (n, C)``: IR scores
        item ids for user-table rows ``queries``, UT user-table rows for item
        ids ``queries``.  One matrix product scores the distinct queries
        against the candidate table's distinct vectors, and each entry reads
        its score from that block, so candidates of equal vectors score
        alike and tie exactly.  The block holds (distinct queries) x
        (distinct vectors) floats."""
        if task == "ir":
            table, (vectors, slot) = self.users, self.distinct_items
        else:
            table, (vectors, slot) = self.items, self.distinct_users
        distinct, row = np.unique(queries, return_inverse=True)
        block = table[distinct] @ vectors.T
        return block.ravel()[row[:, None] * len(vectors) + slot[candidates]] / self.temperature


# Ranking order: descending score, ties by ascending id.  Both reductions
# below need the ids of a row to be distinct and its scores to be finite
# (``ModelParams`` holds only finite parameters).


def positive_rank(scores: np.ndarray, ids: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """The 0-based rank of ``positive[r]`` within row ``r``, which holds it:
    the count of entries that score higher, or as high with a smaller id."""
    positive = positive[:, None]
    s_pos = np.take_along_axis(scores, np.argmax(ids == positive, axis=1)[:, None], axis=1)
    return np.count_nonzero((scores > s_pos) | ((scores == s_pos) & (ids < positive)), axis=1)


def select_top_n(scores: np.ndarray, ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``min(n, C)`` ids of each row in ranking order, in no
    particular order, and their scores.  A partition picks them; a row with
    more entries at or above its n-th score than n is tied across the cutoff
    and is fully sorted."""
    width = ids.shape[1]
    n = min(n, width)
    if n < width:
        pick = np.argpartition(scores, width - n, axis=1)[:, width - n :]  # column 0 holds the n-th score
        nth = np.take_along_axis(scores, pick[:, :1], axis=1)
        tied = np.flatnonzero(np.count_nonzero(scores >= nth, axis=1) > n)
        if tied.size:
            pick[tied] = np.lexsort((ids[tied], -scores[tied]))[:, :n]
        ids, scores = np.take_along_axis(ids, pick, axis=1), np.take_along_axis(scores, pick, axis=1)
    return ids, scores


def top_n(scores: np.ndarray, ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``min(n, C)`` ids of each row in ranking order, and their
    scores: :func:`select_top_n`'s entries, sorted."""
    ids, scores = select_top_n(scores, ids, n)
    order = np.lexsort((ids, -scores))
    return np.take_along_axis(ids, order, axis=1), np.take_along_axis(scores, order, axis=1)


def popularity_counts(
    records: Events,
    anchor_day: int,
    window_days: int = 365,
) -> tuple[np.ndarray, np.ndarray]:
    """Interactions per item id and per user id inside ``[anchor-window, anchor)``."""
    if window_days < 1:
        raise ValueError(f"popularity_window_days must be >= 1, got {window_days}")
    inside = (records.day >= anchor_day - window_days) & (records.day < anchor_day)
    items = np.bincount(records.item[inside], minlength=int(records.item.max()) + 1)
    users = np.bincount(records.user[inside], minlength=int(records.user.max()) + 1)
    return items, users


def popularity_stats(objects: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Median and mean trailing-window popularity over all retrieved objects,
    in any order.  The counts are integers, so both are exact, whatever the
    order, while their sum stays below 2**53."""
    values = counts[objects.ravel()]
    if not values.size:
        return 0.0, 0.0
    return float(np.median(values)), float(np.mean(values))


def rank_metrics(ranks: np.ndarray, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Recall@cutoff and NDCG@cutoff of one positive at 0-based ``ranks``:
    a hit counts 1, its gain is ``1 / log2(rank + 2)``."""
    depth = min(cutoff, int(ranks.max(initial=0)) + 1)  # the gains any rank can read
    gains = np.array([1.0 / math.log2(k + 2) for k in range(depth)] + [0.0])
    hit = ranks < cutoff
    return hit.astype(float), gains[np.where(hit, ranks, depth)]


def evaluate(
    cases: EvalCases,
    pool: EvalPool,
    params: ModelParams,
    *,
    records: Events | None = None,
    anchor_day: int | None = None,
    window_days: int = 365,
    keep_per_case: bool = False,
) -> EvalReport:
    """Rank every case and aggregate metrics (mean of per-case values).
    One ``RankingIndex`` scores all cases, ``RANK_CHUNK`` at a time in stable
    query order, so that a block holds few distinct queries; ranks are
    written back by case index.  Each case needs only its positive's rank,
    so no row is sorted; the top N is built only when it is read: in
    ranking order for the per-case records, else as the unordered set that
    the popularity statistics read.  IR per-case records of one query share
    its item list."""
    if not len(cases):
        raise ValueError("no evaluation cases")
    index, queries = RankingIndex.for_cases(cases, pool, params)
    popularity = records is not None and anchor_day is not None
    order = np.argsort(queries, kind="stable")
    ranks = np.empty(len(cases), dtype=np.int64)
    # The top N is read only by the per-case records and popularity; otherwise it has no rows.
    width = min(cases.cutoff, cases.candidates.shape[1])
    top = np.empty((len(cases) if keep_per_case or popularity else 0, width), dtype=np.int64)
    pick_top = top_n if keep_per_case else select_top_n  # popularity's median and mean read no order
    for start in range(0, len(cases), RANK_CHUNK):
        rows = order[start : start + RANK_CHUNK]
        candidates = cases.candidates[rows]
        scores = index.scores(cases.task, queries[rows], candidates)
        ranks[rows] = positive_rank(scores, candidates, cases.positive[rows])
        if len(top):
            top[rows] = pick_top(scores, candidates, cases.cutoff)[0]
    recalls, ndcgs = rank_metrics(ranks, cases.cutoff)
    if cases.task == "ut":
        top = pool.key_owner[top]

    per_case = None
    if keep_per_case:
        if cases.task == "ir":  # one list per distinct query, shared by the cases that ask it
            distinct, inverse = np.unique(cases.query, return_inverse=True)
            texts = [list(pool.table[q]) for q in distinct.tolist()]
            shown = [texts[k] for k in inverse.tolist()]
        else:
            shown = cases.query.tolist()
        per_case = [
            {"query": query, "recall": r, "ndcg": n, "top": objects}
            for query, r, n, objects in zip(shown, recalls.tolist(), ndcgs.tolist(), top.tolist())
        ]

    pop_median = pop_mean = None
    if popularity:
        item_counts, user_counts = popularity_counts(records, anchor_day, window_days)
        counts = item_counts if cases.task == "ir" else user_counts
        pop_median, pop_mean = popularity_stats(top, counts)

    return EvalReport(
        task=cases.task,
        cutoff=cases.cutoff,
        num_cases=len(cases),
        recall_at_n=float(np.mean(recalls)),
        ndcg_at_n=float(np.mean(ndcgs)),
        popularity_median=pop_median,
        popularity_mean=pop_mean,
        per_case=per_case,
    )
