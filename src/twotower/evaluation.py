"""Ranking evaluation for item recommendation (IR) and user targeting (UT).

The protocol pairs every test positive with a fixed number of uniformly
sampled negatives from the task's candidate pool, ranks the pool by match
score and reports Recall@N and NDCG@N averaged per case, plus popularity
statistics (trailing-window interaction counts) of the retrieved objects.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Events, Examples, Sequences, first_owners
from .model import EncoderConfig, ModelParams, encode_user_batch, normalize_rows

TASKS = ("ir", "ut")
ENCODE_CHUNK = 512  # pseudo-users per padded encoder batch in RankingIndex.build


class PoolTooSmallError(ValueError):
    """The candidate pool holds fewer eligible negatives than requested."""


@dataclass(frozen=True)
class EvalCase:
    """One ranking problem: a query against a fixed candidate pool.

    For IR the query is a pseudo-user key id and candidates are item ids;
    for UT the query is an item id and candidates are indices into the eval
    pool's ``user_keys``.
    """

    task: str
    query: int
    positives: frozenset[int]
    candidates: tuple[int, ...]
    cutoff: int


@dataclass
class EvalPool:
    """Shared candidate universe for a batch of cases: the key table the
    key ids refer to and, for UT, the candidate key ids (ascending) with the
    user each one stands for."""

    task: str
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


def build_eval_cases(
    test_examples: Examples,
    task: str,
    num_negatives: int,
    seed: int,
    cutoff: int,
) -> tuple[list[EvalCase], EvalPool]:
    """One case per (query, positive) pair with sampled negatives, in the
    order of the examples by (user, day, target, key).

    IR: each test example's target is the positive, negatives drawn
    uniformly without replacement from the test item pool excluding every
    positive of that user.  UT is symmetric over pseudo-user keys; a key
    stands for the smallest user id among its examples.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}")
    if num_negatives < 0:
        raise ValueError("num_negatives must be >= 0")
    if cutoff < 1:
        raise ValueError("top-N cutoff must be >= 1")
    if not len(test_examples):
        raise ValueError("no test examples to evaluate")
    rng = np.random.default_rng(seed)
    ex = test_examples
    ex = ex.take(np.lexsort((ex.key, ex.target, ex.day, ex.user)))

    # (exclusion group, query, positive) per case: IR groups by user, UT by item.
    if task == "ir":
        universe = np.unique(ex.target)
        groups, queries, positives = ex.user, ex.key, ex.target
        pool = EvalPool("ir", ex.table)
    else:
        keys, owners = first_owners(ex.key, ex.user)
        universe = np.arange(keys.size)
        groups, queries, positives = ex.target, ex.target, np.searchsorted(keys, ex.key)
        pool = EvalPool("ut", ex.table, keys, owners)
    triples = list(zip(groups.tolist(), queries.tolist(), positives.tolist()))
    excluded: dict[int, set[int]] = {}
    for group, _, positive in triples:
        excluded.setdefault(group, set()).add(positive)
    # One eligible-negative array per exclusion set; every positive is in the universe.
    eligible = {group: np.delete(universe, np.searchsorted(universe, sorted(pos))) for group, pos in excluded.items()}
    cases: list[EvalCase] = []
    for group, query, positive in triples:
        pick = eligible[group]
        if pick.size < num_negatives:
            what = "item" if task == "ir" else "user"
            raise PoolTooSmallError(f"{what} pool too small: {pick.size} eligible negatives, {num_negatives} requested")
        negs = rng.choice(pick, size=num_negatives, replace=False).tolist() if num_negatives else []
        cases.append(EvalCase(task, query, frozenset({positive}), (positive, *negs), cutoff))
    return cases, pool


@dataclass
class RankingIndex:
    """Row-normalized item table and row-normalized vectors of distinct
    pseudo-users, built once per parameter snapshot, so that ranking a case
    is a row gather and one matrix-vector product."""

    items: np.ndarray  # (num_items, d)
    users: np.ndarray  # (num_sequences, d); row r encodes the r-th sequence
    temperature: float

    @classmethod
    def build(
        cls, params: ModelParams, enc_config: EncoderConfig, sequences: Sequences, strict: bool = True
    ) -> "RankingIndex":
        """Encode each of the distinct ``sequences`` once, as a row of the user
        table, ``ENCODE_CHUNK`` at a time (a padded batch gathers ``(n, L, d)``)."""
        items, _ = normalize_rows(params.item_embeddings)
        users = np.empty((len(sequences), params.dim))
        for start in range(0, len(sequences), ENCODE_CHUNK):
            chunk = sequences.take(np.arange(start, min(start + ENCODE_CHUNK, len(sequences))))
            users[start : start + len(chunk)] = encode_user_batch(chunk, params, enc_config, strict=strict).vectors
        users, _ = normalize_rows(users)
        return cls(items, users, params.temperature)

    @classmethod
    def for_cases(
        cls, cases: Sequence[EvalCase], pool: EvalPool, params: ModelParams, enc_config: EncoderConfig
    ) -> tuple["RankingIndex", list[int]]:
        """The index of the cases and each case's query as :meth:`rank` takes
        it.  IR encodes the cases' distinct query keys in first-appearance
        order and queries by row, UT encodes the pool's keys."""
        queries = [case.query for case in cases]
        if pool.task == "ut":
            return cls.build(params, enc_config, pool.table.take(pool.user_keys)), queries
        row = {key: r for r, key in enumerate(dict.fromkeys(queries))}
        return cls.build(params, enc_config, pool.table.take(list(row))), [row[key] for key in queries]

    def rank(self, task: str, query: int, candidates: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Candidates by descending score, ties by ascending id, and their scores.
        IR ranks item ids for user-table row ``query``, UT user-table rows for
        item id ``query``."""
        if task == "ir":
            table, q_hat = self.items, self.users[query]
        else:
            table, q_hat = self.users, self.items[query]
        cand = np.asarray(candidates, dtype=np.int64)
        scores = table[cand] @ q_hat / self.temperature
        order = np.lexsort((cand, -scores))
        return cand[order], scores[order]


def rank_candidates(
    case: EvalCase,
    params: ModelParams,
    enc_config: EncoderConfig,
    pool: EvalPool,
) -> list[int]:
    """Candidates by descending score; ties broken by ascending id."""
    index, queries = RankingIndex.for_cases([case], pool, params, enc_config)
    return index.rank(case.task, queries[0], case.candidates)[0].tolist()


def recall_at_n(case: EvalCase, ranking: Sequence[int]) -> float:
    top = set(ranking[: case.cutoff])
    hits = len(top & case.positives)
    return hits / min(len(case.positives), case.cutoff)


def ndcg_at_n(case: EvalCase, ranking: Sequence[int]) -> float:
    dcg = 0.0
    for pos, candidate in enumerate(ranking[: case.cutoff], start=1):
        if candidate in case.positives:
            dcg += 1.0 / math.log2(pos + 1)
    ideal = sum(1.0 / math.log2(pos + 1) for pos in range(1, min(len(case.positives), case.cutoff) + 1))
    return dcg / ideal


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


def popularity_stats(top_lists: Sequence[Sequence[int]], counts: np.ndarray) -> tuple[float, float]:
    """Median and mean trailing-window popularity over all retrieved objects."""
    objects = np.array([obj for ranking in top_lists for obj in ranking], dtype=np.int64)
    values = counts[objects].tolist()
    if not values:
        return 0.0, 0.0
    return float(statistics.median(values)), float(statistics.fmean(values))


def evaluate(
    cases: Sequence[EvalCase],
    pool: EvalPool,
    params: ModelParams,
    enc_config: EncoderConfig,
    *,
    records: Events | None = None,
    anchor_day: int | None = None,
    window_days: int = 365,
    keep_per_case: bool = False,
) -> EvalReport:
    """Rank every case and aggregate metrics (mean of per-case values).
    One ``RankingIndex`` serves all cases; each is ranked and scored in turn."""
    if not cases:
        raise ValueError("no evaluation cases")
    recalls: list[float] = []
    ndcgs: list[float] = []
    per_case: list[dict] = []
    top_lists: list[list[int]] = []
    index, queries = RankingIndex.for_cases(cases, pool, params, enc_config)
    for case, query in zip(cases, queries):
        top = index.rank(case.task, query, case.candidates)[0][: case.cutoff].tolist()
        r = recall_at_n(case, top)
        n = ndcg_at_n(case, top)
        recalls.append(r)
        ndcgs.append(n)
        top_objects = pool.key_owner[top].tolist() if pool.task == "ut" else top
        top_lists.append(top_objects)
        if keep_per_case:
            query = list(pool.table[case.query]) if case.task == "ir" else case.query
            per_case.append({"query": query, "recall": r, "ndcg": n, "top": top_objects})

    pop_median = pop_mean = None
    if records is not None and anchor_day is not None:
        item_counts, user_counts = popularity_counts(records, anchor_day, window_days)
        counts = item_counts if pool.task == "ir" else user_counts
        pop_median, pop_mean = popularity_stats(top_lists, counts)

    return EvalReport(
        task=cases[0].task,
        cutoff=cases[0].cutoff,
        num_cases=len(cases),
        recall_at_n=float(np.mean(recalls)),
        ndcg_at_n=float(np.mean(ndcgs)),
        popularity_median=pop_median,
        popularity_mean=pop_mean,
        per_case=per_case if keep_per_case else None,
    )
