"""Ranking evaluation for item recommendation (IR) and user targeting (UT).

The protocol pairs every test positive with a fixed number of uniformly
sampled negatives from the task's candidate pool, ranks the pool by match
score and reports Recall@N and NDCG@N averaged per case, plus popularity
statistics (trailing-window interaction counts) of the retrieved objects.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import InteractionRecord, TrainingExample, UserKey
from .model import EncoderConfig, ModelParams, encode_user_batch, normalize_rows

TASKS = ("ir", "ut")
ENCODE_CHUNK = 512  # pseudo-users per padded encoder batch in RankingIndex.build


class PoolTooSmallError(ValueError):
    """The candidate pool holds fewer eligible negatives than requested."""


@dataclass(frozen=True)
class EvalCase:
    """One ranking problem: a query against a fixed candidate pool.

    For IR the query is a pseudo-user sequence and candidates are item ids;
    for UT the query is an item id and candidates are indices into the eval
    pool's user-key list.
    """

    task: str
    query: UserKey | int
    positives: frozenset[int]
    candidates: tuple[int, ...]
    cutoff: int


@dataclass
class EvalPool:
    """Shared candidate universe for a batch of cases."""

    task: str
    user_keys: tuple[UserKey, ...] | None = None
    key_owner: dict[UserKey, int] | None = None


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
    test_examples: Sequence[TrainingExample],
    task: str,
    num_negatives: int,
    seed: int,
    cutoff: int,
) -> tuple[list[EvalCase], EvalPool]:
    """One case per (query, positive) pair with sampled negatives.

    IR: each test example's target is the positive, negatives drawn
    uniformly without replacement from the test item pool excluding every
    positive of that user.  UT is symmetric over pseudo-user keys.
    """
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}")
    if num_negatives < 0:
        raise ValueError("num_negatives must be >= 0")
    if cutoff < 1:
        raise ValueError("top-N cutoff must be >= 1")
    if not test_examples:
        raise ValueError("no test examples to evaluate")
    rng = np.random.default_rng(seed)
    ordered = sorted(test_examples, key=lambda e: (e.user_id, e.day, e.target_item, e.pseudo_user))

    # (exclusion group, query, positive) per case: IR groups by user, UT by item.
    if task == "ir":
        universe = sorted({ex.target_item for ex in ordered})
        triples = [(ex.user_id, ex.pseudo_user, ex.target_item) for ex in ordered]
        pool = EvalPool(task="ir")
    else:
        keys = sorted({ex.pseudo_user for ex in ordered})
        key_index = {key: pos for pos, key in enumerate(keys)}
        key_owner: dict[UserKey, int] = {}
        for ex in ordered:
            key_owner.setdefault(ex.pseudo_user, ex.user_id)
        universe = range(len(keys))
        triples = [(ex.target_item, ex.target_item, key_index[ex.pseudo_user]) for ex in ordered]
        pool = EvalPool(task="ut", user_keys=tuple(keys), key_owner=key_owner)
    universe_arr = np.asarray(universe, dtype=np.int64)
    excluded: dict[int, set[int]] = {}
    for group, _, positive in triples:
        excluded.setdefault(group, set()).add(positive)
    # One eligible-negative array per exclusion set; every positive is in the universe.
    eligible = {
        group: np.delete(universe_arr, np.searchsorted(universe_arr, sorted(pos))) for group, pos in excluded.items()
    }
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
    users: np.ndarray  # (num_keys, d); row r encodes the r-th key
    user_row: dict[UserKey, int]
    temperature: float

    @classmethod
    def build(
        cls, params: ModelParams, enc_config: EncoderConfig, keys: Sequence[UserKey], strict: bool = True
    ) -> "RankingIndex":
        """Encode each of the distinct ``keys`` once, as a row of the user table,
        ``ENCODE_CHUNK`` keys at a time (a padded batch gathers ``(n, L, d)``)."""
        items, _ = normalize_rows(params.item_embeddings)
        users = np.empty((len(keys), params.dim))
        for start in range(0, len(keys), ENCODE_CHUNK):
            chunk = keys[start : start + ENCODE_CHUNK]
            users[start : start + len(chunk)] = encode_user_batch(chunk, params, enc_config, strict=strict).vectors
        users, _ = normalize_rows(users)
        return cls(items, users, {key: row for row, key in enumerate(keys)}, params.temperature)

    @classmethod
    def for_cases(
        cls, cases: Sequence[EvalCase], pool: EvalPool, params: ModelParams, enc_config: EncoderConfig
    ) -> "RankingIndex":
        """IR encodes the cases' distinct query sequences, UT the pool's keys."""
        keys = pool.user_keys if pool.task == "ut" else list(dict.fromkeys(case.query for case in cases))
        return cls.build(params, enc_config, keys)

    def rank(self, task: str, query: UserKey | int, candidates: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Candidates by descending score, ties by ascending id, and their scores.
        IR ranks item ids for a pseudo-user, UT user-table rows for an item id."""
        if task == "ir":
            table, q_hat = self.items, self.users[self.user_row[query]]
        else:
            table, q_hat = self.users, self.items[int(query)]
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
    index = RankingIndex.for_cases([case], pool, params, enc_config)
    return index.rank(case.task, case.query, case.candidates)[0].tolist()


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
    records: Sequence[InteractionRecord],
    anchor_day: int,
    window_days: int = 365,
) -> tuple[Counter, Counter]:
    """Interactions per item and per user inside ``[anchor-window, anchor)``."""
    if window_days < 1:
        raise ValueError(f"popularity_window_days must be >= 1, got {window_days}")
    items: Counter = Counter()
    users: Counter = Counter()
    lo = anchor_day - window_days
    for rec in records:
        if lo <= rec.day < anchor_day:
            items[rec.item_id] += 1
            users[rec.user_id] += 1
    return items, users


def popularity_stats(top_lists: Sequence[Sequence[int]], counts: Counter) -> tuple[float, float]:
    """Median and mean trailing-window popularity over all retrieved objects."""
    values = [counts.get(obj, 0) for ranking in top_lists for obj in ranking]
    if not values:
        return 0.0, 0.0
    return float(statistics.median(values)), float(statistics.fmean(values))


def evaluate(
    cases: Sequence[EvalCase],
    pool: EvalPool,
    params: ModelParams,
    enc_config: EncoderConfig,
    *,
    records: Sequence[InteractionRecord] | None = None,
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
    index = RankingIndex.for_cases(cases, pool, params, enc_config)
    for case in cases:
        top = index.rank(case.task, case.query, case.candidates)[0][: case.cutoff].tolist()
        r = recall_at_n(case, top)
        n = ndcg_at_n(case, top)
        recalls.append(r)
        ndcgs.append(n)
        top_objects = [pool.key_owner[pool.user_keys[idx]] for idx in top] if pool.task == "ut" else top
        top_lists.append(top_objects)
        if keep_per_case:
            per_case.append({"query": list(case.query) if case.task == "ir" else case.query, "recall": r, "ndcg": n, "top": top_objects})

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
