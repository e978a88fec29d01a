"""Reference implementations and builders for the tests.

``reference_build_examples``, ``reference_filter`` and
``reference_marginals`` are the object-based data layer the columnar one in
``twotower.data`` replaced: one frozen record per event and per example, a
tuple per pseudo-user.  The property tests in ``test_data.py`` check the
columnar pipeline against them.  ``examples_of`` builds columnar examples
from readable rows, ``example_rows`` reads them back, and ``events_of``,
``sample_events`` and ``sample_examples`` build the other inputs
(``user_sequences`` the synthetic users, ``phi_table`` their score table
under trained parameters).
``reference_population_loss`` is the one-configuration loss of the
``verify`` harness that the stacked ``verify.population_loss`` replaced,
and ``stacked_population_values`` the loss values of a stack, which
training never reads.  ``reference_accumulate`` is the sort-based
``GradientTable.accumulate`` that an occupancy count replaced, and
``reference_attention_backward`` the attention-pooled
``score_matrix_backward`` that summing the history rows per distinct item
through one matrix product replaced: one gradient row per history position,
summed in input order.  ``reference_rank`` (through ``reference_order``) is
the full sort of every candidate row, scored one pair at a time, that the
positive's count rank, a partitioned top N and the scored block of distinct
vectors replaced.
``logsumexp`` is the scipy-order log-sum-exp that the softmax kernels of
``twotower.losses`` used before they took one exponential per line, and
``reference_logsumexp`` the same with a fresh array per step;
``reference_bidirectional_nce_loss`` and ``reference_full_softmax_value``
are the out-of-place logsumexp kernels that those replaced, on a square
batch (``identity_cells`` gives its examples' cells).
``reference_shared_column_loss`` is the step of the shared-column losses
that scoring each distinct pseudo-user and item once replaced: every
example scored on a line of its own, through the kernels on identity cells.
``encode_user`` and ``score`` encode and score one pseudo-user at a time,
as the per-key loop that one batched ``model.encode_user_batch`` call
replaced did, and the oracles of the normalized-dot-product kernels.
``reference_ingest_logs`` is the per-line ingest loop that the whole-text
``ingest_logs`` replaced, and ``reference_write_examples_tsv``,
``reference_write_labeled_tsv`` and ``reference_write_marginals_tsv`` the
per-row writers that the writers formatting each distinct value once
replaced.
"""

from __future__ import annotations

import datetime
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import IO, Union

import numpy as np

from twotower.data import (
    DAYS_PER_MONTH,
    MAX_DAY,
    EmpiricalMarginals,
    Events,
    Examples,
    IngestError,
    InteractionLog,
    Sequences,
)
from twotower.losses import LossConfig, bidirectional_nce_loss, full_softmax_value
from twotower.model import (
    GradientTable,
    MatrixCache,
    ModelParams,
    encode_user_batch,
    score_matrix_backward,
    score_matrix_forward,
)

UserKey = tuple[int, ...]


@dataclass(frozen=True)
class InteractionRecord:
    """One purchase event after vocabulary mapping."""

    user_id: int
    item_id: int
    day: int


@dataclass(frozen=True)
class TrainingExample:
    """A pseudo-user sequence with one target purchase from its horizon window."""

    user_id: int
    pseudo_user: UserKey
    target_item: int
    day: int


def reference_build_examples(
    records: Sequence[InteractionRecord], horizon_days: int, max_seq_len: int
) -> list[TrainingExample]:
    """Examples from ``(user, day)``-sorted records, one user and cut day at a time."""
    examples: list[TrainingExample] = []
    by_user: dict[int, list[InteractionRecord]] = {}
    for rec in records:
        by_user.setdefault(rec.user_id, []).append(rec)
    for user_id in sorted(by_user):
        history = by_user[user_id]
        for cut in sorted({rec.day for rec in history}):
            prior = [rec.item_id for rec in history if rec.day < cut]
            if not prior:
                continue
            pseudo = tuple(prior[-max_seq_len:])
            for rec in history:
                if cut <= rec.day < cut + horizon_days:
                    examples.append(TrainingExample(user_id, pseudo, rec.item_id, cut))
    return examples


def reference_filter(examples: Sequence[TrainingExample], min_degree: int) -> list[TrainingExample]:
    """The degree filter, iterated to a fixed point."""
    current = list(examples)
    while True:
        user_deg = Counter(ex.pseudo_user for ex in current)
        item_deg = Counter(ex.target_item for ex in current)
        kept = [ex for ex in current if user_deg[ex.pseudo_user] >= min_degree and item_deg[ex.target_item] >= min_degree]
        if len(kept) == len(current):
            return kept
        current = kept


@dataclass
class ReferenceMarginals:
    log_p_user: dict[UserKey, float]
    log_p_item: dict[int, float]
    count_user: dict[UserKey, int]
    count_item: dict[int, int]
    total: int


def reference_marginals(train_examples: Sequence[TrainingExample]) -> ReferenceMarginals:
    """Counts of pseudo-user keys and target items, and their logs."""
    count_user = Counter(ex.pseudo_user for ex in train_examples)
    count_item = Counter(ex.target_item for ex in train_examples)
    total = len(train_examples)
    log_p_user = {key: math.log(c / total) for key, c in count_user.items()}
    log_p_item = {item: math.log(c / total) for item, c in count_item.items()}
    return ReferenceMarginals(log_p_user, log_p_item, dict(count_user), dict(count_item), total)


def events_of(records: Sequence[tuple[int, int, int]]) -> Events:
    """Integer-day events from ``(user, item, day)`` rows, sorted by
    ``(user, day)`` with ties in row order, as ``ingest_logs`` sorts them."""
    user, item, day = (np.array([row[k] for row in records], dtype=np.int64) for k in range(3))
    order = np.lexsort((day, user))
    return Events(user[order], item[order], day[order], day[order] // DAYS_PER_MONTH + 1)


def sample_events(sample) -> list[tuple[int, int, int]]:
    """``(user, item, day)`` per event of a ``verify.SyntheticSample``, in its day order."""
    users, items = np.divmod(sample.cells, sample.spec.num_items)
    return list(zip(users.tolist(), items.tolist(), sample.days.tolist()))


def user_sequences(spec) -> Sequences:
    """Each user ``u`` of a ``verify.SyntheticSpec`` as a one-token sequence:
    the embedding row ``num_items + u`` reserved for it."""
    return Sequences(np.arange(spec.num_users + 1), spec.num_items + np.arange(spec.num_users))


def sample_examples(sample) -> Examples:
    """The events of a ``verify.SyntheticSample`` as training examples in
    day order: user ``u``'s pseudo-user is key ``u`` of
    ``user_sequences(spec)``, the one-token sequence of its reserved token."""
    users, items = np.divmod(sample.cells, sample.spec.num_items)
    month = sample.days // DAYS_PER_MONTH + 1
    return Examples(user_sequences(sample.spec), users, users, items, sample.days, month)


def phi_table(params: ModelParams, spec) -> np.ndarray:
    """Every user of a ``verify.SyntheticSpec`` scored against every item by
    ``score_matrix_forward``, the production kernel, with the user as the
    one-token sequence of its reserved row."""
    phi, _ = score_matrix_forward(user_sequences(spec), np.arange(spec.num_items), params)
    return phi


def examples_of(
    rows: Sequence[tuple[int, Sequence[int], int, int]],
    months: Sequence[int] | None = None,
    labels: Sequence[int] | None = None,
    extra_keys: Sequence[Sequence[int]] = (),
) -> Examples:
    """Examples from ``(user, pseudo-user, target, day)`` rows; the table holds
    their distinct pseudo-users and ``extra_keys`` in sorted order, and a
    month defaults to ``day // DAYS_PER_MONTH + 1``."""
    keys = sorted({tuple(row[1]) for row in rows} | {tuple(key) for key in extra_keys})
    key_id = {key: k for k, key in enumerate(keys)}

    def column(values) -> np.ndarray:
        return np.array(list(values), dtype=np.int64)

    day = column(row[3] for row in rows)
    return Examples(
        Sequences.of(keys),
        column(row[0] for row in rows),
        column(key_id[tuple(row[1])] for row in rows),
        column(row[2] for row in rows),
        day,
        day // DAYS_PER_MONTH + 1 if months is None else column(months),
        None if labels is None else column(labels),
    )


def example_rows(examples: Examples) -> list[tuple]:
    """``(user, pseudo-user, target, day)`` per example (plus the label of a
    labeled set), in row order."""
    columns = [examples.user.tolist(), [examples.table[k] for k in examples.key.tolist()]]
    columns += [examples.target.tolist(), examples.day.tolist()]
    if examples.label is not None:
        columns.append(examples.label.tolist())
    return list(zip(*columns))


def reference_population_loss(
    phi: np.ndarray,
    tables,
    config: LossConfig,
) -> tuple[float, np.ndarray]:
    """Exact full-batch loss of one configuration over a
    ``verify.EmpiricalTables``, with gradient.

    For the in-batch families the denominators are the exact large-batch
    sums: every candidate enters weighted by its empirical marginal, which
    restricts the partition to the observed support.
    """
    joint = tables.joint
    log_pu, log_pi = tables.log_p_user, tables.log_p_item
    obs_users = tables.p_user > 0
    obs_items = tables.p_item > 0

    if config.family == "bce":
        m, k = joint.shape
        if config.negative_strategy == "user-marginal":
            p_n = tables.p_user[:, None] / k * np.ones_like(joint)
        elif config.negative_strategy == "item-marginal":
            p_n = np.ones_like(joint) * tables.p_item[None, :] / m
        elif config.negative_strategy == "product-of-marginals":
            p_n = tables.p_user[:, None] * tables.p_item[None, :]
        elif config.negative_strategy == "uniform":
            p_n = np.full_like(joint, 1.0 / (m * k))
        else:
            raise ValueError(f"unknown strategy {config.negative_strategy!r}")
        value = float(np.sum(joint * np.logaddexp(0.0, -phi)) + np.sum(p_n * np.logaddexp(0.0, phi)))
        sig = 1.0 / (1.0 + np.exp(-phi))
        dphi = -joint * (1.0 - sig) + p_n * sig
        return value, dphi

    if config.family == "ssm":
        if config.ssm_proposal == "marginal":
            masked = np.where(obs_items[None, :], phi, -np.inf)
        else:
            masked = phi
        lse = logsumexp(masked, axis=1)
        value = float(np.sum(np.where(tables.observed, joint * (-phi + lse[:, None]), 0.0)))
        softmax = np.exp(masked - lse[:, None])
        dphi = -joint + tables.p_user[:, None] * softmax
        return value, dphi

    if config.family != "bidirectional":
        raise ValueError(f"population loss undefined for family {config.family!r}")

    value = 0.0
    dphi = np.zeros_like(phi)
    if config.alpha:
        # weighted logits: phi + (1 - delta_alpha) * log p(i), support-restricted
        if config.delta_alpha:
            w = np.where(obs_items[None, :], phi, -np.inf)
        else:
            w = phi + log_pi[None, :]
        lse = logsumexp(w, axis=1)
        bias = config.delta_alpha * log_pi[None, :]
        per_cell = -phi + np.where(tables.observed, bias, 0.0) + lse[:, None]
        value += config.alpha * float(np.sum(np.where(tables.observed, joint * per_cell, 0.0)))
        softmax = np.exp(w - lse[:, None])
        dphi += config.alpha * (-joint + tables.p_user[:, None] * softmax)
    if config.beta:
        if config.delta_beta:
            w = np.where(obs_users[:, None], phi, -np.inf)
        else:
            w = phi + log_pu[:, None]
        lse = logsumexp(w, axis=0)
        bias = config.delta_beta * log_pu[:, None]
        per_cell = -phi + np.where(tables.observed, bias, 0.0) + lse[None, :]
        value += config.beta * float(np.sum(np.where(tables.observed, joint * per_cell, 0.0)))
        softmax = np.exp(w - lse[None, :])
        dphi += config.beta * (-joint + tables.p_item[None, :] * softmax)
    return value, dphi


def stacked_population_values(phi: np.ndarray, loss, tables: Sequence, configs: Sequence[LossConfig]) -> np.ndarray:
    """Exact full-batch losses ``(C,)`` of the blocks of
    ``verify.StackedLoss.build(tables, configs)`` at the score tables ``phi``
    ``(C, M, K)``: the formula ``alpha * row + beta * col + bce`` whose
    gradient ``verify.population_loss`` returns.  A corrected side adds its
    log marginal on the observed cells of its block's table."""
    row_bias, col_bias = [], []
    for table in tables:
        zero = np.zeros_like(table.joint)
        item_bias = np.where(table.observed, table.log_p_item[None, :], 0.0)
        user_bias = np.where(table.observed, table.log_p_user[:, None], 0.0)
        for c in configs:
            bidirectional = c.family == "bidirectional"
            row_bias.append(item_bias if bidirectional and c.alpha and c.delta_alpha else zero)
            col_bias.append(user_bias if bidirectional and c.beta and c.delta_beta else zero)
    joint = loss.joint
    w = phi + loss.row_offset
    lse = logsumexp(w, axis=2)[:, :, None]
    row_value = np.sum(joint * (-phi + np.stack(row_bias) + lse), axis=(1, 2))
    w = phi + loss.col_offset
    lse = logsumexp(w, axis=1)[:, None, :]
    col_value = np.sum(joint * (-phi + np.stack(col_bias) + lse), axis=(1, 2))
    bce_value = np.sum(loss.positives * np.logaddexp(0.0, -phi), axis=(1, 2))
    bce_value += np.sum(loss.p_n * np.logaddexp(0.0, phi), axis=(1, 2))
    return loss.alpha[:, 0, 0] * row_value + loss.beta[:, 0, 0] * col_value + bce_value


def encode_user(pseudo_user: Sequence[int], params: ModelParams) -> np.ndarray:
    """One pseudo-user's raw vector, encoded in a batch of its own; in any
    other batch it has the same bits."""
    return encode_user_batch(Sequences.of([pseudo_user]), params).vectors[0]


def score(u_vec: np.ndarray, i_vec: np.ndarray, temperature: float) -> float:
    """Temperature-scaled cosine: ``<u|i> / (|u||i| tau)``."""
    return float(u_vec @ i_vec / (np.linalg.norm(u_vec) * np.linalg.norm(i_vec) * temperature))


def reference_accumulate(ids: np.ndarray, grads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and summed gradient rows of ``GradientTable.accumulate``, with the
    touched rows found by ``np.unique``."""
    rows, inverse = np.unique(ids, return_inverse=True)
    dim = grads.shape[1]
    flat = (inverse[:, None] * dim + np.arange(dim)).ravel()
    values = np.bincount(flat, weights=grads.ravel(), minlength=rows.size * dim)
    return rows, values.reshape(rows.size, dim)


def reference_attention_backward(
    cache: MatrixCache, dphi: np.ndarray, params: ModelParams
) -> tuple[GradientTable, np.ndarray]:
    """``score_matrix_backward`` of an attention-pooled batch as it was
    before the history rows were summed per distinct item: the column rows,
    then one row per history position in batch order (``w d + ds a``, its
    ``q`` a row-by-row dot product), then the attention row ``ds @ rows``,
    summed by ``GradientTable.accumulate``.  The cache is only read.

    Also returns, for every entry of the table, the same sums taken over
    absolute values, with each position's ``q`` the sum of absolute
    products and its ``ds`` taken as ``w (|q| + sum of w |q|)``: a bound on
    the terms that any order of summing, and any order of the dot products
    behind ``q``, adds up, so that ``n`` rounding steps move an entry by at
    most about ``n`` machine epsilons times its bound."""
    tau, users, a = params.temperature, cache.users, params.attention_vector
    g_cos = dphi * cache.cos
    if cache.col_ids.ndim == 1:
        pulled = dphi @ cache.v_hat
        d_items = (dphi.T @ cache.u_hat - g_cos.sum(axis=0)[:, None] * cache.v_hat) / (tau * cache.v_norm[:, None])
    else:
        pulled = np.einsum("bk,bkd->bd", dphi, cache.v_hat)
        d_items = dphi[:, :, None] * cache.u_hat[:, None, :] - g_cos[:, :, None] * cache.v_hat
        d_items = d_items / (tau * cache.v_norm[:, :, None])
    d_users = (pulled - g_cos.sum(axis=1)[:, None] * cache.u_hat) / (tau * cache.u_norm[:, None])
    w, owner, size = users.weights, users.owner, users.lengths.size
    rows, d_rows = params.item_embeddings[users.items], d_users[users.owner]
    ids = np.concatenate((cache.col_ids.ravel(), users.items, [params.num_items]))

    def table(ds: np.ndarray, d_rows: np.ndarray, rows: np.ndarray, a: np.ndarray, d_items: np.ndarray):
        positions = w[:, None] * d_rows + ds[:, None] * a
        return GradientTable.accumulate(ids, np.vstack((d_items.reshape(-1, params.dim), positions, ds @ rows)))

    q = np.add.reduce(rows * d_rows, axis=1)
    ds = w * (q - np.bincount(owner, w * q, size)[owner])
    q_abs = np.add.reduce(np.abs(rows) * np.abs(d_rows), axis=1)
    ds_abs = w * (q_abs + np.bincount(owner, w * q_abs, size)[owner])
    bound = table(ds_abs, np.abs(d_rows), np.abs(rows), np.abs(a), np.abs(d_items))
    return table(ds, d_rows, rows, a, d_items), bound.values


def reference_order(scores: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row of ``ids`` by descending score, ties by ascending id, with a
    full ``np.lexsort``, and the scores in that order."""
    order = np.lexsort((ids, -scores))
    return np.take_along_axis(ids, order, axis=1), np.take_along_axis(scores, order, axis=1)


def reference_rank(index, task: str, queries: np.ndarray, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The full ranking that ``evaluation.positive_rank`` and ``top_n`` stand
    for, from scores taken one (query, candidate) pair at a time
    (``np.einsum``, so equal vectors score alike in any slot) rather than
    from ``RankingIndex.scores``'s block: each row of ``candidates`` by
    descending score, ties by ascending id, and the scores in that order."""
    if task == "ir":
        table, q_hat = index.items, index.users[queries]
    else:
        table, q_hat = index.users, index.items[queries]
    return reference_order(np.einsum("ncd,nd->nc", table[candidates], q_hat) / index.temperature, candidates)


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis``, bit-identical to scipy's.

    scipy's order of operations: the maxima are taken out of the sum, each
    counted once, and the rest enters as ``log1p(rest / count)``; an
    all-``-inf`` line gives ``-inf``.  The exponentials live in one
    temporary, with the maxima zeroed in place; ``a`` is not written.
    """
    a_max = a.max(axis, keepdims=True)
    top = a == a_max
    rest = np.subtract(a, a_max)
    np.exp(rest, out=rest)
    np.copyto(rest, 0.0, where=top)
    rest = rest.sum(axis, keepdims=True)
    count = top.sum(axis, keepdims=True, dtype=float)
    return np.squeeze(np.log1p(rest / count) + np.log(count) + a_max, axis=axis)


def reference_logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``losses.logsumexp`` with a fresh array for each step: scipy's order of
    operations, the maxima taken out of the sum by ``np.where``."""
    a_max = a.max(axis, keepdims=True)
    top = a == a_max
    rest = np.where(top, 0.0, np.exp(a - a_max)).sum(axis, keepdims=True)
    count = top.sum(axis, keepdims=True, dtype=float)
    return np.squeeze(np.log1p(rest / count) + np.log(count) + a_max, axis=axis)


def reference_bidirectional_nce_loss(
    phi: np.ndarray, log_p_u: np.ndarray, log_p_i: np.ndarray, config: LossConfig
) -> tuple[float, np.ndarray]:
    """``losses.bidirectional_nce_loss`` on a valid square score matrix, each
    half's shifted logits, softmax and gradient in arrays of their own."""
    size = phi.shape[0]
    diag = np.arange(size)
    dphi = np.zeros_like(phi)
    value = 0.0
    if config.alpha:
        h = phi - config.delta_alpha * log_p_i[None, :]
        row_lse = reference_logsumexp(h, axis=1)
        value += config.alpha * float((row_lse - h[diag, diag]).mean())
        p_row = np.exp(h - row_lse[:, None])
        p_row[diag, diag] -= 1.0
        dphi += (config.alpha / size) * p_row
    if config.beta:
        o = phi - config.delta_beta * log_p_u[:, None]
        col_lse = reference_logsumexp(o, axis=0)
        value += config.beta * float((col_lse - o[diag, diag]).mean())
        p_col = np.exp(o - col_lse[None, :])
        p_col[diag, diag] -= 1.0
        dphi += (config.beta / size) * p_col
    return value, dphi


def reference_full_softmax_value(phi: np.ndarray, positive_cols: np.ndarray) -> tuple[float, np.ndarray]:
    """``losses.full_softmax_value`` with the softmax and the gradient in arrays of their own."""
    rows = np.arange(phi.shape[0])
    lse = reference_logsumexp(phi, axis=1)
    value = float((lse - phi[rows, positive_cols]).mean())
    dphi = np.exp(phi - lse[:, None])
    dphi[rows, positive_cols] -= 1.0
    return value, dphi / phi.shape[0]


def identity_cells(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of a square batch's examples: example ``r`` is cell ``(r, r)``."""
    size = len(phi)
    return np.arange(size), np.arange(size)


def reference_shared_column_loss(
    batch: Examples, params: ModelParams, config: LossConfig, marginals: EmpiricalMarginals
) -> tuple[float, GradientTable]:
    """``losses.loss_with_gradients`` of the shared-column families
    (``bidirectional``, ``full_softmax_row``, ``full_softmax_col``) with
    every example scored on a line of its own, through the kernels of
    ``twotower.losses`` on identity cells: a ``(B, B)`` in-batch matrix
    with the positives on its diagonal, ``B`` rows against the vocabulary,
    or the universe against ``B`` columns."""
    users, items, cells = batch.pseudo_users(), batch.target, np.arange(len(batch))
    if config.family == "bidirectional":
        log_p_u, log_p_i = marginals.log_bias(batch)

        def kernel(phi: np.ndarray) -> tuple[float, np.ndarray]:
            return bidirectional_nce_loss(phi, cells, cells, log_p_u, log_p_i, config)

    elif config.family == "full_softmax_row":
        items = np.arange(params.num_items)

        def kernel(phi: np.ndarray) -> tuple[float, np.ndarray]:
            return full_softmax_value(phi, cells, batch.target)

    else:
        universe = np.flatnonzero(marginals.count_user)
        users = batch.table.take(universe)

        def kernel(phi: np.ndarray) -> tuple[float, np.ndarray]:
            value, dphi_t = full_softmax_value(phi.T, cells, np.searchsorted(universe, batch.key))
            return value, dphi_t.T

    phi, cache = score_matrix_forward(users, items, params)
    value, dscore = kernel(phi)
    return value, score_matrix_backward(cache, dscore, params)


def reference_ingest_logs(source: Union[IO[str], IO[bytes], Iterable[str]], delimiter: str = ",") -> InteractionLog:
    """``ingest_logs`` one line at a time.  A line holding a byte that is not
    UTF-8 (a lone surrogate once decoded with ``errors="surrogateescape"``)
    is an error, wherever it stands."""
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
            line = line.decode("utf-8", errors="surrogateescape")
        if any("\ud800" <= ch <= "\udfff" for ch in line):
            raise IngestError(f"line {lineno}: not valid UTF-8")
        if lineno == 1:
            line = line.removeprefix("\ufeff")
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
            try:
                day_value = int(day_raw)
            except ValueError:
                day_value = datetime.date.fromisoformat(day_raw)
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

    epoch: datetime.date | None = None
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


def _reference_row_text(examples: Examples) -> list[str]:
    keys = np.unique(examples.key).tolist()
    seq = dict(zip(keys, (" ".join(map(str, examples.table[k])) for k in keys)))
    columns = (examples.user.tolist(), examples.key.tolist(), examples.target.tolist())
    return [f"{u}\t{seq[k]}\t{t}" for u, k, t in zip(*columns)]


def reference_write_examples_tsv(examples: Examples, marginals: EmpiricalMarginals, path: str) -> None:
    """``write_examples_tsv`` one row at a time."""
    log_p_u, log_p_i = marginals.log_bias(examples)
    with open(path, "w", encoding="utf-8") as out:
        for row, lpu, lpi in zip(_reference_row_text(examples), log_p_u.tolist(), log_p_i.tolist()):
            out.write(f"{row}\t{lpu:.6f}\t{lpi:.6f}\n")


def reference_write_labeled_tsv(examples: Examples, path: str) -> None:
    """``write_labeled_tsv`` one row at a time."""
    with open(path, "w", encoding="utf-8") as out:
        for row, label in zip(_reference_row_text(examples), examples.label.tolist()):
            out.write(f"{row}\t{label}\n")


def reference_write_marginals_tsv(marginals: EmpiricalMarginals, table: Sequences, path: str) -> None:
    """``write_marginals_tsv`` one entry at a time."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"total\t{marginals.total}\n")
        for key in np.flatnonzero(marginals.count_user).tolist():
            seq = " ".join(map(str, table[key]))
            out.write(f"user\t{seq}\t{marginals.count_user[key]}\t{marginals.log_p_user[key]:.6f}\n")
        for item in np.flatnonzero(marginals.count_item).tolist():
            out.write(f"item\t{item}\t{marginals.count_item[item]}\t{marginals.log_p_item[item]:.6f}\n")
