"""Synthetic-data harness checking which probability each loss learns.

Data is drawn i.i.d. from a known user-item joint table, so the realized
empirical distribution can be counted exactly.  The sweep reads only each
seed's ``(M, K)`` cell counts, so :func:`sample_counts` streams the draw
into them ``SAMPLE_CHUNK`` events at a time, holding O(M * K + chunk)
memory whatever ``num_samples`` is, and gives bit for bit the counts of
:func:`generate_synthetic`, which holds every event.  Each loss
configuration of :data:`SWEEP` is trained to convergence on that data and
the learned score table is compared, up to an additive constant, against
the optimum the table names for it: ``log p(i|u)``, ``log p(u|i)``,
``pmi(u,i)`` or ``log p(u,i)``.

Training is full-batch: with the batch equal to the whole sample, the
in-batch denominators reduce exactly to marginal-weighted sums over the
observed support, so the loss is evaluated in aggregated (count-weighted)
form.  Synthetic users enter the shared embedding table as one reserved
token each, giving every user a free embedding row.  Every configuration
of every seed trains in one stacked problem, each (seed, configuration)
block over its own seed's counts from its own seed's initialization: one
forward pass, loss, backward pass and Adam step per epoch serve all of
them.  Every user scores every item of its own block, so the forward and
backward passes are batched matrix products over ``(C, K + M, d)`` blocks:
:func:`dense_forward` scores them, and the backward pass is
``model.cosine_backward``, the cosine backward ``score_matrix_backward``
runs for shared columns.  The trained tables are the cosines of one more
:func:`dense_forward` over the trained blocks.  The loss gradient
builds each softmax half with one exponential (:func:`population_loss`).
Every step moves one contiguous run of rows, all at one step count, so the
Adam step indexes its tables by a slice and divides by one scalar bias
correction per moment.  Blocks never interact: a seed trained with others
reaches the tables it reaches alone, bit for bit.

A one-sided loss cannot pin the score table completely: a row-only softmax
is invariant to adding any per-user offset (a column-only one to any
per-item offset), so only the two-sided and binary-label losses determine
the table up to a single global constant.  The optimum check therefore fits
the constant structure each configuration actually determines (its
``gauge``) and gates on that, while also reporting the plain
single-constant diagnostics for reference.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import DAYS_PER_MONTH
from .losses import LossConfig
from .model import DegenerateNormError, GradientTable, ModelParams, cosine_backward, finite_norms, normalize_rows
from .trainer import NonFiniteGradientError, OptimizerState, apply_optimizer_step


class SweepRow(NamedTuple):
    """One checkable configuration: its report label, the optimum its score
    table converges to, and the gauge that optimum leaves undetermined."""

    label: str
    config: LossConfig
    target: str
    gauge: str


# The optimum table, in sweep order.  Gauge ``none``: pinned up to one global
# constant (all bce strategies and the two-sided bidirectional settings).
# ``per-user``: row-only losses (the row softmax cancels any per-user
# offset).  ``per-item``: column-only.
SWEEP: tuple[SweepRow, ...] = (
    SweepRow("bce/user-marginal", LossConfig(family="bce", negative_strategy="user-marginal"), "log p(i|u)", "none"),
    SweepRow("bce/item-marginal", LossConfig(family="bce", negative_strategy="item-marginal"), "log p(u|i)", "none"),
    SweepRow(
        "bce/product-of-marginals", LossConfig(family="bce", negative_strategy="product-of-marginals"), "pmi", "none"
    ),
    SweepRow("bce/uniform", LossConfig(family="bce", negative_strategy="uniform"), "log p(u,i)", "none"),
    SweepRow("ssm", LossConfig(family="ssm"), "log p(i|u)", "per-user"),
    SweepRow("infonce", LossConfig.from_preset("infonce"), "pmi", "per-user"),
    SweepRow("simclr", LossConfig.from_preset("simclr"), "pmi", "none"),
    SweepRow("row_bcnce", LossConfig.from_preset("row_bcnce"), "log p(i|u)", "per-user"),
    SweepRow("col_bcnce", LossConfig.from_preset("col_bcnce"), "log p(u|i)", "per-item"),
    SweepRow("bbcnce", LossConfig.from_preset("bbcnce"), "log p(u,i)", "none"),
)

# Each group's members share one optimum; the order sets the order of the
# agreement rows in the sweep report.
EQUAL_OPTIMA_GROUPS: dict[str, tuple[str, ...]] = {
    "log p(u,i)": ("bce/uniform", "bbcnce"),
    "log p(i|u)": ("bce/user-marginal", "row_bcnce", "ssm"),
    "log p(u|i)": ("bce/item-marginal", "col_bcnce"),
    "pmi": ("bce/product-of-marginals", "infonce", "simclr"),
}

# Events per chunk of sample_counts' draw; bounds its temporaries to about
# 0.5 MiB and changes no count.
SAMPLE_CHUNK = 2**15

# Optimum gates: a trained table passes when its gauged residual is at most
# RESIDUAL_GATE and its gauged rank correlation at least RANK_GATE.
RANK_GATE = 0.95
RESIDUAL_GATE = 0.25


@dataclass
class SyntheticSpec:
    """Small user-item joint to sample from, optionally drifting per month."""

    num_users: int = 8
    num_items: int = 12
    joint: np.ndarray | None = None
    num_samples: int = 200_000
    num_months: int = 1
    drift: list[np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.joint is None and self.drift is None:
            raise ValueError("provide a joint table or a drift sequence")
        tables = self.drift if self.drift is not None else [self.joint]
        for table in tables:
            if table.shape != (self.num_users, self.num_items):
                raise ValueError("joint table shape must be (num_users, num_items)")
            if not np.all(np.isfinite(table)):
                raise ValueError("joint table must be finite")
            if np.any(table < 0):
                raise ValueError("joint table must be nonnegative")
            if abs(float(table.sum()) - 1.0) > 1e-12:
                raise ValueError("joint table must sum to 1 within 1e-12")
        if self.drift is not None and len(self.drift) != self.num_months:
            raise ValueError("drift must supply one table per month")

    def table_for_month(self, month: int) -> np.ndarray:
        if self.drift is not None:
            return self.drift[month - 1]
        return self.joint  # type: ignore[return-value]


def random_joint(
    num_users: int,
    num_items: int,
    seed: int,
    table_rank: int = 3,
    sparsity: float = 0.3,
) -> np.ndarray:
    """Low-rank positive random table with a sparsified support, normalized."""
    if num_users < 1 or num_items < 1:
        raise ValueError("num_users and num_items must be >= 1")
    if table_rank < 1:
        raise ValueError("table_rank must be >= 1")
    if not 0 <= sparsity <= 1:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    rng = np.random.default_rng(seed)
    left = rng.gamma(shape=2.0, scale=1.0, size=(num_users, table_rank))
    right = rng.gamma(shape=2.0, scale=1.0, size=(table_rank, num_items))
    table = left @ right
    if sparsity > 0:
        mask = rng.random((num_users, num_items)) < sparsity
        # never empty a whole row or column
        for u in range(num_users):
            keep = rng.integers(num_items)
            mask[u, keep] = False
        for i in range(num_items):
            keep = rng.integers(num_users)
            mask[keep, i] = False
        table = np.where(mask, 0.0, table)
    return table / table.sum()


@dataclass
class EmpiricalTables:
    """Exact empirical distribution of a realized sample."""

    counts: np.ndarray

    total: int = field(init=False)
    joint: np.ndarray = field(init=False)
    p_user: np.ndarray = field(init=False)
    p_item: np.ndarray = field(init=False)
    observed: np.ndarray = field(init=False)
    log_joint: np.ndarray = field(init=False)  # -inf off the support
    log_p_user: np.ndarray = field(init=False)
    log_p_item: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.total = int(self.counts.sum())
        if self.total == 0:
            raise ValueError("empty sample")
        self.joint = self.counts / self.total
        self.p_user = self.joint.sum(axis=1)
        self.p_item = self.joint.sum(axis=0)
        self.observed = self.counts > 0
        with np.errstate(divide="ignore"):
            self.log_joint = np.log(self.joint)
            self.log_p_user = np.log(self.p_user)
            self.log_p_item = np.log(self.p_item)


@dataclass
class SyntheticSample:
    """A drawn sample held as arrays: each event's day and its (user, item)
    cell ``user * num_items + item``, sorted by day, with the cell counts of
    the whole sample."""

    spec: SyntheticSpec
    days: np.ndarray
    cells: np.ndarray
    counts: np.ndarray

    @property
    def tables(self) -> EmpiricalTables:
        return EmpiricalTables(self.counts)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> SyntheticSample:
    """Draw ``num_samples`` i.i.d. (user, item) events with uniform timestamps.

    Each event's day is uniform over the month span; the (user, item) cell is
    drawn from that month's joint table.  User ``u`` is the one-token
    sequence of its reserved embedding row ``num_items + u``.
    """
    rng = np.random.default_rng(seed)
    num_days = spec.num_months * DAYS_PER_MONTH
    days = np.sort(rng.integers(0, num_days, size=spec.num_samples))
    month_of = days // DAYS_PER_MONTH + 1

    num_cells = spec.num_users * spec.num_items
    cells = np.empty(spec.num_samples, dtype=np.int64)
    for month in range(1, spec.num_months + 1):
        sel = month_of == month
        n = int(sel.sum())
        if n:
            flat = spec.table_for_month(month).ravel()
            cells[sel] = rng.choice(flat.size, size=n, p=flat)
    counts = np.bincount(cells, minlength=num_cells).reshape(spec.num_users, spec.num_items)
    return SyntheticSample(spec, days, cells, counts)


def _chunk_sizes(total: int) -> list[int]:
    """``total`` split into runs of ``SAMPLE_CHUNK``, the last one shorter."""
    return [min(SAMPLE_CHUNK, total - start) for start in range(0, total, SAMPLE_CHUNK)]


def sample_counts(spec: SyntheticSpec, seed: int) -> np.ndarray:
    """The ``(M, K)`` cell counts of ``generate_synthetic(spec, seed)``, bit
    for bit, without holding the events.

    The draw takes the same stream in the same order, ``SAMPLE_CHUNK`` draws
    at a time: every event's day, which only sizes the months, then each
    month's cells by the inverse CDF that ``Generator.choice(p=...)`` runs.
    The bit generator keeps its state between calls, so chunked draws read
    the stream a single call reads, and each chunk's ``bincount`` adds into
    the counts.
    """
    rng = np.random.default_rng(seed)
    sizes = np.zeros(spec.num_months, dtype=np.int64)
    for size in _chunk_sizes(spec.num_samples):
        months = rng.integers(0, spec.num_months * DAYS_PER_MONTH, size=size)
        months //= DAYS_PER_MONTH
        sizes += np.bincount(months, minlength=spec.num_months)
    counts = np.zeros(spec.num_users * spec.num_items, dtype=np.int64)
    for month, size in enumerate(sizes.tolist(), 1):
        cdf = np.cumsum(spec.table_for_month(month), dtype=float)
        cdf /= cdf[-1]
        for n in _chunk_sizes(size):
            counts += np.bincount(cdf.searchsorted(rng.random(n), side="right"), minlength=counts.size)
    return counts.reshape(spec.num_users, spec.num_items)


# The axis along which a gauge's undetermined offsets vary (gauge ``none``: one constant).
_GAUGE_AXIS = {"per-user": 1, "per-item": 0}


def _masked_mean(table: np.ndarray, mask: np.ndarray, axis: int | None = None) -> np.ndarray:
    """``np.nanmean`` of ``table`` with NaN off ``mask``, keeping dimensions,
    value for value; a slice with no cell of ``mask`` (a user or item the
    sample never drew) is NaN without a warning."""
    with np.errstate(invalid="ignore"):
        return np.where(mask, table, 0.0).sum(axis=axis, keepdims=True) / mask.sum(axis=axis, keepdims=True)


def _center(table: np.ndarray, mask: np.ndarray, gauge: str) -> np.ndarray:
    """Remove the gauge's undetermined offsets over the observed support."""
    return np.where(mask, table, np.nan) - _masked_mean(table, mask, _GAUGE_AXIS.get(gauge))


def target_table(row: SweepRow, tables: EmpiricalTables) -> np.ndarray:
    """The row's predicted optimum of the score table, NaN outside the
    observed support."""
    name = row.target
    log_joint = tables.log_joint
    # A user or item the sample never drew gives -inf - -inf = NaN there, off the support.
    with np.errstate(invalid="ignore"):
        if name == "log p(i|u)":
            target = log_joint - tables.log_p_user[:, None]
        elif name == "log p(u|i)":
            target = log_joint - tables.log_p_item[None, :]
        elif name == "pmi":
            target = log_joint - tables.log_p_user[:, None] - tables.log_p_item[None, :]
        else:
            target = log_joint
    return np.where(tables.observed, target, np.nan)


@dataclass
class StackedLoss:
    """Per-block constants of the population losses of ``C`` blocks, each
    one configuration over its own empirical table, stacked on a leading
    axis.

    Every configuration is one formula, ``alpha * row + beta * col + bce``:
    a weighted row softmax over items with logits ``phi + row_offset``, the
    same over users with ``col_offset``, and the binary-label term whose
    positive and negative cells are weighted by ``positives`` and ``p_n``.
    An offset is ``0`` over the observed support and ``-inf`` off it (a
    corrected side, or the marginal ssm proposal), ``log p(i)`` or
    ``log p(u)`` (an uncorrected side), or ``0`` everywhere (the uniform ssm
    proposal).
    Unused terms get weight 0 and finite offsets.  Weights are ``(C, 1, 1)``,
    the marginals ``p_user`` ``(C, M, 1)`` and ``p_item`` ``(C, 1, K)``,
    every other array ``(C, M, K)``.  The gradient's constant parts are built
    here once: ``base = -(alpha + beta) * joint - positives``,
    ``bce_weight = p_n + positives`` (the factor of ``sigmoid(phi)``), and
    the softmax halves' line weights ``row_weight = alpha * p(u)`` and
    ``col_weight = beta * p(i)``.
    """

    joint: np.ndarray
    p_user: np.ndarray
    p_item: np.ndarray
    alpha: np.ndarray
    row_offset: np.ndarray
    beta: np.ndarray
    col_offset: np.ndarray
    positives: np.ndarray  # the joint for the bce family, else 0
    p_n: np.ndarray  # the bce negative distribution, else 0
    base: np.ndarray = field(init=False)
    bce_weight: np.ndarray = field(init=False)
    row_weight: np.ndarray = field(init=False)
    col_weight: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.base = -(self.alpha + self.beta) * self.joint - self.positives
        self.bce_weight = self.p_n + self.positives
        self.row_weight = self.alpha * self.p_user
        self.col_weight = self.beta * self.p_item

    @classmethod
    def build(cls, tables: Sequence[EmpiricalTables], configs: Sequence[LossConfig]) -> "StackedLoss":
        """Every configuration over each of ``tables``, block ``s * len(configs) + c``
        holding configuration ``c`` over ``tables[s]``."""
        on, off = np.ones((1, 1)), np.zeros((1, 1))
        terms = []
        for table in tables:
            joint = table.joint
            m, k = joint.shape
            zero = np.zeros((m, k))
            item_support = np.where(table.p_item > 0, 0.0, -np.inf)[None, :] + zero
            user_support = np.where(table.p_user > 0, 0.0, -np.inf)[:, None] + zero
            log_pi = table.log_p_item[None, :] + zero
            log_pu = table.log_p_user[:, None] + zero
            marginals = (joint, table.p_user[:, None], table.p_item[None, :])
            for config in configs:
                row = col = (off, zero)  # (weight, offset)
                positives = p_n = zero
                if config.family == "bce":
                    positives = joint
                    if config.negative_strategy == "user-marginal":
                        p_n = table.p_user[:, None] / k * np.ones_like(joint)
                    elif config.negative_strategy == "item-marginal":
                        p_n = np.ones_like(joint) * table.p_item[None, :] / m
                    elif config.negative_strategy == "product-of-marginals":
                        p_n = table.p_user[:, None] * table.p_item[None, :]
                    elif config.negative_strategy == "uniform":
                        p_n = np.full_like(joint, 1.0 / (m * k))
                    else:
                        raise ValueError(f"unknown strategy {config.negative_strategy!r}")
                elif config.family == "ssm":
                    row = (on, item_support if config.ssm_proposal == "marginal" else zero)
                elif config.family == "bidirectional":
                    if config.alpha:
                        row = (on, item_support if config.delta_alpha else log_pi)
                    if config.beta:
                        col = (on, user_support if config.delta_beta else log_pu)
                else:
                    raise ValueError(f"population loss undefined for family {config.family!r}")
                terms.append((*marginals, *row, *col, positives, p_n))
        return cls(*(np.stack(column) for column in zip(*terms)))


def _weighted_softmax(logits: np.ndarray, axis: int, weight: np.ndarray) -> np.ndarray:
    """``weight * softmax(logits)`` along ``axis``, in the buffer ``logits``:
    each line shifted by its maximum, so the exponentials never overflow."""
    logits -= logits.max(axis=axis, keepdims=True)
    np.exp(logits, out=logits)
    logits *= weight / logits.sum(axis=axis, keepdims=True)
    return logits


def population_loss(phi: np.ndarray, loss: StackedLoss) -> np.ndarray:
    """Gradients ``(C, M, K)`` of the exact full-batch losses of the stacked
    configurations at the score tables ``phi`` ``(C, M, K)``; training reads
    only the gradient, so the loss values are not computed.

    For the in-batch families the denominators are the exact large-batch
    sums: every candidate enters weighted by its empirical marginal, which
    restricts the partition to the observed support.  The gradient is
    ``row + col + bce_weight * sigmoid(phi) + base``, each softmax half
    built directly with one exponential: the row half is
    ``alpha * p(u) * softmax(phi + row_offset)`` over items, the column
    half ``beta * p(i) * softmax(phi + col_offset)`` over users.
    """
    grad = _weighted_softmax(phi + loss.row_offset, 2, loss.row_weight)
    grad += _weighted_softmax(phi + loss.col_offset, 1, loss.col_weight)
    with np.errstate(over="ignore"):  # exp(-phi) = inf for phi below about -709: the sigmoid is exactly 0
        sig = np.exp(-phi)
    sig += 1.0
    grad += np.divide(loss.bce_weight, sig, out=sig)
    grad += loss.base
    return grad


def dense_forward(blocks: np.ndarray, num_items: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score each block's user rows (those after its first ``num_items``)
    against its own item rows, one batched matrix product for all blocks.
    Returns the rows of the ``(..., K + M, d)`` blocks as unit vectors,
    their norms and the ``(..., M, K)`` cosines; a zero row raises
    ``ValueError``, as in ``score_matrix_forward``."""
    hat, norms = normalize_rows(blocks)
    return hat, norms, hat[..., num_items:, :] @ hat[..., :num_items, :].swapaxes(-1, -2)


def train_to_optimum(
    configs: Sequence[LossConfig],
    seeded_tables: Sequence[tuple[int, EmpiricalTables]],
    spec: SyntheticSpec,
    *,
    dim: int = 10,
    temperature: float = 0.05,
    epochs: int = 2000,
    learning_rate: float = 0.05,
) -> np.ndarray:
    """Full-batch Adam training of each loss configuration on each of the
    ``(seed, tables)`` pairs; the learning rate decays on a cosine from
    ``learning_rate`` to 0 over the epochs, so each table settles at its
    optimum.

    Every (pair, configuration) block trains in one stacked problem: block
    ``s * len(configs) + c`` of the embedding table holds configuration
    ``c``'s item rows and user tokens over pair ``s``'s tables, starting from
    the initialization seeded by pair ``s``'s seed, and every user row is
    scored only against its own block's items.  The blocks are a
    ``(C, K + M, d)`` view of the table, scored by :func:`dense_forward` and
    differentiated by ``model.cosine_backward``, batched matrix products
    that compute each block on its own; Adam is
    elementwise and every row steps every epoch, so the blocks never
    interact.  Returns the trained blocks ``(S, C, K + M, d)``: pair ``s``'s
    configuration ``c`` at ``[s, c]``.
    """
    num_configs, m, k = len(configs), spec.num_users, spec.num_items
    num_blocks = len(seeded_tables) * num_configs
    inits = [ModelParams.initialize(k + m, dim, temperature, seed).item_embeddings for seed, _ in seeded_tables]
    # A synthetic user is one token, which every aggregator pools to its row,
    # so the dense kernels read the user rows as they are.  The last row is
    # the attention query, zero and never stepped.
    stack = np.vstack([np.tile(init, (num_configs, 1)) for init in inits] + [np.zeros((1, dim))])
    params = ModelParams(stack, temperature)
    blocks = params.item_embeddings.reshape(num_blocks, k + m, dim)  # a view: each step moves it
    grad = np.empty_like(blocks)
    halves = grad[:, :k], grad[:, k:]  # the item rows' gradient, then the user rows'
    grads = GradientTable(np.arange(num_blocks * (k + m)), grad.reshape(-1, dim))
    loss = StackedLoss.build([tables for _, tables in seeded_tables], configs)
    opt = OptimizerState(kind="adam", learning_rate=learning_rate)
    # A diverging step goes quietly non-finite: the next step's norm or
    # gradient check, or the check after the last epoch, raises for it.
    with np.errstate(all="ignore"):
        for epoch in range(epochs):
            opt.learning_rate = learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / epochs))
            try:
                hat, norms, cos = dense_forward(blocks, k)
            except DegenerateNormError as exc:  # a row with no cosine has no finite gradient
                raise NonFiniteGradientError(f"non-finite gradient: {exc} (epoch {epoch})") from exc
            dphi = population_loss(cos / temperature, loss)
            scale = temperature * norms[:, :, None]
            cosine_backward(dphi, cos, hat[:, k:], scale[:, k:], hat[:, :k], scale[:, :k], *halves)
            apply_optimizer_step(params, grads, opt)
    if not finite_norms(blocks):
        raise NonFiniteGradientError(f"non-finite parameters after epoch {epochs - 1}")
    return blocks.reshape(len(seeded_tables), num_configs, k + m, dim)


@dataclass
class OptimumReport:
    """Comparison of a trained score table against its predicted optimum.

    ``constant``, ``residual`` and ``rank_correlation`` are the plain
    single-constant diagnostics; the ``*_gauged`` pair removes the offsets
    the loss provably cannot determine and carries the pass/fail gates.
    For gauge ``none`` the two sets coincide.
    """

    label: str
    seed: int
    target_name: str
    gauge: str
    constant: float
    residual: float
    rank_correlation: float
    residual_gauged: float
    rank_correlation_gauged: float
    num_observed: int
    num_excluded: int
    range_ok: bool
    passed: bool


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; a run of equal values shares its mean rank."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def _rank_corr(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rank correlation: the Pearson correlation of average ranks;
    ``nan`` for a constant input or one that holds a ``nan``."""
    if not (np.ptp(a) >= 1e-12 and np.ptp(b) >= 1e-12):
        return math.nan
    ranks = np.column_stack((_average_ranks(a), _average_ranks(b)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def check_optimum(
    row: SweepRow,
    phi: np.ndarray,
    tables: EmpiricalTables,
    temperature: float,
    *,
    seed: int = 0,
) -> OptimumReport:
    """Fit the additive constants of ``row``'s optimum to the trained score
    table ``phi`` and report residual plus rank agreement.

    Cells never observed in the sample have undefined log targets and are
    excluded (their count is reported).  A constant target (uniform joint)
    leaves rank correlation undefined; the residual gate alone then decides.
    """
    target = target_table(row, tables)
    gauge = row.gauge
    mask = tables.observed
    phi_obs = phi[mask]
    target_obs = target[mask]

    diffs = phi_obs - target_obs
    constant = float(diffs.mean())
    residual = float(np.abs(diffs - constant).max())
    rank = _rank_corr(phi_obs, target_obs)

    if gauge == "none":
        residual_gauged, rank_gauged = residual, rank
    else:
        diff_table = np.where(mask, phi - target, np.nan)
        offsets = _masked_mean(diff_table, mask, _GAUGE_AXIS[gauge])
        residual_gauged = float(np.nanmax(np.abs(diff_table - offsets)))
        rank_gauged = _rank_corr(_center(phi, mask, gauge)[mask], _center(target, mask, gauge)[mask])

    centered = target_obs - (target_obs.max() + target_obs.min()) / 2.0
    range_ok = bool(np.abs(centered).max() <= 1.0 / temperature)
    passed = residual_gauged <= RESIDUAL_GATE and (math.isnan(rank_gauged) or rank_gauged >= RANK_GATE)
    return OptimumReport(
        label=row.label,
        seed=seed,
        target_name=row.target,
        gauge=gauge,
        constant=constant,
        residual=residual,
        rank_correlation=rank,
        residual_gauged=residual_gauged,
        rank_correlation_gauged=rank_gauged,
        num_observed=int(mask.sum()),
        num_excluded=int((~mask).sum()),
        range_ok=range_ok,
        passed=passed,
    )


@dataclass
class GroupAgreement:
    seed: int
    group: str
    label_a: str
    label_b: str
    rank_correlation: float


@dataclass
class SweepResult:
    reports: list[OptimumReport]
    agreements: list[GroupAgreement]


def run_table_sweep(
    spec: SyntheticSpec,
    seeds: Sequence[int],
    *,
    dim: int = 10,
    temperature: float = 0.05,
    epochs: int = 2000,
    learning_rate: float = 0.05,
) -> SweepResult:
    """Train every configuration over every seed's sample, all in one stack,
    and gate each against its optimum.

    Each seed's counts are streamed by :func:`sample_counts`.  Gate
    failures are flagged in the report rows, never raised.  Pairwise rank
    agreement inside each equal-optimum group is reported alongside, seed
    by seed.
    """
    reports: list[OptimumReport] = []
    agreements: list[GroupAgreement] = []
    seeded_tables = [(seed, EmpiricalTables(sample_counts(spec, seed))) for seed in seeds]
    blocks = train_to_optimum(
        [row.config for row in SWEEP],
        seeded_tables,
        spec,
        dim=dim,
        temperature=temperature,
        epochs=epochs,
        learning_rate=learning_rate,
    )
    _, _, cos = dense_forward(blocks, spec.num_items)
    for (seed, tables), seed_phi in zip(seeded_tables, cos / temperature):
        mask = tables.observed
        phi_by_label = {row.label: phi for row, phi in zip(SWEEP, seed_phi)}
        reports.extend(check_optimum(row, phi, tables, temperature, seed=seed) for row, phi in zip(SWEEP, seed_phi))
        for group, labels in EQUAL_OPTIMA_GROUPS.items():
            # One-sided members leave their per-side offsets undetermined, so
            # a mixed group compares tables centered by its one gauge other
            # than ``none``.
            gauges = {row.gauge for row in SWEEP if row.label in labels} - {"none"}
            gauge = gauges.pop() if gauges else "none"
            for pos, label_a in enumerate(labels):
                for label_b in labels[pos + 1 :]:
                    a = _center(phi_by_label[label_a], mask, gauge)[mask]
                    b = _center(phi_by_label[label_b], mask, gauge)[mask]
                    agreements.append(GroupAgreement(seed, group, label_a, label_b, _rank_corr(a, b)))
    return SweepResult(reports, agreements)


def _fmt_rank(value: float) -> str:
    return "nan" if math.isnan(value) else f"{value:.4f}"


def sweep_report_text(result: SweepResult) -> str:
    """Machine-readable sweep report: one row per (configuration, seed)."""
    lines = [
        "label\tseed\ttarget\tgauge\tconstant\tresidual\trank_correlation"
        "\tresidual_gauged\trank_correlation_gauged\trange_ok\tpass"
    ]
    for r in result.reports:
        lines.append(
            f"{r.label}\t{r.seed}\t{r.target_name}\t{r.gauge}\t{r.constant:.4f}\t{r.residual:.4f}"
            f"\t{_fmt_rank(r.rank_correlation)}\t{r.residual_gauged:.4f}"
            f"\t{_fmt_rank(r.rank_correlation_gauged)}\t{int(r.range_ok)}\t{'pass' if r.passed else 'FAIL'}"
        )
    lines.append("")
    lines.append("group\tseed\tlabel_a\tlabel_b\trank_correlation")
    for a in result.agreements:
        lines.append(f"{a.group}\t{a.seed}\t{a.label_a}\t{a.label_b}\t{_fmt_rank(a.rank_correlation)}")
    return "\n".join(lines) + "\n"
