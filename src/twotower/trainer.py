"""Month-by-month incremental training with deterministic checkpoint resume.

One loop serves both modes.  In ``incremental`` mode it consumes training
data in absolute-time order: for each month, a fixed number of epochs over
that month's batches, writing a checkpoint at every epoch and month
boundary.  In ``shuffled`` mode (the baseline) the same loop runs one phase
over the pooled data.  Each step applies SGD or lazy Adam to the one
parameter table (item rows and the attention row): the Adam moments are
dense tables of the same shape with a per-row step count, and a step moves
only the rows its gradient touched.

Determinism contract: every random draw is made by a generator derived from
``(seed, phase, epoch)``, so resuming from any epoch or month checkpoint, in
either mode, reproduces the uninterrupted run bit for bit.

Checkpoints are written in the ``container`` format: magic ``UMCK``, format
version 3, the 64-bit fingerprint of the identity-relevant configuration as
the tag, a JSON metadata block (cursor, optimizer scalars, the validation
rows of the finished phases, array manifest) and the arrays: the float64
parameter table, and the Adam rows of the rows that have taken a step
(their float64 moments, and their ids and step counts as integer columns).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import container
from .data import EmpiricalMarginals, Examples, make_batches
from .losses import LossConfig, loss_with_gradients
from .model import DegenerateNormError, GradientTable, ModelParams, finite_norms

CHECKPOINT_MAGIC = b"UMCK"
CHECKPOINT_VERSION = 3
_OPTIMIZER_FIELDS = ("kind", "learning_rate", "beta1", "beta2", "epsilon")


class NonFiniteGradientError(RuntimeError):
    """A gradient or an updated parameter became NaN or infinite; training
    aborts loudly."""


class NonFiniteLossError(RuntimeError):
    """A loss value became NaN or infinite; training aborts loudly."""


class CheckpointError(ValueError):
    """Corrupt checkpoint file or configuration fingerprint mismatch."""


TRAIN_MODES = ("incremental", "shuffled")


@dataclass(frozen=True)
class TrainConfig:
    epochs_per_month: int = 2
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0
    mode: str = "incremental"

    def __post_init__(self) -> None:
        if self.epochs_per_month < 1:
            raise ValueError("epochs_per_month must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.adam_epsilon > 0:
            raise ValueError(f"adam_epsilon must be positive, got {self.adam_epsilon}")
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"mode must be one of {TRAIN_MODES}")


@dataclass
class OptimizerState:
    """SGD, or lazily-updated Adam: moment tables ``m`` and ``v`` shaped as
    the parameter table and a per-row step count ``t``, allocated at the
    first step.  A step moves only the rows in its gradient and advances
    only their counts, so every row keeps its own bias correction."""

    kind: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    m: np.ndarray | None = None  # (num_items + 1, dim)
    v: np.ndarray | None = None  # (num_items + 1, dim)
    t: np.ndarray | None = None  # (num_items + 1,) int64; 0 = never updated
    _powers: dict[float, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_config(cls, config: TrainConfig) -> "OptimizerState":
        return cls(
            kind=config.optimizer,
            learning_rate=config.learning_rate,
            beta1=config.adam_beta1,
            beta2=config.adam_beta2,
            epsilon=config.adam_epsilon,
        )

    def tables(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Adam tables ``(m, v, t)`` of a parameter table of ``shape``,
        allocated as zeros on first use."""
        if self.t is None:
            self.m, self.v = np.zeros(shape), np.zeros(shape)
            self.t = np.zeros(shape[0], dtype=np.int64)
        return self.m, self.v, self.t

    def _bias_correction(self, beta: float, t: np.ndarray) -> np.ndarray:
        """``1 - beta**t`` with each power from a table of Python float powers
        (C ``pow``), so the value equals the scalar formula's; numpy's
        vectorized power differs from it in the last bit for some ``t``."""
        table = self._powers.get(beta)
        if table is None or table.size <= t.max(initial=0):
            table = self._powers[beta] = np.array([beta**k for k in range(max(1024, 2 * int(t.max())))])
        return 1.0 - table[t]

    def _adam_update(self, m: np.ndarray, v: np.ndarray, t: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Advance the moments ``m`` and ``v`` of rows at step counts ``t``
        in place and return the rows' step.  Rows that share one count (every
        ``verify`` step) divide by the scalar ``1 - beta**t``, the same Python
        float the per-row table holds, so the bits are those of the per-row
        path; rows at mixed counts divide by a column of corrections."""
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        count = _shared_count(t)
        if count is None:
            correction1 = self._bias_correction(self.beta1, t)[:, None]
            correction2 = self._bias_correction(self.beta2, t)[:, None]
        else:
            correction1, correction2 = 1.0 - self.beta1**count, 1.0 - self.beta2**count
        step = m / correction1
        step *= self.learning_rate
        v_hat = v / correction2
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.epsilon
        step /= v_hat
        return step


def _shared_count(t: np.ndarray) -> int | None:
    """The step count of every row of ``t`` as a Python int when they share
    one, else ``None``."""
    if t.size and (t == t[0]).all():
        return int(t[0])
    return None


def _row_index(rows: np.ndarray) -> np.ndarray | slice:
    """The unique, ascending ``rows`` as the equivalent slice when they form
    one contiguous run, so indexing gives views; otherwise ``rows`` itself."""
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def apply_optimizer_step(params: ModelParams, grads: GradientTable, state: OptimizerState) -> None:
    """Apply one update in place; rows absent from the gradient are untouched.

    The tables are indexed by :func:`_row_index`: a contiguous run of rows
    (every ``verify`` step) updates its moments in place through views, any
    other row set is gathered and scattered back, with the same arithmetic."""
    if not np.isfinite(grads.values).all():
        bad_rows = grads.rows[~np.isfinite(grads.values).all(axis=1)].tolist()
        raise NonFiniteGradientError(f"non-finite gradient (rows {bad_rows[:8]}{'...' if len(bad_rows) > 8 else ''})")
    index = _row_index(grads.rows)
    table = params.table
    if state.kind == "sgd":
        table[index] -= state.learning_rate * grads.values
        return
    m, v, t = state.tables(table.shape)
    m_rows, v_rows, row_t = m[index], v[index], t[index] + 1
    step = state._adam_update(m_rows, v_rows, row_t, grads.values)
    m[index], v[index], t[index] = m_rows, v_rows, row_t  # a slice's views are written already: no copy
    table[index] -= step


@dataclass
class Checkpoint:
    params: ModelParams
    optimizer: OptimizerState
    month_cursor: int  # index into months of the next month to train
    epoch_cursor: int  # next epoch within months[month_cursor]
    months: tuple[int, ...]
    seed: int
    fingerprint: int
    trace: list[dict] = field(default_factory=list)  # the validation rows of the finished phases


def save_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    params, opt = checkpoint.params, checkpoint.optimizer
    arrays: list[tuple[str, np.ndarray]] = [("table", params.table)]
    if opt.kind == "adam":
        m, v, t = opt.tables(params.table.shape)
        row_ids = np.flatnonzero(t)  # only rows that have taken a step
        arrays.append(("adam_row_ids", row_ids))
        arrays.append(("adam_row_m", m[row_ids]))
        arrays.append(("adam_row_v", v[row_ids]))
        arrays.append(("adam_row_t", t[row_ids]))
    meta = {
        "month_cursor": checkpoint.month_cursor,
        "epoch_cursor": checkpoint.epoch_cursor,
        "months": list(checkpoint.months),
        "seed": checkpoint.seed,
        "aggregator": params.aggregator,
        "temperature": params.temperature,
        "optimizer": {name: getattr(opt, name) for name in _OPTIMIZER_FIELDS},
        "trace": checkpoint.trace,
    }
    container.write(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, checkpoint.fingerprint, meta, arrays)


def _is_int(value) -> bool:
    """Whether a metadata value is a JSON integer (a bool is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_checkpoint(path: str, expected_fingerprint: int | None = None) -> Checkpoint:
    """Read a checkpoint.  A file whose checksum does not match, that is cut
    short, has bytes after the payload, does not parse or whose cursor
    fields are not integers raises ``CheckpointError`` and never loads."""
    try:
        fingerprint, meta, arrays = container.read(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
    except container.ContainerError as exc:
        raise CheckpointError(str(exc)) from exc
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise CheckpointError(
            f"{path}: configuration fingerprint mismatch "
            f"(checkpoint {fingerprint:#018x}, config {expected_fingerprint:#018x})"
        )
    try:
        cursor = [meta["month_cursor"], meta["epoch_cursor"], meta["seed"]]
        if not isinstance(meta["months"], list) or not all(map(_is_int, cursor + meta["months"])):
            raise ValueError("month_cursor, epoch_cursor and seed must be ints, and months a list of ints")
        params = ModelParams(arrays["table"].copy(), meta["temperature"], meta["aggregator"])
        opt = OptimizerState(**{name: meta["optimizer"][name] for name in _OPTIMIZER_FIELDS})
        trace = [{**{key: float(x) for key, x in row.items()}, "month": int(row["month"])} for row in meta["trace"]]
        if opt.kind == "adam":
            row_ids = arrays["adam_row_ids"]
            m, v, t = opt.tables(params.table.shape)
            m[row_ids], v[row_ids], t[row_ids] = arrays["adam_row_m"], arrays["adam_row_v"], arrays["adam_row_t"]
        return Checkpoint(
            params=params,
            optimizer=opt,
            month_cursor=meta["month_cursor"],
            epoch_cursor=meta["epoch_cursor"],
            months=tuple(meta["months"]),
            seed=meta["seed"],
            fingerprint=fingerprint,
            trace=trace,
        )
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from exc


@dataclass
class TrainResult:
    params: ModelParams
    months: tuple[int, ...]
    trace: list[dict]
    notices: list[str]
    steps: int
    checkpoints: list[str]


def _epoch_rng(seed: int, phase: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, phase, epoch]))


def train_incremental(
    examples: Examples,
    params: ModelParams,
    loss_config: LossConfig,
    train_config: TrainConfig,
    *,
    marginals: EmpiricalMarginals | None = None,
    proposal: np.ndarray | None = None,
    eval_fn: Callable[[ModelParams, int], dict] | None = None,
    checkpoint_dir: str | None = None,
    fingerprint: int = 0,
    resume: Checkpoint | None = None,
) -> TrainResult:
    """Train in phases of ``epochs_per_month`` epochs each.

    The months are those of the examples' ``month`` column, ascending.
    Mode ``incremental`` runs one phase per month in that order, writing
    ``month_*_epoch_*.ckpt`` inside a month and ``month_*.ckpt`` after it.
    Mode ``shuffled`` (the baseline) runs one phase over the pooled data,
    writing ``shuffled_epoch_*.ckpt`` after every epoch, and reports its
    metrics as month ``-1``; with a single month of data it reproduces the
    incremental step sequence exactly (same derived generators, same pool).

    ``examples`` must already be in the form the loss family consumes
    (with the ``label`` column for ``bce``); the bidirectional,
    ``full_softmax_col`` and ``ssm`` losses read the training ``marginals``,
    and ``ssm`` draws from ``proposal`` (see ``losses.loss_with_gradients``).
    After each phase the optional ``eval_fn`` is invoked on a parameter
    snapshot and its metrics are appended to the trace before the phase's
    last checkpoint, which holds them.  ``resume`` continues from a
    checkpoint's cursor and trace in either mode.
    """
    months = tuple(np.unique(examples.month).tolist())
    if not months:
        raise ValueError("no training examples, so no months to train")
    shuffled = train_config.mode == "shuffled"
    # One pool per phase; the label -1 marks the pooled data.
    phases = [(-1, examples)] if shuffled else [(month, examples.take(examples.month == month)) for month in months]
    epochs = train_config.epochs_per_month
    state = OptimizerState.from_config(train_config)
    start_phase, start_epoch, trace = 0, 0, []
    if resume is not None:
        if resume.months != months:
            raise CheckpointError(f"checkpoint months {resume.months} do not match the data's {months}")
        params.table[...] = resume.params.table
        state = resume.optimizer
        start_phase, start_epoch, trace = resume.month_cursor, resume.epoch_cursor, list(resume.trace)

    notices: list[str] = []
    checkpoints: list[str] = []
    steps = 0
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)

    def _save(name: str, phase: int, epoch: int) -> None:
        if not checkpoint_dir:
            return
        path = os.path.join(checkpoint_dir, name)
        save_checkpoint(path, Checkpoint(params, state, phase, epoch, months, train_config.seed, fingerprint, trace))
        checkpoints.append(path)

    for phase in range(start_phase, len(phases)):
        month, pool = phases[phase]
        for epoch in range(start_epoch if phase == start_phase else 0, epochs):
            rng = _epoch_rng(train_config.seed, phase, epoch)
            for rows in make_batches(len(pool), train_config.batch_size, rng):
                batch = pool.take(rows)
                if loss_config.family == "bidirectional" and len(batch) < 2:
                    notices.append(f"dropped trailing batch of 1 example (month {month})")
                    continue
                # A diverging step goes quietly non-finite: the norm, loss,
                # gradient and end-of-epoch parameter checks raise for it.
                with np.errstate(all="ignore"):
                    try:
                        out = loss_with_gradients(batch, params, loss_config, marginals=marginals, rng=rng, proposal=proposal)
                    except DegenerateNormError as exc:  # a row with no cosine scores no finite loss
                        raise NonFiniteLossError(f"non-finite loss: {exc} (month {month}, epoch {epoch})") from exc
                    if not math.isfinite(out.value):
                        raise NonFiniteLossError(f"non-finite loss {out.value} (month {month}, epoch {epoch})")
                    apply_optimizer_step(params, out.gradients, state)
                steps += 1
            # A finite step can still overflow a parameter, or a row's norm; no
            # checkpoint or snapshot may hold one.
            if not finite_norms(params.table):
                raise NonFiniteGradientError(f"non-finite parameters after month {month}, epoch {epoch}")
            last = epoch == epochs - 1
            if last and eval_fn is not None:
                trace.append({"month": month, **eval_fn(params.clone(), month)})
            if shuffled:
                _save(f"shuffled_epoch_{epoch:02d}.ckpt", phase, epoch + 1)
            elif last:
                _save(f"month_{month:04d}.ckpt", phase + 1, 0)
            else:
                _save(f"month_{month:04d}_epoch_{epoch:02d}.ckpt", phase, epoch + 1)
    return TrainResult(params, months, trace, notices, steps, checkpoints)
