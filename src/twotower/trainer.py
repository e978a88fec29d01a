"""Month-by-month incremental training with deterministic checkpoint resume.

The incremental loop consumes training data in absolute-time order: for each
month, a fixed number of epochs over that month's batches, stepping a lazy
per-row optimizer and writing a checkpoint at every epoch and month
boundary.  A shuffled baseline runs the identical loop over the pooled data.

Determinism contract: every random draw is made by a generator derived from
``(seed, phase, epoch)``, so resuming from any epoch or month checkpoint
reproduces the uninterrupted run bit for bit.

Checkpoints are a small binary container: magic ``UMCK``, a format version,
the 64-bit fingerprint of the identity-relevant configuration, a JSON
metadata block (cursor, rng derivation, optimizer scalars, array manifest)
and the raw little-endian float64/int64 array payload.
"""

from __future__ import annotations

import json
import logging
import os
import struct
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import EmpiricalMarginals, UserKey, make_batches
from .losses import LossConfig, loss_with_gradients
from .model import EncoderConfig, GradientTable, ModelParams

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"UMCK"
CHECKPOINT_VERSION = 1


class NonFiniteGradientError(RuntimeError):
    """A gradient became NaN or infinite; training aborts loudly."""


class CheckpointError(ValueError):
    """Corrupt checkpoint file or configuration fingerprint mismatch."""


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
    months: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.epochs_per_month < 1:
            raise ValueError("epochs_per_month must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if list(self.months) != sorted(set(self.months)):
            raise ValueError("months must be strictly ascending")


@dataclass
class OptimizerState:
    """SGD or lazily-updated Adam with per-row moments and step counters."""

    kind: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    row_m: dict[int, np.ndarray] = field(default_factory=dict)
    row_v: dict[int, np.ndarray] = field(default_factory=dict)
    row_t: dict[int, int] = field(default_factory=dict)
    attn_m: np.ndarray | None = None
    attn_v: np.ndarray | None = None
    attn_t: int = 0

    @classmethod
    def from_config(cls, config: TrainConfig) -> "OptimizerState":
        return cls(
            kind=config.optimizer,
            learning_rate=config.learning_rate,
            beta1=config.adam_beta1,
            beta2=config.adam_beta2,
            epsilon=config.adam_epsilon,
        )

    def _adam_update(self, m: np.ndarray, v: np.ndarray, t: int, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        step = self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        return m, v, step


def apply_optimizer_step(params: ModelParams, grads: GradientTable, state: OptimizerState) -> None:
    """Apply one update in place; rows absent from the gradient are untouched."""
    if not grads.is_finite():
        bad_rows = sorted(r for r, g in grads.rows.items() if not np.all(np.isfinite(g)))
        raise NonFiniteGradientError(f"non-finite gradient (rows {bad_rows[:8]}{'...' if len(bad_rows) > 8 else ''})")
    if state.kind == "sgd":
        for row_id, grad in grads.rows.items():
            params.item_embeddings[row_id] -= state.learning_rate * grad
        if grads.attention is not None:
            params.attention_vector -= state.learning_rate * grads.attention
        return
    dim = params.dim
    for row_id, grad in grads.rows.items():
        t = state.row_t.get(row_id, 0) + 1
        m = state.row_m.get(row_id)
        if m is None:
            m = np.zeros(dim)
            v = np.zeros(dim)
        else:
            v = state.row_v[row_id]
        m, v, step = state._adam_update(m, v, t, grad)
        state.row_m[row_id], state.row_v[row_id], state.row_t[row_id] = m, v, t
        params.item_embeddings[row_id] -= step
    if grads.attention is not None:
        state.attn_t += 1
        if state.attn_m is None:
            state.attn_m = np.zeros(dim)
            state.attn_v = np.zeros(dim)
        state.attn_m, state.attn_v, step = state._adam_update(state.attn_m, state.attn_v, state.attn_t, grads.attention)
        params.attention_vector -= step


@dataclass
class Checkpoint:
    params: ModelParams
    optimizer: OptimizerState
    month_cursor: int  # index into months of the next month to train
    epoch_cursor: int  # next epoch within months[month_cursor]
    months: tuple[int, ...]
    seed: int
    aggregator: str
    fingerprint: int


def _array_payload(arrays: list[tuple[str, np.ndarray]]) -> tuple[list[dict], bytes]:
    manifest = []
    chunks = []
    for name, arr in arrays:
        dtype = "<i8" if arr.dtype.kind == "i" else "<f8"
        cast = arr.astype(dtype, copy=False)
        manifest.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        chunks.append(cast.tobytes(order="C"))
    return manifest, b"".join(chunks)


def save_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    params, opt = checkpoint.params, checkpoint.optimizer
    arrays: list[tuple[str, np.ndarray]] = [
        ("item_embeddings", params.item_embeddings),
        ("attention_vector", params.attention_vector),
    ]
    if opt.kind == "adam":
        row_ids = np.array(sorted(opt.row_m), dtype=np.int64)
        arrays.append(("adam_row_ids", row_ids))
        arrays.append(("adam_row_m", np.stack([opt.row_m[r] for r in row_ids]) if row_ids.size else np.zeros((0, params.dim))))
        arrays.append(("adam_row_v", np.stack([opt.row_v[r] for r in row_ids]) if row_ids.size else np.zeros((0, params.dim))))
        arrays.append(("adam_row_t", np.array([opt.row_t[r] for r in row_ids], dtype=np.int64)))
        arrays.append(("adam_attn_m", opt.attn_m if opt.attn_m is not None else np.zeros(0)))
        arrays.append(("adam_attn_v", opt.attn_v if opt.attn_v is not None else np.zeros(0)))
    manifest, payload = _array_payload(arrays)
    meta = {
        "month_cursor": checkpoint.month_cursor,
        "epoch_cursor": checkpoint.epoch_cursor,
        "months": list(checkpoint.months),
        "seed": checkpoint.seed,
        "aggregator": checkpoint.aggregator,
        "temperature": params.temperature,
        "rng": {"scheme": "seed-phase-epoch", "seed": checkpoint.seed},
        "optimizer": {
            "kind": opt.kind,
            "learning_rate": opt.learning_rate,
            "beta1": opt.beta1,
            "beta2": opt.beta2,
            "epsilon": opt.epsilon,
            "attn_t": opt.attn_t,
        },
        "arrays": manifest,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as out:
        out.write(CHECKPOINT_MAGIC)
        out.write(struct.pack("<I", CHECKPOINT_VERSION))
        out.write(struct.pack("<Q", checkpoint.fingerprint))
        out.write(struct.pack("<I", len(meta_bytes)))
        out.write(meta_bytes)
        out.write(payload)


def load_checkpoint(path: str, expected_fingerprint: int | None = None) -> Checkpoint:
    """Read a checkpoint.  A file that is cut short, has bytes after the
    payload or does not parse raises ``CheckpointError`` and never loads."""
    with open(path, "rb") as src:
        blob = src.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    try:
        version, fingerprint, meta_len = struct.unpack_from("<IQI", blob, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        if expected_fingerprint is not None and fingerprint != expected_fingerprint:
            raise CheckpointError(
                f"{path}: configuration fingerprint mismatch "
                f"(checkpoint {fingerprint:#018x}, config {expected_fingerprint:#018x})"
            )
        meta = json.loads(blob[20 : 20 + meta_len].decode("utf-8"))
        offset = 20 + meta_len
        arrays: dict[str, np.ndarray] = {}
        for entry in meta["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(blob, dtype=entry["dtype"], count=count, offset=offset).reshape(shape)
            arrays[entry["name"]] = arr.copy()
            offset += arr.nbytes
        if offset != len(blob):
            raise ValueError(f"{len(blob) - offset} bytes after the payload")

        params = ModelParams(arrays["item_embeddings"], arrays["attention_vector"], meta["temperature"])
        opt_meta = meta["optimizer"]
        opt = OptimizerState(
            kind=opt_meta["kind"],
            learning_rate=opt_meta["learning_rate"],
            beta1=opt_meta["beta1"],
            beta2=opt_meta["beta2"],
            epsilon=opt_meta["epsilon"],
            attn_t=opt_meta["attn_t"],
        )
        if opt.kind == "adam":
            row_ids = arrays["adam_row_ids"]
            for pos, row_id in enumerate(row_ids):
                opt.row_m[int(row_id)] = arrays["adam_row_m"][pos]
                opt.row_v[int(row_id)] = arrays["adam_row_v"][pos]
                opt.row_t[int(row_id)] = int(arrays["adam_row_t"][pos])
            if arrays["adam_attn_m"].size:
                opt.attn_m = arrays["adam_attn_m"]
                opt.attn_v = arrays["adam_attn_v"]
        return Checkpoint(
            params=params,
            optimizer=opt,
            month_cursor=meta["month_cursor"],
            epoch_cursor=meta["epoch_cursor"],
            months=tuple(meta["months"]),
            seed=meta["seed"],
            aggregator=meta["aggregator"],
            fingerprint=fingerprint,
        )
    except CheckpointError:
        raise
    except (struct.error, ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from exc


@dataclass
class TrainResult:
    params: ModelParams
    trace: list[dict]
    notices: list[str]
    steps: int
    checkpoints: list[str]


def _epoch_rng(seed: int, phase: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, phase, epoch]))


def _month_path(directory: str, month: int) -> str:
    return os.path.join(directory, f"month_{month:04d}.ckpt")


def _epoch_path(directory: str, month: int, epoch: int) -> str:
    return os.path.join(directory, f"month_{month:04d}_epoch_{epoch:02d}.ckpt")


def _run_phase_epoch(
    examples: Sequence,
    month: int | None,
    month_index: dict[int, int],
    params: ModelParams,
    enc_config: EncoderConfig,
    loss_config: LossConfig,
    train_config: TrainConfig,
    state: OptimizerState,
    rng: np.random.Generator,
    notices: list[str],
    *,
    marginals: EmpiricalMarginals | None,
    num_items: int | None,
    user_universe: Sequence[UserKey] | None,
) -> int:
    steps = 0
    for batch in make_batches(examples, train_config.batch_size, month, month_index, rng):
        if loss_config.family == "bidirectional" and len(batch) < 2:
            notices.append(f"dropped trailing batch of 1 example (month {month})")
            continue
        out = loss_with_gradients(
            batch,
            params,
            enc_config,
            loss_config,
            marginals=marginals,
            rng=rng,
            num_items=num_items,
            user_universe=user_universe,
        )
        apply_optimizer_step(params, out.gradients, state)
        steps += 1
    return steps


def train_incremental(
    examples: Sequence,
    month_index: dict[int, int],
    params: ModelParams,
    enc_config: EncoderConfig,
    loss_config: LossConfig,
    train_config: TrainConfig,
    *,
    marginals: EmpiricalMarginals | None = None,
    num_items: int | None = None,
    user_universe: Sequence[UserKey] | None = None,
    eval_fn: Callable[[ModelParams, int], dict] | None = None,
    checkpoint_dir: str | None = None,
    fingerprint: int = 0,
    resume: Checkpoint | None = None,
    stop_after_month: int | None = None,
) -> TrainResult:
    """Train month by month in ascending time order.

    ``examples`` must already be in the form the loss family consumes
    (labeled pairs for ``bce``, bias-annotated examples otherwise).  After
    each month the optional ``eval_fn`` is invoked on a parameter snapshot
    and its metrics are appended to the trace.  ``resume`` continues from a
    checkpoint's cursor; ``stop_after_month`` ends the run early right after
    that month's checkpoint (used to exercise interruption).
    """
    months = train_config.months
    if not months:
        raise ValueError("train_config.months must list the months to train, ascending")
    state = OptimizerState.from_config(train_config)
    start_month_pos, start_epoch = 0, 0
    if resume is not None:
        if resume.months != tuple(months):
            raise CheckpointError(f"checkpoint months {resume.months} do not match configured {tuple(months)}")
        params.item_embeddings[...] = resume.params.item_embeddings
        params.attention_vector[...] = resume.params.attention_vector
        state = resume.optimizer
        start_month_pos, start_epoch = resume.month_cursor, resume.epoch_cursor

    notices: list[str] = []
    trace: list[dict] = []
    checkpoints: list[str] = []
    steps = 0
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)

    def _save(path: str, month_pos: int, epoch: int) -> None:
        if not checkpoint_dir:
            return
        save_checkpoint(
            path,
            Checkpoint(params, state, month_pos, epoch, tuple(months), train_config.seed, enc_config.aggregator, fingerprint),
        )
        checkpoints.append(path)

    for month_pos in range(start_month_pos, len(months)):
        month = months[month_pos]
        month_examples = [ex for ex in examples if month_index[ex.day] == month]
        epoch0 = start_epoch if month_pos == start_month_pos else 0
        if not month_examples:
            notices.append(f"month {month} has no training data; skipped")
            logger.info("month %d empty; skipped", month)
        else:
            for epoch in range(epoch0, train_config.epochs_per_month):
                rng = _epoch_rng(train_config.seed, month_pos, epoch)
                steps += _run_phase_epoch(
                    examples,
                    month,
                    month_index,
                    params,
                    enc_config,
                    loss_config,
                    train_config,
                    state,
                    rng,
                    notices,
                    marginals=marginals,
                    num_items=num_items,
                    user_universe=user_universe,
                )
                if checkpoint_dir and epoch < train_config.epochs_per_month - 1:
                    _save(_epoch_path(checkpoint_dir, month, epoch), month_pos, epoch + 1)
        _save(_month_path(checkpoint_dir, month) if checkpoint_dir else "", month_pos + 1, 0)
        if eval_fn is not None:
            metrics = eval_fn(params.clone(), month)
            trace.append({"month": month, **metrics})
        if stop_after_month is not None and month == stop_after_month:
            break
    return TrainResult(params, trace, notices, steps, checkpoints)


def train_shuffled(
    examples: Sequence,
    month_index: dict[int, int],
    params: ModelParams,
    enc_config: EncoderConfig,
    loss_config: LossConfig,
    train_config: TrainConfig,
    *,
    marginals: EmpiricalMarginals | None = None,
    num_items: int | None = None,
    user_universe: Sequence[UserKey] | None = None,
    eval_fn: Callable[[ModelParams, int], dict] | None = None,
    checkpoint_dir: str | None = None,
    fingerprint: int = 0,
) -> TrainResult:
    """Baseline: the same loop over globally shuffled data, one phase.

    ``epochs_per_month`` acts as the total epoch count, so a run over the
    same data costs the same number of steps per epoch as one incremental
    month.  With a single month of data this reproduces the incremental
    step sequence exactly (same derived generators, same pool).
    """
    state = OptimizerState.from_config(train_config)
    notices: list[str] = []
    checkpoints: list[str] = []
    steps = 0
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    for epoch in range(train_config.epochs_per_month):
        rng = _epoch_rng(train_config.seed, 0, epoch)
        steps += _run_phase_epoch(
            examples,
            None,
            month_index,
            params,
            enc_config,
            loss_config,
            train_config,
            state,
            rng,
            notices,
            marginals=marginals,
            num_items=num_items,
            user_universe=user_universe,
        )
        if checkpoint_dir:
            path = os.path.join(checkpoint_dir, f"shuffled_epoch_{epoch:02d}.ckpt")
            save_checkpoint(
                path,
                Checkpoint(params, state, 0, epoch + 1, tuple(train_config.months), train_config.seed, enc_config.aggregator, fingerprint),
            )
            checkpoints.append(path)
    trace: list[dict] = []
    if eval_fn is not None:
        metrics = eval_fn(params.clone(), -1)
        trace.append({"month": -1, **metrics})
    return TrainResult(params, trace, notices, steps, checkpoints)
