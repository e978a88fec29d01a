"""Matching losses and their analytic gradients.

Five families over the temperature-scaled cosine score ``phi``:

* ``bce``               binary cross-entropy on labeled pairs, with the
                        negative-sampling strategies living in the data module;
* ``bidirectional``     the generalized in-batch loss: a row softmax over the
                        batch's items plus a column softmax over the batch's
                        users, each optionally bias-corrected by subtracting
                        the log empirical marginal of the sampled side, looked
                        up in the training marginals per batch.  Flag
                        presets recover InfoNCE, SimCLR, row-bcNCE, col-bcNCE
                        and bbcNCE;
* ``full_softmax_row``  exact multinomial NLL with the partition over the whole
                        item vocabulary (desk-scale oracle);
* ``full_softmax_col``  the symmetric oracle over a supplied user universe;
* ``ssm``               sampled softmax with proposal-corrected logits.

Every loss reports its gradient with respect to the raw scores; parameter
gradients are obtained by chaining it through the one scoring kernel of
:mod:`twotower.model` (shared columns for the in-batch and full-softmax
losses, per-row candidates for ``bce`` pairs and ``ssm``).  Softmax terms
are computed with max-subtracted log-sum-exp throughout; bias terms are
added to the logits before stabilization.  In-batch duplicates (two examples sharing a target) are not
masked: the marginal correction is the intended remedy for popularity skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import EmpiricalMarginals, Examples
from .model import EncoderConfig, GradientTable, ModelParams, score_matrix_backward, score_matrix_forward

LOSS_FAMILIES = ("bce", "ssm", "full_softmax_row", "full_softmax_col", "bidirectional")

# preset -> (alpha, delta_alpha, beta, delta_beta)
PRESETS: Mapping[str, tuple[int, int, int, int]] = {
    "infonce": (1, 0, 0, 0),
    "simclr": (1, 0, 1, 0),
    "row_bcnce": (1, 1, 0, 0),
    "col_bcnce": (0, 0, 1, 1),
    "bbcnce": (1, 1, 1, 1),
}


@dataclass(frozen=True)
class LossConfig:
    """Loss family plus the binary flags of the bidirectional loss."""

    family: str = "bidirectional"
    alpha: int = 1
    beta: int = 1
    delta_alpha: int = 1
    delta_beta: int = 1
    negative_strategy: str = "uniform"
    num_sampled: int = 10
    ssm_proposal: str = "marginal"

    def __post_init__(self) -> None:
        if self.family not in LOSS_FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}; choose from {LOSS_FAMILIES}")
        for name in ("alpha", "beta", "delta_alpha", "delta_beta"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")
        if self.family == "bidirectional" and self.alpha == 0 and self.beta == 0:
            raise ValueError("bidirectional loss with alpha=beta=0 is identically zero")
        if self.family == "ssm" and self.num_sampled < 1:
            raise ValueError("num_sampled must be >= 1")
        if self.ssm_proposal not in ("marginal", "uniform"):
            raise ValueError("ssm_proposal must be 'marginal' or 'uniform'")

    @classmethod
    def from_preset(cls, name: str, **kwargs) -> "LossConfig":
        """The bidirectional loss with the preset's flags; ``kwargs`` set the other fields."""
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        flags = dict(zip(("alpha", "delta_alpha", "beta", "delta_beta"), PRESETS[name]))
        return cls(**{**kwargs, "family": "bidirectional", **flags})


@dataclass
class LossOutput:
    """Loss value, parameter gradients (sparse by row) and score gradients."""

    value: float
    gradients: GradientTable | None = None
    dscore: np.ndarray | None = None


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis``, bit-identical to scipy's.

    scipy's order of operations: the maxima are taken out of the sum, each
    counted once, and the rest enters as ``log1p(rest / count)``; an
    all-``-inf`` line gives ``-inf``.
    """
    a_max = a.max(axis, keepdims=True)
    top = a == a_max
    rest = np.where(top, 0.0, np.exp(a - a_max)).sum(axis, keepdims=True)
    count = top.sum(axis, keepdims=True, dtype=float)
    return np.squeeze(np.log1p(rest / count) + np.log(count) + a_max, axis=axis)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def bce_value(phi: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean Bernoulli NLL of the pair logits and its score gradient."""
    phi = np.asarray(phi, dtype=float)
    labels = np.asarray(labels, dtype=float)
    # -log sigmoid(phi) = logaddexp(0, -phi); -log(1 - sigmoid(phi)) = logaddexp(0, phi)
    per = labels * np.logaddexp(0.0, -phi) + (1.0 - labels) * np.logaddexp(0.0, phi)
    value = float(per.mean())
    dphi = (_sigmoid(phi) - labels) / phi.size
    return value, dphi


def bidirectional_nce_loss(
    score_matrix: np.ndarray,
    log_p_u: np.ndarray,
    log_p_i: np.ndarray,
    config: LossConfig,
) -> LossOutput:
    """Generalized bidirectional in-batch loss on a precomputed score matrix.

    The r-th diagonal entry is the positive pair.  The row term softmaxes
    entry (r, r) against row r (the batch's items, each logit reduced by
    ``delta_alpha * log_p_i`` of its column); the column term softmaxes it
    against column r (the batch's users, each logit reduced by
    ``delta_beta * log_p_u`` of its row).  The value is
    ``alpha * mean(row terms) + beta * mean(col terms)`` -- accumulated in
    that order so the two halves decompose exactly.
    """
    phi = np.asarray(score_matrix, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ValueError("score matrix must be square")
    size = phi.shape[0]
    if size < 2:
        raise ValueError("in-batch loss needs a batch of at least 2 (no negatives otherwise)")
    log_p_u = np.asarray(log_p_u, dtype=float)
    log_p_i = np.asarray(log_p_i, dtype=float)
    if log_p_u.shape != (size,) or log_p_i.shape != (size,):
        raise ValueError("bias vectors must align with the batch")

    alpha, beta = config.alpha, config.beta
    diag = np.arange(size)
    dphi = np.zeros_like(phi)
    value = 0.0

    if alpha:
        h = phi - config.delta_alpha * log_p_i[None, :]
        row_lse = logsumexp(h, axis=1)
        row_terms = row_lse - h[diag, diag]
        value += alpha * float(row_terms.mean())
        p_row = np.exp(h - row_lse[:, None])
        p_row[diag, diag] -= 1.0
        dphi += (alpha / size) * p_row
    if beta:
        o = phi - config.delta_beta * log_p_u[:, None]
        col_lse = logsumexp(o, axis=0)
        col_terms = col_lse - o[diag, diag]
        value += beta * float(col_terms.mean())
        p_col = np.exp(o - col_lse[None, :])
        p_col[diag, diag] -= 1.0
        dphi += (beta / size) * p_col

    return LossOutput(value=value, dscore=dphi)


def full_softmax_value(phi: np.ndarray, positive_cols: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact softmax NLL along axis 1 with its score gradient."""
    phi = np.asarray(phi, dtype=float)
    positive_cols = np.asarray(positive_cols, dtype=np.int64)
    rows = np.arange(phi.shape[0])
    lse = logsumexp(phi, axis=1)
    value = float((lse - phi[rows, positive_cols]).mean())
    dphi = np.exp(phi - lse[:, None])
    dphi[rows, positive_cols] -= 1.0
    return value, dphi / phi.shape[0]


def bce_loss(
    batch: Examples,
    params: ModelParams,
    enc_config: EncoderConfig,
) -> LossOutput:
    """Binary cross-entropy over labeled pairs, with parameter gradients."""
    if not len(batch):
        raise ValueError("batch is empty")
    items = batch.target[:, None]  # one candidate per row
    labels = batch.label.astype(float)
    phi, cache = score_matrix_forward(batch.pseudo_users(), items, params, enc_config)
    value, dphi = bce_value(phi[:, 0], labels)
    grads = score_matrix_backward(cache, dphi[:, None], params, enc_config)
    return LossOutput(value=value, gradients=grads, dscore=dphi)


def bidirectional_batch_loss(
    batch: Examples,
    params: ModelParams,
    enc_config: EncoderConfig,
    config: LossConfig,
    marginals: EmpiricalMarginals,
) -> LossOutput:
    """Score the batch, apply the bidirectional loss with the bias terms of
    the training ``marginals``, backprop to parameters."""
    log_p_u, log_p_i = marginals.log_bias(batch)
    phi, cache = score_matrix_forward(batch.pseudo_users(), batch.target, params, enc_config)
    out = bidirectional_nce_loss(phi, log_p_u, log_p_i, config)
    out.gradients = score_matrix_backward(cache, out.dscore, params, enc_config)
    return out


def full_softmax_row_loss(
    batch: Examples,
    params: ModelParams,
    enc_config: EncoderConfig,
) -> LossOutput:
    """Multinomial NLL with the partition over the entire item vocabulary."""
    if not len(batch):
        raise ValueError("batch is empty")
    phi, cache = score_matrix_forward(batch.pseudo_users(), np.arange(params.num_items), params, enc_config)
    value, dphi = full_softmax_value(phi, batch.target)
    grads = score_matrix_backward(cache, dphi, params, enc_config)
    return LossOutput(value=value, gradients=grads, dscore=dphi)


def full_softmax_col_loss(
    batch: Examples,
    params: ModelParams,
    enc_config: EncoderConfig,
    user_universe: np.ndarray,
) -> LossOutput:
    """Symmetric oracle: softmax over a universe of key ids (ascending) per item."""
    if not len(batch):
        raise ValueError("batch is empty")
    if not np.isin(batch.key, user_universe).all():
        raise ValueError("batch pseudo-user missing from the supplied universe")
    positives = np.searchsorted(user_universe, batch.key)
    # Rows are universe users, columns the batch's targets.
    phi, cache = score_matrix_forward(batch.table.take(user_universe), batch.target, params, enc_config)
    value, dphi_t = full_softmax_value(phi.T, positives)
    grads = score_matrix_backward(cache, dphi_t.T, params, enc_config)
    return LossOutput(value=value, gradients=grads, dscore=dphi_t.T)


def proposal_distribution(
    marginals: EmpiricalMarginals,
    num_items: int,
    proposal: str,
    num_sampled: int,
) -> np.ndarray:
    """The sampled-softmax proposal over the item vocabulary: ``uniform``, or
    the training item ``marginal``.  A positive's negatives are drawn without
    replacement from the rest of the proposal's support, so ``num_sampled``
    may be at most that support minus one."""
    if proposal == "uniform":
        q = np.full(num_items, 1.0 / num_items)
    else:
        q = np.zeros(num_items)
        q[: marginals.count_item.size] = marginals.count_item / marginals.total
    support = np.count_nonzero(q)
    if num_sampled > support - 1:
        raise ValueError(
            f"num_sampled = {num_sampled}, but the {proposal} proposal covers {support} items of the vocabulary,"
            f" so at most {support - 1} negatives can be drawn without replacement"
        )
    return q


def ssm_loss(
    batch: Examples,
    params: ModelParams,
    enc_config: EncoderConfig,
    marginals: EmpiricalMarginals,
    num_sampled: int,
    rng: np.random.Generator,
    proposal: str = "marginal",
) -> LossOutput:
    """Sampled-softmax estimate of the row loss.

    Per positive, ``num_sampled`` negatives are drawn without replacement
    from the proposal over the whole vocabulary (the positive excluded) and
    every logit is corrected by ``-log q``; the loss is the softmax NLL over
    the positive plus its sampled candidates.
    """
    if not len(batch):
        raise ValueError("batch is empty")
    num_items = params.num_items
    q = proposal_distribution(marginals, num_items, proposal, num_sampled)

    candidates = np.empty((len(batch), 1 + num_sampled), dtype=np.int64)  # positive first
    candidates[:, 0] = batch.target
    for b, target in enumerate(batch.target.tolist()):
        if q[target] <= 0.0:
            raise ValueError(f"positive item {target} has zero proposal probability")
        masked = q.copy()
        masked[target] = 0.0
        masked /= masked.sum()
        candidates[b, 1:] = rng.choice(num_items, size=num_sampled, replace=False, p=masked)

    phi, cache = score_matrix_forward(batch.pseudo_users(), candidates, params, enc_config)
    value, dphi = full_softmax_value(phi - np.log(q[candidates]), np.zeros(len(batch), dtype=np.int64))
    grads = score_matrix_backward(cache, dphi, params, enc_config)
    return LossOutput(value=value, gradients=grads, dscore=dphi)


def loss_with_gradients(
    batch: Examples,
    params: ModelParams,
    enc_config: EncoderConfig,
    config: LossConfig,
    *,
    marginals: EmpiricalMarginals | None = None,
    rng: np.random.Generator | None = None,
    user_universe: np.ndarray | None = None,
) -> LossOutput:
    """Evaluate the configured loss on a batch; value plus exact gradients."""
    if config.family == "bce":
        return bce_loss(batch, params, enc_config)
    if config.family == "bidirectional":
        if marginals is None:
            raise ValueError("bidirectional loss needs the training marginals")
        return bidirectional_batch_loss(batch, params, enc_config, config, marginals)
    if config.family == "full_softmax_row":
        return full_softmax_row_loss(batch, params, enc_config)
    if config.family == "full_softmax_col":
        if user_universe is None:
            raise ValueError("full_softmax_col needs a user universe")
        return full_softmax_col_loss(batch, params, enc_config, user_universe)
    if config.family == "ssm":
        if marginals is None or rng is None:
            raise ValueError("ssm loss needs marginals and an rng")
        return ssm_loss(batch, params, enc_config, marginals, config.num_sampled, rng, config.ssm_proposal)
    raise ValueError(f"unknown loss family {config.family!r}")
