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
* ``full_softmax_col``  the symmetric oracle: a softmax per item over every
                        pseudo-user the training marginals count;
* ``ssm``               sampled softmax over each positive and negatives
                        drawn from a proposal, logits corrected by ``-log q``.

Every loss is a kernel from the raw scores to ``(value, dscore)``, its
gradient with respect to those scores; :func:`loss_with_gradients` chains it
through the one scoring kernel of :mod:`twotower.model` (shared columns for
the in-batch and full-softmax losses, per-row candidates for ``bce`` pairs
and ``ssm``).  Softmax terms are computed with max-subtracted log-sum-exp
throughout; bias terms are added to the logits before stabilization.  The
softmax kernels work in buffers they allocate themselves and never write the
scores they are given.
In-batch duplicates (two examples sharing a target) are not masked: the
marginal correction is the intended remedy for popularity skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from .data import EmpiricalMarginals, Examples, smallest_keys
from .model import GradientTable, ModelParams, score_matrix_backward, score_matrix_forward

LOSS_FAMILIES = ("bce", "ssm", "full_softmax_row", "full_softmax_col", "bidirectional")

# preset -> (alpha, delta_alpha, beta, delta_beta)
PRESETS: Mapping[str, tuple[int, int, int, int]] = {
    "infonce": (1, 0, 0, 0),
    "simclr": (1, 0, 1, 0),
    "row_bcnce": (1, 1, 0, 0),
    "col_bcnce": (0, 0, 1, 1),
    "bbcnce": (1, 1, 1, 1),
}

# (B, B) float64 arrays an in-batch step holds at its peak: the cosines and
# scores of the forward pass plus at most 3.5 inside ``bidirectional_nce_loss``
# (each half's buffer and logsumexp's exponentials and maxima mask).
IN_BATCH_PEAK_ARRAYS = 5.5


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
    gradients: GradientTable
    dscore: np.ndarray


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis``, bit-identical to scipy's.

    scipy's order of operations: the maxima are taken out of the sum, each
    counted once, and the rest enters as ``log1p(rest / count)``; an
    all-``-inf`` line gives ``-inf``.  The exponentials live in one
    temporary, with the maxima zeroed in place; ``a`` is not written.
    That contract now serves only the in-batch kernels here and the test
    references: the ``verify`` population loss builds its softmax without it.
    """
    a_max = a.max(axis, keepdims=True)
    top = a == a_max
    rest = np.subtract(a, a_max)
    np.exp(rest, out=rest)
    np.copyto(rest, 0.0, where=top)
    rest = rest.sum(axis, keepdims=True)
    count = top.sum(axis, keepdims=True, dtype=float)
    return np.squeeze(np.log1p(rest / count) + np.log(count) + a_max, axis=axis)


def _softmax_nll(logits: np.ndarray, axis: int, rows: np.ndarray, cols: np.ndarray, out: np.ndarray) -> float:
    """Mean softmax NLL along ``axis`` of the positives ``logits[rows, cols]``,
    one per line; ``out`` (``logits`` itself, or a buffer of its shape)
    receives the score gradient of each term: the softmax minus the
    positive's one-hot.  The positives are read before ``out`` is written."""
    lse = logsumexp(logits, axis=axis)
    value = float((lse - logits[rows, cols]).mean())
    np.subtract(logits, np.expand_dims(lse, axis), out=out)
    np.exp(out, out=out)
    out[rows, cols] -= 1.0
    return value


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
) -> tuple[float, np.ndarray]:
    """Generalized bidirectional in-batch loss on a precomputed score matrix,
    and its score gradient.

    The r-th diagonal entry is the positive pair.  The row term softmaxes
    entry (r, r) against row r (the batch's items, each logit reduced by
    ``delta_alpha * log_p_i`` of its column); the column term softmaxes it
    against column r (the batch's users, each logit reduced by
    ``delta_beta * log_p_u`` of its row).  The value is
    ``alpha * mean(row terms) + beta * mean(col terms)`` -- accumulated in
    that order so the two halves decompose exactly.  Each half works in one
    buffer of its own, its shifted logits turned into its gradient in place;
    the score matrix is not written.
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

    diag = np.arange(size)
    value, dphi = 0.0, None
    halves = (
        (config.alpha, 1, config.delta_alpha * log_p_i[None, :]),  # row softmax over the batch's items
        (config.beta, 0, config.delta_beta * log_p_u[:, None]),  # column softmax over the batch's users
    )
    for weight, axis, bias in halves:
        if not weight:
            continue
        logits = np.subtract(phi, bias)  # the half's own buffer, turned into its gradient in place
        value += weight * _softmax_nll(logits, axis, diag, diag, out=logits)
        np.multiply(logits, weight / size, out=logits)
        if dphi is None:
            dphi = logits
        else:
            dphi += logits
    return value, dphi


def full_softmax_value(phi: np.ndarray, positive_cols: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact softmax NLL along axis 1 with its score gradient, computed in
    the gradient's buffer; ``phi`` is not written."""
    phi = np.asarray(phi, dtype=float)
    dphi = np.empty_like(phi)
    value = _softmax_nll(phi, 1, np.arange(phi.shape[0]), np.asarray(positive_cols, dtype=np.int64), out=dphi)
    dphi /= phi.shape[0]
    return value, dphi


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


def _ssm_candidates(targets: np.ndarray, q: np.ndarray, num_sampled: int, rng: np.random.Generator) -> np.ndarray:
    """Each row's positive followed by ``num_sampled`` negatives drawn without
    replacement from the proposal ``q`` over the whole vocabulary, the
    positive excluded: the top ``num_sampled`` of ``log q + Gumbel`` per row."""
    zero = targets[q[targets] <= 0.0]
    if zero.size:
        raise ValueError(f"positive item {zero[0]} has zero proposal probability")
    with np.errstate(divide="ignore"):
        keys = -np.log(q) - rng.gumbel(size=(targets.size, q.size))  # a zero-q item keys +inf
    keys[np.arange(targets.size), targets] = np.inf
    return np.column_stack((targets, smallest_keys(keys, num_sampled)))


def loss_with_gradients(
    batch: Examples,
    params: ModelParams,
    config: LossConfig,
    *,
    marginals: EmpiricalMarginals | None = None,
    rng: np.random.Generator | None = None,
    proposal: np.ndarray | None = None,
) -> LossOutput:
    """Evaluate the configured loss on a batch; value plus exact gradients.

    Each family picks the user rows and the item columns to score and a
    kernel from the scores to ``(value, dscore)``; one forward and one
    backward pass through the model serve every family.  The bidirectional,
    ``full_softmax_col`` and ``ssm`` losses read the training ``marginals``;
    ``ssm`` draws its candidates with ``rng`` from ``proposal``, the
    ``proposal_distribution`` of the marginals (built here when not given,
    so a training run can build it once).
    """
    if not len(batch):
        raise ValueError("batch is empty")
    family = config.family
    if marginals is None and family in ("bidirectional", "full_softmax_col", "ssm"):
        raise ValueError(f"{family} loss needs the training marginals")
    users, items = batch.pseudo_users(), batch.target
    if family == "bce":
        items = batch.target[:, None]  # one candidate per row
        kernel = partial(bce_value, labels=batch.label[:, None])
    elif family == "bidirectional":
        log_p_u, log_p_i = marginals.log_bias(batch)
        kernel = partial(bidirectional_nce_loss, log_p_u=log_p_u, log_p_i=log_p_i, config=config)
    elif family == "full_softmax_row":
        items = np.arange(params.num_items)
        kernel = partial(full_softmax_value, positive_cols=batch.target)
    elif family == "full_softmax_col":
        universe = np.flatnonzero(marginals.count_user)  # key ids, ascending
        if not np.isin(batch.key, universe).all():
            raise ValueError("batch pseudo-user not counted by the training marginals")
        users = batch.table.take(universe)  # rows are the universe's users, columns the batch's targets
        positives = np.searchsorted(universe, batch.key)

        def kernel(phi: np.ndarray) -> tuple[float, np.ndarray]:
            value, dphi_t = full_softmax_value(phi.T, positives)
            return value, dphi_t.T

    else:  # ssm
        if rng is None:
            raise ValueError("ssm loss needs an rng")
        q = proposal
        if q is None:
            q = proposal_distribution(marginals, params.num_items, config.ssm_proposal, config.num_sampled)
        items = _ssm_candidates(batch.target, q, config.num_sampled, rng)
        log_q = np.log(q[items])

        def kernel(phi: np.ndarray) -> tuple[float, np.ndarray]:
            return full_softmax_value(phi - log_q, np.zeros(len(batch), dtype=np.int64))

    phi, cache = score_matrix_forward(users, items, params)
    value, dscore = kernel(phi)
    del phi  # freed before the backward pass, which reads the cosines instead
    return LossOutput(value, score_matrix_backward(cache, dscore, params), dscore)
