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
and ``ssm``).  The shared-column losses score each distinct pseudo-user and
item of a batch once: the in-batch loss the distinct pseudo-users against
the distinct targets, ``full_softmax_row`` the distinct pseudo-users against
the vocabulary, ``full_softmax_col`` the universe against the distinct
targets.  Example ``b`` is a cell ``(rows[b], cols[b])`` of that matrix, and
a line that several examples share enters the kernels weighted by their
count, as the biases do, so the value and the gradient are those of the
expanded batch, where every example has a line of its own.

Each softmax kernel takes one exponential per score, shifted so that it
cannot overflow: the in-batch loss shifts the whole matrix by its maximum
and shares that exponential between its two halves, each bias entering as a
weight of its line; the full-softmax and ``ssm`` kernels shift each row by
its own maximum.  The shared shift keeps every line sum a normal
float only while the scores span at most 700, so the in-batch losses need a
temperature of at least ``MIN_TEMPERATURE`` (1/350).  ``train`` refuses a
lower temperature under every loss.  The softmax kernels work in buffers
they allocate themselves and never write the scores they are given.
In-batch duplicates (two examples sharing a target) are not masked: each
is a negative of the other's line, and the marginal correction is the
intended remedy for popularity skew.
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

# (B, B) float64 arrays an in-batch step holds at its peak when every key
# and target of the batch is distinct, measured at 4.07: the cosines and
# scores of the forward pass plus about 2.05 inside ``bidirectional_nce_loss``
# (the shared exponential, which becomes the gradient, and its rank-2 scaling
# factor).  These are (R, C) arrays over the R distinct keys and C distinct
# targets, so a batch with repeats holds less: this is the worst case.
IN_BATCH_PEAK_ARRAYS = 4.5

# Cosine scores over the temperature lie within 2 / temperature of the score
# matrix's maximum, so the in-batch kernel's one exponential keeps every line
# sum a normal float while 2 / temperature <= 700.
MIN_TEMPERATURE = 2.0 / 700.0


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
        return cls(**{**kwargs, "family": "bidirectional", **preset_flags(name)})


def preset_flags(name: str) -> dict[str, int]:
    """The bidirectional flags of a named preset; an unknown name is refused."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return dict(zip(("alpha", "delta_alpha", "beta", "delta_beta"), PRESETS[name]))


@dataclass
class LossOutput:
    """Loss value, parameter gradients (sparse by row) and the gradient
    with respect to the scored matrix: over the distinct cells for the
    shared-column losses, one row per example for ``bce`` and ``ssm``."""

    value: float
    gradients: GradientTable
    dscore: np.ndarray


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


def check_temperature(temperature: float) -> None:
    """Refuse a temperature below :data:`MIN_TEMPERATURE`, where the in-batch
    kernel's one exponential could leave a line sum subnormal and the
    sigmoid of the binary losses saturates at nearly every score."""
    if not temperature >= MIN_TEMPERATURE:
        raise ValueError(f"temperature must be >= 1/350 (about {MIN_TEMPERATURE:.5f}), got {temperature}")


def _line_sums(sums: np.ndarray) -> np.ndarray:
    """``sums`` of exponentials, refused unless each is a finite normal float."""
    if not (sums.min() >= np.finfo(float).tiny and sums.max() < np.inf):
        raise ValueError(
            "softmax line sum is zero, subnormal or not finite: the scores span more than the"
            " exponential's range (scores of cosines need a temperature >= 1/350)"
        )
    return sums


def bidirectional_nce_loss(
    score_matrix: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    log_p_u: np.ndarray,
    log_p_i: np.ndarray,
    config: LossConfig,
) -> tuple[float, np.ndarray]:
    """Generalized bidirectional in-batch loss over a batch's distinct
    pseudo-users and items, and its gradient with respect to their scores.

    ``score_matrix`` scores the R distinct pseudo-users against the C
    distinct items, and example ``b`` is its cell ``(rows[b], cols[b])``:
    the batch is the ``(B, B)`` matrix ``phi[rows][:, cols]`` with the
    positive pairs on its diagonal.  The row term softmaxes each positive
    against its row of that matrix (the batch's items, each logit reduced by
    ``delta_alpha * log_p_i`` of its column); the column term softmaxes it
    against its column (the batch's users, each logit reduced by
    ``delta_beta * log_p_u`` of its row).  The value is
    ``alpha * mean(row terms) + beta * mean(col terms)`` over the B
    examples -- accumulated in that order so the two halves decompose
    exactly.

    Both halves share one exponential ``E = exp(phi - m)`` of the distinct
    matrix, shifted by its maximum ``m``.  A bias and a multiplicity enter
    as weights of their line: with ``a`` and ``c`` the examples of each row
    and each column, the row sums are ``E @ (c w_i)`` with
    ``w_i = exp(-delta_alpha * log_p_i)``, the column sums ``(a w_u) @ E``
    with ``w_u = exp(-delta_beta * log_p_u)``.  The gradient is ``E`` scaled
    in place by the rank-2 factor ``(alpha / B) a[r] / rowsum[r] c[j] w_i[j]
    + (beta / B) a[r] w_u[r] c[j] / colsum[j]``, less ``(alpha + beta) / B``
    at each example's cell, once per example.
    Identity cells (``rows = cols = arange(B)``) give the square in-batch
    loss.  The score matrix is not written; ``-inf`` cells are allowed, and
    a line sum that is zero, subnormal or not finite raises ``ValueError``.
    """
    phi = np.asarray(score_matrix, dtype=float)
    if phi.ndim != 2:
        raise ValueError("score matrix must be 2-d")
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    size = rows.size
    if size < 2:
        raise ValueError("in-batch loss needs a batch of at least 2 (no negatives otherwise)")
    if rows.shape != (size,) or cols.shape != (size,):
        raise ValueError("cells must be two 1-d index arrays of the same length")
    a, c = np.bincount(rows, minlength=phi.shape[0]), np.bincount(cols, minlength=phi.shape[1])
    if a.shape != phi.shape[:1] or c.shape != phi.shape[1:] or not (a.all() and c.all()):
        raise ValueError("cells must cover every row and column of the score matrix, and no more")
    log_p_u = np.asarray(log_p_u, dtype=float)
    log_p_i = np.asarray(log_p_i, dtype=float)
    if log_p_u.shape != a.shape or log_p_i.shape != c.shape:
        raise ValueError("bias vectors must align with the score matrix")

    top = phi.max()
    dphi = np.subtract(phi, top, out=np.empty_like(phi))  # E, turned into the gradient in place
    np.exp(dphi, out=dphi)
    gap = top - phi[rows, cols]
    value, left, right = 0.0, [], []
    if config.alpha:  # row softmax over the batch's items
        w_i = c * np.exp(-config.delta_alpha * log_p_i)
        sums = _line_sums(dphi @ w_i)
        value += config.alpha * float(np.mean(np.log(sums)[rows] + gap + config.delta_alpha * log_p_i[cols]))
        left.append(config.alpha / size * a / sums)
        right.append(w_i)
    if config.beta:  # column softmax over the batch's users
        w_u = a * np.exp(-config.delta_beta * log_p_u)
        sums = _line_sums(w_u @ dphi)
        value += config.beta * float(np.mean(np.log(sums)[cols] + gap + config.delta_beta * log_p_u[rows]))
        left.append(config.beta / size * w_u)
        right.append(c / sums)
    dphi *= np.stack(left, axis=1) @ np.stack(right)
    np.subtract.at(dphi, (rows, cols), (config.alpha + config.beta) / size)
    return value, dphi


def full_softmax_value(phi: np.ndarray, rows: np.ndarray, positive_cols: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact softmax NLL along axis 1 with its score gradient, for examples
    whose softmax is row ``rows[b]`` and whose positive is its column
    ``positive_cols[b]``; several examples may share a row.  One exponential
    of each row shifted by its maximum, in the gradient's buffer, then
    ``e / sum`` weighted by the row's examples, less ``1 / B`` at each
    example's cell; ``phi`` is not written."""
    phi = np.asarray(phi, dtype=float)
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(positive_cols, dtype=np.int64)
    size = rows.size
    top = phi.max(axis=1)
    dphi = np.subtract(phi, top[:, None], out=np.empty_like(phi))
    np.exp(dphi, out=dphi)
    sums = dphi.sum(axis=1)
    value = float(np.mean(np.log(sums)[rows] + (top[rows] - phi[rows, cols])))
    dphi *= (np.bincount(rows, minlength=sums.size) / (size * sums))[:, None]
    np.subtract.at(dphi, (rows, cols), 1.0 / size)
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
    if family == "bce":
        users, items = batch.pseudo_users(), batch.target[:, None]  # one candidate per row
        kernel = partial(bce_value, labels=batch.label[:, None])
    elif family == "bidirectional":  # distinct pseudo-users against distinct targets
        keys, rows = np.unique(batch.key, return_inverse=True)
        items, cols = np.unique(batch.target, return_inverse=True)
        users, log_p_u, log_p_i = batch.table.take(keys), marginals.log_p_user[keys], marginals.log_p_item[items]
        kernel = partial(bidirectional_nce_loss, rows=rows, cols=cols, log_p_u=log_p_u, log_p_i=log_p_i, config=config)
    elif family == "full_softmax_row":  # distinct pseudo-users against the vocabulary
        keys, rows = np.unique(batch.key, return_inverse=True)
        users, items = batch.table.take(keys), np.arange(params.num_items)
        kernel = partial(full_softmax_value, rows=rows, positive_cols=batch.target)
    elif family == "full_softmax_col":  # the counted pseudo-users against distinct targets
        universe = np.flatnonzero(marginals.count_user)  # key ids, ascending
        if not np.isin(batch.key, universe).all():
            raise ValueError("batch pseudo-user not counted by the training marginals")
        users = batch.table.take(universe)
        items, cols = np.unique(batch.target, return_inverse=True)
        positives = np.searchsorted(universe, batch.key)

        def kernel(phi: np.ndarray) -> tuple[float, np.ndarray]:
            value, dphi_t = full_softmax_value(phi.T, cols, positives)
            return value, dphi_t.T

    else:  # ssm
        if rng is None:
            raise ValueError("ssm loss needs an rng")
        q = proposal
        if q is None:
            q = proposal_distribution(marginals, params.num_items, config.ssm_proposal, config.num_sampled)
        users, items = batch.pseudo_users(), _ssm_candidates(batch.target, q, config.num_sampled, rng)
        log_q = np.log(q[items])
        rows = np.arange(len(batch))

        def kernel(phi: np.ndarray) -> tuple[float, np.ndarray]:
            return full_softmax_value(phi - log_q, rows, np.zeros(len(batch), dtype=np.int64))

    phi, cache = score_matrix_forward(users, items, params)
    value, dscore = kernel(phi)
    del phi  # freed before the backward pass, which reads the cosines instead
    return LossOutput(value, score_matrix_backward(cache, dscore, params), dscore)
