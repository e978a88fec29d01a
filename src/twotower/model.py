"""Two-tower encoder with a shared item-embedding table.

Both towers read the same embedding table: the item tower is a plain row
lookup, the user tower aggregates the rows of the pseudo-user sequence with
mean, last or attention pooling.  The match score is the l2-normalized dot
product rescaled by a fixed temperature, so scores live in
``[-1/tau, +1/tau]`` and are invariant to the scale of either vector.

A batch of pseudo-users is pooled straight from its CSR rows
(``data.Sequences``): every array runs over the flat positions, and each
sequence's sums go through ``np.bincount`` (``sum_rows`` for rows), which
adds in position order, so a pseudo-user's vector depends on its own rows
only, not on its batch.  Attention pooling takes each logit from the row of
a distinct history item, which is the same row-wise reduce.

Under mean and last pooling the backward pass writes one gradient row per
pooled position, which ``GradientTable.accumulate`` sums in input order.
Attention pooling sums each distinct history item's row through the
``(R, B)`` matrix of its weights per sequence (``_user_backward``), which
changes the gradient's last bits, not the pooled vectors'.

One scoring kernel serves every loss: ``score_matrix_forward`` scores the
batch against shared item columns (1-d ids, a ``(B, C)`` score matrix) or
against candidates of its own per row (``(B, K)`` ids and scores; ``K = 1``
scores pairs), and ``score_matrix_backward`` chains the loss gradient with
respect to those scores through normalization and pooling into a sparse
``GradientTable`` over the rows of the parameter table.  The loss modules
supply the score gradient; everything below the scores lives here.

For shared columns the backward pass through the cosines is one function,
``cosine_backward``, which works over any leading axes.  It has two
callers: ``score_matrix_backward`` on one ``(B, C)`` matrix, and the
``verify`` sweep on its ``(C, M, K)`` stack of dense blocks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Sequences

AGGREGATORS = ("mean", "last", "attention")


class VocabularyError(KeyError):
    """Raised when an item id falls outside the embedding table."""


class DegenerateNormError(ValueError):
    """Raised when a vector to be scored has a zero or non-finite norm, so
    it has no cosine."""


@dataclass
class ModelParams:
    """One parameter table, the temperature and the user tower's pooling
    (``aggregator``).  The table holds the item embeddings in its first
    ``num_items`` rows and the attention query in its last row; the item
    tower is always a row lookup."""

    table: np.ndarray  # (num_items + 1, dim)
    temperature: float
    aggregator: str = "mean"

    def __post_init__(self) -> None:
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"aggregator must be one of {AGGREGATORS}")
        if not np.isfinite(self.temperature):
            raise ValueError(f"temperature must be finite, got {self.temperature}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.table.ndim != 2 or self.table.shape[0] < 1:
            raise ValueError("table must be 2-d, its last row the attention query")
        for name in ("item_embeddings", "attention_vector"):
            if not finite_norms(getattr(self, name)):  # a row whose square overflows has no cosine
                raise ValueError(f"{name} must be finite")

    @property
    def item_embeddings(self) -> np.ndarray:
        """The item rows, a writable view ``(num_items, dim)`` of the table."""
        return self.table[:-1]

    @property
    def attention_vector(self) -> np.ndarray:
        """The attention query, a writable view ``(dim,)`` of the table's last row."""
        return self.table[-1]

    @property
    def num_items(self) -> int:
        return self.table.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    @classmethod
    def initialize(cls, num_items: int, dim: int, temperature: float, seed: int, aggregator: str = "mean") -> "ModelParams":
        """Fresh parameters: item rows i.i.d. uniform on [-1/sqrt(d), +1/sqrt(d)],
        attention row zero (attention pooling then starts out as mean)."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(dim)
        items = rng.uniform(-scale, scale, size=(num_items, dim))
        return cls(np.vstack([items, np.zeros((1, dim))]), temperature, aggregator)

    def clone(self) -> "ModelParams":
        return ModelParams(self.table.copy(), self.temperature, self.aggregator)


def sum_rows(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``size`` rows, the ``k``-th the sum of every row ``values[j]`` (of an
    ``(N, d)`` array) with ``index[j] == k``.  ``np.bincount`` adds its
    weights in input order, so each sum takes its terms in the order given,
    as a loop over them would, starting from +0.0; a 1-d sum is that
    ``np.bincount`` itself."""
    width = values.shape[1]
    flat = (index[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=size * width).reshape(size, width)


def distinct_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids, ascending, and each id's slot among them, found by
    marking the ids present, not by a sort: ``distinct[slot] == ids``."""
    present = np.zeros(int(ids.max(initial=-1)) + 1, dtype=bool)
    present[ids] = True
    distinct = np.flatnonzero(present)
    slot = np.empty(present.size, dtype=np.int64)
    slot[distinct] = np.arange(distinct.size)
    return distinct, slot[ids]


@dataclass
class GradientTable:
    """Sparse gradient over the parameter table: the touched rows as unique
    ascending ids with one gradient row each (id ``num_items`` is the
    attention row)."""

    rows: np.ndarray  # (R,) int64
    values: np.ndarray  # (R, dim)

    @classmethod
    def accumulate(cls, ids: np.ndarray, grads: np.ndarray) -> "GradientTable":
        """Sum the gradient rows of repeated ids."""
        rows, slot = distinct_ids(ids)
        return cls(rows, sum_rows(slot, grads, rows.size))


@dataclass
class UserBatch:
    """Pseudo-users as CSR positions: the item ids, each position's sequence
    (``owner``), the lengths and the pooled raw vectors ``(B, d)``.  Under
    attention pooling it also holds each position's weight, the batch's
    distinct history items (ascending), their ``(R, d)`` embedding rows and
    each position's slot among them, which the backward pass reads again."""

    items: np.ndarray
    owner: np.ndarray
    lengths: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray | None = None
    distinct: np.ndarray | None = None
    embedded: np.ndarray | None = None
    slot: np.ndarray | None = None


def encode_user_batch(sequences: Sequences, params: ModelParams) -> UserBatch:
    """Pool every sequence's embedding rows into one raw user vector, as
    ``params.aggregator`` says: the mean, the last row, or a softmax
    attention over the rows.  An out-of-vocabulary id raises ``VocabularyError``."""
    lengths = np.diff(sequences.offsets)
    if np.any(lengths == 0):
        raise ValueError("pseudo-user sequence is empty")
    items = sequences.items
    known = (items >= 0) & (items < params.num_items)
    if not np.all(known):
        raise VocabularyError(f"unknown item id(s) {items[~known].tolist()} in pseudo-user sequence")
    owner = np.repeat(np.arange(lengths.size), lengths)
    if params.aggregator == "last":
        return UserBatch(items, owner, lengths, params.item_embeddings[items[sequences.offsets[1:] - 1]])
    if params.aggregator == "mean":
        rows = params.item_embeddings[items]  # (N, d)
        return UserBatch(items, owner, lengths, sum_rows(owner, rows, lengths.size) / lengths[:, None])
    distinct, slot = distinct_ids(items)
    embedded = params.item_embeddings[distinct]  # (R, d)
    # Row by row: a logit reads its own row only, so a distinct item's logit is every position's.
    logits = np.add.reduce(embedded * params.attention_vector, axis=1)[slot]
    e = np.exp(logits - np.maximum.reduceat(logits, sequences.offsets[:-1])[owner])
    weights = e / np.bincount(owner, e, lengths.size)[owner]
    rows = embedded[slot]  # (N, d), weighted in place
    rows *= weights[:, None]
    return UserBatch(items, owner, lengths, sum_rows(owner, rows, lengths.size), weights, distinct, embedded, slot)


def normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors along the last axis and their norms, as ``np.linalg.norm``.
    A zero norm, or one that is not finite (a row whose square overflows),
    raises :class:`DegenerateNormError`."""
    norms = np.sqrt(np.add.reduce(x * x, axis=-1))
    if not (norms.min(initial=np.inf) > 0.0 and norms.max(initial=0.0) < np.inf):  # a NaN fails both
        if np.any(norms == 0.0):
            raise DegenerateNormError("zero-norm vector encountered during scoring")
        raise DegenerateNormError("non-finite norm encountered during scoring")
    return x / norms[..., None], norms


def finite_norms(x: np.ndarray) -> bool:
    """Whether every row along the last axis has a finite norm: each entry
    is finite and no row's sum of squares overflows."""
    with np.errstate(over="ignore"):
        return bool(np.isfinite(np.add.reduce(x * x, axis=-1)).all())


def _user_backward(
    users: UserBatch,
    d_vectors: np.ndarray,
    params: ModelParams,
    out: np.ndarray,
) -> None:
    """Write the gradient rows of the pooled sequence positions, in batch
    order, into ``out``; under attention pooling, one row per distinct
    history item instead, ascending, and the attention row's gradient
    follows them as ``out``'s last row."""
    if params.aggregator == "last":
        out[...] = d_vectors
        return
    if params.aggregator == "mean":
        np.take(d_vectors / users.lengths[:, None], users.owner, axis=0, out=out)
        return
    # Position j of sequence b adds w_j d_vectors[b] + ds_j a to its item's
    # row, so the item rows are A_T @ d_vectors + s (x) a, with A_T[r, b] the
    # summed weights of item r in sequence b and s[r] the summed ds of item r.
    w, owner, slot, embedded = users.weights, users.owner, users.slot, users.embedded
    size, width = users.distinct.size, users.lengths.size
    cell = slot * width + owner  # each position's (item, sequence) cell of A_T
    q = (embedded @ d_vectors.T).ravel()[cell]  # dL/dw per position
    ds = w * (q - np.bincount(owner, w * q, width)[owner])  # softmax backward
    s = np.bincount(slot, ds, size)
    np.matmul(np.bincount(cell, w, size * width).reshape(size, width), d_vectors, out=out[:-1])
    out[:-1] += s[:, None] * params.attention_vector
    out[-1] = s @ embedded


def cosine_backward(
    dphi: np.ndarray,
    cos: np.ndarray,
    u_hat: np.ndarray,
    u_scale: np.ndarray,
    v_hat: np.ndarray,
    v_scale: np.ndarray,
    item_out: np.ndarray,
    user_out: np.ndarray | None = None,
) -> np.ndarray:
    """Chain the gradient ``dphi`` ``(..., B, C)`` of the scores ``cos / tau``,
    every row against the same columns, to the raw vectors behind the unit
    rows ``u_hat`` ``(..., B, d)`` and columns ``v_hat`` ``(..., C, d)``;
    ``u_scale`` ``(..., B, 1)`` and ``v_scale`` ``(..., C, 1)`` are ``tau``
    times their norms, and leading axes are independent stacks.  Writes the
    column gradients ``dphi.T @ u_hat - (g_cos summed over rows) v_hat``
    over ``v_scale`` into ``item_out`` and returns the row gradients
    ``dphi @ v_hat - (g_cos summed over columns) u_hat`` over ``u_scale``
    (in ``user_out`` if given).  ``g_cos = dphi * cos`` is written over
    ``cos``, so the cosines serve one backward pass."""
    g_cos = np.multiply(dphi, cos, out=cos)
    d_items = dphi.swapaxes(-1, -2) @ u_hat - g_cos.sum(axis=-2)[..., None] * v_hat
    np.divide(d_items, v_scale, out=item_out)
    d_users = dphi @ v_hat - g_cos.sum(axis=-1)[..., None] * u_hat
    return np.divide(d_users, u_scale, out=user_out)


@dataclass
class MatrixCache:
    """Forward state of a score matrix over shared columns or per-row candidates."""

    users: UserBatch
    col_ids: np.ndarray  # (C,) shared columns or (B, K) candidates per row
    u_hat: np.ndarray
    u_norm: np.ndarray
    v_hat: np.ndarray  # (C, d) or (B, K, d)
    v_norm: np.ndarray
    cos: np.ndarray  # (B, C) or (B, K) cosines; phi = cos / tau; score_matrix_backward overwrites them


def score_matrix_forward(
    sequences: Sequences,
    col_item_ids: Sequence[int] | np.ndarray,
    params: ModelParams,
) -> tuple[np.ndarray, MatrixCache]:
    """Score every user row against item columns.

    1-d ``col_item_ids`` are columns shared by all rows (scores ``(B, C)``);
    2-d ids ``(B, K)`` give each row its own candidates (scores ``(B, K)``).
    """
    users = encode_user_batch(sequences, params)
    col_ids = np.asarray(col_item_ids, dtype=np.int64)
    if np.any((col_ids < 0) | (col_ids >= params.num_items)):
        raise VocabularyError("unknown item id among score columns")
    u_hat, u_norm = normalize_rows(users.vectors)
    v_hat, v_norm = normalize_rows(params.item_embeddings[col_ids])
    cos = u_hat @ v_hat.T if col_ids.ndim == 1 else np.einsum("bd,bkd->bk", u_hat, v_hat)
    phi = cos / params.temperature
    return phi, MatrixCache(users, col_ids, u_hat, u_norm, v_hat, v_norm, cos)


def score_matrix_backward(
    cache: MatrixCache,
    dphi: np.ndarray,
    params: ModelParams,
) -> GradientTable:
    """Chain a loss gradient w.r.t. the scores down to parameter rows.

    Row gradients are summed column contributions first, then the user
    positions in batch order (under attention pooling, each distinct history
    item's row, already summed over its positions, and then the attention
    row, id ``num_items``).  All parts are written into one gradient
    buffer, and the cache's cosines, read once, take their own gradient in
    place, so a cache serves one backward pass.
    """
    tau = params.temperature
    dphi = np.asarray(dphi, dtype=float)
    users = cache.users
    if params.aggregator == "last":
        user_ids = users.items[np.cumsum(users.lengths) - 1]
    elif params.aggregator == "attention":
        user_ids = users.distinct
    else:
        user_ids = users.items
    attention = np.array([params.num_items] if params.aggregator == "attention" else [], dtype=np.int64)
    ids = np.concatenate((cache.col_ids.ravel(), user_ids, attention))
    grads = np.empty((ids.size, params.dim))  # one row per id, each part written in place
    items = grads[: cache.col_ids.size]
    if cache.col_ids.ndim == 1:
        u_scale, v_scale = tau * cache.u_norm[:, None], tau * cache.v_norm[:, None]
        d_users = cosine_backward(dphi, cache.cos, cache.u_hat, u_scale, cache.v_hat, v_scale, items)
    else:
        g_cos = np.multiply(dphi, cache.cos, out=cache.cos)
        pulled = np.einsum("bk,bkd->bd", dphi, cache.v_hat)
        d_items = dphi[:, :, None] * cache.u_hat[:, None, :] - g_cos[:, :, None] * cache.v_hat
        np.divide(d_items, tau * cache.v_norm[:, :, None], out=items.reshape(d_items.shape))
        d_users = (pulled - g_cos.sum(axis=1)[:, None] * cache.u_hat) / (tau * cache.u_norm[:, None])
    _user_backward(users, d_users, params, out=grads[cache.col_ids.size :])
    return GradientTable.accumulate(ids, grads)
