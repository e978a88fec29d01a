"""Central finite-difference oracle for parameter gradients.

The loss callable must be a deterministic function of the parameters (for
sampled losses, rebuild the generator from a fixed seed on every call).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from twotower.model import GradientTable, ModelParams


def numeric_gradient(
    loss_fn: Callable[[], float],
    params: ModelParams,
    rows: list[int],
    step: float = 1e-6,
) -> GradientTable:
    """The gradient of ``rows`` of the parameter table (row ``num_items`` is
    the attention query)."""
    grads = GradientTable(np.asarray(rows, dtype=np.int64), np.zeros((len(rows), params.dim)))
    for g, row in zip(grads.values, rows):
        for j in range(params.dim):
            original = params.table[row, j]
            params.table[row, j] = original + step
            up = loss_fn()
            params.table[row, j] = original - step
            down = loss_fn()
            params.table[row, j] = original
            g[j] = (up - down) / (2.0 * step)
    return grads


def row_gradient(grads: GradientTable, row: int) -> np.ndarray:
    """The gradient of table row ``row`` (zero if the table omits it)."""
    hit = np.flatnonzero(grads.rows == row)
    return grads.values[hit[0]] if hit.size else np.zeros(grads.values.shape[1])


def max_relative_error(analytic: GradientTable, numeric: GradientTable) -> float:
    """Worst elementwise relative error, floored at 1e-6 of the gradient scale.

    Central differences carry an absolute roundoff floor of roughly
    eps * |loss| / step; entries that are exactly zero analytically sit at
    that floor, so a denominator proportional to the overall gradient
    magnitude keeps the comparison meaningful for them.
    """
    scale = 0.0
    for num in numeric.values:
        scale = max(scale, float(np.max(np.abs(num))))
    floor = 1e-6 * max(1.0, scale)

    worst = 0.0
    for row, num in zip(numeric.rows, numeric.values):
        ana = row_gradient(analytic, row)
        denom = np.maximum(np.maximum(np.abs(num), np.abs(ana)), floor)
        worst = max(worst, float(np.max(np.abs(ana - num) / denom)))
    return worst
