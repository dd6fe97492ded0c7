"""Log-domain accumulation helpers.

Probabilities are kept as natural logs throughout the package; exact zeros
are the ``-inf`` sentinel. Sums always run max-shifted over a fixed
iteration order, so results are reproducible bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) over the given order; empty or all -inf gives -inf."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return NEG_INF
    top = float(arr.max())
    if top == NEG_INF:
        return NEG_INF
    return top + math.log(float(np.exp(arr - top).sum()))


def log_each(values) -> list[float]:
    """ln v for each v, with -inf for an exact zero."""
    return [math.log(v) if v > 0.0 else NEG_INF for v in values]


def weighted_dots(rows, log_values) -> np.ndarray:
    """sum_a rows[i][a] * log_values[a] for each row i, column by column, with 0 * (-inf) := 0."""
    rows, total = np.asarray(rows), np.zeros(len(rows))
    for column, h in zip(rows.T, log_values):
        used = column > 0
        total[used] += column[used] * h
    return total
