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
