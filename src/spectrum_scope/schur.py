"""Stable evaluation of Schur polynomials through the positive branching rule.

The evaluator runs the branching recursion over interlacing sub-shapes,
peeling one eigenvalue at a time, in float64 values normalised by the
highest weight. Each step is one first-order recurrence per axis, the same
for any number of rows and any eigenvalue ratio, run in slabs that merge or
tile towards ``_SLAB_CELLS`` cells without moving a bit. Every summand is positive,
so the result is accurate to rounding even for degenerate spectra. The
weight, character and cycle-type oracles that validate it live in
``characters``.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ResourceLimitError
from .frames import YoungFrame, Spectrum
from .logspace import NEG_INF, weighted_dots

#: Cap on the top cube of a SchurTable plus its largest crop, 8 bytes per
#: cell, checked before allocation.
MAX_TABLE_BYTES = 2**29
# cells one recurrence step of ``_branch`` touches at most, where the cube's shape allows
_SLAB_CELLS = 2**12


def _branch(cube: np.ndarray, low: Sequence[int], ratios: Sequence[float]) -> None:
    """One step of the branching rule, in place, on a cube whose axis a holds rows low[a], low[a]+1, ...

    The cube enters indexed by (mu_0, ..., mu_(m-2), Y_(m-1)) and leaves indexed
    by Y: for each axis a, from the last but one to the first, the terms with
    mu_a < Y_(a+1) are set to 0, then the recurrence S_i = q S_(i-1) + x_i,
    q = ratios[a] <= 1, run slab by slab along the axis, sums mu_a over
    [Y_(a+1), Y_a] with weights q^(Y_a - mu_a). Every summand is positive and
    q S can only underflow towards 0. The masked leading rows are exact zeros
    and q 0 + 0 = 0, so a sum does not depend, to the bit, on where the crop
    starts. Along axis a > 0 the rows of axis 0 are independent and run in
    chunks of at most ``_SLAB_CELLS`` cells per slab: same operations, same order.
    """
    for a in range(cube.ndim - 2, -1, -1):
        here, after = (np.arange(n) + lo for n, lo in zip(cube.shape[a : a + 2], low[a : a + 2]))
        below = np.less.outer(here, after)
        np.copyto(cube, 0.0, where=below.reshape(below.shape + (1,) * (cube.ndim - a - 2)))
        chunk = max(1, _SLAB_CELLS * cube.shape[0] * cube.shape[a] // cube.size) if a else len(cube)
        for start in range(0, len(cube), chunk):
            view = np.moveaxis(cube[start : start + chunk], a, 0)
            for prev, row in zip(view, view[1:]):
                row += ratios[a] * prev


class SchurTable:
    """Schur values for one spectrum, for any shape up to a box budget.

    With k positive eigenvalues r_1 >= ... >= r_k, level j = 1..k-1 is one
    float64 cube holding ``L_j(Y) = s_Y(r_1..r_j) / prod_a r_a^(Y_a)`` at
    ``cube[Y_1, ..., Y_j]``, 0 off partitions. The highest-weight sandwich
    r^Y <= s_Y(r) <= dim V_Y r^Y puts L_j between 1 and dim V_Y (about 1e45 at
    the table cap), so plain float64 holds it. Row a (0-based) of a shape with
    at most N boxes is at most N//(a+1), so axis a has side N//(a+1) + 1, and
    rows past the N-th are 0, so only min(j, N) axes are kept. The branching
    rule s_Y(r_1..r_j) = sum over interlacing mu of s_mu(r_1..r_(j-1))
    r_j^(|Y|-|mu|) becomes L_j(Y) = sum of L_(j-1)(mu) prod_a q_a^(Y_a - mu_a)
    over the box Y_(a+1) <= mu_a <= Y_a, with q_a = r_j / r_a <= 1, built by
    ``_branch``; every summand is positive (Demmel & Koev, Math. Comp. 75
    (2006)). Only the top cube is kept. The top level runs ``_branch`` once
    per run of consecutive values of the last row, on one crop. A crop of
    one value is a box of the cube. A merged crop keeps every slab within
    ``_SLAB_CELLS`` cells, and its shortest leading axis has at most
    N//m + 1 values, m the cube's axis count, so it holds at most
    ``_SLAB_CELLS`` (N//m + 1) cells. The cube and the larger of the two
    crop bounds, 8 bytes per cell, are checked against ``MAX_TABLE_BYTES``
    first. The table is read-only once built, so it may be shared freely.
    """

    def __init__(self, spectrum: Spectrum, max_boxes: int):
        if max_boxes < 0:
            raise ValueError("max_boxes must be non-negative")
        self.spectrum = spectrum
        self.max_boxes = max_boxes
        self._r = [v for v in spectrum.values if v > 0.0]
        self._k = len(self._r)
        m = min(self._k - 1, max_boxes)
        cube = math.prod(max_boxes // (a + 1) + 1 for a in range(m))
        needed = 8 * (cube + max(cube, _SLAB_CELLS * (max_boxes // m + 1 if m else 1)))
        if needed > MAX_TABLE_BYTES:
            raise ResourceLimitError(
                f"a Schur table for {self._k} positive eigenvalues and N={max_boxes} needs "
                f"{needed} bytes (top cube and largest crop), over the cap of {MAX_TABLE_BYTES} bytes"
            )
        self._cube = self._build()

    def _build(self) -> np.ndarray:
        r = self._r
        cube = np.ones(())
        for j in range(1, self._k):
            side = self.max_boxes // j + 1
            cube = np.repeat(cube[..., None], side, axis=-1)
            _branch(cube, (0,) * cube.ndim, [r[j - 1] / v for v in r[: cube.ndim - 1]])
            if side == 1:
                cube = cube[..., 0]  # row j-1 >= N is 0: keep no axis for it
        return cube

    def log_value(self, rows: Sequence[int]) -> float:
        """ln s_Y(r) for the shape given by ``rows``; -inf for an exact zero."""
        return float(self.log_values([rows])[0])

    def log_values(self, rows) -> np.ndarray:
        """ln s_Y(r) for each shape, one non-negative, non-increasing row of ``rows`` per shape.

        Rows shorter than k are read as zero-padded. Shapes are batched by
        runs of consecutive values of Y_m, the first row the top cube does not
        index, while the batch's crop, [min Y_(a+1), max Y_a] on each axis a
        and [min Y_m, max Y_m] on the last, has slabs of at most
        ``_SLAB_CELLS`` cells; one value alone always forms a batch. Terms
        below Y_(a+1) are masked to exact zeros, which the recurrence
        carries as zeros (q 0 + 0 = 0), so a value
        does not depend, to the bit, on the rest of its batch. The only log is taken here:
        ln s_Y = ln L_k(Y) + sum_a Y_a ln r_a, summed column by column.
        """
        rows, k, m = np.asarray(rows, dtype=np.int64), self._k, self._cube.ndim
        if rows.ndim != 2:
            raise ValueError(f"need one shape per row, got an array of shape {rows.shape}")
        if (rows[:, 1:] > rows[:, :-1]).any():
            raise ValueError("shapes must be non-increasing")
        if rows.shape[1] and (rows[:, -1] < 0).any():  # the last row is the least
            raise ValueError("shapes must be non-negative")
        if rows.shape[1] < k:  # np.pad always copies
            rows = np.pad(rows, ((0, 0), (0, k - rows.shape[1])))
        boxes = rows.sum(axis=1)
        if boxes.max(initial=0) > self.max_boxes:
            raise ValueError(f"a shape has {boxes.max()} boxes, the table allows {self.max_boxes}")
        top = np.ones(len(rows))
        live = ~rows[:, k:].any(axis=1)  # more nonzero rows than eigenvalues: exactly 0
        ratios = [self._r[-1] / v for v in self._r[:m]]
        pick = np.flatnonzero(live)[np.argsort(rows[live, m], kind="stable")]
        shapes = rows[pick, : m + 1]
        cuts = [*np.flatnonzero(np.diff(shapes[:, m], prepend=-1)).tolist(), len(pick)]
        # per value y of Y_m, the crop [min Y_(a+1), max Y_a] on each axis a, then [y, y]
        lows = np.minimum.reduceat(shapes[:, [*range(1, m + 1), m]], cuts[:-1]).tolist()
        highs = np.maximum.reduceat(shapes, cuts[:-1]).tolist()
        g = 0
        while g < len(lows):
            low, high, end = lows[g], highs[g], g + 1
            while end < len(lows):
                lo, hi = list(map(min, low, lows[end])), list(map(max, high, highs[end]))
                sides = [h - l + 1 for l, h in zip(lo, hi)]
                if math.prod(sides) > _SLAB_CELLS * min(sides[:m], default=1):
                    break
                low, high, end = lo, hi, end + 1
            crop = np.empty([h - l + 1 for l, h in zip(low, high)])
            crop[...] = self._cube[tuple(slice(l, h + 1) for l, h in zip(low[:m], high)) + (None,)]
            _branch(crop, low, ratios)
            top[pick[cuts[g] : cuts[end]]] = crop[tuple((shapes[cuts[g] : cuts[end]] - low).T)]
            g = end
        # not rows @ log r, whose order may vary with the batch
        highest = weighted_dots(rows, [math.log(v) for v in self._r])
        return np.where(live, np.log(top) + highest, NEG_INF)


def schur_log(frame: YoungFrame, spectrum: Spectrum) -> float:
    """ln s_Y(r) via the positive branching recursion; -inf when s_Y(r) = 0."""
    return SchurTable(spectrum, frame.boxes).log_value(frame.rows)
