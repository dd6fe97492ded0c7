"""Stable evaluation of Schur polynomials, weights, and character bounds.

The evaluator runs the branching recursion over interlacing sub-shapes,
peeling one eigenvalue at a time, in float64 values normalised by the
highest weight. Each step is one first-order recurrence per axis, the same
for any number of rows and any eigenvalue ratio. Every summand is positive,
so the result is accurate to rounding even for degenerate spectra. Tiny
instances can be validated against symmetric-group characters via
cycle-type sums.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ResourceLimitError
from .frames import (
    YoungFrame,
    Spectrum,
    dim_symmetric_irrep,
    enumerate_frames,
    log_dim_unitary_irrep,
)
from .logspace import NEG_INF, log_sum_exp, weighted_dots

KOSTKA_MAX_BOXES = 12
KOSTKA_MAX_ROWS = 4
CYCLE_SUM_MAX_BOXES = 8
#: Cap on the top cube of a SchurTable plus its largest crop, 16 * prod of the
#: staircase sides, checked before allocation.
MAX_TABLE_BYTES = 2**29
# rounding allowance on each side of the highest-weight sandwich in ``character_bounds_check``
_BOUNDS_SLACK = 1e-10


@dataclass(frozen=True)
class DiagonalState:
    """Diagonal density operator recorded through its log eigenvalues."""

    log_eigenvalues: tuple[float, ...]

    def __post_init__(self):
        # -inf is the log of a zero eigenvalue; NaN and +inf are rejected
        if not all(h < math.inf for h in self.log_eigenvalues):
            raise ValueError(f"log eigenvalues must be finite or -inf: {self.log_eigenvalues}")
        for upper, lower in zip(self.log_eigenvalues, self.log_eigenvalues[1:]):
            if upper < lower:
                raise ValueError("log eigenvalues must be non-increasing")
        total = math.fsum(math.exp(h) for h in self.log_eigenvalues)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"eigenvalues must sum to 1, got {total!r}")

    @classmethod
    def from_spectrum(cls, spectrum: Spectrum) -> "DiagonalState":
        return cls(tuple(math.log(v) if v > 0.0 else NEG_INF for v in spectrum))

    def to_spectrum(self) -> Spectrum:
        return Spectrum(tuple(math.exp(h) for h in self.log_eigenvalues))

    @property
    def d(self) -> int:
        return len(self.log_eigenvalues)


def _branch(cube: np.ndarray, low: Sequence[int], ratios: Sequence[float]) -> None:
    """One step of the branching rule, in place, on a cube whose axis a holds rows low[a], low[a]+1, ...

    The cube enters indexed by (mu_0, ..., mu_(m-2), Y_(m-1)) and leaves indexed
    by Y: for each axis a, from the last but one to the first, the terms with
    mu_a < Y_(a+1) are set to 0, then the recurrence S_i = q S_(i-1) + x_i,
    q = ratios[a] <= 1, run slab by slab along the axis, sums mu_a over
    [Y_(a+1), Y_a] with weights q^(Y_a - mu_a). Every summand is positive and
    q S can only underflow towards 0. The masked leading rows are exact zeros
    and q 0 + 0 = 0, so a sum does not depend, to the bit, on where the crop
    starts.
    """
    for a in range(cube.ndim - 2, -1, -1):
        here, after = (np.arange(n) + lo for n, lo in zip(cube.shape[a : a + 2], low[a : a + 2]))
        below = np.less.outer(here, after)
        np.copyto(cube, 0.0, where=below.reshape(below.shape + (1,) * (cube.ndim - a - 2)))
        q, view = ratios[a], np.moveaxis(cube, a, 0)
        for prev, row in zip(view, view[1:]):
            row += q * prev


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
    per value of the last row, on a crop of the top cube; the cube and its
    largest crop, 16 bytes per cell, are checked against ``MAX_TABLE_BYTES``
    first. The table is read-only once built, so it may be shared freely.
    """

    def __init__(self, spectrum: Spectrum, max_boxes: int):
        if max_boxes < 0:
            raise ValueError("max_boxes must be non-negative")
        self.spectrum = spectrum
        self.max_boxes = max_boxes
        self._r = [v for v in spectrum.values if v > 0.0]
        self._k = len(self._r)
        needed = 16 * math.prod(max_boxes // (a + 1) + 1 for a in range(min(self._k - 1, max_boxes)))
        if needed > MAX_TABLE_BYTES:
            raise ResourceLimitError(
                f"a Schur table for {self._k} positive eigenvalues and N={max_boxes} needs "
                f"{needed} bytes (top cube and one crop), over the cap of {MAX_TABLE_BYTES} bytes"
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
        shape = tuple(int(v) for v in rows)
        for upper, lower in zip(shape, shape[1:]):
            if upper < lower:
                raise ValueError(f"shape must be non-increasing: {shape}")
        if shape and shape[-1] < 0:
            raise ValueError(f"shape must be non-negative: {shape}")
        return float(self.log_values([shape + (0,) * (self._k - len(shape))])[0])

    def log_values(self, rows) -> np.ndarray:
        """ln s_Y(r) for each shape, one non-increasing row of ``rows`` (at least k columns) per shape.

        Shapes are batched by Y_m, the first row the top cube does not index;
        a batch branches the crop [min Y_(a+1), max Y_a] on each axis a. Terms
        below Y_(a+1) are masked to exact zeros, which the recurrence carries
        as zeros (q 0 + 0 = 0), so a value does not depend, to the bit, on the
        rest of its batch. The only log is taken here:
        ln s_Y = ln L_k(Y) + sum_a Y_a ln r_a, summed column by column.
        """
        rows, k, m = np.asarray(rows, dtype=np.int64), self._k, self._cube.ndim
        boxes = rows.sum(axis=1)
        if boxes.max(initial=0) > self.max_boxes:
            raise ValueError(f"a shape has {boxes.max()} boxes, the table allows {self.max_boxes}")
        top = np.ones(len(rows))
        live = ~rows[:, k:].any(axis=1)  # more nonzero rows than eigenvalues: exactly 0
        ratios = [self._r[-1] / v for v in self._r[:m]]
        for y in np.flatnonzero(np.bincount(rows[live, m])):
            pick = np.flatnonzero(live & (rows[:, m] == y))
            shapes = rows[pick, : m + 1]
            low, high = shapes[:, 1:].min(axis=0), shapes[:, :m].max(axis=0)
            crop = self._cube[tuple(map(slice, low, high + 1)) + (None,)].copy()
            _branch(crop, (*low, y), ratios)
            top[pick] = crop[(*(shapes[:, :m] - low).T, 0)]
        # not rows @ log r, whose order may vary with the batch
        highest = weighted_dots(rows, [math.log(v) for v in self._r])
        return np.where(live, np.log(top) + highest, NEG_INF)


def schur_log(frame: YoungFrame, spectrum: Spectrum, *, table: SchurTable | None = None) -> float:
    """ln s_Y(r) via the positive branching recursion; -inf when s_Y(r) = 0."""
    if table is None:
        table = SchurTable(spectrum, frame.boxes)
    elif table.spectrum != spectrum:
        raise ValueError("table was built for a different spectrum")
    return table.log_value(frame.rows)


@dataclass(frozen=True)
class WeightTable:
    """Multiplicity of every weight of the unitary irrep labeled by a shape."""

    shape: tuple[int, ...]
    entries: Mapping[tuple[int, ...], int]

    def multiplicity(self, weight: Sequence[int]) -> int:
        return self.entries.get(tuple(weight), 0)

    def total(self) -> int:
        return sum(self.entries.values())


def weight_multiplicities(frame: YoungFrame, d: int | None = None) -> WeightTable:
    """Kostka counts: semistandard fillings of the shape per content vector."""
    if d is None:
        d = frame.d
    if frame.nonzero_rows() > d:
        raise ValueError(f"frame {frame} has more than {d} nonzero rows")
    if d > KOSTKA_MAX_ROWS or frame.boxes > KOSTKA_MAX_BOXES:
        raise ResourceLimitError(
            f"weight table enumeration is capped at d <= {KOSTKA_MAX_ROWS}, "
            f"N <= {KOSTKA_MAX_BOXES}; got d={d}, N={frame.boxes}"
        )
    shape = (frame.rows + (0,) * d)[:d]
    counts: Counter[tuple[int, ...]] = Counter()
    for content in _ssyt_contents(shape, d):
        counts[content] += 1
    return WeightTable(shape=shape, entries=dict(counts))


def _interlacing_shapes(shape: tuple[int, ...]):
    """All shapes one row shorter that interlace ``shape`` (horizontal strips)."""
    bounds = [(shape[i + 1], shape[i]) for i in range(len(shape) - 1)]

    def rec(index: int, prefix: tuple[int, ...]):
        if index == len(bounds):
            yield prefix
            return
        low, high = bounds[index]
        for part in range(high, low - 1, -1):
            yield from rec(index + 1, prefix + (part,))

    yield from rec(0, ())


def _ssyt_contents(shape: tuple[int, ...], level: int):
    """Content vectors of semistandard fillings, one per filling."""
    if level == 1:
        yield (shape[0],)
        return
    size = sum(shape)
    for inner in _interlacing_shapes(shape):
        strip = size - sum(inner)
        for content in _ssyt_contents(inner, level - 1):
            yield content + (strip,)


def character_from_weights(table: WeightTable, state: DiagonalState) -> float:
    """Character as the weight expansion: log-sum of m(mu) * exp(mu . h)."""
    weights = sorted(table.entries)
    logs = np.array([math.log(table.entries[weight]) for weight in weights])
    return log_sum_exp(logs + weighted_dots(weights, state.log_eigenvalues))


@dataclass(frozen=True)
class CharacterBounds:
    """Highest-weight sandwich around a character value, in log space."""

    lower: float
    value: float
    upper: float
    holds: bool


def character_bounds_check(frame: YoungFrame, state: DiagonalState) -> CharacterBounds:
    """Check exp(Y.h) <= character <= dim * exp(Y.h) for a diagonal state."""
    d = state.d
    if frame.nonzero_rows() > d:
        raise ValueError(f"frame {frame} has more than {d} nonzero rows")
    rows = (frame.rows + (0,) * d)[:d]
    lower = float(weighted_dots([rows], state.log_eigenvalues)[0])
    upper = lower + log_dim_unitary_irrep(frame, d)
    value = schur_log(YoungFrame(rows), state.to_spectrum())
    holds = (lower - _BOUNDS_SLACK <= value) and (value <= upper + _BOUNDS_SLACK)
    return CharacterBounds(lower=lower, value=value, upper=upper, holds=holds)


@cache
def _mn_character(rows: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    strip_length = cycles[0]
    rest = cycles[1:]
    count = len(rows)
    beta = [rows[i] + count - 1 - i for i in range(count)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - strip_length
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_rows = tuple(new_beta[i] - (count - 1 - i) for i in range(count))
        while new_rows and new_rows[-1] == 0:
            new_rows = new_rows[:-1]
        total += (-1) ** height * _mn_character(new_rows, rest)
    return total


def sn_character(frame: YoungFrame, cycle_type: Sequence[int]) -> int:
    """Symmetric-group character of the irrep labeled by the frame.

    Border-strip recursion on beta sets; exact integers. Capped at tiny box
    counts because it only backs the cycle-type probability oracle.
    """
    n = frame.boxes
    if n > CYCLE_SUM_MAX_BOXES:
        raise ResourceLimitError(
            f"symmetric-group characters are capped at N <= {CYCLE_SUM_MAX_BOXES}, got N={n}"
        )
    cycles = tuple(int(c) for c in cycle_type)
    if sum(cycles) != n:
        raise ValueError(f"cycle type {cycles} is not a partition of {n}")
    if any(c < 1 for c in cycles):
        raise ValueError(f"cycle lengths must be positive: {cycles}")
    if any(a < b for a, b in zip(cycles, cycles[1:])):
        raise ValueError(f"cycle type must be non-increasing: {cycles}")
    rows = tuple(v for v in frame.rows if v > 0)
    return _mn_character(rows, cycles)


def _power_sum(spectrum: Spectrum, k: int) -> float:
    return math.fsum(v**k for v in spectrum)


def brute_force_frame_probability(frame: YoungFrame, spectrum: Spectrum) -> float:
    """Outcome probability of one frame via the cycle-type sum.

    Independent oracle: combines symmetric-group characters with power sums
    of the eigenvalues over all cycle classes, weighted by class size. Only
    feasible for tiny box counts.
    """
    n = frame.boxes
    if n > CYCLE_SUM_MAX_BOXES:
        raise ResourceLimitError(
            f"cycle-type sums are capped at N <= {CYCLE_SUM_MAX_BOXES}, got N={n}"
        )
    if frame.d != spectrum.d:
        raise ValueError("frame and spectrum dimensions differ")
    if n == 0:
        return 1.0
    total = 0.0
    # cycle types: partitions of n, largest part first
    for cycle_frame in enumerate_frames(n, n):
        cycles = tuple(part for part in cycle_frame.rows if part)
        character = sn_character(frame, cycles)
        if character == 0:
            continue
        multiplicity = Counter(cycles)
        symmetry = 1
        for part, reps in multiplicity.items():
            symmetry *= part**reps * math.factorial(reps)
        weight = 1.0
        for part in cycles:
            weight *= _power_sum(spectrum, part)
        total += character * weight / symmetry
    return dim_symmetric_irrep(frame) * total
