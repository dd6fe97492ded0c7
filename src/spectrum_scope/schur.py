"""Stable evaluation of Schur polynomials, weights, and character bounds.

The primary evaluator runs the branching recursion over interlacing
sub-shapes, peeling one eigenvalue at a time. Every summand is positive, so
the result is accurate to rounding even for degenerate spectra. A
determinant-based evaluator is kept purely as a cross-check for
well-separated spectra, and tiny instances can be validated against
symmetric-group characters via cycle-type sums.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateSpectrumError, ResourceLimitError
from .frames import (
    YoungFrame,
    Spectrum,
    dim_symmetric_irrep,
    enumerate_frames,
    log_dim_unitary_irrep,
)
from .logspace import NEG_INF, log_sum_exp

KOSTKA_MAX_BOXES = 12
KOSTKA_MAX_ROWS = 4
CYCLE_SUM_MAX_BOXES = 8


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


def weighted_dot(weight: Sequence[int], log_values: Sequence[float]) -> float:
    """Sum of weight[j] * log_values[j] with the 0 * (-inf) := 0 convention."""
    total = 0.0
    for w, h in zip(weight, log_values):
        if w == 0:
            continue
        if h == NEG_INF:
            return NEG_INF
        total += w * h
    return total


class SchurTable:
    """Log Schur values for one spectrum, for any shape up to a box budget.

    Levels run over the number of participating eigenvalues. Levels below
    the top are tabulated densely for every box count up to ``max_boxes``;
    top-level shapes are evaluated on demand and cached. Build once in a
    single thread, then share freely for reads.
    """

    _DENSE_LIMIT = 150  # four-row cube kept dense up to ~28 MB

    def __init__(self, spectrum: Spectrum, max_boxes: int):
        if max_boxes < 0:
            raise ValueError("max_boxes must be non-negative")
        self.spectrum = spectrum
        self.max_boxes = max_boxes
        positive = [v for v in spectrum.values if v > 0.0]
        self._k = len(positive)
        self._log_r = [math.log(v) for v in positive]
        self._cache: dict[tuple[int, ...], float] = {}
        self._u1: np.ndarray | None = None
        self._v2: np.ndarray | None = None
        self._v3: np.ndarray | dict[int, np.ndarray] | None = None
        self._build()

    def _build(self) -> None:
        m_max, k, lr = self.max_boxes, self._k, self._log_r
        if k >= 2:
            sizes = np.arange(m_max + 1, dtype=float)
            self._u1 = sizes * (lr[0] - lr[1])
        if k >= 3:
            level2 = np.full((m_max + 1, m_max + 1), NEG_INF)
            for a in range(m_max + 1):
                # suffix[b] = log-sum over one-row sub-shapes c in [b, a]
                suffix = np.logaddexp.accumulate(self._u1[a::-1])[::-1]
                b_max = min(a, m_max - a)
                b = np.arange(b_max + 1, dtype=float)
                level2[a, : b_max + 1] = (a + b) * lr[1] + suffix[: b_max + 1]
            sizes = np.arange(m_max + 1, dtype=float)
            self._v2 = level2 - (sizes[:, None] + sizes[None, :]) * lr[2]
        if k >= 4:
            # sheets indexed [m2, m3] per m1; one dense cube when memory allows,
            # so a top-level query reduces to a single 3-d slice
            dense = m_max <= self._DENSE_LIMIT
            if dense:
                self._v3 = np.full((m_max + 1,) * 3, NEG_INF)
            else:
                self._v3 = {}
            for m1 in range(m_max + 1):
                m2_max = min(m1, m_max - m1)
                sheet = np.full((m2_max + 1, m2_max + 1), NEG_INF)
                for m2 in range(m2_max + 1):
                    block = self._v2[m2 : m1 + 1, : m2 + 1]
                    top = block.max(axis=0)
                    col = top + np.log(np.exp(block - top[None, :]).sum(axis=0))
                    suffix = np.logaddexp.accumulate(col[::-1])[::-1]
                    c_max = min(m2, m_max - m1 - m2)
                    c = np.arange(c_max + 1, dtype=float)
                    sheet[m2, : c_max + 1] = (m1 + m2 + c) * (lr[2] - lr[3]) + suffix[: c_max + 1]
                if dense:
                    self._v3[m1, : m2_max + 1, : m2_max + 1] = sheet
                else:
                    self._v3[m1] = sheet

    def log_value(self, rows: Sequence[int]) -> float:
        """ln s_Y(r) for the shape given by ``rows``; -inf for an exact zero."""
        shape = tuple(int(v) for v in rows)
        for upper, lower in zip(shape, shape[1:]):
            if upper < lower:
                raise ValueError(f"shape must be non-increasing: {shape}")
        if shape and shape[-1] < 0:
            raise ValueError(f"shape must be non-negative: {shape}")
        boxes = sum(shape)
        if boxes > self.max_boxes:
            raise ValueError(
                f"shape has {boxes} boxes, table was built for at most {self.max_boxes}"
            )
        k = self._k
        if any(v > 0 for v in shape[k:]):
            # more nonzero rows than nonzero eigenvalues: the value is exactly 0
            return NEG_INF
        if k == 0 or boxes == 0:
            return 0.0
        reduced = (shape + (0,) * k)[:k]
        cached = self._cache.get(reduced)
        if cached is not None:
            return cached
        value = self._top_value(reduced, boxes)
        self._cache[reduced] = value
        return value

    def _top_value(self, shape: tuple[int, ...], boxes: int) -> float:
        lr = self._log_r
        k = self._k
        if k == 1:
            return boxes * lr[0]
        if k == 2:
            a, b = shape
            return boxes * lr[1] + log_sum_exp(self._u1[b : a + 1])
        if k == 3:
            a, b, c = shape
            return boxes * lr[2] + log_sum_exp(self._v2[b : a + 1, c : b + 1])
        a, b, c, e = shape
        if isinstance(self._v3, np.ndarray):
            return boxes * lr[3] + log_sum_exp(self._v3[b : a + 1, c : b + 1, e : c + 1])
        blocks = [self._v3[m1][c : b + 1, e : c + 1] for m1 in range(b, a + 1)]
        return boxes * lr[3] + log_sum_exp(np.stack(blocks))


def schur_log(frame: YoungFrame, spectrum: Spectrum, *, table: SchurTable | None = None) -> float:
    """ln s_Y(r) via the positive branching recursion; -inf when s_Y(r) = 0."""
    if table is None:
        table = SchurTable(spectrum, frame.boxes)
    elif table.spectrum != spectrum:
        raise ValueError("table was built for a different spectrum")
    return table.log_value(frame.rows)


def schur_log_bialternant(
    frame: YoungFrame, spectrum: Spectrum, *, min_gap: float = 1e-9
) -> float:
    """Ratio-of-determinants evaluation, usable only for well-separated spectra.

    Cross-check evaluator: refuses spectra with near-equal or zero entries,
    where the alternating sums cancel catastrophically.
    """
    x = np.asarray(spectrum.values, dtype=float)
    d = len(x)
    if frame.d != d:
        raise ValueError("frame and spectrum dimensions differ")
    if x[-1] <= 0.0:
        raise DegenerateSpectrumError("bialternant form needs strictly positive eigenvalues")
    gaps = x[:-1] - x[1:]
    if gaps.size and gaps.min() <= min_gap:
        raise DegenerateSpectrumError(
            f"eigenvalue gap {gaps.min():.3e} below {min_gap:.0e}; use the branching evaluator"
        )
    exponents = np.array([frame.rows[j] + d - 1 - j for j in range(d)], dtype=float)
    log_x = np.log(x)
    powers = np.outer(log_x, exponents)
    shift = powers.max(axis=0)
    sign, log_det = np.linalg.slogdet(np.exp(powers - shift[None, :]))
    if sign <= 0:
        raise DegenerateSpectrumError("numerator determinant lost its sign to cancellation")
    log_vandermonde = float(sum(math.log(x[i] - x[j]) for i in range(d) for j in range(i + 1, d)))
    return float(log_det + shift.sum() - log_vandermonde)


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
    terms = [
        math.log(mult) + weighted_dot(weight, state.log_eigenvalues)
        for weight, mult in sorted(table.entries.items())
    ]
    return log_sum_exp(terms)


@dataclass(frozen=True)
class CharacterBounds:
    """Highest-weight sandwich around a character value, in log space."""

    lower: float
    value: float
    upper: float
    holds: bool


def character_bounds_check(
    frame: YoungFrame, state: DiagonalState, *, slack: float = 1e-10
) -> CharacterBounds:
    """Check exp(Y.h) <= character <= dim * exp(Y.h) for a diagonal state."""
    d = state.d
    if frame.nonzero_rows() > d:
        raise ValueError(f"frame {frame} has more than {d} nonzero rows")
    rows = (frame.rows + (0,) * d)[:d]
    lower = weighted_dot(rows, state.log_eigenvalues)
    upper = lower + log_dim_unitary_irrep(frame, d)
    value = schur_log(YoungFrame(rows), state.to_spectrum())
    holds = (lower - slack <= value) and (value <= upper + slack)
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
