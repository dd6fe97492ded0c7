"""Young frames, ordered spectra, and their dimension combinatorics.

A frame with ``d`` rows and ``N`` boxes is a partition of ``N`` into at most
``d`` parts. Rows are stored with explicit trailing zeros so frames of a
fixed dimension compare row by row against the spectra they estimate.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# frames per block of exact Frobenius integers in ``log_frobenius_dims``
_CHUNK_ROWS = 2**10


@dataclass(frozen=True, order=True)
class YoungFrame:
    """Arrangement of boxes into non-increasing rows (trailing zeros kept)."""

    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) == 0:
            raise ValueError("frame needs at least one row slot")
        for value in self.rows:
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"row lengths must be non-negative integers: {self.rows}")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if upper < lower:
                raise ValueError(f"row lengths must be non-increasing: {self.rows}")

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def boxes(self) -> int:
        return sum(self.rows)

    def nonzero_rows(self) -> int:
        return sum(1 for value in self.rows if value > 0)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.rows) + ")"


@dataclass(frozen=True)
class Spectrum:
    """Point of the closed ordered simplex: non-increasing, sums to one."""

    values: tuple[float, ...]

    _SUM_TOLERANCE = 1e-12

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("spectrum needs at least one entry")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"eigenvalues must be finite: {self.values}")
        if self.values[-1] < 0.0:
            raise ValueError(f"eigenvalues must be non-negative: {self.values}")
        for upper, lower in zip(self.values, self.values[1:]):
            if upper < lower:
                raise ValueError(
                    f"eigenvalues must be non-increasing: {self.values}"
                )
        total = math.fsum(self.values)
        if abs(total - 1.0) > self._SUM_TOLERANCE:
            raise ValueError(f"eigenvalues must sum to 1, got {total!r}")

    @classmethod
    def from_unsorted(cls, values: Sequence[float]) -> "Spectrum":
        """Canonicalize arbitrary eigenvalue order by sorting descending."""
        return cls(tuple(sorted((float(v) for v in values), reverse=True)))

    @property
    def d(self) -> int:
        return len(self.values)

    def support_size(self) -> int:
        return sum(1 for v in self.values if v > 0.0)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index):
        return self.values[index]


def enumerate_frames(d: int, boxes: int) -> Iterator[YoungFrame]:
    """Yield every frame with ``d`` rows and ``boxes`` boxes, lexicographically decreasing."""
    for rows in frame_rows(d, boxes).tolist():
        yield YoungFrame(tuple(rows))


def frame_rows(d: int, boxes: int) -> np.ndarray:
    """Every frame with ``d`` rows and ``boxes`` boxes as int64 rows (F, d), lexicographically decreasing.

    Built as a tree, one column per level: each node with ``left`` boxes
    still to place in ``slots`` rows, after a part ``cap``, has one child per
    allowed next part, ``min(left, cap)`` down to ``ceil(left / slots)``.
    The last nonzero row takes what is left, and only the first min(d, N)
    rows can be nonzero; the rest stay zero. The last level has one node per
    frame and is written straight into the output; each earlier column is
    then written as one run of its node's part per node.
    """
    if d < 1:
        raise ValueError(f"need at least one row, got d={d}")
    if boxes < 0:
        raise ValueError(f"box count must be non-negative, got {boxes}")
    width = min(d, boxes)
    if width < 2:
        rows = np.zeros((1, d), dtype=np.int64)
        rows[:, :width] = boxes
        return rows
    levels = []  # (parts, children per parent node) of columns 0 .. width - 3
    left = np.array([boxes], dtype=np.int64)
    cap = left
    for slots in range(width, 1, -1):
        high = np.minimum(left, cap)
        counts = high + 1 + (-left // slots)
        if slots == 2:
            break
        # each node's parts run down from ``high``, and what is left up from ``left - high``
        parts = _fill_runs(np.empty(counts.sum(), dtype=np.int64), high, counts, -1)
        left = _fill_runs(np.empty(len(parts), dtype=np.int64), left - high, counts, 1)
        levels.append((parts, counts))
        cap = parts
    rows = np.zeros((counts.sum(), d), dtype=np.int64)
    _fill_runs(rows[:, width - 2], high, counts, -1)
    _fill_runs(rows[:, width - 1], left - high, counts, 1)
    below = counts  # rows under each node of the column being written
    for column in range(width - 3, -1, -1):
        parts, counts = levels[column]
        _fill_runs(rows[:, column], parts, below, 0)
        below = np.add.reduceat(below, np.cumsum(counts) - counts)
    return rows


def _fill_runs(out: np.ndarray, firsts: np.ndarray, lengths: np.ndarray, step: int) -> np.ndarray:
    """Fill ``out`` in place with consecutive runs of ``lengths``, each from its entry of ``firsts`` in steps of ``step``.

    ``out`` holds the step inside each run and the jump at each run's start,
    and one cumulative sum turns those into the values.
    """
    out.fill(step)
    starts = np.cumsum(lengths) - lengths
    out[0] = firsts[0]
    out[starts[1:]] = firsts[1:] - firsts[:-1] - step * (lengths[:-1] - 1)
    return np.cumsum(out, out=out)


def frame_count(d: int, boxes: int) -> int:
    """Number of partitions of ``boxes`` into at most ``d`` parts.

    By conjugation these are the partitions into parts of size at most d,
    counted with a table over part sizes in O(min(d, N) N) steps.
    """
    if d < 0:
        raise ValueError("frame_count needs a non-negative row count")
    if boxes < 0:
        return 0
    ways = [1] + [0] * boxes
    for part in range(1, min(d, boxes) + 1):
        for total in range(part, boxes + 1):
            ways[total] += ways[total - part]
    return ways[boxes]


def _vandermondes(shifted: np.ndarray) -> np.ndarray:
    """Product of l_i - l_j over i < j for each row of ``shifted`` (int, F x c), exact Python ints (F,)."""
    products = np.ones(len(shifted), dtype=object)
    for i in range(shifted.shape[1]):
        for j in range(i + 1, shifted.shape[1]):
            products *= (shifted[:, i] - shifted[:, j]).astype(object)
    return products


def frobenius_dims(rows: np.ndarray, boxes: int) -> np.ndarray:
    """f^Y for each frame of ``rows`` (int, F x d, each row summing to ``boxes``), exact Python ints (F,).

    Frobenius: f^Y = N! prod_{i<j}(l_i - l_j) / prod_i l_i!, with
    l_i = Y_i + w - 1 - i over the first w = min(d, N) columns, which hold
    every nonzero row (Fulton & Harris, 4.1); one factorial table serves
    every frame.
    """
    # the factorial table reaches l_0 <= N + width - 1
    width = min(rows.shape[1], boxes)
    factorials = np.array(
        list(itertools.accumulate(range(1, boxes + width), operator.mul, initial=1)), dtype=object
    )
    shifted = rows[:, :width] + np.arange(width - 1, -1, -1)
    denominators = np.ones(len(rows), dtype=object)
    for column in shifted.T:
        denominators *= factorials[column]
    return factorials[boxes] * _vandermondes(shifted) // denominators


def dim_symmetric_irrep(frame: YoungFrame) -> int:
    """Number of standard tableaux of this shape: ``frobenius_dims`` of its nonzero rows."""
    rows = np.array([frame.rows[: frame.nonzero_rows()]], dtype=np.int64)
    return frobenius_dims(rows, frame.boxes)[0]


def log_dim_symmetric_irrep(frame: YoungFrame) -> float:
    return math.log(dim_symmetric_irrep(frame))


def log_frobenius_dims(rows: np.ndarray, boxes: int) -> np.ndarray:
    """ln f^Y for each frame of ``rows`` (int, F x d, each row summing to ``boxes``), float64 (F,).

    ``frobenius_dims`` ``_CHUNK_ROWS`` frames at a time, so the big
    numerators and denominators stay small.
    """
    logs = np.empty(len(rows))
    for start in range(0, len(rows), _CHUNK_ROWS):
        dims = frobenius_dims(rows[start : start + _CHUNK_ROWS], boxes)
        logs[start : start + len(dims)] = list(map(math.log, dims))
    return logs


def dim_unitary_irrep(frame: YoungFrame, d: int | None = None) -> int:
    """Dimension of the unitary-group irrep with this highest weight.

    Weyl: prod_{i<j} (Y_i - Y_j + j - i)/(j - i). Since Y_i - Y_j + j - i =
    l_i - l_j, this is the Vandermonde of the shifted rows over that of the
    empty frame, in exact integer arithmetic; ``d`` defaults to the frame's
    row count and may pad extra zero rows.
    """
    if d is None:
        d = frame.d
    if frame.nonzero_rows() > d:
        raise ValueError(f"frame {frame} has more than {d} nonzero rows")
    rows = np.array([(frame.rows + (0,) * d)[:d], [0] * d], dtype=np.int64)
    numerator, denominator = _vandermondes(rows + np.arange(d - 1, -1, -1))
    if numerator % denominator != 0:
        raise AssertionError("Weyl dimension product must divide exactly")
    return numerator // denominator


def log_dim_unitary_irrep(frame: YoungFrame, d: int | None = None) -> float:
    return math.log(dim_unitary_irrep(frame, d))


def dim_poly_bound(d: int, boxes: int) -> int:
    """(N+1)^(d(d-1)/2), an upper bound for every unitary irrep dimension."""
    if d < 1 or boxes < 0:
        raise ValueError(f"need d >= 1 and boxes >= 0, got d={d}, boxes={boxes}")
    return (boxes + 1) ** (d * (d - 1) // 2)


def frame_to_estimate(frame: YoungFrame) -> Spectrum:
    """Normalized rows Y/N as a point of the closed ordered simplex."""
    n = frame.boxes
    if n == 0:
        raise ValueError("cannot normalize an empty frame")
    return Spectrum(tuple(value / n for value in frame.rows))
