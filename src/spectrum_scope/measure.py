"""Exact outcome distribution of the Young-frame measurement.

For N copies of a d-level state with spectrum r, the outcome probability of
a frame Y factors into a Schur polynomial value times a standard-tableau
count. Probabilities live in log space and all reductions run in the
canonical frame order, so every constructed distribution is bit-reproducible.
Regions of the simplex and the probabilities and expectations over them
live in ``regions``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ResourceLimitError
from .frames import YoungFrame, Spectrum, frame_count, frame_rows, log_frobenius_dims
from .logspace import log_sum_exp
from .schur import SchurTable

MAX_BOXES = 400
MAX_FRAMES = frame_count(4, MAX_BOXES)  # 461,312


@dataclass(frozen=True, eq=False)
class SchurWeylDistribution:
    """Exact law frame -> log probability for fixed (d, N, spectrum), as two columns.

    ``rows`` is int64 (F, d), one frame per row in canonical (lexicographically
    decreasing) order; ``log_probs`` is float64 (F,), an ndarray, not a tuple.
    Both are copied on construction and read-only. ``frames``, ``items()``,
    ``log_prob`` and ``prob`` build frame objects on demand and keep none.
    """

    spectrum: Spectrum
    rows: np.ndarray
    log_probs: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.int64)
        log_probs = np.array(self.log_probs, dtype=np.float64)
        if rows.ndim != 2 or log_probs.shape != rows.shape[:1]:
            raise ValueError(f"need rows (F, d) and log_probs (F,), got {rows.shape}, {log_probs.shape}")
        rows.flags.writeable = False
        log_probs.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "log_probs", log_probs)

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    @property
    def boxes(self) -> int:
        return int(self.rows[0].sum())

    @property
    def frames(self) -> tuple[YoungFrame, ...]:
        return tuple(YoungFrame(tuple(r)) for r in self.rows.tolist())

    def log_prob(self, frame: YoungFrame) -> float:
        if len(frame.rows) == self.d:
            (hits,) = np.nonzero((self.rows == frame.rows).all(axis=1))
            if hits.size:
                return float(self.log_probs[hits[0]])
        raise KeyError(frame)

    def prob(self, frame: YoungFrame) -> float:
        return math.exp(self.log_prob(frame))

    def items(self) -> Iterator[tuple[YoungFrame, float]]:
        return zip(self.frames, self.log_probs.tolist())

    def total_log_prob(self) -> float:
        return log_sum_exp(self.log_probs)


def check_enumeration_cap(d: int, boxes: int) -> None:
    """Raise ResourceLimitError unless N <= MAX_BOXES and at most MAX_FRAMES frames.

    Cheap, and made before anything is allocated; the Schur table checks
    its own size when it is built.
    """
    if boxes > MAX_BOXES:
        raise ResourceLimitError(
            f"exact enumeration is capped at N <= {MAX_BOXES}; got d={d}, N={boxes}"
        )
    frames = frame_count(d, boxes)
    if frames > MAX_FRAMES:
        raise ResourceLimitError(
            f"exact enumeration is capped at {MAX_FRAMES} frames; "
            f"d={d}, N={boxes} has {frames} frames"
        )


def exact_distribution(
    d: int,
    boxes: int,
    spectrum: Spectrum,
    *,
    table: SchurTable | None = None,
) -> SchurWeylDistribution:
    """Construct the full outcome distribution over frames with d rows, N boxes.

    A prebuilt ``table`` for the same spectrum may be shared across calls
    with different box counts; entries come out identical either way.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if boxes < 0:
        raise ValueError(f"need a non-negative box count, got {boxes}")
    if spectrum.d != d:
        raise ValueError(f"spectrum has {spectrum.d} entries, expected {d}")
    check_enumeration_cap(d, boxes)
    if table is None:
        table = SchurTable(spectrum, boxes)
    elif table.spectrum != spectrum:
        raise ValueError("table was built for a different spectrum")
    rows = frame_rows(d, boxes)
    return SchurWeylDistribution(spectrum, rows, table.log_values(rows) + log_frobenius_dims(rows, boxes))


def distribution_mode(dist: SchurWeylDistribution) -> YoungFrame:
    """Most probable frame; ties go to the lexicographically larger rows."""
    # argmax takes the first maximum, and frames run in decreasing order
    return YoungFrame(tuple(dist.rows[int(np.argmax(dist.log_probs))].tolist()))
