"""Regions of the ordered simplex and the law's mass and expectations over them.

A region classifies frame estimates Y/N. Balls and half-spaces compare them
in exact integer arithmetic against their data, scaled to a common
denominator, so no estimate on a boundary is misclassified; frame sets
compare rows, and predicate regions call a function on float points.
"""
from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .frames import YoungFrame
from .logspace import NEG_INF, log_sum_exp
from .measure import SchurWeylDistribution


def _require_finite(what: str, values: Sequence[float | Fraction]) -> None:
    # rationals are finite, and float() of a large one would overflow
    if not all(isinstance(v, numbers.Rational) or math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite: {tuple(values)}")


class Region(abc.ABC):
    """Measurable subset of the closed ordered simplex."""

    @abc.abstractmethod
    def contains_point(self, values: Sequence[float]) -> bool:
        """Membership for an arbitrary simplex point given as floats."""

    def contains_estimates(self, rows: np.ndarray) -> np.ndarray:
        """Membership of each frame estimate Y/N, one frame per row of ``rows``;
        exact where the region data allow."""
        boxes = _boxes(rows)
        return np.array(
            [self.contains_point(point) for point in (rows / boxes[:, None]).tolist()],
            dtype=bool,
        )

    def contains_estimate(self, frame: YoungFrame) -> bool:
        """Membership for a frame estimate Y/N; exact where the region data allow."""
        return bool(self.contains_estimates(np.array([frame.rows]))[0])


def _boxes(rows: np.ndarray) -> np.ndarray:
    boxes = rows.sum(axis=1)
    if not boxes.all():
        raise ValueError("cannot normalize an empty frame")
    return boxes


def _scaled(values: Sequence[float | Fraction]) -> tuple[int, list[int]]:
    """(q, q * values) in Python ints, q the common denominator; q is up to
    2^1074 for binary-float data."""
    exact = [Fraction(v) for v in values]
    q = math.lcm(*(v.denominator for v in exact))
    return q, [v.numerator * (q // v.denominator) for v in exact]


@dataclass(frozen=True)
class BallComplement(Region):
    """Points at sup-distance strictly greater than ``radius`` from ``center``.

    The complement of the closed ball, so radius zero keeps every point
    except the center itself. Frame estimates are compared in exact integer
    arithmetic, eliminating boundary misclassification; pass the center and
    radius as ``Fraction`` values (e.g. built from decimal text) when the
    region data are meant as exact decimals rather than binary floats.
    """

    center: tuple[float | Fraction, ...]
    radius: float | Fraction

    def __post_init__(self):
        _require_finite("ball center and radius", (*self.center, self.radius))

    @cached_property
    def _float_center(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.center)

    def contains_point(self, values: Sequence[float]) -> bool:
        distance = max(abs(v - c) for v, c in zip(values, self._float_center, strict=True))
        return distance > float(self.radius)

    def contains_estimates(self, rows: np.ndarray) -> np.ndarray:
        if rows.shape[1] != len(self.center):
            raise ValueError(f"ball center has {len(self.center)} entries, frames have {rows.shape[1]} rows")
        # |Y_j/N - c_j| > a  <=>  |Y_j q - (q c_j) N| > (q a) N
        q, (*center, radius) = _scaled((*self.center, self.radius))
        boxes = _boxes(rows).astype(object)[:, None]
        gaps = np.abs(rows.astype(object) * q - np.array(center, dtype=object) * boxes)
        return (gaps > radius * boxes).any(axis=1)


@dataclass(frozen=True)
class HalfSpace(Region):
    """Points with normal . s >= offset.

    Frame estimates are compared in exact integer arithmetic, as in
    ``BallComplement``: pass ``Fraction`` data when they are meant as exact
    decimals, since a binary float such as 0.9 lies just above 9/10.
    """

    normal: tuple[float, ...]
    offset: float

    def __post_init__(self):
        _require_finite("half-space normal and offset", (*self.normal, self.offset))

    def contains_point(self, values: Sequence[float]) -> bool:
        return math.fsum(n * v for n, v in zip(self.normal, values, strict=True)) >= self.offset

    def contains_estimates(self, rows: np.ndarray) -> np.ndarray:
        if rows.shape[1] != len(self.normal):
            raise ValueError(f"half-space normal has {len(self.normal)} entries, frames have {rows.shape[1]} rows")
        # a . Y/N >= b  <=>  (q a) . Y >= (q b) N
        _, (*normal, offset) = _scaled((*self.normal, self.offset))
        boxes = _boxes(rows).astype(object)
        return (rows.astype(object) @ np.array(normal, dtype=object) >= offset * boxes).astype(bool)


@dataclass(frozen=True)
class FrameSet(Region):
    """Explicit list of frames; membership is exact row equality."""

    rows_set: frozenset[tuple[int, ...]]

    @classmethod
    def of(cls, frames: Sequence[YoungFrame]) -> "FrameSet":
        return cls(rows_set=frozenset(frame.rows for frame in frames))

    def contains_point(self, values: Sequence[float]) -> bool:
        return False

    def contains_estimates(self, rows: np.ndarray) -> np.ndarray:
        return np.array([tuple(r) in self.rows_set for r in rows.tolist()], dtype=bool)


class PredicateRegion(Region):
    """Arbitrary membership callable; carries no boundary guarantee. Its rate
    infimum is 0 when it holds r; otherwise ``inf_rate_over_region`` raises ValueError."""

    def __init__(self, predicate: Callable[[Sequence[float]], bool]):
        self._predicate = predicate

    def contains_point(self, values: Sequence[float]) -> bool:
        return bool(self._predicate(values))


def region_log_probability(dist: SchurWeylDistribution, region: Region) -> float:
    """ln of the total outcome probability of frames whose estimate lies in the region."""
    return log_sum_exp(dist.log_probs[region.contains_estimates(dist.rows)])


def region_probability(dist: SchurWeylDistribution, region: Region) -> float:
    log_value = region_log_probability(dist, region)
    return 0.0 if log_value == NEG_INF else math.exp(log_value)


def expectation_of(
    dist: SchurWeylDistribution, f: Callable[[Sequence[float]], float]
) -> float:
    """Exact expectation of f(Y/N) under the outcome distribution."""
    n = dist.boxes
    if n == 0:
        raise ValueError("estimates are undefined for an empty frame")
    terms = [
        f(tuple(point)) * math.exp(lp)
        for point, lp in zip((dist.rows / n).tolist(), dist.log_probs.tolist())
    ]
    return math.fsum(terms)
