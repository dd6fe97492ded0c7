"""Validation oracles for the Schur evaluator: weights, characters, cycle types.

Kostka weight tables and the weight expansion of a character, the
highest-weight sandwich r^Y <= s_Y(r) <= dim V_Y r^Y around a ``SchurTable``
value, and symmetric-group characters by border strips, which give an
independent frame probability through the cycle-type sum. Each is exact or
capped at tiny sizes; of the commands, only ``verify`` runs them.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ResourceLimitError
from .frames import YoungFrame, Spectrum, dim_symmetric_irrep, enumerate_frames, log_dim_unitary_irrep
from .logspace import log_each, log_sum_exp, weighted_dots
from .schur import SchurTable

KOSTKA_MAX_BOXES = 12
KOSTKA_MAX_ROWS = 4
CYCLE_SUM_MAX_BOXES = 8
# rounding allowance on each side of the highest-weight sandwich in ``character_bounds_check``
_BOUNDS_SLACK = 1e-10


@dataclass(frozen=True)
class WeightTable:
    """Multiplicity of every weight of the unitary irrep labeled by a shape."""

    shape: tuple[int, ...]
    entries: Mapping[tuple[int, ...], int]

    def multiplicity(self, weight: Sequence[int]) -> int:
        return self.entries.get(tuple(weight), 0)

    def total(self) -> int:
        return sum(self.entries.values())


def weight_multiplicities(frame: YoungFrame) -> WeightTable:
    """Kostka counts: semistandard fillings of the shape per content vector."""
    d = frame.d
    if d > KOSTKA_MAX_ROWS or frame.boxes > KOSTKA_MAX_BOXES:
        raise ResourceLimitError(
            f"weight table enumeration is capped at d <= {KOSTKA_MAX_ROWS}, "
            f"N <= {KOSTKA_MAX_BOXES}; got d={d}, N={frame.boxes}"
        )
    return WeightTable(shape=frame.rows, entries=dict(Counter(_ssyt_contents(frame.rows, d))))


def _ssyt_contents(shape: tuple[int, ...], level: int):
    """Content vectors of semistandard fillings, one per filling."""
    if level == 1:
        yield (shape[0],)
        return
    size = sum(shape)
    # the shapes one row shorter that interlace ``shape``: Y_(a+1) <= mu_a <= Y_a
    for inner in itertools.product(*(range(high, low - 1, -1) for high, low in zip(shape, shape[1:]))):
        strip = size - sum(inner)
        for content in _ssyt_contents(inner, level - 1):
            yield content + (strip,)


def character_from_weights(table: WeightTable, spectrum: Spectrum) -> float:
    """Character as the weight expansion: log-sum of m(mu) * r^mu."""
    weights = sorted(table.entries)
    logs = np.array([math.log(table.entries[weight]) for weight in weights])
    return log_sum_exp(logs + weighted_dots(weights, log_each(spectrum)))


@dataclass(frozen=True)
class CharacterBounds:
    """Highest-weight sandwich around a character value, in log space."""

    lower: float
    value: float
    upper: float
    holds: bool


def character_bounds_check(frame: YoungFrame, spectrum: Spectrum) -> CharacterBounds:
    """Check r^Y <= s_Y(r) <= dim V_Y * r^Y, in logs, for the frame's shape."""
    d = spectrum.d
    if frame.nonzero_rows() > d:
        raise ValueError(f"frame {frame} has more than {d} nonzero rows")
    rows = (frame.rows + (0,) * d)[:d]
    lower = float(weighted_dots([rows], log_each(spectrum))[0])
    upper = lower + log_dim_unitary_irrep(frame, d)
    value = SchurTable(spectrum, frame.boxes).log_value(rows)
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
