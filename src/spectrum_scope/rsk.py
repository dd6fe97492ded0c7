"""Exact outcome sampling by row insertion of an i.i.d. letter stream.

Inserting N letters drawn with the eigenvalue probabilities into a
semistandard tableau and keeping only the shape reproduces the exact
measurement outcome law, so sampling scales to box counts far beyond
enumeration range. Tableaux over a d-letter alphabet are runs of repeated
letters per row, stored as a d x d count matrix: insertion cost is
independent of N.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ResourceLimitError
from .frames import YoungFrame, Spectrum
from .measure import SchurWeylDistribution

THREAD_ENV_VAR = "SPECTRUM_SCOPE_THREADS"
# largest d x d int64 count-matrix batch one chain may allocate
MAX_CHAIN_BYTES = 2**30


@dataclass(frozen=True)
class CompactTableau:
    """Semistandard tableau over letters 1..d as per-row letter counts.

    ``counts[i][j]`` is the number of letters ``j+1`` in row ``i+1``; only
    ``j >= i`` can be occupied because columns increase strictly.
    """

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.counts)
        for i, row in enumerate(self.counts):
            if len(row) != d:
                raise ValueError("count matrix must be square")
            if any(c < 0 for c in row):
                raise ValueError("letter counts must be non-negative")
            if any(row[j] != 0 for j in range(i)):
                raise ValueError(f"row {i + 1} cannot hold letters smaller than {i + 1}")
        lengths = self.shape()
        for upper, lower in zip(lengths, lengths[1:]):
            if upper < lower:
                raise ValueError(f"row lengths must be non-increasing: {lengths}")
        # columns strict: letters <= l+1 in a row fit strictly above row below
        for i in range(d - 1):
            upper_prefix = 0
            lower_prefix = 0
            for letter in range(d - 1):
                upper_prefix += self.counts[i][letter]
                lower_prefix += self.counts[i + 1][letter + 1]
                if lower_prefix > upper_prefix:
                    raise ValueError("column-strictness violated")

    @classmethod
    def empty(cls, d: int) -> "CompactTableau":
        if d < 1:
            raise ValueError("need at least one letter")
        return cls(counts=tuple((0,) * d for _ in range(d)))

    @property
    def d(self) -> int:
        return len(self.counts)

    def shape(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def boxes(self) -> int:
        return sum(self.shape())

    def frame(self) -> YoungFrame:
        return YoungFrame(self.shape())


def insert_letter(tableau: CompactTableau, letter: int) -> CompactTableau:
    """Row-insert one letter (1-based), bumping through rows; returns a new tableau."""
    d = tableau.d
    if not 1 <= letter <= d:
        raise ValueError(f"letter must be in 1..{d}, got {letter}")
    counts = [list(row) for row in tableau.counts]
    carry = letter - 1
    for row in range(d):
        bumped = -1
        for candidate in range(carry + 1, d):
            if counts[row][candidate] > 0:
                bumped = candidate
                break
        counts[row][carry] += 1
        if bumped < 0:
            break
        counts[row][bumped] -= 1
        carry = bumped
    else:  # pragma: no cover - insertion always terminates within d rows
        raise AssertionError("bumping chain escaped the tableau")
    return CompactTableau(counts=tuple(tuple(row) for row in counts))


@dataclass(frozen=True)
class SamplerConfig:
    """Everything that determines a sampling run, including its randomness."""

    d: int
    boxes: int
    spectrum: Spectrum
    seed: int
    chains: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need d >= 1")
        if self.boxes < 0:
            raise ValueError("box count must be non-negative")
        if self.spectrum.d != self.d:
            raise ValueError("spectrum dimension must match d")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.chains < 1:
            raise ValueError("need at least one chain")


def _chain_rng(seed: int, chain: int) -> np.random.Generator:
    """Counter-based stream for one chain; (seed, chain) fixes it completely."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(chain,))
    return np.random.Generator(np.random.Philox(sequence))


def _insert_batch(counts: np.ndarray, letters: np.ndarray) -> None:
    """Insert one letter per sample into a batch of count matrices, in place."""
    d = counts.shape[1]
    active = np.arange(counts.shape[0])
    carry = letters.astype(np.int64)
    alphabet = np.arange(d)
    for row in range(d):
        if active.size == 0:
            return
        row_counts = counts[active, row, :]
        bumpable = (alphabet[None, :] > carry[:, None]) & (row_counts > 0)
        has_bump = bumpable.any(axis=1)
        bumped = np.argmax(bumpable, axis=1)
        counts[active, row, carry] += 1
        active = active[has_bump]
        bumped = bumped[has_bump]
        counts[active, row, bumped] -= 1
        carry = bumped
    if active.size:  # pragma: no cover - insertion always terminates within d rows
        raise AssertionError("bumping chain escaped the tableau")


def _sample_shapes(cfg: SamplerConfig, chain: int, count: int) -> Counter:
    """Shape counts for one chain; vectorized across its samples."""
    needed = count * cfg.d * cfg.d * 8
    if needed > MAX_CHAIN_BYTES:
        raise ResourceLimitError(
            f"one chain of {count} samples at d={cfg.d} needs {needed} bytes of "
            f"count matrices, over the cap of {MAX_CHAIN_BYTES}"
        )
    rng = _chain_rng(cfg.seed, chain)
    cumulative = np.cumsum(np.asarray(cfg.spectrum.values))
    counts = np.zeros((count, cfg.d, cfg.d), dtype=np.int64)
    for _ in range(cfg.boxes):
        draws = rng.random(count)
        letters = np.searchsorted(cumulative, draws, side="right")
        np.clip(letters, 0, cfg.d - 1, out=letters)
        _insert_batch(counts, letters)
    shapes = counts.sum(axis=2)
    unique, multiplicities = np.unique(shapes, axis=0, return_counts=True)
    return Counter(
        {tuple(int(v) for v in rows): int(m) for rows, m in zip(unique, multiplicities)}
    )


def _worker_count(chains: int) -> int:
    env = os.environ.get(THREAD_ENV_VAR)
    if env is not None:
        try:
            limit = int(env)
        except ValueError as exc:
            raise ValueError(f"{THREAD_ENV_VAR} must be an integer, got {env!r}") from exc
        if limit < 1:
            raise ValueError(f"{THREAD_ENV_VAR} must be positive, got {limit}")
    else:
        limit = os.cpu_count() or 1
    return max(1, min(chains, limit))


def sample_frame(cfg: SamplerConfig) -> YoungFrame:
    """Draw one outcome frame; chain 0 of the configured stream."""
    counts = _sample_shapes(SamplerConfig(cfg.d, cfg.boxes, cfg.spectrum, cfg.seed, 1), 0, 1)
    rows = next(iter(counts))
    return YoungFrame(rows)


def sample_frame_counts(cfg: SamplerConfig, samples: int) -> Counter:
    """Outcome counts over many samples, split across the configured chains.

    Chains are independent streams merged by commutative addition, so the
    result does not depend on worker scheduling or thread count.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    base, extra = divmod(samples, cfg.chains)
    sizes = [base + (1 if i < extra else 0) for i in range(cfg.chains)]
    jobs = [(i, size) for i, size in enumerate(sizes) if size > 0]
    merged: Counter = Counter()
    workers = _worker_count(len(jobs))
    if workers == 1:
        for chain, size in jobs:
            merged.update(_sample_shapes(cfg, chain, size))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(lambda job: _sample_shapes(cfg, *job), jobs):
                merged.update(part)
    return merged


@dataclass(frozen=True)
class FitReport:
    """Agreement between sampled frequencies and an exact distribution."""

    tv_distance: float
    chi_square: float
    degrees_of_freedom: int
    p_value: float
    cells: int


@dataclass(frozen=True)
class EmpiricalDistribution:
    samples: int
    frequencies: Mapping[tuple[int, ...], float]
    mean_estimate: tuple[float, ...]
    fit: FitReport | None = field(default=None)


def empirical_distribution(
    cfg: SamplerConfig,
    samples: int,
    exact: SchurWeylDistribution | None = None,
) -> EmpiricalDistribution:
    """Sampled outcome frequencies, with a goodness-of-fit report when an
    exact distribution is supplied."""
    counts = sample_frame_counts(cfg, samples)
    frequencies = {
        rows: counts.get(rows, 0) / samples for rows in sorted(counts, reverse=True)
    }
    mean = [0.0] * cfg.d
    for rows, c in counts.items():
        for j, value in enumerate(rows):
            mean[j] += c * value
    scale = samples * cfg.boxes if cfg.boxes else samples
    mean_estimate = tuple(m / scale for m in mean)
    fit = None
    if exact is not None:
        fit = _fit_report(counts, samples, exact)
    return EmpiricalDistribution(
        samples=samples,
        frequencies=frequencies,
        mean_estimate=mean_estimate,
        fit=fit,
    )


def _fit_report(counts: Counter, samples: int, exact: SchurWeylDistribution) -> FitReport:
    from scipy import stats

    tv = 0.0
    observed_rows = set(counts)
    for frame, lp in exact.items():
        prob = math.exp(lp)
        freq = counts.get(frame.rows, 0) / samples
        tv += abs(freq - prob)
        observed_rows.discard(frame.rows)
    for rows in observed_rows:  # sampled shapes outside the exact support
        tv += counts[rows] / samples
    tv *= 0.5

    # chi-square over frames with expected count >= 5; the rest pool into one tail cell
    chi = 0.0
    cells = 0
    tail_expected = 0.0
    tail_observed = 0
    for frame, lp in exact.items():
        expected = math.exp(lp) * samples
        observed = counts.get(frame.rows, 0)
        if expected >= 5.0:
            chi += (observed - expected) ** 2 / expected
            cells += 1
        else:
            tail_expected += expected
            tail_observed += observed
    if tail_expected > 0.0:
        chi += (tail_observed - tail_expected) ** 2 / tail_expected
        cells += 1
    dof = max(cells - 1, 1)
    p_value = float(stats.chi2.sf(chi, dof))
    return FitReport(
        tv_distance=tv,
        chi_square=chi,
        degrees_of_freedom=dof,
        p_value=p_value,
        cells=cells,
    )
