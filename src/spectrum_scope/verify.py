"""Self-check suites behind the ``verify`` command.

Each check exercises one cross-cutting identity of the package: total
probability, the two-sided character bounds, the cycle-type oracle, the
tilt/rate duality, and the sampler's statistical agreement with the exact
distribution. All randomness is internally seeded so reports are
reproducible byte for byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ldp
from .characters import brute_force_frame_probability, character_bounds_check
from .frames import Spectrum, enumerate_frames
from .measure import exact_distribution
from .rsk import SamplerConfig, empirical_distribution
from .schur import SchurTable

QUICK = "quick"
FULL = "full"
LEVELS = (QUICK, FULL)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_spectrum(rng: np.random.Generator, d: int) -> Spectrum:
    values = rng.dirichlet(np.ones(d))
    return Spectrum(tuple(sorted((float(v) for v in values), reverse=True)))


def _check_normalization(level: str) -> CheckResult:
    rng = np.random.default_rng(20240601)
    dims = (2, 3) if level == QUICK else (2, 3, 4)
    box_counts = (1, 5, 17, 40) if level == QUICK else (1, 5, 17, 40, 60)
    spectra_per_dim = 3 if level == QUICK else 6
    worst = 0.0
    for d in dims:
        for _ in range(spectra_per_dim):
            spectrum = _random_spectrum(rng, d)
            table = SchurTable(spectrum, max(box_counts))
            for n in box_counts:
                dist = exact_distribution(d, n, spectrum, table=table)
                worst = max(worst, abs(dist.total_log_prob()))
    passed = worst <= 1e-10
    return CheckResult(
        name="normalization",
        passed=passed,
        detail=f"max |ln total probability| = {worst:.3e} (bound 1e-10)",
    )


def _check_oracle(level: str) -> CheckResult:
    rng = np.random.default_rng(20240602)
    max_boxes = 5 if level == QUICK else 7
    worst = 0.0
    for d in (2, 3):
        for _ in range(2):
            spectrum = _random_spectrum(rng, d)
            for n in range(1, max_boxes + 1):
                dist = exact_distribution(d, n, spectrum)
                for frame, lp in dist.items():
                    reference = brute_force_frame_probability(frame, spectrum)
                    worst = max(worst, abs(math.exp(lp) - reference))
    passed = worst <= 1e-10
    return CheckResult(
        name="oracle",
        passed=passed,
        detail=f"max |probability - cycle-type oracle| = {worst:.3e} (bound 1e-10)",
    )


def _check_bounds(level: str) -> CheckResult:
    rng = np.random.default_rng(20240603)
    max_boxes = 8 if level == QUICK else 14
    spectra = 5 if level == QUICK else 12
    failures = 0
    checked = 0
    for d in (2, 3):
        for _ in range(spectra):
            spectrum = _random_spectrum(rng, d)
            for n in range(1, max_boxes + 1):
                for frame in enumerate_frames(d, n):
                    checked += 1
                    if not character_bounds_check(frame, spectrum).holds:
                        failures += 1
    return CheckResult(
        name="bounds",
        passed=failures == 0,
        detail=f"{failures} of {checked} highest-weight sandwich checks failed",
    )


def _check_duality(level: str) -> CheckResult:
    rng = np.random.default_rng(20240604)
    pairs = 40 if level == QUICK else 200
    worst = 0.0
    converged = True
    for _ in range(pairs):
        d = int(rng.integers(2, 5))
        s = _random_spectrum(rng, d)
        r = _random_spectrum(rng, d)
        try:
            result = ldp.legendre_of_cgf(s, r)
        except Exception:
            converged = False
            break
        worst = max(worst, abs(result.value - ldp.rate(s, r)))
    passed = converged and worst <= 1e-8
    return CheckResult(
        name="duality",
        passed=passed,
        detail=(
            f"max |sup-tilt value - rate| = {worst:.3e} (bound 1e-8)"
            if converged
            else "tilt ascent failed to converge"
        ),
    )


def _check_sampler(level: str) -> CheckResult:
    cases = [(2, 10, 200_000)] if level == QUICK else [(2, 10, 1_000_000), (3, 8, 1_000_000)]
    min_p = 1.0
    for d, boxes, samples in cases:
        spectrum = Spectrum(
            (0.7, 0.3) if d == 2 else (0.6, 0.3, 0.1)
        )
        exact = exact_distribution(d, boxes, spectrum)
        cfg = SamplerConfig(d=d, boxes=boxes, spectrum=spectrum, seed=20240605, chains=4)
        report = empirical_distribution(cfg, samples, exact=exact).fit
        min_p = min(min_p, report.p_value)
    passed = min_p > 0.001
    return CheckResult(
        name="sampler-equivalence",
        passed=passed,
        detail=f"min chi-square p-value = {min_p:.5f} (bound 0.001)",
    )


def run_checks(level: str = QUICK) -> list[CheckResult]:
    """Run all suites at the given level."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    return [
        _check_normalization(level),
        _check_oracle(level),
        _check_bounds(level),
        _check_duality(level),
        _check_sampler(level),
    ]


def report_dict(level: str, results: Sequence[CheckResult]) -> dict:
    return {
        "level": level,
        "passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
