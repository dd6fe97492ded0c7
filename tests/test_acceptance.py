"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Criteria 3 and 10 run the CLI as child processes; they take
their environment from ``conftest.subprocess_env``, so the children import
the package under test from any working directory.

Criterion 4 checks convergence of the L1 estimation error against the exact
two-row law and the central-limit rate c/sqrt(N). An earlier form required
value(400)/value(50) < 1/3, which no correct estimator meets: the exact
ratio is 0.36539, close to the c/sqrt(N) prediction 1/sqrt(8) ~ 0.354.
"""
import csv
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import random_spectrum, subprocess_env

from spectrum_scope import (
    BallComplement,
    SchurTable,
    Spectrum,
    YoungFrame,
    brute_force_frame_probability,
    cgf,
    character_bounds_check,
    character_from_weights,
    dim_poly_bound,
    empirical_cgf,
    empirical_distribution,
    enumerate_frames,
    exact_distribution,
    expectation_of,
    inf_rate_over_region,
    j_equivalence_gap,
    legendre_of_cgf,
    rate,
    rate_scan,
    SamplerConfig,
    schur_log,
    weight_multiplicities,
)

# exact mass of the N=120 distribution within sup-distance 3/20 of
# (3/5, 3/10, 1/10), frozen from the evaluation recorded in the dist manifest
FIGURE_MASS_WITHIN_015 = 0.9996310459102918


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} — {detail}")


def test_criterion_01_normalization():
    rng = np.random.default_rng(20240611)
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(20):
            spectrum = random_spectrum(rng, d)
            table = SchurTable(spectrum, 60)
            for n in range(1, 61):
                dist = exact_distribution(d, n, spectrum, table=table)
                worst = max(worst, abs(dist.total_log_prob()))
    passed = worst <= 1e-10
    report(1, "normalization", passed, f"max |ln total| = {worst:.3e} (bound 1e-10)")
    assert passed


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(20240612)
    worst = 0.0
    for d in (1, 2, 3):
        spectra = [random_spectrum(rng, d) for _ in range(2)]
        if d == 3:
            spectra.append(Spectrum((0.6, 0.3, 0.1)))
        for spectrum in spectra:
            table = SchurTable(spectrum, 7)
            for n in range(0, 8):
                for frame in enumerate_frames(d, n):
                    exact = math.exp(table.log_value(frame.rows)) * _tableau_count(frame)
                    oracle = brute_force_frame_probability(frame, spectrum)
                    worst = max(worst, abs(exact - oracle))
    passed = worst <= 1e-10
    report(2, "oracle-equivalence", passed, f"max deviation = {worst:.3e} (bound 1e-10)")
    assert passed


def _tableau_count(frame: YoungFrame) -> int:
    from spectrum_scope import dim_symmetric_irrep

    return dim_symmetric_irrep(frame)


def test_criterion_03_figure_reproduction(tmp_path):
    out = tmp_path / "figure.csv"
    start = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "spectrum_scope", "dist",
            "--d", "3", "--n", "120", "--spectrum", "0.6,0.3,0.1",
            "--out", str(out),
        ],
        env=subprocess_env(),
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    top = max(rows, key=lambda row: float(row["prob"]))
    mode_dev = max(
        abs(int(top[f"Y{j + 1}"]) / 120 - target)
        for j, target in enumerate((0.6, 0.3, 0.1))
    )
    center = (Fraction(3, 5), Fraction(3, 10), Fraction(1, 10))
    radius = Fraction(3, 20)
    mass = math.fsum(
        float(row["prob"])
        for row in rows
        if max(abs(Fraction(int(row[f"Y{j + 1}"]), 120) - center[j]) for j in range(3)) <= radius
    )
    manifest = Path(str(out) + ".manifest.json")
    passed = (
        elapsed < 10.0
        and mode_dev <= 0.05
        and mass >= 0.99
        and abs(mass - FIGURE_MASS_WITHIN_015) <= 1e-9
        and manifest.exists()
    )
    report(
        3,
        "figure-reproduction",
        passed,
        f"{elapsed:.1f}s, mode deviation {mode_dev:.4f} (<=0.05), "
        f"mass within 0.15 = {mass:.10f} (>=0.99, frozen {FIGURE_MASS_WITHIN_015})",
    )
    assert passed


def _two_row_law(boxes: int, r1: Fraction, r2: Fraction) -> dict[int, Fraction]:
    """Exact law of k for the frame (N-k, k) under spectrum (r1, r2), r1 > r2.

    P(N-k, k) = f^Y s_Y(r) with f^Y = C(N,k) (N-2k+1)/(N-k+1) and
    s_Y(r) = (r1 r2)^k (r1^(N-2k+1) - r2^(N-2k+1)) / (r1 - r2).
    """
    return {
        k: math.comb(boxes, k)
        * Fraction(boxes - 2 * k + 1, boxes - k + 1)
        * (r1 * r2) ** k
        * (r1 ** (boxes - 2 * k + 1) - r2 ** (boxes - 2 * k + 1))
        / (r1 - r2)
        for k in range(boxes // 2 + 1)
    }


def test_criterion_04_asymptotic_exactness():
    r1, r2 = Fraction(7, 10), Fraction(3, 10)
    spectrum = Spectrum((0.7, 0.3))
    table = SchurTable(spectrum, 400)
    f = lambda s: abs(s[0] - 0.7) + abs(s[1] - 0.3)
    sizes = (25, 50, 100, 200, 400)
    values = {
        n: expectation_of(exact_distribution(2, n, spectrum, table=table), f)
        for n in sizes
    }
    monotone = all(values[a] > values[b] for a, b in zip(sizes, sizes[1:]))
    ratio = values[400] / values[50]

    # (a) exactness: E||Y/N - r||_1 from the rational closed form, where the
    # L1 error of (N-k, k)/N is 2|k/N - r2|
    references = {}
    for n in sizes:
        law = _two_row_law(n, r1, r2)
        assert sum(law.values()) == 1
        references[n] = float(sum(p * 2 * abs(Fraction(k, n) - r2) for k, p in law.items()))
    exact_dev = max(abs(values[n] - references[n]) for n in sizes)

    # (b) central-limit rate: k is asymptotically normal with variance
    # N r1 r2, so E||Y/N - r||_1 ~ c/sqrt(N) with c = 2 sqrt(2 r1 r2 / pi)
    c = 2 * math.sqrt(2 * float(r1 * r2) / math.pi)
    scaled = [math.sqrt(n) * values[n] / c for n in sizes]
    rising = all(a < b for a, b in zip(scaled, scaled[1:]))
    at_rate = abs(scaled[-1] - 1) <= 0.01

    passed = monotone and exact_dev <= 1e-12 and rising and at_rate
    report(
        4,
        "asymptotic-exactness",
        passed,
        f"monotone={monotone}, value(400)/value(50) = {ratio:.5f}, "
        f"max |value - closed form| = {exact_dev:.3e} (bound 1e-12), "
        f"sqrt(N) value/c = {['%.4f' % v for v in scaled]} "
        f"(rising, within 1% of 1 at N=400)",
    )
    assert monotone, f"E||Y/N - r||_1 is not strictly decreasing: {values}"
    assert exact_dev <= 1e-12, (
        f"E||Y/N - r||_1 departs from the closed-form two-row law by {exact_dev:.3e} "
        f"(bound 1e-12): computed {values}, closed form {references}"
    )
    assert rising and at_rate, (
        f"sqrt(N) E||Y/N - r||_1 / c = {scaled} at N = {sizes} with "
        f"c = 2 sqrt(2 r1 r2 / pi) = {c:.6f}: it must rise strictly and end "
        f"within 1% of 1. This is the central-limit rate c/sqrt(N) of the "
        f"estimator; it replaces the unattainable value(400)/value(50) < 1/3, "
        f"whose exact value is 0.36539 (here {ratio:.5f})."
    )


def test_criterion_05_exponential_rate():
    spectrum = Spectrum((0.7, 0.3))
    region = BallComplement(center=(Fraction(7, 10), Fraction(3, 10)), radius=Fraction(1, 10))
    profile = rate_scan(2, spectrum, region, [40, 80, 160, 320])
    target = profile.target.value
    closed_form = min(rate((0.8, 0.2), spectrum), rate((0.6, 0.4), spectrum))
    gaps = []
    within = True
    for point in profile.points:
        gap = point.decay - target
        gaps.append(gap)
        if abs(gap) > (math.log(point.boxes + 1) + 4) / point.boxes:
            within = False
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    passed = within and decreasing and abs(target - closed_form) <= 1e-9
    report(
        5,
        "exponential-rate",
        passed,
        f"target inf = {target:.6f} (boundary closed form {closed_form:.6f}), "
        f"gaps {['%.4f' % g for g in gaps]} within (ln(N+1)+4)/N and decreasing={decreasing}",
    )
    assert passed


def test_criterion_06_legendre_duality():
    rng = np.random.default_rng(20240616)
    worst = 0.0
    max_iterations = 0
    for _ in range(200):
        d = int(rng.integers(2, 5))
        s, r = random_spectrum(rng, d), random_spectrum(rng, d)
        result = legendre_of_cgf(s, r)
        worst = max(worst, abs(result.value - rate(s, r)))
        max_iterations = max(max_iterations, result.iterations)
    passed = worst <= 1e-8
    report(
        6,
        "legendre-duality",
        passed,
        f"max |sup-tilt - rate| = {worst:.3e} over 200 pairs (bound 1e-8), "
        f"max iterations {max_iterations}",
    )
    assert passed


def test_criterion_07_weights_and_bounds():
    rng = np.random.default_rng(20240617)
    worst = 0.0
    bounds_hold = True
    frames = [
        frame
        for d in (1, 2, 3)
        for n in range(0, 11)
        for frame in enumerate_frames(d, n)
    ]
    tables = {frame: weight_multiplicities(frame) for frame in frames}
    for _ in range(20):
        spectra = {d: random_spectrum(rng, d) for d in (1, 2, 3)}
        evaluators = {d: SchurTable(spectra[d], 10) for d in (1, 2, 3)}
        for frame in frames:
            d = frame.d
            expansion = character_from_weights(tables[frame], spectra[d])
            direct = evaluators[d].log_value(frame.rows)
            worst = max(worst, abs(expansion - direct))
            if frame.boxes and not character_bounds_check(frame, spectra[d]).holds:
                bounds_hold = False
    passed = worst <= 1e-10 and bounds_hold
    report(
        7,
        "weights-and-bounds",
        passed,
        f"max |weight expansion - direct| = {worst:.3e} (bound 1e-10), "
        f"highest-weight sandwich holds = {bounds_hold}",
    )
    assert passed


def test_criterion_08_sampler_equivalence():
    outcomes = []
    for d, boxes, spectrum in (
        (2, 10, Spectrum((0.7, 0.3))),
        (3, 8, Spectrum((0.6, 0.3, 0.1))),
    ):
        exact = exact_distribution(d, boxes, spectrum)
        cfg = SamplerConfig(d=d, boxes=boxes, spectrum=spectrum, seed=1234, chains=8)
        fit = empirical_distribution(cfg, 1_000_000, exact=exact).fit
        outcomes.append((d, boxes, fit.p_value))
    spectrum = Spectrum((0.6, 0.3, 0.1))
    exact = exact_distribution(3, 20, spectrum)
    cfg = SamplerConfig(d=3, boxes=20, spectrum=spectrum, seed=1234, chains=8)
    tv = empirical_distribution(cfg, 1_000_000, exact=exact).fit.tv_distance
    min_p = min(p for _, _, p in outcomes)
    passed = min_p > 0.001 and tv < 0.01
    report(
        8,
        "sampler-equivalence",
        passed,
        f"chi-square p-values {[f'{p:.3f}' for _, _, p in outcomes]} (> 0.001), "
        f"TV at (d=3, N=20) = {tv:.5f} (< 0.01), one million draws each",
    )
    assert passed


def test_criterion_09_empirical_cgf_convergence():
    spectrum = Spectrum((0.7, 0.3))
    eta = (0.5, 0.0)
    limit = cgf(eta, spectrum)
    worst_margin = math.inf
    passed = True
    for n in (50, 100, 200, 300):
        value = empirical_cgf(2, n, spectrum, eta)
        cgf_bound = math.log(n + 1) / n + 2 / n
        gap = j_equivalence_gap(2, n, spectrum, eta)
        gap_bound = math.log(dim_poly_bound(2, n)) / n + 1e-9
        if abs(value - limit) > cgf_bound or abs(gap) > gap_bound:
            passed = False
        worst_margin = min(worst_margin, cgf_bound - abs(value - limit), gap_bound - abs(gap))
    report(
        9,
        "empirical-cgf-convergence",
        passed,
        f"bounds ln(N+1)/N + 2/N and (1/N) ln p(N) respected at N in (50,100,200,300); "
        f"smallest margin {worst_margin:.4f}",
    )
    assert passed


CLI_COMMANDS = [
    ("dist", ["dist", "--d", "3", "--n", "40", "--spectrum", "0.6,0.3,0.1", "--out", "out.csv"]),
    (
        "rate-scan",
        ["rate-scan", "--d", "2", "--spectrum", "0.7,0.3", "--epsilon", "0.1",
         "--n-list", "25,50", "--out", "out.csv"],
    ),
    (
        "sample",
        ["sample", "--d", "3", "--n", "15", "--spectrum", "0.5,0.3,0.2",
         "--samples", "30000", "--seed", "11", "--chains", "5", "--out", "out.csv"],
    ),
    (
        "legendre",
        ["legendre", "--d", "2", "--spectrum", "0.6,0.4", "--s-point", "0.8,0.2",
         "--out", "out.csv"],
    ),
    ("verify", ["verify", "--level", "quick", "--out", "out.json"]),
]


def test_criterion_10_cli_determinism(tmp_path):
    details = []
    passed = True
    for name, args in CLI_COMMANDS:
        digests = []
        for label, threads in (("single", "1"), ("many", str(os.cpu_count() or 4))):
            workdir = tmp_path / f"{name}-{label}"
            workdir.mkdir()
            env = subprocess_env(SPECTRUM_SCOPE_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "spectrum_scope", *args],
                cwd=workdir,
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
            out_name = args[args.index("--out") + 1]
            payload = (workdir / out_name).read_bytes()
            manifest = (workdir / (out_name + ".manifest.json")).read_bytes()
            digests.append((payload, manifest))
        same = digests[0] == digests[1]
        passed = passed and same
        details.append(f"{name}={'ok' if same else 'DIFFERS'}")
    report(10, "cli-determinism", passed, ", ".join(details))
    assert passed
