"""Rate function, cumulant generating function, and decay diagnostics.

The error probability of the frame estimator decays exponentially with a
rate given by the relative entropy to the true spectrum. This module
evaluates that rate, its Legendre-dual cumulant generating function, the
finite-N empirical counterparts, and infima over error regions.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, EmptyRegionError, ResourceLimitError
from .frames import Spectrum, frame_count, frame_rows, log_frobenius_dims
from .logspace import NEG_INF, log_each, log_sum_exp, weighted_dots
from .measure import check_enumeration_cap, exact_distribution
from .regions import BallComplement, FrameSet, HalfSpace, Region, region_log_probability
from .schur import SchurTable

_GRID_RESOLUTION = 200
# predicate regions are seeded from the k/200 lattice: d = 5 has 643,287
# points, d = 6 has 4,775,383, each one predicate call
MAX_LATTICE_POINTS = 10**6
# lattice rows turned into points at a time
_LATTICE_CHUNK = 2**13
# the Legendre ascent stops once max |s_j - w_j| is at most this
_LEGENDRE_TOLERANCE = 1e-10
# ascent steps before ConvergenceError; at most 26 were needed over 2,000
# Dirichlet(0.05) pairs at d 2 to 6
_MAX_ITERATIONS = 1000


def _values(spectrum) -> tuple[float, ...]:
    if isinstance(spectrum, Spectrum):
        return spectrum.values
    return tuple(float(v) for v in spectrum)


def rate(s, r) -> float:
    """Relative entropy sum s_j (ln s_j - ln r_j); +inf off the support of r."""
    sv, rv = _values(s), _values(r)
    if len(sv) != len(rv):
        raise ValueError("points must have the same dimension")
    terms = []
    for a, b in zip(sv, rv):
        if a == 0.0:
            continue
        if b == 0.0:
            return math.inf
        terms.append(a * (math.log(a) - math.log(b)))
    # non-negative (Gibbs); next to r the sum can round to about -1e-16
    return max(math.fsum(terms), 0.0)


def _check_tilt(eta: Sequence[float], d: int) -> None:
    if len(eta) != d:
        raise ValueError(f"tilt vector must have {d} entries")
    # -inf tilts a level away; NaN and +inf are rejected
    if not all(float(e) < math.inf for e in eta):
        raise ValueError(f"tilt entries must be finite or -inf: {tuple(eta)}")


def cgf(eta: Sequence[float], r) -> float:
    """ln sum_j r_j exp(eta_j), the scaled cumulant generating function."""
    rv = _values(r)
    _check_tilt(eta, len(rv))
    terms = [math.log(v) + float(e) for v, e in zip(rv, eta) if v > 0.0]
    return log_sum_exp(terms)


def cgf_gradient(eta: Sequence[float], r) -> np.ndarray:
    """Gradient of the CGF: the tilted eigenvalue weights, summing to one."""
    rv = np.asarray(_values(r), dtype=float)
    _check_tilt(eta, len(rv))
    e = np.asarray(eta, dtype=float)
    logits = np.where(rv > 0.0, np.log(np.where(rv > 0.0, rv, 1.0)) + e, NEG_INF)
    shift = logits.max()
    if shift == NEG_INF:
        raise ValueError(f"tilt vector is -inf on every level of the support: {tuple(eta)}")
    weights = np.exp(logits - shift)
    return weights / weights.sum()


@dataclass(frozen=True)
class LegendreResult:
    """Outcome of the concave tilt maximization."""

    value: float
    eta: tuple[float, ...]
    iterations: int
    gradient_norm: float


def legendre_of_cgf(s, r) -> LegendreResult:
    """sup_eta (eta . s - c(eta)) by damped Newton ascent on the zero-mean plane.

    Coordinates where s vanishes are removed first (their optimal tilt runs
    to -inf and drops out), so boundary points of the simplex are handled by
    the same closed-form limit. On what is left, with tilted weights w, the
    gradient s - w sums to zero, so (diag(w) - w w^T)(s / w) = s - w and the
    Newton step is s / w centred to zero mean. It is formed in the log
    domain, so no weight underflows, and scaled to max-norm at most a cap.
    The cap starts at 1 and doubles after each capped step taken whole, so a
    tilt far from zero is reached in a number of steps logarithmic in its
    size. The analytic optimizer ln(s_j/r_j) is used only in tests, as a
    convergence certificate.
    """
    sv, rv = _values(s), _values(r)
    if len(sv) != len(rv):
        raise ValueError("points must have the same dimension")
    support = [j for j, v in enumerate(sv) if v > 0.0]
    if any(rv[j] == 0.0 for j in support):
        return LegendreResult(value=math.inf, eta=(math.nan,) * len(sv), iterations=0, gradient_norm=0.0)
    s_red = np.array([sv[j] for j in support], dtype=float)
    log_s = np.log(s_red)
    log_r = np.log([rv[j] for j in support])

    def ascent_state(e: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective value and log tilted weights at ``e``."""
        logits = log_r + e
        total = log_sum_exp(logits)
        return float(e @ s_red) - total, logits - total

    eta = np.zeros(len(support))
    value, log_w = ascent_state(eta)
    iterations = 0
    cap = 1.0
    while (grad_norm := float(np.abs(s_red - np.exp(log_w)).max())) > _LEGENDRE_TOLERANCE:
        if iterations >= _MAX_ITERATIONS:
            raise ConvergenceError(
                f"tilt ascent did not reach gradient norm {_LEGENDRE_TOLERANCE:g} within "
                f"{_MAX_ITERATIONS} iterations (last norm {grad_norm:.3e})",
                last_iterate=tuple(eta),
            )
        # step is (s / w) e^-top, so exp cannot overflow where w is subnormal;
        # dividing by max(e^-top, its max-norm / cap) caps the centred s / w at
        # max-norm cap
        log_ratio = log_s - log_w
        top = float(log_ratio.max())
        step = np.exp(log_ratio - top)
        step -= step.mean()
        norm = float(np.abs(step).max()) / cap
        capped = norm > math.exp(-top)
        step /= max(math.exp(-top), norm)
        # halve only on a genuine regression, since near the optimum the true
        # improvement drops below rounding
        scale = 1.0
        new_value, new_log_w = ascent_state(eta + step)
        while new_value < value - 1e-13 and scale > 1e-12:
            scale *= 0.5
            new_value, new_log_w = ascent_state(eta + scale * step)
        eta, value, log_w = eta + scale * step, new_value, new_log_w
        iterations += 1
        if capped and scale == 1.0:
            # a capped step taken whole: the cap, not the curvature, set its length
            cap *= 2.0
    full_eta = [NEG_INF] * len(sv)
    for j, e in zip(support, eta):
        full_eta[j] = float(e)
    return LegendreResult(
        value=value, eta=tuple(full_eta), iterations=iterations, gradient_norm=grad_norm
    )


def empirical_cgf(d: int, boxes: int, spectrum: Spectrum, eta: Sequence[float]) -> float:
    """(1/N) ln E[exp(eta . Y)] under the exact outcome distribution."""
    if boxes < 1:
        raise ValueError("need at least one box")
    _check_tilt(eta, d)
    dist = exact_distribution(d, boxes, spectrum)
    return log_sum_exp(dist.log_probs + weighted_dots(dist.rows, eta)) / boxes


def j_equivalence_gap(d: int, boxes: int, spectrum: Spectrum, eta: Sequence[float]) -> float:
    """(1/N)(ln J - ln J') for the tilted character sum and its highest-weight proxy.

    J sums the true tilted frame probabilities; J' replaces each character
    by exp(Y . h). The highest-weight bounds force the gap into
    [0, (1/N) ln p(N)] with p the polynomial dimension bound, so it vanishes
    as N grows.
    """
    if boxes < 1:
        raise ValueError("need at least one box")
    _check_tilt(eta, d)
    if any(a < b for a, b in zip(eta, list(eta)[1:])):
        raise ValueError(f"tilt vector must be non-increasing: {tuple(eta)}")
    dist = exact_distribution(d, boxes, spectrum)
    log_j = log_sum_exp(dist.log_probs + weighted_dots(dist.rows, eta))
    tilted_h = [h + float(x) for h, x in zip(log_each(spectrum), eta)]
    log_j_proxy = log_sum_exp(weighted_dots(dist.rows, tilted_h) + log_frobenius_dims(dist.rows, dist.boxes))
    return (log_j - log_j_proxy) / boxes


@dataclass(frozen=True)
class RegionInfimum:
    """Infimum of the rate over a region, with a feasible witness when one exists."""

    value: float
    minimizer: Spectrum | None


def _half_space_pieces(region: BallComplement | HalfSpace, d: int) -> list[tuple[np.ndarray, float]]:
    """Half-spaces a . s >= b whose union is the region (closed, for a ball complement)."""
    if isinstance(region, HalfSpace):
        return [(np.asarray(region.normal, dtype=float), region.offset)]
    pieces = []
    for j, center in enumerate(region.center):
        axis = np.zeros(d)
        axis[j] = 1.0
        pieces.append((axis, float(center) + float(region.radius)))
        pieces.append((-axis, float(region.radius) - float(center)))
    return pieces


def _antitonic(values: np.ndarray) -> np.ndarray:
    """Least-squares non-increasing fit of ``values``, by pooling adjacent violators."""
    sums: list[float] = []
    counts: list[int] = []
    for total in values.tolist():
        count = 1
        while sums and sums[-1] * count < total * counts[-1]:
            total += sums.pop()
            count += counts.pop()
        sums.append(total)
        counts.append(count)
    return np.repeat([s / c for s, c in zip(sums, counts)], counts)


def _piece_minimizer(region: Region, reference: Spectrum, normal: np.ndarray, offset: float) -> Spectrum | None:
    """Region member at the rate minimizer over the piece a . s >= b, or None.

    On the support (first k entries) of r, D(s||r) - t a . s is least over
    the ordered simplex at s(t) = exp(m(t)) / sum exp(m(t)), m(t) the
    antitonic fit of ln r + t a (Csiszar's I-projection). a . s(t) and
    D(s(t)||r) grow with t >= 0, so t is 0 when r lies in the piece and is
    otherwise found by bisection; it is then stepped just past the
    boundary until the region holds s(t).
    """
    d, k = reference.d, reference.support_size()
    log_r, a = np.log(reference.values[:k]), normal[:k]
    if np.max(np.cumsum(a) / np.arange(1, k + 1)) < offset:
        return None  # every vertex (1/j, ..., 1/j, 0, ...) with j <= k falls short

    def point(t: float) -> Spectrum:
        if t == 0.0:
            return reference
        m = _antitonic(log_r + t * a)
        weights = np.exp(m - m[0])
        total = weights.sum()
        weights[total + weights == total] = 0.0  # kept, an entry the sum cannot see puts s past 1
        return Spectrum(tuple((weights / weights.sum()).tolist()) + (0.0,) * (d - k))

    def reaches(t: float) -> bool:
        return math.fsum((a * point(t).values[:k]).tolist()) >= offset

    lo = hi = 0.0
    if not reaches(0.0):
        hi = 1.0
        while not reaches(hi):
            if hi > 2.0**200:
                return None  # b is reached only in the limit, at a vertex
            lo, hi = hi, 2.0 * hi
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    step = hi - lo or 2.0**-60
    for _ in range(64):
        candidate = point(hi)
        if region.contains_point(candidate.values):
            return candidate
        hi, step = hi + step, 2.0 * step
    return None


def _lattice(d: int) -> Iterator[tuple[float, ...]]:
    """Points k/200 of the closed ordered simplex, lexicographically decreasing."""
    rows = frame_rows(d, _GRID_RESOLUTION)
    for start in range(0, len(rows), _LATTICE_CHUNK):
        yield from map(tuple, (rows[start : start + _LATTICE_CHUNK] / _GRID_RESOLUTION).tolist())


def _toward_reference(region: Region, reference: Spectrum, seed: tuple[float, ...]) -> Spectrum:
    """A region member on the segment from r to the member ``seed``, bisected toward r.

    The rate is convex and zero at r, so it grows along the segment.
    """
    lo, hi, best = 0.0, 1.0, seed
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        point = tuple((1.0 - mid) * a + mid * b for a, b in zip(reference, seed))
        if region.contains_point(point):
            hi, best = mid, point
        else:
            lo = mid
    return Spectrum(best)


def inf_rate_over_region(region: Region, reference: Spectrum) -> RegionInfimum:
    """Minimize the rate over a region; the minimizer is always a region member.

    Ball complements and half-spaces are unions of half-spaces. The
    minimizer over each piece (intersected with the ordered simplex) lies
    on the exponential tilt path of r and is found exactly, by bisection on
    the tilt with one antitonic fit per step (``_piece_minimizer``). A
    linear function peaks over the ordered simplex at one of its vertices
    (1/k, ..., 1/k, 0, ..., 0), so the region is empty exactly when it
    holds none of them; the vertices it holds are candidates too, which
    keeps a region whose every point has infinite rate from being reported
    empty. Frame lists are searched directly. Any other region is seeded
    from the lattice of spacing 1/200 and each of the 8 best seeds is
    bisected toward r; a lattice of more than ``MAX_LATTICE_POINTS`` points
    raises ResourceLimitError before the region is called. Raises
    EmptyRegionError when no member is found.
    """
    d = reference.d

    if isinstance(region, FrameSet):
        best = None
        for rows in sorted(region.rows_set, reverse=True):
            total = sum(rows)
            if total == 0:
                continue
            point = Spectrum(tuple(v / total for v in rows))
            value = rate(point, reference)
            if best is None or value < best.value:
                best = RegionInfimum(value=value, minimizer=point)
        if best is None:
            raise EmptyRegionError("frame list region contains no usable frame")
        return best

    if isinstance(region, (BallComplement, HalfSpace)):
        vertices = [(1.0 / k,) * k + (0.0,) * (d - k) for k in range(1, d + 1)]
        candidates = [Spectrum(v) for v in vertices if region.contains_point(v)]
        for piece in _half_space_pieces(region, d):
            member = _piece_minimizer(region, reference, *piece)
            if member is not None:
                candidates.append(member)
    else:
        points = frame_count(d, _GRID_RESOLUTION)
        if points > MAX_LATTICE_POINTS:
            raise ResourceLimitError(
                f"predicate regions are seeded from a lattice capped at {MAX_LATTICE_POINTS} "
                f"points; d={d} has {points}"
            )
        if region.contains_point(reference.values):
            candidates = [reference]
        else:
            # nsmallest keeps lattice order among equal rates, as a stable sort would
            seeds = heapq.nsmallest(
                8, filter(region.contains_point, _lattice(d)), key=lambda point: rate(point, reference)
            )
            candidates = [_toward_reference(region, reference, seed) for seed in seeds]

    if not candidates:
        raise EmptyRegionError("region contains no point of the ordered simplex")

    best_point = min(candidates, key=lambda p: rate(p, reference))
    return RegionInfimum(value=rate(best_point, reference), minimizer=best_point)


@dataclass(frozen=True)
class RatePoint:
    """One scan sample: box count, log region probability, and decay rate."""

    boxes: int
    log_prob: float
    decay: float
    empty: bool


@dataclass(frozen=True)
class RateProfile:
    """Decay-rate scan against the rate-function target."""

    region: Region
    points: tuple[RatePoint, ...]
    target: RegionInfimum


def rate_scan(d: int, spectrum: Spectrum, region: Region, boxes_list: Sequence[int]) -> RateProfile:
    """Tabulate a_N = -(1/N) ln K_N(region) against inf of the rate over the region."""
    if not boxes_list:
        raise ValueError("need at least one box count")
    if any(n < 1 for n in boxes_list):
        raise ValueError("box counts must be positive")
    for n in boxes_list:
        check_enumeration_cap(d, n)
    table = SchurTable(spectrum, max(boxes_list))
    try:
        target = inf_rate_over_region(region, spectrum)
    except EmptyRegionError:
        target = RegionInfimum(value=math.inf, minimizer=None)
    points = []
    for n in boxes_list:
        dist = exact_distribution(d, n, spectrum, table=table)
        log_prob = region_log_probability(dist, region)
        if log_prob == NEG_INF:
            points.append(RatePoint(boxes=n, log_prob=NEG_INF, decay=math.inf, empty=True))
        else:
            points.append(
                RatePoint(boxes=n, log_prob=log_prob, decay=-log_prob / n, empty=False)
            )
    return RateProfile(region=region, points=tuple(points), target=target)
