import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_spectrum, spectra

from spectrum_scope import (
    BallComplement,
    ConvergenceError,
    EmptyRegionError,
    FrameSet,
    HalfSpace,
    PredicateRegion,
    ResourceLimitError,
    Spectrum,
    YoungFrame,
    cgf,
    cgf_gradient,
    dim_poly_bound,
    empirical_cgf,
    exact_distribution,
    inf_rate_over_region,
    j_equivalence_gap,
    legendre_of_cgf,
    rate,
    rate_scan,
)
from spectrum_scope import ldp
from oracles import partition_tuples


def binary_rate(s1: float, r1: float) -> float:
    total = 0.0
    for a, b in ((s1, r1), (1 - s1, 1 - r1)):
        if a > 0:
            total += a * math.log(a / b)
    return total


class TestRate:
    def test_zero_at_reference(self):
        for values in [(1.0,), (0.5, 0.5), (0.6, 0.3, 0.1)]:
            assert rate(values, values) == 0.0

    def test_point_mass_against_balanced(self):
        assert rate((1.0, 0.0), (0.5, 0.5)) == pytest.approx(math.log(2), abs=1e-14)

    def test_closed_form(self):
        expected = 0.8 * math.log(0.8 / 0.6) + 0.2 * math.log(0.2 / 0.4)
        assert rate((0.8, 0.2), (0.6, 0.4)) == pytest.approx(expected, abs=1e-14)
        assert rate((0.8, 0.2), (0.6, 0.4)) == pytest.approx(0.091515, abs=5e-6)

    def test_infinite_off_support(self):
        assert rate((0.5, 0.5), (1.0, 0.0)) == math.inf

    def test_zero_coordinates_drop_out(self):
        assert rate((1.0, 0.0), (1.0, 0.0)) == 0.0

    @given(spectra(), spectra())
    @settings(max_examples=60, deadline=None)
    def test_pinsker_floor(self, s, r):
        if s.d != r.d:
            return
        l1 = sum(abs(a - b) for a, b in zip(s.values, r.values))
        assert rate(s, r) >= 0.5 * l1 * l1 - 1e-12


class TestCgf:
    def test_zero_tilt(self):
        assert cgf((0.0, 0.0), (0.5, 0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_balanced_closed_form(self):
        for t in (-2.0, -0.3, 0.5, 3.0):
            expected = math.log((math.exp(t) + 1) / 2)
            assert cgf((t, 0.0), (0.5, 0.5)) == pytest.approx(expected, abs=1e-13)

    def test_three_level_closed_form(self):
        expected = math.log(0.6 * math.e + 0.3 + 0.1 / math.e)
        assert cgf((1.0, 0.0, -1.0), (0.6, 0.3, 0.1)) == pytest.approx(expected, abs=1e-13)

    @given(spectra(d_min=2, d_max=4), st.floats(-5, 5), st.floats(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_tilt_shift_identity(self, r, base, shift):
        eta = tuple(base + 0.1 * j for j in range(r.d))
        lifted = tuple(e + shift for e in eta)
        assert cgf(lifted, r) - cgf(eta, r) == pytest.approx(shift, abs=1e-12)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(53)
        step = 1e-5
        for _ in range(20):
            d = int(rng.integers(2, 5))
            r = random_spectrum(rng, d)
            eta = rng.normal(0.0, 1.0, size=d)
            grad = cgf_gradient(eta, r)
            for j in range(d):
                up = np.array(eta)
                up[j] += step
                down = np.array(eta)
                down[j] -= step
                numeric = (cgf(up, r) - cgf(down, r)) / (2 * step)
                assert abs(numeric - grad[j]) <= 1e-6

    def test_gradient_sums_to_one(self):
        grad = cgf_gradient((0.3, -0.2, 0.1), Spectrum((0.5, 0.3, 0.2)))
        assert grad.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gradient_rejects_a_tilt_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="2 entries"):
            cgf_gradient((0.0,), (0.5, 0.5))

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan)])
    def test_gradient_rejects_nan_or_plus_infinite_tilt(self, bad):
        with pytest.raises(ValueError, match="finite or -inf"):
            cgf_gradient(bad, (0.6, 0.4))

    def test_gradient_rejects_a_tilt_that_is_minus_infinite_on_the_support(self):
        with pytest.raises(ValueError, match="every level of the support"):
            cgf_gradient((-math.inf, -math.inf), (0.6, 0.4))
        with pytest.raises(ValueError, match="every level of the support"):
            cgf_gradient((-math.inf, 0.0), (1.0, 0.0))
        # one supported level left carries all the weight
        assert cgf_gradient((-math.inf, 0.0), (0.6, 0.4)).tolist() == [0.0, 1.0]


class TestLegendre:
    def test_zero_at_reference(self):
        result = legendre_of_cgf(Spectrum((0.6, 0.4)), Spectrum((0.6, 0.4)))
        assert result.value == pytest.approx(0.0, abs=1e-12)
        assert max(result.eta) - min(result.eta) == pytest.approx(0.0, abs=1e-6)

    def test_matches_rate_closed_form(self):
        result = legendre_of_cgf(Spectrum((0.8, 0.2)), Spectrum((0.6, 0.4)))
        assert result.value == pytest.approx(rate((0.8, 0.2), (0.6, 0.4)), abs=1e-8)

    def test_uniform_reference(self):
        s = Spectrum((0.5, 0.3, 0.2))
        r = Spectrum((1 / 3, 1 / 3, 1 / 3))
        assert legendre_of_cgf(s, r).value == pytest.approx(rate(s, r), abs=1e-8)

    def test_optimal_tilt_certificate(self):
        # the spread of the optimizer must match ln(s_j / r_j) up to a shift
        s, r = Spectrum((0.5, 0.3, 0.2)), Spectrum((0.6, 0.3, 0.1))
        eta = legendre_of_cgf(s, r).eta
        expected = [math.log(a / b) for a, b in zip(s.values, r.values)]
        offsets = [e - x for e, x in zip(eta, expected)]
        assert max(offsets) - min(offsets) <= 1e-6

    def test_boundary_point_via_support_reduction(self):
        s = Spectrum((1.0, 0.0))
        r = Spectrum((0.6, 0.4))
        result = legendre_of_cgf(s, r)
        assert result.value == pytest.approx(math.log(1 / 0.6), abs=1e-10)
        assert result.eta[1] == -math.inf

    def test_off_support_is_infinite(self):
        result = legendre_of_cgf(Spectrum((0.5, 0.5)), Spectrum((1.0, 0.0)))
        assert result.value == math.inf

    def test_duality_on_random_pairs(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            s, r = random_spectrum(rng, d), random_spectrum(rng, d)
            result = legendre_of_cgf(s, r)
            assert abs(result.value - rate(s, r)) <= 1e-8

    def test_duality_on_sparse_random_pairs(self):
        # Dirichlet(0.05) puts eigenvalues far below 1e-12 of the largest,
        # where a truncated Hessian solve loses directions
        rng = np.random.default_rng(61)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            s = Spectrum.from_unsorted(rng.dirichlet(np.full(d, 0.05)))
            r = Spectrum.from_unsorted(rng.dirichlet(np.full(d, 0.05)))
            result = legendre_of_cgf(s, r)
            expected = rate(s, r)
            if math.isfinite(expected):
                assert abs(result.value - expected) <= 1e-8, (s, r)

    def test_subnormal_eigenvalue(self):
        # s / w starts near 1e323, past the largest float
        s, r = Spectrum((0.6, 0.4)), Spectrum((1.0, 5e-324))
        assert legendre_of_cgf(s, r).value == pytest.approx(rate(s, r), abs=1e-8)

    @pytest.mark.parametrize("tiny", [1e-300, 5e-324])
    def test_far_optimum_in_few_steps(self, tiny):
        # the optimal tilt spread is about |ln tiny| ~ 700; a step cap that
        # doubles after each capped step reaches it in a few dozen steps
        s, r = Spectrum((0.6, 0.4)), Spectrum((1.0, tiny))
        result = legendre_of_cgf(s, r)
        assert result.iterations <= 30
        assert result.value == pytest.approx(rate(s, r), abs=1e-8)

    def test_budget_exhaustion_raises_with_iterate(self, monkeypatch):
        monkeypatch.setattr(ldp, "_MAX_ITERATIONS", 0)
        with pytest.raises(ConvergenceError) as info:
            legendre_of_cgf(Spectrum((0.9, 0.1)), Spectrum((0.6, 0.4)))
        assert info.value.last_iterate is not None


class TestEmpiricalCgf:
    def test_zero_tilt_is_normalization(self):
        assert abs(empirical_cgf(2, 37, Spectrum((0.7, 0.3)), (0.0, 0.0))) <= 1e-10

    def test_single_level(self):
        for n in (1, 5, 20):
            assert empirical_cgf(1, n, Spectrum((1.0,)), (0.8,)) == pytest.approx(0.8, abs=1e-12)

    def test_close_to_limit_at_moderate_size(self):
        r = Spectrum((0.7, 0.3))
        eta = (0.5, 0.0)
        value = empirical_cgf(2, 200, r, eta)
        assert abs(value - cgf(eta, r)) <= 0.02

    def test_convergence_bound(self):
        # |(1/N) ln E e^{eta.Y} - c(eta)| <= (d(d-1)/2) ln(N+1)/N + 2/N
        cases = [
            (2, Spectrum((0.7, 0.3)), (0.4, 0.0)),
            (3, Spectrum((0.5, 0.3, 0.2)), (0.4, 0.0, -0.4)),
        ]
        for d, r, eta in cases:
            limit = cgf(eta, r)
            for n in (50, 100, 200, 300):
                value = empirical_cgf(d, n, r, eta)
                bound = (d * (d - 1) / 2) * math.log(n + 1) / n + 2 / n
                assert abs(value - limit) <= bound

    def test_minus_infinite_tilt_drops_the_level(self):
        # the tilt Legendre ascent returns for s = (1, 0): only the frame (10, 0) is left
        r = Spectrum((0.6, 0.4))
        eta = legendre_of_cgf((1.0, 0.0), r).eta
        assert eta == (0.0, -math.inf)
        expected = math.log((0.6**11 - 0.4**11) / 0.2) / 10
        assert empirical_cgf(2, 10, r, eta) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan)])
    def test_nan_or_plus_infinite_tilt_rejected(self, bad):
        r = Spectrum((0.6, 0.4))
        with pytest.raises(ValueError, match="finite or -inf"):
            cgf(bad, r)
        with pytest.raises(ValueError, match="finite or -inf"):
            empirical_cgf(2, 10, r, bad)
        with pytest.raises(ValueError, match="finite or -inf"):
            j_equivalence_gap(2, 10, r, bad)


class TestJEquivalenceGap:
    def test_single_level_is_exact(self):
        assert j_equivalence_gap(1, 7, Spectrum((1.0,)), (0.3,)) == pytest.approx(0.0, abs=1e-14)

    def test_zero_tilt_bounded_by_dimension_polynomial(self):
        r = Spectrum((0.6, 0.4))
        for n in (10, 40):
            gap = j_equivalence_gap(2, n, r, (0.0, 0.0))
            assert -1e-12 <= gap <= math.log(dim_poly_bound(2, n)) / n + 1e-12

    def test_magnitude_decreases(self):
        r = Spectrum((0.7, 0.3))
        gaps = [abs(j_equivalence_gap(2, n, r, (0.2, 0.0))) for n in (25, 50, 100)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] <= math.log(26) / 25 + 0.01

    def test_minus_infinite_tilt(self):
        # J = h_10(0.6, 0.4) and J' = 0.6^10, both from the frame (10, 0) alone
        r = Spectrum((0.6, 0.4))
        expected = math.log(math.fsum((2 / 3) ** k for k in range(11))) / 10
        assert j_equivalence_gap(2, 10, r, (0.0, -math.inf)) == pytest.approx(expected, abs=1e-13)

    def test_requires_non_increasing_tilt(self):
        with pytest.raises(ValueError):
            j_equivalence_gap(2, 5, Spectrum((0.6, 0.4)), (0.0, 0.5))


class TestInfRateOverRegion:
    def test_region_containing_reference(self):
        r = Spectrum((0.6, 0.4))
        region = HalfSpace(normal=(1.0, 0.0), offset=0.0)
        result = inf_rate_over_region(region, r)
        assert result.value == pytest.approx(0.0, abs=1e-10)
        assert result.minimizer.values == pytest.approx(r.values, abs=1e-5)

    def test_binary_entropy_gap(self):
        region = HalfSpace(normal=(1.0, 0.0), offset=0.6)
        result = inf_rate_over_region(region, Spectrum((0.5, 0.5)))
        assert result.value == pytest.approx(math.log(2) - binary_entropy(0.6), abs=1e-9)
        assert result.value == pytest.approx(0.020136, abs=5e-6)

    def test_ball_complement_two_levels(self):
        r = Spectrum((0.7, 0.3))
        region = BallComplement(center=r.values, radius=0.1)
        result = inf_rate_over_region(region, r)
        expected = min(binary_rate(0.8, 0.7), binary_rate(0.6, 0.7))
        assert result.value == pytest.approx(expected, abs=1e-9)
        assert region.contains_point(result.minimizer.values)

    def test_ball_complement_three_levels_against_grid(self):
        r = Spectrum((0.5, 0.3, 0.2))
        region = BallComplement(center=r.values, radius=0.1)
        result = inf_rate_over_region(region, r)
        grid_best = math.inf
        resolution = 600
        for a in range(resolution + 1):
            for b in range(min(a, resolution - a) + 1):
                c = resolution - a - b
                if not a >= b >= c >= 0:
                    continue
                point = (a / resolution, b / resolution, c / resolution)
                if region.contains_point(point):
                    grid_best = min(grid_best, rate(point, r))
        # the infimum sits on the open boundary, one gradient-times-spacing
        # step below the best strictly-interior grid point
        assert result.value <= grid_best + 1e-9
        assert result.value >= grid_best - 2e-3
        assert region.contains_point(result.minimizer.values)

    def test_frame_set(self):
        r = Spectrum((0.6, 0.4))
        region = FrameSet.of([YoungFrame((3, 1)), YoungFrame((2, 2))])
        result = inf_rate_over_region(region, r)
        assert result.value == pytest.approx(min(rate((0.75, 0.25), r), rate((0.5, 0.5), r)), abs=1e-12)

    def test_empty_region(self):
        with pytest.raises(EmptyRegionError):
            inf_rate_over_region(
                BallComplement(center=(0.5, 0.5), radius=1.0), Spectrum((0.5, 0.5))
            )

    def test_predicate_region(self):
        r = Spectrum((0.6, 0.4))
        region = PredicateRegion(lambda s: s[0] >= 0.75)
        result = inf_rate_over_region(region, r)
        assert result.value == pytest.approx(binary_rate(0.75, 0.6), abs=1e-4)

    def test_half_space_four_levels_closed_form(self):
        # I-projection: s1 = 0.8, the other three proportional to r
        result = inf_rate_over_region(HalfSpace((1.0, 0.0, 0.0, 0.0), 0.8), Spectrum((0.4, 0.3, 0.2, 0.1)))
        assert result.value == pytest.approx(0.8 * math.log(2) + 0.2 * math.log(1 / 3), abs=1e-9)

    def test_ball_complement_five_levels_closed_form(self, monkeypatch):
        r = Spectrum((0.3, 0.25, 0.2, 0.15, 0.1))
        region = BallComplement(center=r.values, radius=0.1)
        calls = []
        contains_point = BallComplement.contains_point
        monkeypatch.setattr(
            BallComplement, "contains_point", lambda self, v: calls.append(v) or contains_point(self, v)
        )
        result = inf_rate_over_region(region, r)
        # best piece s1 >= 0.4, the other four proportional to r
        assert result.value == pytest.approx(0.4 * math.log(4 / 3) + 0.6 * math.log(6 / 7), abs=1e-12)
        assert contains_point(region, result.minimizer.values)
        # one solve per half-space piece, no lattice search
        assert len(calls) < 1000

    def test_tied_minimizer_four_levels_closed_form(self):
        # the ordering ties s1 = s2 and s3 = s4 at the minimizer (0.3, 0.3, 0.2, 0.2)
        region = HalfSpace((-2.0, 2.0, -1.0, 2.0), 0.2)
        result = inf_rate_over_region(region, Spectrum((0.375, 0.375, 0.125, 0.125)))
        assert result.value == pytest.approx(0.6 * math.log(0.8) + 0.4 * math.log(1.6), abs=1e-12)
        assert region.contains_point(result.minimizer.values)

    def test_tied_minimizer_three_levels_closed_form(self):
        # s3 >= s2 meets the ordering only at s2 = s3: the tilt of (8, 7, 4)/19 pooled on its last two entries
        region = HalfSpace((0.0, -1.0, 1.0), 0.0)
        result = inf_rate_over_region(region, Spectrum((8 / 19, 7 / 19, 4 / 19)))
        assert result.value == pytest.approx(-math.log((8 + 2 * math.sqrt(28)) / 19), abs=1e-12)
        assert region.contains_point(result.minimizer.values)

    @pytest.mark.parametrize(
        "normal, offset, values, expected",
        [
            ((1.0, 0.0), 1.0, (0.5, 0.5), math.log(2)),
            ((1.0, 1.0, 0.0), 1.0, (0.4, 0.4, 0.2), -math.log(0.8)),
            ((1.0, 0.0, 0.0), 1.0, (0.6, 0.3, 0.1), -math.log(0.6)),
        ],
        ids=["d2", "d3-two-rows", "d3-one-row"],
    )
    def test_piece_reached_only_at_its_vertex(self, normal, offset, values, expected):
        # a . s >= b holds on the ordered simplex only at a vertex, the limit of the tilt path
        region = HalfSpace(normal, offset)
        result = inf_rate_over_region(region, Spectrum(values))
        assert result.value >= expected
        assert result.value == pytest.approx(expected, abs=1e-15)
        assert math.fsum(result.minimizer.values) == 1.0

    def test_never_above_the_lattice(self):
        rng = np.random.default_rng(61)
        for case in range(100):
            d = 3 + case % 2
            if case % 5 == 0:
                r = Spectrum(random_spectrum(rng, d - 1).values + (0.0,))
            else:
                r = random_spectrum(rng, d)
            if case % 2:
                region = BallComplement(center=r.values, radius=float(rng.choice([0.0, 0.02, 0.1, 0.25])))
            else:
                region = HalfSpace(tuple(rng.normal(size=d).round(2).tolist()), round(float(rng.normal(0.0, 0.5)), 2))
            resolution = 120 if d == 3 else 60
            lattice = (tuple(v / resolution for v in rows) for rows in partition_tuples(resolution, resolution, d))
            rates = [rate(point, r) for point in lattice if region.contains_point(point)]
            try:
                result = inf_rate_over_region(region, r)
            except EmptyRegionError:
                assert rates == [], (r, region)
                continue
            assert result.value <= min(rates, default=math.inf) + 1e-12, (r, region)
            assert region.contains_point(result.minimizer.values)

    def test_zero_radius_ball_is_zero(self):
        rng = np.random.default_rng(67)
        for d in (2, 3, 4, 5) * 10:
            r = random_spectrum(rng, d)
            region = BallComplement(center=r.values, radius=0.0)
            result = inf_rate_over_region(region, r)
            assert 0.0 <= result.value <= 1e-12
            assert region.contains_point(result.minimizer.values)

    def test_region_of_infinite_rate_is_not_empty(self):
        # s3 >= 0.1 meets the ordered simplex, but only where r = 0
        region = HalfSpace((0.0, 0.0, 1.0), 0.1)
        result = inf_rate_over_region(region, Spectrum((0.5, 0.5, 0.0)))
        assert result.value == math.inf
        assert region.contains_point(result.minimizer.values)

    def test_predicate_holding_the_reference_is_zero(self):
        r = Spectrum((0.4, 0.3, 0.2, 0.1))
        result = inf_rate_over_region(PredicateRegion(lambda s: True), r)
        assert result.value == 0.0
        assert result.minimizer == r

    def test_predicate_lattice_cap_is_checked_before_any_call(self):
        calls = []
        region = PredicateRegion(lambda s: calls.append(s) or True)
        with pytest.raises(ResourceLimitError, match="4775383"):
            inf_rate_over_region(region, Spectrum((0.25, 0.2, 0.2, 0.15, 0.1, 0.1)))
        assert calls == []

    def test_predicate_lattice_at_five_levels(self):
        # 643,287 lattice points, walked in blocks; the parent's value, bit for bit
        r = Spectrum((0.3, 0.25, 0.2, 0.15, 0.1))
        result = inf_rate_over_region(PredicateRegion(lambda s: s[0] >= 0.5), r)
        assert result.value == 0.08723433914026872


def binary_entropy(p: float) -> float:
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


class TestRateScan:
    def test_whole_simplex_has_zero_decay(self):
        r = Spectrum((0.6, 0.4))
        region = PredicateRegion(lambda s: True)
        profile = rate_scan(2, r, region, [5, 10])
        for point in profile.points:
            assert point.decay == pytest.approx(0.0, abs=1e-10)
            assert not point.empty

    def test_single_level_flags_infinite(self):
        r = Spectrum((1.0,))
        region = BallComplement(center=r.values, radius=0.05)
        profile = rate_scan(1, r, region, [4, 9])
        assert profile.target.value == math.inf
        for point in profile.points:
            assert point.empty
            assert point.decay == math.inf

    def test_decay_approaches_target_from_above(self):
        r = Spectrum((0.7, 0.3))
        region = BallComplement(center=r.values, radius=0.1)
        profile = rate_scan(2, r, region, [40, 80])
        assert profile.points[0].decay > profile.points[1].decay > profile.target.value
