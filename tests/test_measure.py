import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_spectrum
from oracles import (
    ball_complement_contains,
    hook_length_count,
    uniform_law_probability,
    word_shape_distribution,
)

from spectrum_scope import (
    BallComplement,
    FrameSet,
    HalfSpace,
    PredicateRegion,
    ResourceLimitError,
    SchurTable,
    SchurWeylDistribution,
    Spectrum,
    YoungFrame,
    brute_force_frame_probability,
    distribution_mode,
    enumerate_frames,
    exact_distribution,
    expectation_of,
    frame_count,
    inf_rate_over_region,
    region_log_probability,
    region_probability,
)
from spectrum_scope.logspace import NEG_INF, log_sum_exp


class TestExactDistribution:
    def test_two_copies_balanced(self):
        dist = exact_distribution(2, 2, Spectrum((0.5, 0.5)))
        assert dist.prob(YoungFrame((2, 0))) == pytest.approx(0.75, abs=1e-14)
        assert dist.prob(YoungFrame((1, 1))) == pytest.approx(0.25, abs=1e-14)

    def test_three_copies_uniform(self):
        dist = exact_distribution(3, 3, Spectrum((1 / 3, 1 / 3, 1 / 3)))
        assert dist.prob(YoungFrame((3, 0, 0))) == pytest.approx(10 / 27, abs=1e-14)
        assert dist.prob(YoungFrame((2, 1, 0))) == pytest.approx(16 / 27, abs=1e-14)
        assert dist.prob(YoungFrame((1, 1, 1))) == pytest.approx(1 / 27, abs=1e-14)

    def test_one_level_system(self):
        dist = exact_distribution(1, 10, Spectrum((1.0,)))
        assert dist.prob(YoungFrame((10,))) == pytest.approx(1.0, abs=1e-14)
        assert len(dist.frames) == 1

    def test_normalization_random(self):
        rng = np.random.default_rng(41)
        for d in (2, 3, 4):
            spectrum = random_spectrum(rng, d)
            table = SchurTable(spectrum, 35)
            for n in (1, 9, 35):
                dist = exact_distribution(d, n, spectrum, table=table)
                assert abs(dist.total_log_prob()) <= 1e-10

    def test_matches_word_enumeration_oracle(self):
        # fully independent route: enumerate every letter word and insert it
        for d, n_max in ((2, 6), (3, 4)):
            rng = np.random.default_rng(43 + d)
            spectrum = random_spectrum(rng, d)
            for n in range(1, n_max + 1):
                dist = exact_distribution(d, n, spectrum)
                words = word_shape_distribution(d, n, spectrum.values)
                assert set(words) == {f.rows for f in dist.frames}
                for frame, lp in dist.items():
                    assert math.exp(lp) == pytest.approx(words[frame.rows], abs=1e-12)

    def test_matches_cycle_type_oracle(self):
        rng = np.random.default_rng(47)
        for d, n_max in ((2, 6), (3, 6), (5, 8)):
            spectrum = random_spectrum(rng, d)
            for n in range(1, n_max + 1):
                dist = exact_distribution(d, n, spectrum)
                for frame, lp in dist.items():
                    expected = brute_force_frame_probability(frame, spectrum)
                    assert abs(math.exp(lp) - expected) <= 1e-10

    def test_permutation_safety(self):
        shuffled = Spectrum.from_unsorted((0.1, 0.6, 0.3))
        canonical = Spectrum((0.6, 0.3, 0.1))
        a = exact_distribution(3, 12, shuffled)
        b = exact_distribution(3, 12, canonical)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.log_probs, b.log_probs)

    @pytest.mark.parametrize(
        # N = 128: the first size whose frame (N, 0) does not fit in a signed byte
        "boxes, values", [(200, (0.5, 0.3, 0.2)), (100, (0.4, 0.3, 0.2, 0.1)), (128, (0.6, 0.4))]
    )
    def test_log_probs_are_schur_plus_log_hook_count(self, boxes, values):
        # bit-for-bit: the outcome law must not depend on how f^Y is computed
        spectrum = Spectrum(values)
        table = SchurTable(spectrum, boxes)
        dist = exact_distribution(len(values), boxes, spectrum, table=table)
        for frame, lp in dist.items():
            assert lp == table.log_value(frame.rows) + math.log(hook_length_count(frame.rows))

    def test_columns_are_read_only(self):
        dist = exact_distribution(3, 6, Spectrum((0.5, 0.3, 0.2)))
        assert dist.rows.dtype == np.int64 and dist.rows.shape == (7, 3)
        assert dist.log_probs.dtype == np.float64 and dist.log_probs.shape == (7,)
        with pytest.raises(ValueError):
            dist.rows[0, 0] = 1
        with pytest.raises(ValueError):
            dist.log_probs[0] = 0.0

    def test_log_prob_of_a_frame_outside_the_law(self):
        dist = exact_distribution(2, 3, Spectrum((0.6, 0.4)))
        assert dist.log_prob(YoungFrame((2, 1))) == pytest.approx(math.log(dist.prob(YoungFrame((2, 1)))))
        # a frame of another box count, and one with more rows than the law
        for frame in (YoungFrame((2, 2)), YoungFrame((2, 1, 0))):
            with pytest.raises(KeyError):
                dist.log_prob(frame)

    def test_dimension_cap(self):
        # no cap on d itself: the frame count and the table size are capped
        dist = exact_distribution(5, 3, Spectrum((0.2,) * 5))
        assert len(dist.frames) == 3
        assert abs(dist.total_log_prob()) <= 1e-12
        with pytest.raises(ResourceLimitError, match="frames"):
            exact_distribution(5, 400, Spectrum((0.2,) * 5))
        with pytest.raises(ResourceLimitError, match="bytes"):
            exact_distribution(1000, 16, Spectrum((0.001,) * 1000))

    @pytest.mark.parametrize("d", [66, 1000])
    @pytest.mark.parametrize("boxes", [0, 1, 2, 3])
    def test_uniform_law_past_numpy_axis_limit(self, d, boxes):
        dist = exact_distribution(d, boxes, Spectrum((1 / d,) * d))
        assert len(dist.log_probs) == frame_count(d, boxes)
        for frame, lp in dist.items():
            assert abs(lp - math.log(uniform_law_probability(frame.rows, d))) <= 1e-13

    @pytest.mark.parametrize("d, boxes", [(5, 60), (6, 25)])
    def test_normalized_beyond_four_rows(self, d, boxes):
        dist = exact_distribution(d, boxes, random_spectrum(np.random.default_rng(d), d))
        assert abs(dist.total_log_prob()) <= 1e-10

    def test_box_cap(self):
        with pytest.raises(ResourceLimitError, match="N <= 400"):
            exact_distribution(2, 401, Spectrum((0.5, 0.5)))

    def test_spectrum_dimension_checked(self):
        with pytest.raises(ValueError):
            exact_distribution(2, 3, Spectrum((0.5, 0.3, 0.2)))

    def test_foreign_table_rejected(self):
        table = SchurTable(Spectrum((0.6, 0.4)), 5)
        with pytest.raises(ValueError):
            exact_distribution(2, 5, Spectrum((0.5, 0.5)), table=table)


class TestRegions:
    def test_whole_simplex(self):
        dist = exact_distribution(2, 6, Spectrum((0.7, 0.3)))
        everything = PredicateRegion(lambda s: True)
        assert region_probability(dist, everything) == pytest.approx(1.0, abs=1e-12)

    def test_half_space_two_copies(self):
        dist = exact_distribution(2, 2, Spectrum((0.5, 0.5)))
        region = HalfSpace(normal=(1.0, 0.0), offset=0.9)
        assert region_probability(dist, region) == pytest.approx(0.75, abs=1e-13)

    def test_radius_one_complement_is_empty(self):
        dist = exact_distribution(2, 4, Spectrum((0.8, 0.2)))
        region = BallComplement(center=(0.8, 0.2), radius=1.0)
        assert region_probability(dist, region) == 0.0
        assert region_log_probability(dist, region) == NEG_INF

    def test_exact_boundary_frames_are_excluded(self):
        # estimate (0.8, 0.2) sits exactly on the radius-1/10 sphere around
        # 7/10; rational comparison keeps it out of the open complement even
        # though float subtraction lands strictly above 0.1
        from fractions import Fraction

        region = BallComplement(
            center=(Fraction(7, 10), Fraction(3, 10)), radius=Fraction(1, 10)
        )
        boundary = YoungFrame((8, 2))
        assert not region.contains_estimate(boundary)
        assert (0.8 - 0.7) > 0.1
        assert region.contains_estimate(YoungFrame((9, 1)))

    def test_exact_half_space_boundary_frames_are_included(self):
        # estimate (0.6, 0.3, 0.1) sits exactly on s1 + s2 = 9/10; the float
        # sum 0.6 + 0.3 lands just below it
        region = HalfSpace(normal=(1, 1, 0), offset=Fraction(9, 10))
        assert 0.6 + 0.3 < Fraction(9, 10)
        assert region.contains_estimate(YoungFrame((6, 3, 1)))
        assert not region.contains_estimate(YoungFrame((5, 3, 2)))
        rows = np.array([[6, 3, 1], [5, 3, 2], [7, 3, 0]], dtype=np.int64)
        assert region.contains_estimates(rows).tolist() == [True, False, True]
        # the binary float 0.9 lies just above 9/10, so it keeps the boundary out
        binary = HalfSpace(normal=(1.0, 1.0, 0.0), offset=0.9)
        assert binary.contains_estimates(rows).tolist() == [False, False, True]

    def test_zero_radius_keeps_everything_but_the_center(self):
        region = BallComplement(center=(0.75, 0.25), radius=0.0)
        assert not region.contains_estimate(YoungFrame((6, 2)))
        assert region.contains_estimate(YoungFrame((5, 3)))

    def test_frame_set_membership(self):
        region = FrameSet.of([YoungFrame((3, 1))])
        assert region.contains_estimate(YoungFrame((3, 1)))
        assert not region.contains_estimate(YoungFrame((2, 2)))
        dist = exact_distribution(2, 4, Spectrum((0.6, 0.4)))
        assert region_probability(dist, region) == pytest.approx(
            dist.prob(YoungFrame((3, 1))), abs=1e-15
        )


class TestRegionDimension:
    """Region data of the wrong length raise instead of broadcasting or truncating."""

    dist = exact_distribution(2, 10, Spectrum((0.7, 0.3)))

    def test_short_ball_center(self):
        with pytest.raises(ValueError):
            region_probability(self.dist, BallComplement(center=(0.7,), radius=0.1))

    def test_short_half_space_normal(self):
        with pytest.raises(ValueError):
            region_probability(self.dist, HalfSpace(normal=(1.0,), offset=0.75))

    def test_long_ball_center_for_the_rate_infimum(self):
        region = BallComplement(center=(0.5, 0.3, 0.2), radius=0.1)
        with pytest.raises(ValueError):
            inf_rate_over_region(region, Spectrum((0.7, 0.3)))


@st.composite
def ball_cases(draw):
    """Frames with d rows and 1..60 boxes each, and a ball whose sphere passes
    exactly through the first frame's estimate in one coordinate."""
    d = draw(st.integers(1, 5))

    def frame():
        n = draw(st.integers(1, 60))
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=d - 1, max_size=d - 1)))
        return tuple(sorted((b - a for a, b in zip([0, *cuts], [*cuts, n])), reverse=True))

    rows = [frame() for _ in range(draw(st.integers(1, 12)))]
    radius = draw(
        st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 10)])
        | st.fractions(0, 1, max_denominator=60)
    )
    center = [Fraction(y, sum(rows[0])) for y in rows[0]]
    center[draw(st.integers(0, d - 1))] += draw(st.sampled_from([radius, -radius]))
    return rows, tuple(center), radius


@given(ball_cases(), st.booleans())
@settings(max_examples=300, deadline=None)
@example((((8, 2), (9, 1), (7, 3)), (Fraction(7, 10), Fraction(3, 10)), Fraction(1, 10)), False)
@example((((8, 2), (9, 1), (7, 3)), (Fraction(7, 10), Fraction(3, 10)), Fraction(1, 10)), True)
@example((((6, 2), (5, 3)), (Fraction(3, 4), Fraction(1, 4)), Fraction(0)), True)
def test_ball_membership_matches_exact_oracle(case, binary):
    # binary: the same data as binary floats, which the oracle reads exactly
    rows, center, radius = case
    if binary:
        center, radius = tuple(float(c) for c in center), float(radius)
    region = BallComplement(center=center, radius=radius)
    got = region.contains_estimates(np.array(rows, dtype=np.int64))
    assert got.tolist() == [ball_complement_contains(r, center, radius) for r in rows]


def test_ball_region_log_probability_matches_oracle_members():
    spectrum = Spectrum((0.4, 0.3, 0.2, 0.1))
    dist = exact_distribution(4, 60, spectrum)
    decimal = tuple(Fraction(v).limit_denominator(10) for v in spectrum.values)
    for center, radius in [
        (decimal, Fraction(1, 10)),
        (spectrum.values, 0.1),
        (decimal, Fraction(0)),
        ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(0)), Fraction(1, 20)),
    ]:
        members = [
            lp for frame, lp in dist.items() if ball_complement_contains(frame.rows, center, radius)
        ]
        region = BallComplement(center=center, radius=radius)
        assert region_log_probability(dist, region) == log_sum_exp(members)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda bad: HalfSpace(normal=(bad, 0.0), offset=0.5),
        lambda bad: HalfSpace(normal=(1.0, 0.0), offset=bad),
        lambda bad: BallComplement(center=(0.7, bad), radius=0.1),
        lambda bad: BallComplement(center=(0.7, 0.3), radius=bad),
    ],
    ids=["normal", "offset", "center", "radius"],
)
def test_region_rejects_non_finite_data(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)


class TestMode:
    def test_skewed_two_copies(self):
        dist = exact_distribution(2, 2, Spectrum((0.9, 0.1)))
        assert distribution_mode(dist).rows == (2, 0)

    def test_single_row(self):
        dist = exact_distribution(1, 7, Spectrum((1.0,)))
        assert distribution_mode(dist).rows == (7,)

    def test_tie_breaks_lexicographically(self):
        flat = SchurWeylDistribution(
            spectrum=Spectrum((0.5, 0.5)),
            rows=[frame.rows for frame in enumerate_frames(2, 4)],
            log_probs=[math.log(1 / 3)] * 3,
        )
        assert distribution_mode(flat).rows == (4, 0)

    def test_figure_scale_mode_near_truth(self):
        spectrum = Spectrum((0.6, 0.3, 0.1))
        dist = exact_distribution(3, 120, spectrum)
        mode = distribution_mode(dist)
        for row, target in zip(mode.rows, spectrum.values):
            assert abs(row / 120 - target) <= 0.05


class TestExpectation:
    def test_constant_function(self):
        dist = exact_distribution(2, 5, Spectrum((0.6, 0.4)))
        assert expectation_of(dist, lambda s: 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_leading_coordinate_two_copies(self):
        dist = exact_distribution(2, 2, Spectrum((0.5, 0.5)))
        assert expectation_of(dist, lambda s: s[0]) == pytest.approx(0.875, abs=1e-13)

    def test_l1_error_shrinks(self):
        spectrum = Spectrum((0.7, 0.3))
        table = SchurTable(spectrum, 200)
        f = lambda s: abs(s[0] - 0.7) + abs(s[1] - 0.3)
        values = [
            expectation_of(exact_distribution(2, n, spectrum, table=table), f)
            for n in (50, 100, 200)
        ]
        assert values[0] > values[1] > values[2]


class TestConcentration:
    def test_error_probability_eventually_decreases(self):
        spectrum = Spectrum((0.7, 0.3))
        region = BallComplement(center=spectrum.values, radius=0.1)
        table = SchurTable(spectrum, 200)
        ns = list(range(20, 201, 20))
        probs = [
            region_probability(exact_distribution(2, n, spectrum, table=table), region)
            for n in ns
        ]
        peak = probs.index(max(probs))
        for i in range(max(peak, 1), len(probs) - 1):
            assert probs[i + 1] < probs[i]
