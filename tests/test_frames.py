import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

import numpy as np

from conftest import partition_rows
from oracles import (
    count_partitions,
    frame_to_exact_estimate,
    hook_length_count,
    partition_tuples,
    ssyt_contents,
    standard_tableaux_count,
)

from spectrum_scope import (
    Spectrum,
    YoungFrame,
    dim_poly_bound,
    dim_symmetric_irrep,
    dim_unitary_irrep,
    enumerate_frames,
    frame_count,
    frame_rows,
    frame_to_estimate,
    log_dim_symmetric_irrep,
    log_dim_unitary_irrep,
)
from spectrum_scope.frames import _CHUNK_ROWS, frobenius_dims, log_frobenius_dims


class TestEnumeration:
    def test_two_rows_two_boxes(self):
        assert [f.rows for f in enumerate_frames(2, 2)] == [(2, 0), (1, 1)]

    def test_single_row_forced(self):
        assert [f.rows for f in enumerate_frames(1, 5)] == [(5,)]

    def test_three_rows_three_boxes(self):
        assert [f.rows for f in enumerate_frames(3, 3)] == [(3, 0, 0), (2, 1, 0), (1, 1, 1)]

    def test_zero_boxes(self):
        assert [f.rows for f in enumerate_frames(3, 0)] == [(0, 0, 0)]

    def test_rejects_no_rows(self):
        with pytest.raises(ValueError):
            list(enumerate_frames(0, 3))

    def test_lexicographically_decreasing_and_unique(self):
        for d in range(1, 5):
            for n in range(0, 18):
                frames = [f.rows for f in enumerate_frames(d, n)]
                assert frames == sorted(set(frames), reverse=True)
                assert all(len(rows) == d for rows in frames)
                assert all(sum(rows) == n for rows in frames)

    def test_count_matches_recursive_oracle(self):
        for d in range(1, 5):
            for n in range(0, 31):
                expected = count_partitions(n, d) if n else 1
                assert len(list(enumerate_frames(d, n))) == expected
                assert frame_count(d, n) == expected

    def test_frame_rows_match_the_recursive_oracle(self):
        sizes = [(d, n) for d in range(1, 7) for n in range(0, 41)]
        # N = 128, 256 and 32768 are the first sizes whose first part leaves a
        # signed byte, an unsigned byte and a signed 16-bit integer
        boundaries = [(2, 127), (3, 127), (2, 128), (4, 128), (2, 255), (3, 256), (2, 32767), (2, 32768)]
        for d, n in sizes + boundaries + [(3, 200), (4, 100), (66, 3), (1000, 3)]:
            rows = frame_rows(d, n)
            assert rows.dtype == np.int64 and rows.shape == (frame_count(d, n), d), (d, n)
            assert rows.tolist() == [list(t) for t in partition_tuples(n, n, d)], (d, n)

    def test_frame_rows_reject_bad_sizes(self):
        with pytest.raises(ValueError):
            frame_rows(0, 3)
        with pytest.raises(ValueError):
            frame_rows(3, -1)
        with pytest.raises(ValueError):
            list(enumerate_frames(3, -1))

    def test_count_table_matches_oracle_past_the_row_count(self):
        for d in range(0, 12):
            for n in range(0, 41):
                assert frame_count(d, n) == count_partitions(n, d)

    def test_count_far_past_the_recursion_limit(self):
        assert frame_count(1000, 3) == 3
        # partitions into at most three parts: round((N + 3)^2 / 12)
        assert frame_count(3, 1000) == round(1003**2 / 12) == 83834


class TestFrameValidation:
    def test_rejects_increasing_rows(self):
        with pytest.raises(ValueError):
            YoungFrame((1, 2))

    def test_rejects_negative_rows(self):
        with pytest.raises(ValueError):
            YoungFrame((2, -1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            YoungFrame(())


class TestSymmetricDimension:
    def test_hand_enumerated_hook(self):
        assert dim_symmetric_irrep(YoungFrame((2, 1))) == 2

    def test_single_row(self):
        assert dim_symmetric_irrep(YoungFrame((7,))) == 1

    def test_single_column(self):
        assert dim_symmetric_irrep(YoungFrame((1, 1, 1))) == 1

    def test_against_corner_removal_oracle(self):
        for d in range(1, 5):
            for n in range(0, 9):
                for frame in enumerate_frames(d, n):
                    assert dim_symmetric_irrep(frame) == standard_tableaux_count(frame.rows)

    def test_frobenius_matches_hook_length_oracle(self):
        for d in range(1, 6):
            for n in range(0, 31):
                for frame in enumerate_frames(d, n):
                    assert dim_symmetric_irrep(frame) == hook_length_count(frame.rows)

    @pytest.mark.parametrize(
        "rows",
        [
            (400, 0, 0), (399, 1, 0), (398, 1, 1), (200, 200, 0), (134, 133, 133),
            (400, 0, 0, 0), (397, 1, 1, 1), (200, 200, 0, 0), (100, 100, 100, 100),
            (101, 100, 100, 99), (250, 100, 40, 10),
        ],
    )
    def test_frobenius_matches_hook_length_oracle_at_cap(self, rows):
        assert dim_symmetric_irrep(YoungFrame(rows)) == hook_length_count(rows)

    def test_zero_rows_leave_the_count_and_cost_alone(self):
        start = time.perf_counter()
        for rows in [(2, 1), (5, 3, 1), (40, 30, 20, 10)]:
            padded = YoungFrame(rows + (0,) * (1000 - len(rows)))
            assert dim_symmetric_irrep(padded) == dim_symmetric_irrep(YoungFrame(rows)) == hook_length_count(rows)
            assert log_dim_symmetric_irrep(padded) == log_dim_symmetric_irrep(YoungFrame(rows))
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("d, n", [(3, 400), (3, 0), (1, 0), (7, 5), (66, 3), (4, 30)])
    def test_log_frobenius_dims_are_logs_of_the_hook_length_count(self, d, n):
        # bit for bit; d3 N400 has 13,534 frames, more than one block of exact integers
        rows = frame_rows(d, n)
        logs = log_frobenius_dims(rows, n)
        assert logs.dtype == np.float64 and logs.shape == (len(rows),)
        counts = [hook_length_count(r) for r in rows.tolist()]
        assert frobenius_dims(rows, n).tolist() == counts
        assert logs.tolist() == list(map(math.log, counts))
        if (d, n) == (3, 400):
            assert len(rows) > _CHUNK_ROWS

    def test_log_path_matches_exact_path(self):
        # the exact integer stays available far beyond float range; both log
        # paths take the log of that one integer, so they agree bit for bit
        for rows in [(3, 1), (10, 5, 2), (40, 30, 20, 10), (200, 120, 60, 20)]:
            frame = YoungFrame(rows)
            exact = math.log(dim_symmetric_irrep(frame))
            assert log_dim_symmetric_irrep(frame) == exact
            assert log_frobenius_dims(np.array([rows]), frame.boxes).tolist() == [exact]


class TestSpectrumValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Spectrum((1.0, bad))
        with pytest.raises(ValueError, match="finite"):
            Spectrum((bad, 0.0))


class TestUnitaryDimension:
    def test_adjoint_of_three(self):
        assert dim_unitary_irrep(YoungFrame((2, 1, 0)), 3) == 8

    def test_two_row_symmetric(self):
        for n in range(0, 12):
            assert dim_unitary_irrep(YoungFrame((n, 0)), 2) == n + 1

    def test_determinant_representation(self):
        assert dim_unitary_irrep(YoungFrame((1, 1, 1)), 3) == 1

    def test_against_filling_enumeration(self):
        for d in range(1, 4):
            for n in range(0, 7):
                for frame in enumerate_frames(d, n):
                    fillings = sum(1 for _ in ssyt_contents(frame.rows, d))
                    assert dim_unitary_irrep(frame, d) == fillings

    def test_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            dim_unitary_irrep(YoungFrame((2, 1, 1)), 2)

    def test_log_path_agrees(self):
        frame = YoungFrame((40, 30, 20, 10))
        assert log_dim_unitary_irrep(frame) == pytest.approx(
            math.log(dim_unitary_irrep(frame)), abs=1e-10
        )


class TestPolynomialBound:
    def test_two_rows(self):
        assert dim_poly_bound(2, 10) == 11

    def test_one_row_is_trivial(self):
        for n in (0, 3, 50):
            assert dim_poly_bound(1, n) == 1

    def test_three_rows_three_boxes(self):
        assert dim_poly_bound(3, 3) == 64
        assert dim_poly_bound(3, 3) >= dim_unitary_irrep(YoungFrame((2, 1, 0)), 3)

    def test_dominates_every_frame(self):
        for d in range(1, 5):
            for n in range(0, 61):
                bound = dim_poly_bound(d, n)
                assert all(dim_unitary_irrep(f, d) <= bound for f in enumerate_frames(d, n))


class TestSchurWeylDimensionCount:
    def test_blocks_fill_the_tensor_power(self):
        for d in range(1, 5):
            for n in range(0, 31):
                total = sum(
                    dim_symmetric_irrep(f) * dim_unitary_irrep(f, d)
                    for f in enumerate_frames(d, n)
                )
                assert total == d**n


class TestEstimates:
    def test_figure_spectrum(self):
        assert frame_to_estimate(YoungFrame((72, 36, 12))).values == (0.6, 0.3, 0.1)

    def test_one_row_frame(self):
        assert frame_to_estimate(YoungFrame((5, 0, 0))).values == (1.0, 0.0, 0.0)

    def test_balanced(self):
        assert frame_to_estimate(YoungFrame((1, 1))).values == (0.5, 0.5)

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            frame_to_estimate(YoungFrame((0, 0)))

    @given(partition_rows())
    def test_exact_estimate_is_a_probability_vector(self, rows):
        if sum(rows) == 0:
            return
        estimate = frame_to_exact_estimate(YoungFrame(rows))
        assert sum(estimate) == Fraction(1)
        assert all(a >= b for a, b in zip(estimate, estimate[1:]))

    @given(partition_rows())
    @settings(max_examples=60)
    def test_float_estimate_valid_spectrum(self, rows):
        if sum(rows) == 0:
            return
        spectrum = frame_to_estimate(YoungFrame(rows))
        assert isinstance(spectrum, Spectrum)


class TestSpectrum:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Spectrum((0.3, 0.7))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Spectrum((0.6, 0.3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Spectrum((1.2, -0.2))

    def test_from_unsorted_canonicalizes(self):
        assert Spectrum.from_unsorted((0.3, 0.7)) == Spectrum((0.7, 0.3))

    def test_support_size(self):
        assert Spectrum((0.7, 0.3, 0.0)).support_size() == 2
