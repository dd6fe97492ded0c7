import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_spectrum, spectra
from oracles import (
    DegenerateSpectrumError,
    kostka_table,
    partition_tuples,
    schur_by_monomials,
    schur_log_bialternant,
    schur_log_jacobi_trudi,
)

from spectrum_scope import schur
from spectrum_scope import (
    ResourceLimitError,
    SchurTable,
    Spectrum,
    YoungFrame,
    brute_force_frame_probability,
    character_bounds_check,
    character_from_weights,
    dim_symmetric_irrep,
    dim_unitary_irrep,
    enumerate_frames,
    frame_count,
    log_dim_unitary_irrep,
    schur_log,
    sn_character,
    weight_multiplicities,
)
from spectrum_scope.logspace import NEG_INF


def all_rows(d, boxes):
    return np.fromiter(partition_tuples(boxes, boxes, d), np.dtype((np.int64, d)), frame_count(d, boxes))


class TestSchurLog:
    def test_one_box_is_the_trace(self):
        for values in [(0.5, 0.5), (0.6, 0.3, 0.1), (1.0,)]:
            frame = YoungFrame((1,) + (0,) * (len(values) - 1))
            assert schur_log(frame, Spectrum(values)) == pytest.approx(0.0, abs=1e-14)

    def test_single_column_is_the_product(self):
        value = schur_log(YoungFrame((1, 1)), Spectrum((0.6, 0.4)))
        assert value == pytest.approx(math.log(0.24), abs=1e-13)

    def test_uniform_adjoint(self):
        value = schur_log(YoungFrame((2, 1, 0)), Spectrum((1 / 3, 1 / 3, 1 / 3)))
        assert value == pytest.approx(math.log(8 / 27), abs=1e-13)

    def test_matches_monomial_sum_oracle(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            for _ in range(3):
                spectrum = random_spectrum(rng, d)
                for n in range(0, 7):
                    table = SchurTable(spectrum, n)
                    for frame in enumerate_frames(d, n):
                        expected = schur_by_monomials(frame.rows, spectrum.values)
                        got = math.exp(table.log_value(frame.rows))
                        assert got == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("d", [5, 6])
    def test_matches_monomial_sum_oracle_beyond_four_rows(self, d):
        rng = np.random.default_rng(41 + d)
        repeated = Spectrum(tuple(sorted([0.3, 0.3] + [0.4 / (d - 2)] * (d - 2), reverse=True)))
        zeros = Spectrum((0.4, 0.3, 0.3) + (0.0,) * (d - 3))
        for spectrum in (random_spectrum(rng, d), repeated, zeros):
            table = SchurTable(spectrum, 6)
            for n in range(0, 7):
                for frame in enumerate_frames(d, n):
                    expected = schur_by_monomials(frame.rows, spectrum.values)
                    got = math.exp(table.log_value(frame.rows))
                    assert got == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize(
        "numerators, boxes",
        [
            ((31, 23, 19, 17, 10), 40),
            ((25, 25, 20, 20, 10), 40),
            ((40, 30, 30, 0, 0), 40),
            ((21, 19, 17, 17, 15, 11), 20),
            ((50, 20, 10, 10, 10, 0), 20),
        ],
    )
    def test_matches_exact_jacobi_trudi(self, numerators, boxes):
        # rational spectra a/100: the reference is exact up to two logarithms
        spectrum = Spectrum(tuple(a / 100 for a in numerators))
        table = SchurTable(spectrum, boxes)
        for frame in enumerate_frames(len(numerators), boxes):
            expected = schur_log_jacobi_trudi(frame.rows, numerators, 100)
            got = table.log_value(frame.rows)
            if expected == NEG_INF:
                assert got == NEG_INF
            else:
                assert abs(got - expected) <= 1e-9

    def test_wide_spectrum_matches_exact_jacobi_trudi(self):
        # q = r_j / r_a from 9/20 down to 1/70: the top level has q = 1/9, 1/20 and 1/70
        numerators = (70, 20, 9, 1)
        table = SchurTable(Spectrum(tuple(a / 100 for a in numerators)), 200)
        rows = all_rows(4, 200)[np.random.default_rng(43).choice(frame_count(4, 200), 40, replace=False)]
        for shape, got in zip(rows.tolist(), table.log_values(rows)):
            assert abs(got - schur_log_jacobi_trudi(shape, numerators, 100)) <= 1e-9

    @pytest.mark.parametrize(
        "values, boxes",
        [
            ((0.7, 0.2, 0.09, 0.01), 60),
            ((0.6, 0.3, 0.1), 120),
            ((0.4, 0.3, 0.2, 0.1, 0.0), 30),
            ((0.375, 0.375, 0.125, 0.125), 60),
        ],
    )
    def test_batch_does_not_move_a_bit(self, values, boxes):
        table = SchurTable(Spectrum(values), boxes)
        rows = all_rows(len(values), boxes)
        pick = np.random.default_rng(47).permutation(len(rows))[: len(rows) // 7]
        full, part = table.log_values(rows)[pick], table.log_values(rows[pick])
        assert full.tobytes() == part.tobytes()

    @pytest.mark.parametrize(
        "values, boxes",
        [
            ((0.6, 0.39999, 0.00001), 60),
            ((0.375, 0.375, 0.125, 0.125), 40),
            ((0.5, 0.3, 0.2, 0.0, 0.0), 20),
            ((0.25, 0.2, 0.2, 0.15, 0.12, 0.08), 12),
            ((0.5, 0.3, 0.2), 200),
            ((0.6, 0.39999, 0.00001), 200),
        ],
    )
    def test_slab_bound_does_not_move_a_bit(self, monkeypatch, values, boxes):
        # 1 tiles every slab down to one row of axis 0 and merges no crops;
        # 2**18 tiles nothing and merges every run into one crop here, and
        # keeps the counted crop, 2**18 (N//m + 1) cells, within MAX_TABLE_BYTES
        rows = all_rows(len(values), boxes)
        results = set()
        for cells in (1, 64, 2**18):
            monkeypatch.setattr(schur, "_SLAB_CELLS", cells)
            table = SchurTable(Spectrum(values), boxes)
            results.add((table.log_values(rows).tobytes(), table._cube.tobytes()))
        assert len(results) == 1

    def test_one_crop_spans_every_last_row_value(self, monkeypatch):
        # last rows 15..20 in a narrow band: one crop of 4 x 8 x 6 cells, slabs of 48
        rows = np.array([(20, 20, 20), (21, 20, 19), (22, 21, 17), (23, 22, 15)])
        table = SchurTable(Spectrum((0.5, 0.3, 0.2)), 60)
        singles = np.concatenate([table.log_values(row[None]) for row in rows])
        crops = []
        branch = schur._branch
        monkeypatch.setattr(schur, "_branch", lambda cube, *args: crops.append(cube.shape) or branch(cube, *args))
        for cells in (1, 64, 2**30):
            monkeypatch.setattr(schur, "_SLAB_CELLS", cells)
            crops.clear()
            assert table.log_values(rows).tobytes() == singles.tobytes()
            if cells == 1:
                assert [shape[-1] for shape in crops] == [1] * 4
            else:
                assert crops == [(4, 8, 6)]

    @pytest.mark.parametrize("values, boxes", [((0.5, 0.3, 0.2), 3), ((0.5, 0.3, 0.2), 200), ((0.3, 0.25, 0.2, 0.15, 0.1), 3)])
    def test_no_crop_outgrows_the_counted_crop(self, monkeypatch, values, boxes):
        # MAX_TABLE_BYTES counts the top cube and the larger of the cube and
        # _SLAB_CELLS (N//m + 1) cells, m the cube's axis count
        table = SchurTable(Spectrum(values), boxes)
        m = table._cube.ndim
        counted = max(table._cube.size, schur._SLAB_CELLS * (boxes // m + 1))
        sizes = []
        branch = schur._branch
        monkeypatch.setattr(schur, "_branch", lambda cube, *args: sizes.append(cube.size) or branch(cube, *args))
        table.log_values(all_rows(len(values), boxes))
        assert sizes and max(sizes) <= counted

    @pytest.mark.parametrize(
        "values, boxes, crops",
        [
            ((0.5, 0.3, 0.2), 200, [(201, 101, 20), (141, 71, 29), (54, 27, 18)]),
            (
                (0.4, 0.3, 0.2, 0.1),
                100,
                [
                    (101, 51, 34, 1), (97, 49, 33, 1), (93, 47, 31, 1), (89, 45, 30, 1), (85, 43, 29, 1),
                    (81, 41, 27, 1), (77, 39, 26, 1), (73, 37, 25, 1), (69, 35, 23, 1), (65, 33, 22, 1),
                    (61, 31, 21, 2), (53, 27, 18, 2), (45, 23, 15, 3), (33, 17, 11, 7), (5, 3, 2, 2),
                ],
            ),
        ],
        ids=["d3", "d4"],
    )
    def test_crops_the_slab_rule_forms(self, monkeypatch, values, boxes, crops):
        # d3 N200 merges its 201 last-row values into 3 crops, up to 20 times
        # the top cube; d4 N100 forms the 15 crops it formed when the top
        # cube's size also bounded them
        table = SchurTable(Spectrum(values), boxes)
        shapes = []
        branch = schur._branch
        monkeypatch.setattr(schur, "_branch", lambda cube, *args: shapes.append(cube.shape) or branch(cube, *args))
        table.log_values(all_rows(len(values), boxes))
        assert shapes == crops

    def test_uniform_spectrum_at_the_table_cap(self):
        # every q is 1 (all eigenvalues tied); s_Y(1/d, ..., 1/d) = dim V_Y / d^N
        table = SchurTable(Spectrum((1 / 8,) * 8), 37)
        rows = all_rows(8, 37)
        for shape, got in zip(rows.tolist(), table.log_values(rows)):
            assert abs(got - (log_dim_unitary_irrep(YoungFrame(tuple(shape)), 8) - 37 * math.log(8))) <= 1e-9

    def test_table_cap_checked_before_allocating(self, monkeypatch):
        spectrum = Spectrum((0.4, 0.3, 0.2, 0.1))
        # staircase top cube of sides 61, 31, 21, plus a merged crop of at
        # most _SLAB_CELLS (60//3 + 1) cells, which is larger than the cube
        cube_cells = 61 * 31 * 21
        table_bytes = 8 * (cube_cells + schur._SLAB_CELLS * 21)
        monkeypatch.setattr(schur, "MAX_TABLE_BYTES", table_bytes - 8)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="bytes"):
                SchurTable(spectrum, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cube_cells
        monkeypatch.setattr(schur, "MAX_TABLE_BYTES", table_bytes)
        SchurTable(spectrum, 60)

    @pytest.mark.parametrize(
        "d, reach", [(3, 8191), (4, 584), (5, 167), (6, 80), (7, 51), (8, 37)]
    )
    def test_table_cap_reach(self, monkeypatch, d, reach):
        # the largest N whose top cube and crop fit, checked without building
        # the cubes; at d <= 4 the box cap of exact_distribution (N <= 400)
        # binds first
        monkeypatch.setattr(SchurTable, "_build", lambda self: None)
        spectrum = Spectrum((1 / d,) * d)
        SchurTable(spectrum, reach)
        with pytest.raises(ResourceLimitError, match="bytes"):
            SchurTable(spectrum, reach + 1)

    def test_zero_eigenvalues_reduce_dimension(self):
        padded = Spectrum((0.7, 0.3, 0.0))
        assert schur_log(YoungFrame((1, 1, 1)), padded) == NEG_INF
        reduced = schur_log(YoungFrame((2, 1)), Spectrum((0.7, 0.3)))
        assert schur_log(YoungFrame((2, 1, 0)), padded) == reduced

    def test_shared_table_matches_per_call_values(self):
        spectrum = Spectrum((0.5, 0.3, 0.2))
        table = SchurTable(spectrum, 9)
        for n in (3, 6, 9):
            for frame in enumerate_frames(3, n):
                assert schur_log(frame, spectrum) == table.log_value(frame.rows)

    def test_table_box_budget_enforced(self):
        table = SchurTable(Spectrum((0.5, 0.5)), 4)
        with pytest.raises(ValueError):
            table.log_value((5, 0))

    @pytest.mark.parametrize("rows", [[[1, 2, 0]], [[3, -1, 0]], [2, 1, 0]], ids=["increasing", "negative", "1-D"])
    def test_bad_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            SchurTable(Spectrum((0.5, 0.3, 0.2)), 4).log_values(rows)

    def test_short_rows_are_zero_padded(self):
        table = SchurTable(Spectrum((0.5, 0.3, 0.2)), 4)
        assert table.log_values([[2, 1]])[0] == table.log_value((2, 1, 0))


class TestBialternant:
    def test_two_row_symmetric_square(self):
        value = schur_log_bialternant(YoungFrame((2, 0)), Spectrum((0.7, 0.3)))
        assert value == pytest.approx(math.log(0.79), abs=1e-12)

    def test_single_column(self):
        value = schur_log_bialternant(YoungFrame((1, 1)), Spectrum((0.7, 0.3)))
        assert value == pytest.approx(math.log(0.21), abs=1e-12)

    def test_cross_evaluator_agreement_spot(self):
        frame = YoungFrame((2, 1, 0))
        spectrum = Spectrum((0.6, 0.3, 0.1))
        a = schur_log_bialternant(frame, spectrum)
        b = schur_log(frame, spectrum)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_cross_evaluator_agreement_random(self):
        # 100 random well-separated spectra, shapes up to 40 boxes
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            d = int(rng.integers(2, 5))
            spectrum = random_spectrum(rng, d)
            gaps = [a - b for a, b in zip(spectrum.values, spectrum.values[1:])]
            if min(gaps) < 0.02 or spectrum.values[-1] < 0.02:
                continue
            n = int(rng.integers(1, 41))
            rows = sorted((int(rng.integers(0, n + 1)) for _ in range(d)), reverse=True)
            total = sum(rows)
            if total == 0:
                continue
            frame = YoungFrame(tuple(rows))
            a = schur_log_bialternant(frame, spectrum)
            b = schur_log(frame, spectrum)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
            checked += 1

    def test_refuses_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrumError):
            schur_log_bialternant(YoungFrame((2, 0)), Spectrum((0.5, 0.5)))

    def test_refuses_zero_eigenvalue(self):
        with pytest.raises(DegenerateSpectrumError):
            schur_log_bialternant(YoungFrame((2, 0)), Spectrum((1.0, 0.0)))


class TestWeights:
    def test_adjoint_table(self):
        table = weight_multiplicities(YoungFrame((2, 1, 0)))
        assert table.multiplicity((1, 1, 1)) == 2
        for weight in [(2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 2), (0, 2, 1), (0, 1, 2)]:
            assert table.multiplicity(weight) == 1
        assert table.total() == 8

    def test_single_row_weights_are_multisets(self):
        n = 6
        table = weight_multiplicities(YoungFrame((n, 0)))
        for k in range(n + 1):
            assert table.multiplicity((n - k, k)) == 1
        assert table.total() == n + 1

    def test_highest_weight_multiplicity_one(self):
        for d in (2, 3):
            for n in range(1, 8):
                for frame in enumerate_frames(d, n):
                    table = weight_multiplicities(frame)
                    assert table.multiplicity(frame.rows) == 1

    def test_total_is_unitary_dimension(self):
        for d in (2, 3, 4):
            for n in range(0, 7):
                for frame in enumerate_frames(d, n):
                    table = weight_multiplicities(frame)
                    assert table.total() == dim_unitary_irrep(frame, d)

    def test_matches_filling_oracle(self):
        for d in (2, 3):
            for n in range(0, 7):
                for frame in enumerate_frames(d, n):
                    expected = kostka_table(frame.rows, d)
                    got = weight_multiplicities(frame)
                    assert dict(expected) == dict(got.entries)

    def test_dominance_of_highest_weight(self):
        for d in (2, 3):
            for n in range(1, 9):
                for frame in enumerate_frames(d, n):
                    for weight in weight_multiplicities(frame).entries:
                        partial = 0
                        for j in range(d):
                            partial += weight[j] - frame.rows[j]
                            assert partial <= 0

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            weight_multiplicities(YoungFrame((13, 0)))


class TestCharacterFromWeights:
    def test_single_weight(self):
        spectrum = Spectrum((0.5, 0.5))
        table = weight_multiplicities(YoungFrame((1, 1)))
        assert character_from_weights(table, spectrum) == pytest.approx(math.log(0.25), abs=1e-13)

    def test_uniform_adjoint(self):
        spectrum = Spectrum((1 / 3, 1 / 3, 1 / 3))
        table = weight_multiplicities(YoungFrame((2, 1, 0)))
        assert character_from_weights(table, spectrum) == pytest.approx(math.log(8 / 27), abs=1e-13)

    def test_two_row_square(self):
        spectrum = Spectrum((0.7, 0.3))
        table = weight_multiplicities(YoungFrame((2, 0)))
        assert character_from_weights(table, spectrum) == pytest.approx(math.log(0.79), abs=1e-13)

    def test_equals_branching_evaluator(self):
        rng = np.random.default_rng(23)
        for d in (2, 3):
            for _ in range(4):
                spectrum = random_spectrum(rng, d)
                table_cache = SchurTable(spectrum, 8)
                for n in range(1, 9):
                    for frame in enumerate_frames(d, n):
                        expansion = character_from_weights(weight_multiplicities(frame), spectrum)
                        direct = table_cache.log_value(frame.rows)
                        assert abs(expansion - direct) <= 1e-10


class TestCharacterBounds:
    def test_pure_state_single_row_is_tight(self):
        spectrum = Spectrum((1.0, 0.0, 0.0))
        result = character_bounds_check(YoungFrame((6, 0, 0)), spectrum)
        assert result.holds
        assert result.lower == pytest.approx(0.0, abs=1e-14)
        assert result.value == pytest.approx(0.0, abs=1e-14)

    def test_one_dimensional_block_pins_all_three(self):
        spectrum = Spectrum((0.5, 0.5))
        result = character_bounds_check(YoungFrame((1, 1)), spectrum)
        assert result.holds
        assert result.lower == pytest.approx(math.log(0.25), abs=1e-13)
        assert result.value == pytest.approx(math.log(0.25), abs=1e-13)
        assert result.upper == pytest.approx(math.log(0.25), abs=1e-13)

    def test_generic_frame(self):
        spectrum = Spectrum((0.6, 0.3, 0.1))
        assert character_bounds_check(YoungFrame((2, 1, 0)), spectrum).holds

    def test_random_sweep(self):
        rng = np.random.default_rng(29)
        for d in (2, 3):
            for _ in range(20):
                spectrum = random_spectrum(rng, d)
                for n in range(1, 21):
                    for frame in enumerate_frames(d, n):
                        assert character_bounds_check(frame, spectrum).holds

    def test_one_tiny_eigenvalue(self):
        # q = 2e-300 at the top level: each weighted prefix sum rounds to its last term
        spectrum = Spectrum((0.5, 0.5 - 1e-300, 1e-300))
        for n in range(1, 31):
            for frame in enumerate_frames(3, n):
                assert character_bounds_check(frame, spectrum).holds


class TestSymmetricGroupCharacters:
    def test_trivial_representation(self):
        for cycle_type in [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]:
            assert sn_character(YoungFrame((4,)), cycle_type) == 1

    def test_alternating_representation(self):
        for cycle_type in [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]:
            parity = (-1) ** sum(c - 1 for c in cycle_type)
            assert sn_character(YoungFrame((1, 1, 1, 1)), cycle_type) == parity

    def test_dimension_at_identity(self):
        for d in (2, 3, 4):
            for n in range(1, 8):
                for frame in enumerate_frames(d, n):
                    identity = (1,) * n
                    assert sn_character(frame, identity) == dim_symmetric_irrep(frame)

    def test_standard_representation_of_s3(self):
        frame = YoungFrame((2, 1))
        assert sn_character(frame, (1, 1, 1)) == 2
        assert sn_character(frame, (2, 1)) == 0
        assert sn_character(frame, (3,)) == -1

    def test_character_orthogonality(self):
        # rows of the character table are orthogonal under the class weighting
        n = 6
        frames = list(enumerate_frames(n, n))
        cycle_types = [tuple(p for p in f.rows if p) for f in enumerate_frames(n, n)]
        sizes = {}
        for cycles in cycle_types:
            z = 1
            for part in set(cycles):
                reps = cycles.count(part)
                z *= part**reps * math.factorial(reps)
            sizes[cycles] = math.factorial(n) // z
        for a in frames:
            for b in frames:
                inner = sum(
                    sizes[c] * sn_character(a, c) * sn_character(b, c) for c in cycle_types
                )
                assert inner == (math.factorial(n) if a.rows == b.rows else 0)

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            sn_character(YoungFrame((9,)), (9,))

    def test_rejects_mismatched_cycle_type(self):
        with pytest.raises(ValueError):
            sn_character(YoungFrame((3,)), (2,))


class TestBruteForceProbability:
    def test_balanced_two_copies(self):
        spectrum = Spectrum((0.5, 0.5))
        assert brute_force_frame_probability(YoungFrame((1, 1)), spectrum) == pytest.approx(0.25, abs=1e-14)
        assert brute_force_frame_probability(YoungFrame((2, 0)), spectrum) == pytest.approx(0.75, abs=1e-14)

    def test_single_level_is_certain(self):
        for n in range(1, 8):
            assert brute_force_frame_probability(YoungFrame((n,)), Spectrum((1.0,))) == pytest.approx(1.0, abs=1e-14)

    def test_matches_character_formula(self):
        rng = np.random.default_rng(31)
        for d in (2, 3):
            for _ in range(3):
                spectrum = random_spectrum(rng, d)
                table = SchurTable(spectrum, 7)
                for n in range(0, 8):
                    for frame in enumerate_frames(d, n):
                        expected = math.exp(table.log_value(frame.rows)) * dim_symmetric_irrep(frame)
                        got = brute_force_frame_probability(frame, spectrum)
                        assert abs(got - expected) <= 1e-10

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            brute_force_frame_probability(YoungFrame((9, 0)), Spectrum((0.5, 0.5)))


class TestCharacterNormalization:
    def test_blocks_sum_to_one(self):
        # sum over frames of schur * tableau count telescopes to (sum r)^N = 1
        rng = np.random.default_rng(37)
        for d in (2, 3, 4):
            for _ in range(3):
                spectrum = random_spectrum(rng, d)
                table = SchurTable(spectrum, 60)
                for n in (1, 13, 37, 60):
                    total = math.fsum(
                        math.exp(table.log_value(f.rows)) * dim_symmetric_irrep(f)
                        for f in enumerate_frames(d, n)
                    )
                    assert abs(total - 1.0) <= 1e-12


@given(spectra(d_min=2, d_max=3))
@settings(max_examples=25, deadline=None)
def test_first_row_sum_is_one_boxed(spectrum):
    # one box: the whole trace sits in the single-box frame
    frame = YoungFrame((1,) + (0,) * (spectrum.d - 1))
    assert schur_log(frame, spectrum) == pytest.approx(0.0, abs=1e-12)


@given(spectra(d_min=2, d_max=3), st.integers(1, 10))
@settings(max_examples=25, deadline=None)
def test_top_frame_value_is_power_of_leading_eigenvalue(spectrum, boxes):
    frame = YoungFrame((boxes,) + (0,) * (spectrum.d - 1))
    table = SchurTable(spectrum, boxes)
    # the single-row frame sums all monomials, so it is at least r_1^N
    assert table.log_value(frame.rows) >= boxes * math.log(spectrum.values[0]) - 1e-12
