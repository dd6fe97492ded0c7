import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import rsk_shape, word_shape_distribution

from spectrum_scope import (
    CompactTableau,
    ResourceLimitError,
    SamplerConfig,
    Spectrum,
    YoungFrame,
    empirical_distribution,
    exact_distribution,
    expectation_of,
    insert_letter,
    sample_frame,
    sample_frame_counts,
)
from spectrum_scope.rsk import THREAD_ENV_VAR


class TestCompactTableau:
    def test_empty(self):
        t = CompactTableau.empty(3)
        assert t.shape() == (0, 0, 0)
        assert t.boxes() == 0

    def test_rejects_letters_below_row(self):
        with pytest.raises(ValueError):
            CompactTableau(counts=((0, 0), (1, 0)))

    def test_rejects_increasing_rows(self):
        with pytest.raises(ValueError):
            CompactTableau(counts=((0, 1), (0, 2)))

    def test_rejects_column_violation(self):
        # two 2s in row 1 but only one 1 above them
        with pytest.raises(ValueError):
            CompactTableau(counts=((1, 0, 0), (0, 2, 0), (0, 0, 0)))


class TestInsertLetter:
    def test_first_letter_lands_in_first_row(self):
        t = insert_letter(CompactTableau.empty(3), 1)
        assert t.counts[0][0] == 1
        assert t.shape() == (1, 0, 0)

    def test_smaller_letter_bumps(self):
        t = insert_letter(CompactTableau.empty(2), 2)
        assert t.shape() == (1, 0)
        t = insert_letter(t, 1)
        assert t.shape() == (1, 1)
        assert t.counts == ((1, 0), (0, 1))

    def test_largest_letter_never_bumps(self):
        t = CompactTableau.empty(3)
        for letter in (1, 2, 3, 3):
            t = insert_letter(t, letter)
        # letters equal to d always extend the first row they reach
        assert t.counts[0] == (1, 1, 2)
        assert t.shape() == (4, 0, 0)

    def test_rejects_out_of_range_letters(self):
        with pytest.raises(ValueError):
            insert_letter(CompactTableau.empty(2), 0)
        with pytest.raises(ValueError):
            insert_letter(CompactTableau.empty(2), 3)

    @given(st.integers(2, 4), st.lists(st.integers(1, 4), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_matches_explicit_row_insertion(self, d, raw_word):
        word = [min(letter, d) for letter in raw_word]
        t = CompactTableau.empty(d)
        for k, letter in enumerate(word, start=1):
            t = insert_letter(t, letter)
            assert t.boxes() == k
        expected = rsk_shape(word)
        assert t.shape() == expected + (0,) * (d - len(expected))

    def test_insertion_fuzz(self):
        # shape stays a partition and grows one box per letter
        rng = np.random.default_rng(61)
        operations = 0
        while operations < 100_000:
            d = int(rng.integers(1, 6))
            t = CompactTableau.empty(d)
            length = int(rng.integers(1, 60))
            for letter in rng.integers(1, d + 1, size=length):
                before = t.boxes()
                t = insert_letter(t, int(letter))
                assert t.boxes() == before + 1
                operations += 1


class TestSamplerConfig:
    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            SamplerConfig(d=2, boxes=3, spectrum=Spectrum((0.5, 0.5)), seed=-1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SamplerConfig(d=3, boxes=3, spectrum=Spectrum((0.5, 0.5)), seed=0)

    def test_chain_count_positive(self):
        with pytest.raises(ValueError):
            SamplerConfig(d=2, boxes=3, spectrum=Spectrum((0.5, 0.5)), seed=0, chains=0)


class TestSampling:
    def test_deterministic_letter_stream(self):
        cfg = SamplerConfig(d=2, boxes=50, spectrum=Spectrum((0.7, 0.3)), seed=77)
        assert sample_frame(cfg) == sample_frame(cfg)

    def test_point_spectrum_gives_one_row(self):
        cfg = SamplerConfig(d=3, boxes=40, spectrum=Spectrum((1.0, 0.0, 0.0)), seed=5)
        assert sample_frame(cfg).rows == (40, 0, 0)

    def test_single_level(self):
        cfg = SamplerConfig(d=1, boxes=9, spectrum=Spectrum((1.0,)), seed=5)
        assert sample_frame(cfg).rows == (9,)

    def test_counts_reproducible(self):
        cfg = SamplerConfig(d=3, boxes=10, spectrum=Spectrum((0.5, 0.3, 0.2)), seed=13, chains=4)
        assert sample_frame_counts(cfg, 5000) == sample_frame_counts(cfg, 5000)

    def test_allocation_cap_checked_before_allocating(self):
        cfg = SamplerConfig(d=3, boxes=5, spectrum=Spectrum((0.5, 0.3, 0.2)), seed=1)
        with pytest.raises(ResourceLimitError, match="bytes"):
            sample_frame_counts(cfg, 10**11)

    def test_counts_thread_invariant(self, monkeypatch):
        cfg = SamplerConfig(d=3, boxes=8, spectrum=Spectrum((0.6, 0.3, 0.1)), seed=29, chains=5)
        monkeypatch.setenv(THREAD_ENV_VAR, "1")
        single = sample_frame_counts(cfg, 20_000)
        monkeypatch.setenv(THREAD_ENV_VAR, "4")
        threaded = sample_frame_counts(cfg, 20_000)
        assert single == threaded

    def test_invalid_thread_env_rejected(self, monkeypatch):
        cfg = SamplerConfig(d=2, boxes=2, spectrum=Spectrum((0.5, 0.5)), seed=1, chains=2)
        monkeypatch.setenv(THREAD_ENV_VAR, "zero")
        with pytest.raises(ValueError):
            sample_frame_counts(cfg, 10)

    def test_total_count_preserved(self):
        cfg = SamplerConfig(d=2, boxes=6, spectrum=Spectrum((0.8, 0.2)), seed=3, chains=3)
        counts = sample_frame_counts(cfg, 4321)
        assert sum(counts.values()) == 4321


class TestEmpiricalDistribution:
    def test_frequencies_sum_to_one(self):
        cfg = SamplerConfig(d=2, boxes=10, spectrum=Spectrum((0.7, 0.3)), seed=19)
        empirical = empirical_distribution(cfg, 5000)
        assert math.fsum(empirical.frequencies.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_sample_is_a_point_mass(self):
        cfg = SamplerConfig(d=2, boxes=4, spectrum=Spectrum((0.6, 0.4)), seed=23)
        empirical = empirical_distribution(cfg, 1)
        assert list(empirical.frequencies.values()) == [1.0]

    def test_mean_estimate_within_three_sigma(self):
        spectrum = Spectrum((0.7, 0.3))
        boxes, samples = 100, 100_000
        exact = exact_distribution(2, boxes, spectrum)
        mean = expectation_of(exact, lambda s: s[0])
        second = expectation_of(exact, lambda s: s[0] ** 2)
        sigma = math.sqrt((second - mean**2) / samples)
        cfg = SamplerConfig(d=2, boxes=boxes, spectrum=spectrum, seed=31, chains=4)
        empirical = empirical_distribution(cfg, samples)
        assert abs(empirical.mean_estimate[0] - mean) <= 3 * sigma

    def test_chi_square_against_exact(self):
        spectrum = Spectrum((0.7, 0.3))
        exact = exact_distribution(2, 10, spectrum)
        cfg = SamplerConfig(d=2, boxes=10, spectrum=spectrum, seed=37, chains=4)
        report = empirical_distribution(cfg, 100_000, exact=exact).fit
        assert report.p_value > 0.001
        assert report.tv_distance < 0.02


def test_throughput_report():
    # soft target: >= 1e5 letters/second/chain at d <= 8; reported, not asserted
    import time

    spectrum = Spectrum(tuple(sorted((v / 36 for v in range(1, 9)), reverse=True)))
    cfg = SamplerConfig(d=8, boxes=100, spectrum=spectrum, seed=71, chains=1)
    start = time.perf_counter()
    sample_frame_counts(cfg, 10_000)
    elapsed = time.perf_counter() - start
    rate = 1_000_000 / elapsed
    print(f"sampler throughput: {rate:,.0f} letters/second/chain at d=8")


class TestAgainstWordEnumeration:
    def test_insertion_law_is_the_outcome_law(self):
        # small cases, every word enumerated: the shape law equals the exact
        # measurement distribution, which is what licenses the sampler
        for d, n in ((2, 5), (3, 3)):
            spectrum = Spectrum.from_unsorted(np.random.default_rng(d).dirichlet(np.ones(d)))
            words = word_shape_distribution(d, n, spectrum.values)
            dist = exact_distribution(d, n, spectrum)
            for frame, lp in dist.items():
                assert words[frame.rows] == pytest.approx(math.exp(lp), abs=1e-12)

    def test_sampled_counts_match_enumerated_law(self):
        d, n, samples = 2, 3, 200_000
        spectrum = Spectrum((0.6, 0.4))
        words = word_shape_distribution(d, n, spectrum.values)
        cfg = SamplerConfig(d=d, boxes=n, spectrum=spectrum, seed=41, chains=2)
        counts = sample_frame_counts(cfg, samples)
        for rows, prob in words.items():
            observed = counts.get(rows, 0) / samples
            sigma = math.sqrt(prob * (1 - prob) / samples)
            assert abs(observed - prob) <= 5 * sigma
