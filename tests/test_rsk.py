import math
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import subprocess_env
from oracles import CompactTableau, insert_letter, rsk_shape, sample_frame, word_shape_distribution

from spectrum_scope import (
    ResourceLimitError,
    SamplerConfig,
    Spectrum,
    YoungFrame,
    empirical_distribution,
    exact_distribution,
    expectation_of,
    sample_frame_counts,
)
from spectrum_scope import rsk
from spectrum_scope.rsk import _word_shapes


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


class TestPathTransformKernel:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_insertion(self, data):
        d = data.draw(st.integers(1, 6))
        length = data.draw(st.integers(0, 60))
        count = data.draw(st.integers(1, 3))
        steps = data.draw(st.integers(1, max(length, 1)))
        cells = length * count
        flat = data.draw(st.lists(st.integers(0, d - 1), min_size=cells, max_size=cells))
        letters = np.array(flat, dtype=np.int64).reshape(length, count)
        blocks = [letters[start : start + steps] for start in range(0, length, steps)]
        # the sampler holds paths in int8 up to N = 127, int16 below N = 2^15 and int32 above;
        # thresholds 1 .. d - 1 read each letter back off itself as a word
        thresholds = np.arange(1, d)
        shapes = {t: _word_shapes(blocks, thresholds, d, count, t) for t in (np.int8, np.int16, np.int32)}
        for sample in range(count):
            word = [int(letter) + 1 for letter in letters[:, sample]]
            t = CompactTableau.empty(d)
            for letter in word:
                t = insert_letter(t, letter)
            expected = rsk_shape(word)
            for path_shapes in shapes.values():
                assert tuple(path_shapes[sample]) == t.shape() == expected + (0,) * (d - len(expected))

    @pytest.mark.parametrize(
        "count, steps, length",
        # 40-step blocks of 300 words take the running ops row by row;
        # 60-step blocks of 3 words accumulate down the time axis
        [(300, 40, 100), (3, 60, 150)],
    )
    def test_both_running_loops_match_insertion(self, count, steps, length):
        d = 4
        letters = np.random.default_rng(count).integers(0, d, size=(length, count), dtype=np.uint8)
        blocks = [letters[start : start + steps] for start in range(0, length, steps)]
        shapes = _word_shapes(blocks, np.arange(1, d), d, count, np.int16)
        for sample in range(count):
            expected = rsk_shape([int(letter) + 1 for letter in letters[:, sample]])
            assert tuple(shapes[sample]) == expected + (0,) * (d - len(expected))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_spaced_thresholds_match_insertion(self, data):
        # the letter of a word counts the thresholds at or below it: spaced
        # thresholds, and fewer of them than d - 1, whose top letters never occur
        d = data.draw(st.integers(1, 6))
        thresholds = np.array(
            sorted(data.draw(st.sets(st.integers(1, 99), max_size=d - 1))), dtype=np.uint64
        )
        length = data.draw(st.integers(0, 40))
        count = data.draw(st.integers(1, 3))
        steps = data.draw(st.integers(1, max(length, 1)))
        cells = length * count
        flat = data.draw(st.lists(st.integers(0, 99), min_size=cells, max_size=cells))
        words = np.array(flat, dtype=np.uint64).reshape(length, count)
        blocks = [words[start : start + steps] for start in range(0, length, steps)]
        shapes = _word_shapes(blocks, thresholds, d, count, np.int8)
        letters = (words[:, :, None] >= thresholds).sum(axis=2)
        for sample in range(count):
            expected = rsk_shape([int(letter) + 1 for letter in letters[:, sample]])
            assert tuple(shapes[sample]) == expected + (0,) * (d - len(expected))

    @pytest.mark.parametrize("cells", [1, 7])
    def test_block_boundaries_do_not_move_counts(self, monkeypatch, cells):
        spectrum = Spectrum((0.4, 0.3, 0.2, 0.1))
        cfg = SamplerConfig(d=4, boxes=40, spectrum=spectrum, seed=3, chains=2)
        # 1 and 3 samples per chain fit several steps in a 7-cell block;
        # 1500 per chain take several steps per block only at the default
        default = {samples: sample_frame_counts(cfg, samples) for samples in (2, 6, 3000)}
        monkeypatch.setattr(rsk, "_BLOCK_CELLS", cells)
        for samples, expected in default.items():
            assert sample_frame_counts(cfg, samples) == expected


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

    def test_letters_past_eight_bits(self):
        # at d = 257 the last letter is 256, past eight bits: 256 thresholds
        # mark 257 path rows
        d, boxes, count = 257, 400, 3
        cfg = SamplerConfig(d=d, boxes=boxes, spectrum=Spectrum((1 / d,) * d), seed=11)
        draws = rsk._chain_rng(cfg.seed, 0).random((boxes, count))
        words = (draws[:, :, None] >= np.cumsum(cfg.spectrum.values)[:-1]).sum(axis=2)
        assert words.max() == d - 1
        expected = Counter()
        for sample in range(count):
            shape = rsk_shape([int(letter) + 1 for letter in words[:, sample]])
            expected[shape + (0,) * (d - len(shape))] += 1
        assert rsk._sample_shapes(cfg, 0, count) == expected

    def test_box_count_past_int32_rejected_before_allocating(self):
        cfg = SamplerConfig(d=3, boxes=2**31, spectrum=Spectrum((0.5, 0.3, 0.2)), seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="32-bit"):
                sample_frame_counts(cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**14
        # one box fewer passes to the memory check
        cfg = SamplerConfig(d=3, boxes=2**31 - 1, spectrum=Spectrum((0.5, 0.3, 0.2)), seed=1)
        with pytest.raises(ResourceLimitError, match="bytes"):
            sample_frame_counts(cfg, 10**11)

    def test_allocation_cap_checked_before_allocating(self):
        cfg = SamplerConfig(d=3, boxes=5, spectrum=Spectrum((0.5, 0.3, 0.2)), seed=1)
        with pytest.raises(ResourceLimitError, match="bytes"):
            sample_frame_counts(cfg, 10**11)

    @pytest.mark.parametrize("d, boxes, count", [(1, 50, 3000), (3, 3, 20000), (4, 100, 500)])
    def test_checked_bytes_cover_traced_peak(self, monkeypatch, d, boxes, count):
        values = tuple(v / sum(range(1, d + 1)) for v in range(d, 0, -1))
        cfg = SamplerConfig(d=d, boxes=boxes, spectrum=Spectrum(values), seed=5)
        tracemalloc.start()
        try:
            rsk._sample_shapes(cfg, 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the checked figure must reach the traced peak, less 16 KiB left
        # for interpreter objects: a cap that far below it rejects the chain
        monkeypatch.setattr(rsk, "MAX_CHAIN_BYTES", peak - 2**14)
        with pytest.raises(ResourceLimitError):
            rsk._sample_shapes(cfg, 0, count)

    def test_counts_thread_invariant(self):
        # each chain's counts depend only on (seed, chain, size), so the
        # merged law does not depend on the order the chains run in
        cfg = SamplerConfig(d=3, boxes=8, spectrum=Spectrum((0.6, 0.3, 0.1)), seed=29, chains=5)
        samples = 20_003
        base, extra = divmod(samples, cfg.chains)
        reversed_order = Counter()
        for chain in reversed(range(cfg.chains)):
            reversed_order.update(rsk._sample_shapes(cfg, chain, base + (chain < extra)))
        assert sample_frame_counts(cfg, samples) == reversed_order

    def test_chains_share_one_peak(self):
        # chains run one at a time: four of them cost no more memory than one
        spectrum = Spectrum((0.5, 0.3, 0.2))
        per_chain = 20_000
        single = SamplerConfig(d=3, boxes=10, spectrum=spectrum, seed=3)
        sample_frame_counts(single, per_chain)  # warm-up: first-call allocations
        peaks = []
        for cfg in (single, SamplerConfig(d=3, boxes=10, spectrum=spectrum, seed=3, chains=4)):
            tracemalloc.start()
            try:
                sample_frame_counts(cfg, per_chain * cfg.chains)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_chain, four_chains = peaks
        assert four_chains <= one_chain + 2**14

    def test_total_count_preserved(self):
        cfg = SamplerConfig(d=2, boxes=6, spectrum=Spectrum((0.8, 0.2)), seed=3, chains=3)
        counts = sample_frame_counts(cfg, 4321)
        assert sum(counts.values()) == 4321

    @pytest.mark.parametrize("boxes", [2**15 - 1, 2**15])
    def test_path_type_boundary(self, boxes):
        # int16 holds every path value up to N = 2^15 - 1; one box more takes
        # int32. The draws never reach a cumulative sum of 1, so every letter is 0
        cfg = SamplerConfig(d=3, boxes=boxes, spectrum=Spectrum((1.0, 0.0, 0.0)), seed=2, chains=2)
        assert sample_frame_counts(cfg, 4) == Counter({(boxes, 0, 0): 4})

    def test_checked_bytes_cover_the_counted_shapes(self, monkeypatch):
        # at d = 8 nearly every one of 10,000 samples has its own shape, and
        # the Counter of their tuples outweighs the int16 path state
        d, count = 8, 10_000
        values = tuple(v / sum(range(1, d + 1)) for v in range(d, 0, -1))
        cfg = SamplerConfig(d=d, boxes=300, spectrum=Spectrum(values), seed=5)
        tracemalloc.start()
        try:
            counts = rsk._sample_shapes(cfg, 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counts) > count // 2
        monkeypatch.setattr(rsk, "MAX_CHAIN_BYTES", peak - 2**14)
        with pytest.raises(ResourceLimitError):
            rsk._sample_shapes(cfg, 0, count)


class TestWordLetters:
    def test_thresholds_split_the_draws_exactly(self):
        # at each threshold word the draw is at or above its cumulative sum,
        # and one word below it is under; sums at 1 after rounding never step.
        # Sums below 1/2 have bits under 2^-53, where the threshold rounds up
        below_one = 1 - 2**-53
        spectra = [(0.5, 0.3, 0.2), (0.4, 0.3, 0.2, 0.1), (0.2,) * 5, (below_one, 2**-53, 0.0), (1.0, 1e-17, 0.0)]
        for values in spectra + [(1e-20, 1 - 1e-20), (0.0, 0.0, 1.0)]:
            cumulative = np.cumsum(values)[:-1]
            thresholds = rsk._word_thresholds(values)
            assert len(thresholds) == int((cumulative < 1).sum())
            for c, word in zip(cumulative, thresholds.tolist()):
                assert (word >> 11) * 2**-53 >= c
                assert word == 0 or ((word - 1) >> 11) * 2**-53 < c

    def test_letters_match_generator_random(self, monkeypatch):
        # the letters counted on raw words are those of Generator.random draws
        # on the same (seed, chain), over spectra with zero entries and
        # cumulative sums that round to 1
        rng = np.random.default_rng(23)
        spectra = [tuple(rng.dirichlet(np.full(d, alpha))) for d in (2, 3, 5, 9) for alpha in (0.05, 1.0)]
        spectra += [(0.5, 0.5, 0.0, 0.0), (1.0, 1e-17, 0.0), (0.6, 0.4 - 2**-54, 2**-54), (0.25,) * 4]
        captured = []

        def capture(blocks, thresholds, d, count, path_type):
            # the letter of a raw word counts the thresholds at or below it
            captured.extend((block[:, :, None] >= thresholds).sum(axis=2) for block in blocks)
            return np.zeros((count, d), dtype=path_type)

        monkeypatch.setattr(rsk, "_word_shapes", capture)
        for seed, values in enumerate(spectra):
            d, boxes, count, chain = len(values), 50, 700, seed % 3
            cfg = SamplerConfig(d=d, boxes=boxes, spectrum=Spectrum.from_unsorted(values), seed=seed)
            captured.clear()
            rsk._sample_shapes(cfg, chain, count)
            draws = rsk._chain_rng(seed, chain).random((boxes, count))
            expected = (draws[:, :, None] >= np.cumsum(cfg.spectrum.values)[:-1]).sum(axis=2)
            assert np.array_equal(np.concatenate(captured), expected), values


class TestWordThread:
    cfg = SamplerConfig(d=3, boxes=1000, spectrum=Spectrum((0.5, 0.3, 0.2)), seed=1)

    def test_kernel_error_stops_the_word_thread(self, monkeypatch):
        def fail_after_first_block(blocks, thresholds, d, count, path_type):
            next(iter(blocks))
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(rsk, "_word_shapes", fail_after_first_block)
        baseline = threading.active_count()
        with pytest.raises(RuntimeError, match="kernel failed"):
            rsk._sample_shapes(self.cfg, 0, 5000)
        assert threading.active_count() == baseline

    def test_blocks_arrive_whole_and_in_order_under_fast_switching(self):
        # the helper thread hands blocks to the kernel through a queue; with
        # the interpreter switching threads every microsecond, no block may
        # be lost, repeated or reordered
        count = 2000  # 63 blocks of at most 16 steps
        draws = rsk._chain_rng(self.cfg.seed, 0).random((self.cfg.boxes, count))
        letters = (draws[:, :, None] >= np.cumsum(self.cfg.spectrum.values)[:-1]).sum(axis=2)
        shapes = _word_shapes([letters], np.arange(1, self.cfg.d), self.cfg.d, count, np.int32)
        expected = Counter(map(tuple, shapes.tolist()))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert rsk._sample_shapes(self.cfg, 0, count) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_word_error_reaches_the_caller(self, monkeypatch):
        class FailsOnSecondBlock:
            blocks = 0

            def random_raw(self, size):
                self.blocks += 1
                if self.blocks > 1:
                    raise RuntimeError("words failed")
                return np.zeros(size, dtype=np.uint64)

        monkeypatch.setattr(rsk, "_chain_rng", lambda seed, chain: SimpleNamespace(bit_generator=FailsOnSecondBlock()))
        raised = []

        def sample():
            try:
                rsk._sample_shapes(self.cfg, 0, 5000)
            except RuntimeError as exc:
                raised.append(str(exc))

        baseline = threading.active_count()
        watcher = threading.Thread(target=sample, daemon=True)
        watcher.start()
        watcher.join(timeout=60)
        assert not watcher.is_alive(), "the sampler hangs after a failed word block"
        assert raised == ["words failed"]
        assert threading.active_count() == baseline


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

    @pytest.mark.parametrize(
        "d, boxes, samples",
        # dimensions verify never samples, with 10 and 15 Pitman pairs per letter
        [(5, 100, 40_000), (6, 60, 40_000)],
    )
    def test_chi_square_against_exact_at_higher_d(self, d, boxes, samples):
        values = tuple(v / sum(range(1, d + 1)) for v in range(d, 0, -1))
        spectrum = Spectrum(values)
        exact = exact_distribution(d, boxes, spectrum)
        cfg = SamplerConfig(d=d, boxes=boxes, spectrum=spectrum, seed=43, chains=3)
        report = rsk._fit_report(sample_frame_counts(cfg, samples), samples, exact)
        assert report.cells > 100
        assert report.p_value > 0.001

    def test_fit_report_from_the_law_columns(self):
        # the same case, against the values of the frame-by-frame report
        spectrum = Spectrum((0.7, 0.3))
        exact = exact_distribution(2, 10, spectrum)
        cfg = SamplerConfig(d=2, boxes=10, spectrum=spectrum, seed=37, chains=4)
        report = empirical_distribution(cfg, 100_000, exact=exact).fit
        assert report.tv_distance == pytest.approx(0.0018417616000003263, rel=1e-12)
        assert report.chi_square == pytest.approx(2.0697995612504574, rel=1e-12)
        assert (report.cells, report.degrees_of_freedom) == (6, 5)


def test_chi_square_tail_matches_scipy():
    from scipy import stats

    for k in [*range(1, 41), 49, 50, 99, 100, 501, 1000, 2999, 5000]:
        for x in [1e-300, 1e-8, 1e-3, *np.linspace(0.0, 2 * k + 10, 81)]:
            reference, got = stats.chi2.sf(x, k), rsk._chi2_sf(float(x), k)
            if reference > 1e-300:
                assert abs(got - reference) <= 1e-10 * reference, (k, x)


def test_verify_leaves_scipy_unimported():
    # the fit report's chi-square tail is closed form, so no runtime path loads scipy
    script = (
        "import sys; from spectrum_scope.cli import main; "
        "code = main(['verify', '--level', 'quick']); assert 'scipy' not in sys.modules; sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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


# Counts recorded by letter-by-letter row insertion of the same streams
# (seed 7, 2 chains, 500 samples). The sampler promises seed-for-seed output,
# so any shape kernel must reproduce them exactly.
PINNED_COUNTS = [
    (3, 200, (0.5, 0.3, 0.2), {
        (120, 53, 27): 1, (118, 46, 36): 1, (117, 56, 27): 1, (117, 49, 34): 1,
        (116, 57, 27): 1, (116, 56, 28): 1, (116, 52, 32): 2, (115, 63, 22): 1,
        (115, 52, 33): 1, (115, 51, 34): 1, (115, 48, 37): 1, (114, 58, 28): 1,
        (114, 56, 30): 1, (114, 49, 37): 1, (114, 48, 38): 1, (113, 59, 28): 1,
        (113, 58, 29): 2, (113, 52, 35): 1, (113, 48, 39): 1, (112, 57, 31): 1,
        (112, 56, 32): 1, (112, 52, 36): 2, (112, 51, 37): 1, (112, 49, 39): 2,
        (111, 62, 27): 1, (111, 57, 32): 1, (111, 55, 34): 2, (111, 54, 35): 1,
        (111, 53, 36): 1, (110, 62, 28): 1, (110, 60, 30): 1, (110, 59, 31): 1,
        (110, 58, 32): 1, (110, 56, 34): 1, (110, 53, 37): 1, (110, 52, 38): 1,
        (110, 51, 39): 1, (110, 50, 40): 2, (110, 49, 41): 1, (109, 63, 28): 1,
        (109, 59, 32): 2, (109, 57, 34): 5, (109, 55, 36): 4, (109, 54, 37): 1,
        (109, 53, 38): 1, (109, 52, 39): 1, (109, 51, 40): 1, (109, 50, 41): 1,
        (109, 49, 42): 1, (109, 48, 43): 1, (108, 64, 28): 1, (108, 62, 30): 1,
        (108, 61, 31): 4, (108, 60, 32): 3, (108, 59, 33): 1, (108, 58, 34): 3,
        (108, 57, 35): 2, (108, 56, 36): 2, (108, 55, 37): 3, (108, 54, 38): 2,
        (108, 53, 39): 1, (108, 52, 40): 1, (108, 51, 41): 1, (108, 50, 42): 1,
        (107, 65, 28): 3, (107, 63, 30): 1, (107, 62, 31): 1, (107, 61, 32): 1,
        (107, 60, 33): 2, (107, 59, 34): 1, (107, 57, 36): 1, (107, 55, 38): 2,
        (107, 53, 40): 2, (107, 52, 41): 1, (107, 51, 42): 1, (106, 67, 27): 1,
        (106, 65, 29): 1, (106, 64, 30): 3, (106, 63, 31): 2, (106, 61, 33): 2,
        (106, 60, 34): 2, (106, 59, 35): 2, (106, 58, 36): 3, (106, 57, 37): 1,
        (106, 56, 38): 4, (106, 55, 39): 3, (106, 54, 40): 2, (106, 53, 41): 1,
        (106, 52, 42): 2, (106, 51, 43): 2, (105, 69, 26): 1, (105, 67, 28): 1,
        (105, 65, 30): 2, (105, 64, 31): 1, (105, 63, 32): 2, (105, 62, 33): 2,
        (105, 61, 34): 1, (105, 60, 35): 4, (105, 59, 36): 2, (105, 58, 37): 4,
        (105, 57, 38): 2, (105, 55, 40): 2, (105, 52, 43): 4, (105, 51, 44): 1,
        (105, 50, 45): 1, (105, 49, 46): 1, (104, 68, 28): 2, (104, 67, 29): 1,
        (104, 65, 31): 1, (104, 64, 32): 4, (104, 63, 33): 3, (104, 62, 34): 1,
        (104, 61, 35): 1, (104, 60, 36): 3, (104, 59, 37): 3, (104, 58, 38): 1,
        (104, 57, 39): 2, (104, 56, 40): 5, (104, 55, 41): 2, (104, 54, 42): 1,
        (104, 53, 43): 3, (104, 52, 44): 1, (104, 51, 45): 1, (103, 69, 28): 2,
        (103, 67, 30): 2, (103, 66, 31): 1, (103, 65, 32): 2, (103, 64, 33): 1,
        (103, 63, 34): 3, (103, 62, 35): 2, (103, 61, 36): 3, (103, 60, 37): 1,
        (103, 59, 38): 2, (103, 58, 39): 3, (103, 57, 40): 3, (103, 56, 41): 2,
        (103, 55, 42): 1, (103, 51, 46): 1, (103, 50, 47): 1, (102, 68, 30): 1,
        (102, 67, 31): 1, (102, 66, 32): 1, (102, 65, 33): 4, (102, 64, 34): 4,
        (102, 63, 35): 3, (102, 62, 36): 4, (102, 61, 37): 3, (102, 60, 38): 1,
        (102, 59, 39): 2, (102, 58, 40): 5, (102, 57, 41): 1, (102, 56, 42): 4,
        (102, 55, 43): 3, (102, 54, 44): 3, (102, 53, 45): 2, (101, 68, 31): 1,
        (101, 67, 32): 1, (101, 66, 33): 2, (101, 65, 34): 4, (101, 64, 35): 1,
        (101, 63, 36): 3, (101, 62, 37): 4, (101, 61, 38): 1, (101, 60, 39): 1,
        (101, 59, 40): 3, (101, 58, 41): 3, (101, 57, 42): 4, (101, 56, 43): 1,
        (101, 54, 45): 1, (100, 72, 28): 2, (100, 70, 30): 2, (100, 69, 31): 1,
        (100, 67, 33): 2, (100, 65, 35): 3, (100, 64, 36): 4, (100, 63, 37): 1,
        (100, 62, 38): 4, (100, 61, 39): 2, (100, 60, 40): 3, (100, 59, 41): 2,
        (100, 57, 43): 3, (100, 56, 44): 2, (100, 54, 46): 1, (99, 74, 27): 1,
        (99, 73, 28): 2, (99, 72, 29): 1, (99, 71, 30): 1, (99, 68, 33): 3, (99, 66, 35): 1,
        (99, 65, 36): 2, (99, 64, 37): 3, (99, 63, 38): 1, (99, 62, 39): 2, (99, 61, 40): 2,
        (99, 60, 41): 1, (99, 59, 42): 1, (99, 58, 43): 1, (99, 57, 44): 1, (99, 55, 46): 1,
        (98, 75, 27): 1, (98, 73, 29): 1, (98, 70, 32): 3, (98, 68, 34): 2, (98, 65, 37): 3,
        (98, 63, 39): 1, (98, 62, 40): 2, (98, 60, 42): 4, (98, 59, 43): 2, (98, 58, 44): 1,
        (98, 56, 46): 1, (98, 54, 48): 2, (97, 69, 34): 2, (97, 68, 35): 3, (97, 67, 36): 1,
        (97, 66, 37): 1, (97, 65, 38): 4, (97, 63, 40): 5, (97, 62, 41): 1, (97, 60, 43): 2,
        (97, 59, 44): 1, (97, 58, 45): 2, (97, 55, 48): 1, (96, 71, 33): 1, (96, 69, 35): 1,
        (96, 68, 36): 1, (96, 66, 38): 1, (96, 65, 39): 1, (96, 63, 41): 3, (96, 62, 42): 2,
        (96, 61, 43): 1, (96, 60, 44): 2, (96, 59, 45): 1, (96, 58, 46): 4, (96, 55, 49): 1,
        (95, 74, 31): 1, (95, 72, 33): 2, (95, 65, 40): 2, (95, 64, 41): 1, (95, 63, 42): 1,
        (95, 62, 43): 1, (95, 61, 44): 1, (95, 58, 47): 1, (95, 57, 48): 2, (95, 56, 49): 4,
        (94, 72, 34): 1, (94, 71, 35): 1, (94, 70, 36): 1, (94, 68, 38): 1, (94, 66, 40): 2,
        (94, 64, 42): 1, (94, 62, 44): 1, (94, 61, 45): 2, (94, 57, 49): 1, (93, 74, 33): 1,
        (93, 72, 35): 1, (93, 69, 38): 1, (93, 63, 44): 1, (93, 62, 45): 1, (93, 60, 47): 1,
        (93, 58, 49): 1, (92, 72, 36): 1, (92, 71, 37): 1, (92, 70, 38): 2, (92, 69, 39): 1,
        (92, 65, 43): 1, (92, 64, 44): 1, (92, 63, 45): 2, (92, 58, 50): 1, (92, 56, 52): 1,
        (91, 70, 39): 1, (91, 69, 40): 1, (91, 68, 41): 1, (91, 66, 43): 1, (91, 64, 45): 1,
        (91, 62, 47): 1, (91, 61, 48): 1, (91, 60, 49): 1, (90, 68, 42): 2, (90, 66, 44): 1,
        (89, 73, 38): 1, (89, 71, 40): 1, (89, 69, 42): 1, (88, 77, 35): 1, (88, 75, 37): 1,
        (88, 74, 38): 1, (88, 72, 40): 1, (88, 67, 45): 2, (88, 65, 47): 1, (88, 63, 49): 1,
        (88, 61, 51): 1, (87, 75, 38): 1, (87, 67, 46): 1, (86, 79, 35): 1, (86, 70, 44): 1,
        (85, 72, 43): 1, (85, 67, 48): 1,
    }),
    (5, 40, (0.3, 0.25, 0.2, 0.15, 0.1), {
        (23, 9, 4, 4, 0): 1, (23, 8, 6, 3, 0): 1, (22, 12, 3, 3, 0): 2,
        (22, 10, 6, 2, 0): 1, (22, 10, 5, 3, 0): 1, (22, 10, 3, 3, 2): 1,
        (22, 9, 7, 2, 0): 1, (22, 8, 7, 2, 1): 1, (22, 8, 5, 5, 0): 1, (21, 13, 4, 1, 1): 1,
        (21, 12, 5, 1, 1): 1, (21, 12, 4, 2, 1): 1, (21, 11, 4, 3, 1): 2,
        (21, 10, 8, 1, 0): 1, (21, 10, 6, 3, 0): 2, (21, 10, 5, 4, 0): 1,
        (21, 10, 5, 3, 1): 3, (21, 10, 4, 3, 2): 1, (21, 9, 7, 3, 0): 1,
        (21, 9, 7, 2, 1): 1, (21, 9, 5, 4, 1): 1, (21, 8, 6, 4, 1): 1, (21, 8, 6, 3, 2): 1,
        (21, 8, 5, 5, 1): 1, (20, 12, 6, 2, 0): 2, (20, 12, 5, 3, 0): 1,
        (20, 12, 4, 3, 1): 1, (20, 11, 6, 3, 0): 2, (20, 11, 6, 2, 1): 2,
        (20, 11, 4, 4, 1): 2, (20, 11, 4, 3, 2): 1, (20, 10, 8, 2, 0): 1,
        (20, 10, 7, 3, 0): 1, (20, 10, 6, 4, 0): 1, (20, 10, 6, 3, 1): 2,
        (20, 10, 5, 4, 1): 3, (20, 10, 5, 3, 2): 1, (20, 9, 7, 3, 1): 1,
        (20, 9, 6, 4, 1): 1, (20, 9, 6, 3, 2): 3, (20, 9, 5, 5, 1): 1, (20, 9, 5, 4, 2): 2,
        (20, 8, 6, 5, 1): 1, (20, 8, 6, 4, 2): 1, (19, 13, 6, 2, 0): 1,
        (19, 13, 4, 3, 1): 1, (19, 12, 7, 2, 0): 2, (19, 12, 6, 3, 0): 4,
        (19, 12, 6, 2, 1): 1, (19, 12, 5, 2, 2): 1, (19, 12, 4, 3, 2): 1,
        (19, 11, 8, 2, 0): 1, (19, 11, 7, 3, 0): 2, (19, 11, 7, 2, 1): 2,
        (19, 11, 6, 4, 0): 1, (19, 11, 6, 3, 1): 2, (19, 11, 5, 5, 0): 1,
        (19, 11, 5, 4, 1): 1, (19, 10, 8, 3, 0): 2, (19, 10, 8, 2, 1): 1,
        (19, 10, 7, 3, 1): 2, (19, 10, 6, 5, 0): 1, (19, 10, 6, 4, 1): 2,
        (19, 10, 6, 3, 2): 1, (19, 10, 5, 4, 2): 1, (19, 9, 9, 3, 0): 1,
        (19, 9, 9, 2, 1): 1, (19, 9, 8, 3, 1): 2, (19, 9, 7, 4, 1): 5, (19, 9, 5, 5, 2): 2,
        (19, 9, 5, 4, 3): 1, (19, 8, 7, 5, 1): 1, (19, 8, 7, 4, 2): 3, (19, 8, 6, 5, 2): 1,
        (19, 8, 5, 5, 3): 1, (19, 7, 7, 4, 3): 1, (18, 14, 4, 4, 0): 1,
        (18, 14, 4, 3, 1): 1, (18, 13, 5, 4, 0): 1, (18, 13, 5, 3, 1): 1,
        (18, 13, 4, 4, 1): 1, (18, 13, 4, 3, 2): 1, (18, 12, 7, 3, 0): 2,
        (18, 12, 7, 2, 1): 1, (18, 12, 6, 3, 1): 2, (18, 12, 6, 2, 2): 2,
        (18, 11, 10, 1, 0): 1, (18, 11, 8, 3, 0): 2, (18, 11, 7, 4, 0): 4,
        (18, 11, 7, 3, 1): 2, (18, 11, 6, 5, 0): 1, (18, 11, 6, 4, 1): 5,
        (18, 11, 6, 3, 2): 2, (18, 11, 5, 4, 2): 3, (18, 11, 5, 3, 3): 3,
        (18, 10, 9, 3, 0): 1, (18, 10, 9, 2, 1): 1, (18, 10, 8, 4, 0): 1,
        (18, 10, 8, 3, 1): 2, (18, 10, 7, 4, 1): 7, (18, 10, 7, 3, 2): 3,
        (18, 10, 6, 5, 1): 2, (18, 10, 6, 4, 2): 4, (18, 10, 5, 4, 3): 2,
        (18, 9, 9, 4, 0): 2, (18, 9, 9, 2, 2): 1, (18, 9, 7, 5, 1): 1, (18, 9, 7, 4, 2): 2,
        (18, 9, 7, 3, 3): 1, (18, 9, 6, 6, 1): 1, (18, 9, 6, 5, 2): 1, (18, 9, 5, 5, 3): 2,
        (18, 8, 6, 6, 2): 1, (17, 17, 5, 1, 0): 1, (17, 14, 6, 2, 1): 1,
        (17, 13, 8, 2, 0): 4, (17, 13, 7, 2, 1): 2, (17, 13, 6, 4, 0): 2,
        (17, 13, 6, 3, 1): 3, (17, 13, 6, 2, 2): 1, (17, 13, 5, 5, 0): 1,
        (17, 13, 5, 4, 1): 3, (17, 13, 5, 3, 2): 2, (17, 12, 9, 2, 0): 1,
        (17, 12, 8, 3, 0): 1, (17, 12, 8, 2, 1): 2, (17, 12, 7, 4, 0): 1,
        (17, 12, 7, 2, 2): 1, (17, 12, 6, 5, 0): 1, (17, 12, 6, 4, 1): 6,
        (17, 12, 6, 3, 2): 2, (17, 12, 5, 4, 2): 1, (17, 12, 5, 3, 3): 1,
        (17, 11, 9, 2, 1): 3, (17, 11, 8, 4, 0): 1, (17, 11, 8, 3, 1): 2,
        (17, 11, 8, 2, 2): 2, (17, 11, 7, 5, 0): 2, (17, 11, 7, 4, 1): 4,
        (17, 11, 7, 3, 2): 5, (17, 11, 6, 5, 1): 1, (17, 11, 6, 4, 2): 4,
        (17, 11, 6, 3, 3): 1, (17, 11, 5, 4, 3): 2, (17, 10, 9, 3, 1): 1,
        (17, 10, 8, 5, 0): 1, (17, 10, 8, 4, 1): 2, (17, 10, 8, 3, 2): 3,
        (17, 10, 7, 6, 0): 1, (17, 10, 7, 5, 1): 4, (17, 10, 7, 4, 2): 1,
        (17, 10, 6, 6, 1): 2, (17, 10, 6, 5, 2): 4, (17, 10, 6, 4, 3): 4,
        (17, 10, 5, 5, 3): 2, (17, 10, 5, 4, 4): 1, (17, 9, 9, 3, 2): 2,
        (17, 9, 8, 6, 0): 1, (17, 9, 8, 4, 2): 2, (17, 9, 7, 5, 2): 2, (17, 9, 6, 5, 3): 1,
        (16, 14, 7, 3, 0): 1, (16, 14, 7, 2, 1): 2, (16, 14, 5, 4, 1): 2,
        (16, 14, 5, 3, 2): 1, (16, 13, 9, 2, 0): 1, (16, 13, 9, 1, 1): 1,
        (16, 13, 8, 2, 1): 1, (16, 13, 7, 4, 0): 1, (16, 13, 7, 3, 1): 1,
        (16, 13, 7, 2, 2): 1, (16, 13, 6, 4, 1): 2, (16, 13, 6, 3, 2): 4,
        (16, 13, 5, 4, 2): 1, (16, 12, 9, 3, 0): 3, (16, 12, 8, 4, 0): 3,
        (16, 12, 8, 3, 1): 2, (16, 12, 8, 2, 2): 1, (16, 12, 7, 4, 1): 2,
        (16, 12, 7, 3, 2): 3, (16, 12, 6, 5, 1): 2, (16, 12, 6, 4, 2): 5,
        (16, 12, 6, 3, 3): 1, (16, 12, 4, 4, 4): 1, (16, 11, 10, 2, 1): 1,
        (16, 11, 9, 3, 1): 1, (16, 11, 8, 5, 0): 2, (16, 11, 8, 4, 1): 2,
        (16, 11, 8, 3, 2): 2, (16, 11, 7, 6, 0): 1, (16, 11, 7, 5, 1): 3,
        (16, 11, 7, 4, 2): 6, (16, 11, 6, 5, 2): 2, (16, 10, 10, 4, 0): 1,
        (16, 10, 10, 2, 2): 1, (16, 10, 9, 4, 1): 2, (16, 10, 8, 6, 0): 1,
        (16, 10, 8, 5, 1): 1, (16, 10, 8, 4, 2): 2, (16, 10, 8, 3, 3): 1,
        (16, 10, 7, 6, 1): 1, (16, 10, 7, 5, 2): 3, (16, 10, 7, 4, 3): 3,
        (16, 10, 6, 5, 3): 3, (16, 9, 8, 6, 1): 2, (16, 9, 8, 5, 2): 4, (16, 9, 7, 5, 3): 1,
        (16, 8, 8, 5, 3): 1, (16, 8, 7, 6, 3): 1, (15, 14, 8, 3, 0): 1,
        (15, 14, 8, 2, 1): 1, (15, 14, 7, 3, 1): 2, (15, 14, 6, 3, 2): 1,
        (15, 13, 8, 2, 2): 1, (15, 13, 7, 5, 0): 1, (15, 13, 7, 4, 1): 2,
        (15, 13, 7, 3, 2): 1, (15, 13, 6, 5, 1): 1, (15, 13, 6, 4, 2): 2,
        (15, 13, 6, 3, 3): 1, (15, 13, 5, 4, 3): 1, (15, 12, 10, 2, 1): 1,
        (15, 12, 8, 5, 0): 1, (15, 12, 8, 4, 1): 2, (15, 12, 8, 3, 2): 4,
        (15, 12, 7, 5, 1): 4, (15, 12, 7, 4, 2): 5, (15, 12, 6, 5, 2): 4,
        (15, 12, 5, 5, 3): 1, (15, 11, 9, 5, 0): 3, (15, 11, 9, 3, 2): 1,
        (15, 11, 8, 6, 0): 1, (15, 11, 8, 5, 1): 1, (15, 11, 8, 4, 2): 3,
        (15, 11, 8, 3, 3): 1, (15, 11, 7, 6, 1): 1, (15, 11, 7, 5, 2): 3,
        (15, 11, 7, 4, 3): 2, (15, 11, 6, 5, 3): 1, (15, 10, 10, 3, 2): 1,
        (15, 10, 9, 5, 1): 1, (15, 10, 9, 3, 3): 1, (15, 10, 8, 7, 0): 1,
        (15, 10, 8, 6, 1): 1, (15, 10, 8, 5, 2): 2, (15, 10, 7, 6, 2): 2,
        (15, 10, 7, 5, 3): 1, (15, 10, 6, 6, 3): 2, (15, 9, 8, 6, 2): 1,
        (15, 9, 8, 5, 3): 2, (15, 9, 7, 5, 4): 1, (14, 14, 8, 4, 0): 1,
        (14, 13, 9, 2, 2): 1, (14, 13, 8, 4, 1): 2, (14, 13, 8, 3, 2): 1,
        (14, 13, 7, 5, 1): 1, (14, 13, 7, 3, 3): 1, (14, 13, 6, 5, 2): 1,
        (14, 12, 11, 2, 1): 1, (14, 12, 9, 4, 1): 4, (14, 12, 9, 3, 2): 1,
        (14, 12, 8, 5, 1): 3, (14, 12, 8, 4, 2): 2, (14, 12, 7, 6, 1): 2,
        (14, 11, 9, 5, 1): 1, (14, 11, 8, 6, 1): 2, (14, 11, 8, 5, 2): 2,
        (14, 11, 8, 4, 3): 1, (14, 11, 7, 6, 2): 1, (14, 11, 6, 6, 3): 1,
        (14, 10, 9, 5, 2): 2, (14, 10, 9, 4, 3): 1, (14, 10, 8, 5, 3): 1,
        (14, 10, 7, 7, 2): 2, (14, 10, 7, 6, 3): 1, (14, 10, 7, 5, 4): 1,
        (14, 9, 8, 7, 2): 1, (14, 9, 8, 6, 3): 1, (14, 9, 7, 6, 4): 1, (13, 13, 8, 6, 0): 1,
        (13, 13, 7, 4, 3): 1, (13, 13, 6, 6, 2): 1, (13, 12, 10, 3, 2): 1,
        (13, 12, 8, 6, 1): 2, (13, 12, 8, 5, 2): 2, (13, 12, 7, 5, 3): 1,
        (13, 11, 10, 5, 1): 1, (13, 11, 9, 5, 2): 2, (13, 11, 9, 4, 3): 2,
        (13, 10, 10, 6, 1): 1, (13, 10, 10, 4, 3): 1, (13, 10, 8, 6, 3): 2,
        (13, 10, 6, 6, 5): 1, (12, 12, 9, 4, 3): 1, (12, 12, 8, 5, 3): 1,
        (12, 10, 10, 5, 3): 1,
    }),
    (1, 25, (1.0,), {
        (25,): 500,
    }),
    (3, 0, (0.5, 0.3, 0.2), {
        (0, 0, 0): 500,
    }),
    (3, 30, (0.5, 0.5, 0.0), {
        (25, 5, 0): 3, (24, 6, 0): 3, (23, 7, 0): 11, (22, 8, 0): 24, (21, 9, 0): 45,
        (20, 10, 0): 87, (19, 11, 0): 108, (18, 12, 0): 106, (17, 13, 0): 77,
        (16, 14, 0): 33, (15, 15, 0): 3,
    }),

]


@pytest.mark.parametrize(
    "d, boxes, values, expected",
    PINNED_COUNTS,
    ids=["d3-N200", "d5-N40", "d1", "N0", "zero-eigenvalue"],
)
def test_counts_pinned_seed_for_seed(d, boxes, values, expected):
    cfg = SamplerConfig(d=d, boxes=boxes, spectrum=Spectrum(values), seed=7, chains=2)
    assert sample_frame_counts(cfg, 500) == expected
