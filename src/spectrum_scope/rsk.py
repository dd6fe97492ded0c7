"""Exact outcome sampling by row insertion of an i.i.d. letter stream.

Row-inserting N letters drawn with the eigenvalue probabilities and keeping
only the shape reproduces the exact measurement outcome law, so sampling
scales to box counts far beyond enumeration range. The sampler never builds
a tableau: by Greene's theorem the shape is the endpoint of the letter-count
path after one Pitman transform per letter pair (O'Connell, Trans. AMS 355
(2003); Biane-Bougerol-O'Connell, Duke Math. J. 130 (2005)). That is O(d^2)
work per letter, vectorized across samples and streamed in time blocks of
about ``_BLOCK_CELLS`` letters (one step when a chain has more samples than
that). Path state is the smallest signed type that holds -N to N (int8 up
to N = 127, int16 below N = 2^15, int32 up to the cap of 2^31 - 1), and
every block reuses the same buffers. The running sums and maxima down a
block's time axis go row by row when the block has fewer steps than a row
has cells, and by ``ufunc.accumulate`` otherwise.

Each chain draws from its own counter-based Philox stream. One helper thread
fills the chain's raw 64-bit words one or two blocks ahead of the kernel;
numpy fills them without holding the GIL, so on a second core the draws
overlap the shape updates. The kernel reads the letter-count path off the
words by integer threshold compares, bit for bit the letters of
``Generator.random`` on the same stream. Each chain tallies its shapes into
shape and count columns, and the same tally merges them into the law of the
chains before. Chains run in sequence and each one's check counts the law
held from earlier ones, so the 1 GiB chain cap ``MAX_CHAIN_BYTES`` bounds
the sampler's peak. More chains split the stream and bound memory; they do
not add parallelism.
"""
from __future__ import annotations

import itertools
import math
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError
from .frames import Spectrum
from .logspace import log_sum_exp

if TYPE_CHECKING:
    from .measure import SchurWeylDistribution

# largest path state, word blocks and shape counts of one chain
MAX_CHAIN_BYTES = 2**30
# time steps x samples per streamed word block: with 5,000 samples per d=3
# chain, 2^14 was 10-30% slower and 2^16 no faster, with twice the buffers
_BLOCK_CELLS = 2**15
# path values and pair differences lie in [-N, N], held in at most int32
_MAX_BOXES = 2**31 - 1


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
    """The counter-based stream of one chain; (seed, chain) fixes it completely."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(chain,))
    return np.random.Generator(np.random.Philox(sequence))


def _running(ufunc: np.ufunc, block: np.ndarray) -> None:
    """``block[t] = ufunc(block[t - 1], block[t])`` down axis 0, in place.

    ``ufunc.accumulate`` down a short axis 0 pays a fixed cost per column and
    a row loop one per row, so a block with fewer steps than a row has cells
    runs row by row. Over one row both are the identity.
    """
    if len(block) < block[0].size:
        rows = list(block)
        for prev, row in zip(rows, rows[1:]):
            ufunc(prev, row, out=row)
    else:
        ufunc.accumulate(block, axis=0, out=block)


def _word_shapes(
    blocks: Iterable[np.ndarray], thresholds: np.ndarray, d: int, count: int, path_type: np.dtype
) -> np.ndarray:
    """Row-insertion shapes ``(count, d)`` of words given as ``(T, count)``
    blocks of raw 64-bit words, row ``t`` holding every sample's next one.
    The 0-based letter of a raw word counts the ascending ``thresholds`` at
    or below it, so d - 1 thresholds give every letter.

    The shape is the endpoint of the letter-count path ``x`` after, for each
    pair ``i < j`` in lexicographic order, ``x_i, x_j = x_j + M, x_i - M``
    with ``M = max(0, running max of x_i - x_j)``. Every step is causal, so
    blocks carry only the raw endpoints and the pair peaks. Every path value
    and pair difference lies in [-N, N], so the state is held in the signed
    ``path_type`` that holds both ends.
    """
    ends = np.zeros((d, count), dtype=path_type)
    peaks = np.zeros((d * (d - 1) // 2, count), dtype=path_type)
    rows = list(ends[:, None])  # no blocks: every shape is empty
    size = 0
    for words in blocks:
        steps = len(words)
        if steps > size:  # every block after the first is at most as long
            size = steps
            path_buffer = np.empty((d, size, count), dtype=path_type)
            peak_buffer = np.empty((size, count), dtype=path_type)
            spare_buffer = np.empty((size, count), dtype=path_type)
        paths, peak, spare = path_buffer[:, :steps], peak_buffer[:steps], spare_buffer[:steps]
        # row c marks letter >= c (none past the last threshold), and less
        # row c + 1, letter == c
        paths[0] = 1
        for c, threshold in enumerate(thresholds, start=1):
            np.greater_equal(words, threshold, out=paths[c])
        paths[len(thresholds) + 1 :] = 0
        for c in range(len(thresholds)):
            paths[c] -= paths[c + 1]
        paths[:, 0] += ends
        # rows[i] is the (T, count) path of coordinate i, contiguous
        rows = list(paths)
        for row in rows:
            _running(np.add, row)
        ends[...] = paths[:, -1]
        for pair, (i, j) in enumerate(itertools.combinations(range(d), 2)):
            np.subtract(rows[i], rows[j], out=peak)
            np.maximum(peak[0], peaks[pair], out=peak[0])
            _running(np.maximum, peak)
            peaks[pair] = peak[-1]
            np.add(rows[j], peak, out=spare)
            np.subtract(rows[i], peak, out=rows[j])
            rows[i], spare = spare, rows[i]
    return np.stack([row[-1] for row in rows], axis=1)


def _word_thresholds(values: Sequence[float]) -> np.ndarray:
    """The raw Philox words at which the letter steps up, in increasing order.

    The letter of a draw counts the first d-1 cumulative sums of ``values``
    at or below it. ``Generator.random`` on Philox draws ``(u >> 11) 2^-53``
    from the raw word u, so the draw is at least c < 1 exactly when
    ``u >= ceil(c 2^53) << 11``, and never at least c >= 1.
    """
    cumulative = np.cumsum(np.asarray(values))[:-1]
    return np.ceil(np.ldexp(cumulative[cumulative < 1], 53)).astype(np.uint64) << np.uint64(11)


@contextmanager
def _words_ahead(
    bit_generator: np.random.BitGenerator, boxes: int, steps: int, count: int
) -> Iterator[Iterator[np.ndarray]]:
    """The raw 64-bit words of one chain as ``(T, count)`` blocks of at most
    ``steps`` rows, in stream order, so row ``t`` holds every sample's next
    word. One helper thread fills them one or two blocks ahead of the caller,
    and numpy fills them without holding the GIL. The thread has ended when
    the ``with`` block is left, also by an exception on either side.
    """
    starts = range(0, boxes, steps)
    ahead: queue.Queue = queue.Queue(maxsize=1)
    stop = threading.Event()

    def fill() -> None:
        try:
            for start in starts:
                if stop.is_set():
                    return
                rows = min(steps, boxes - start)
                ahead.put(bit_generator.random_raw(rows * count).reshape(rows, count))
        except Exception as exc:
            ahead.put(exc)

    def blocks() -> Iterator[np.ndarray]:
        for _ in starts:
            words = ahead.get()
            if isinstance(words, Exception):
                raise words
            yield words

    helper = threading.Thread(target=fill, name="philox-words", daemon=True)
    helper.start()
    try:
        yield blocks()
    finally:
        stop.set()
        while not ahead.empty():  # unblocks a put on a full queue
            ahead.get_nowait()
        helper.join()


def _tally(rows: np.ndarray, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``rows`` in lexicographically decreasing order, and the
    int64 number of times each occurs or the sum of its ``weights``: sort, then
    cut where a row changes. np.lexsort buffers an int64 index for strided keys
    and none for contiguous ones."""
    order = np.lexsort(np.ascontiguousarray(rows.T[::-1]))[::-1]
    ordered = rows[order]
    cuts = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1), True])
    counts = np.diff(cuts) if weights is None else np.add.reduceat(weights[order], cuts[:-1])
    return ordered[cuts[:-1]], counts


def _sample_shapes(cfg: SamplerConfig, chain: int, count: int, merged: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """One chain's distinct shapes, in its path type, and their counts, as
    ``_tally`` gives them; vectorized across its samples. The check of the
    chain's bytes counts the ``merged`` shapes held from earlier chains."""
    d = cfg.d
    if cfg.boxes > _MAX_BOXES:
        raise ResourceLimitError(
            f"{cfg.boxes} boxes overflow the sampler's 32-bit path state; the cap is {_MAX_BOXES}"
        )
    steps = max(1, min(cfg.boxes, _BLOCK_CELLS // count))
    # the smallest signed type that holds -N - 1 holds [-N, N]
    path_type = np.min_scalar_type(-cfg.boxes - 1)
    state = path_type.itemsize
    # per sample: the carried endpoints and pair peaks, and, to tally the
    # shapes, at most three copies of them (drawn, sorted, distinct) and three
    # int64 indices (the sort's, the cuts, the counts); per block cell: the
    # word in 8 bytes, three blocks at once (filling, queued, read), and d
    # paths and two pair rows; per shape of the law (the merged ones and at
    # most one per sample): a row of path state and an int64 count, four
    # copies of them and two int64 indices while the chains merge, and the
    # law's int64 row and count; and numpy's cast buffers, getbufsize()
    # elements of at most 8 bytes
    per_sample = state * (d + d * (d - 1) // 2) + 3 * state * d + 24
    per_cell = 3 * 8 + state * (d + 2)
    per_shape = 4 * (state * d + 8) + 16 + 8 * (d + 1)
    needed = count * (per_sample + per_cell * steps) + (merged + count) * per_shape + 8 * np.getbufsize()
    if needed > MAX_CHAIN_BYTES:
        raise ResourceLimitError(
            f"one chain of {count} samples at d={d} needs {needed} bytes of path state, "
            f"word blocks and the shape law, over the cap of {MAX_CHAIN_BYTES}"
        )
    with _words_ahead(_chain_rng(cfg.seed, chain).bit_generator, cfg.boxes, steps, count) as word_blocks:
        shapes = _word_shapes(word_blocks, _word_thresholds(cfg.spectrum.values), d, count, path_type)
    return _tally(shapes)


def _shape_law(cfg: SamplerConfig, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The sampled law as ``_tally`` columns. Chains are independent streams
    run one after another, each tallied into the law of the ones before, so
    the law depends only on the seed and the chain sizes."""
    if samples < 1:
        raise ValueError("need at least one sample")
    base, extra = divmod(samples, cfg.chains)
    # int8 rows take the chains' path type at the first merge
    rows, counts = np.empty((0, cfg.d), dtype=np.int8), np.empty(0, dtype=np.int64)
    for chain in range(min(samples, cfg.chains)):
        chain_rows, chain_counts = _sample_shapes(cfg, chain, base + (chain < extra), len(counts))
        rows, counts = _tally(np.concatenate([rows, chain_rows]), np.concatenate([counts, chain_counts]))
    return rows, counts


@dataclass(frozen=True)
class FitReport:
    """Agreement between sampled counts and an exact distribution."""

    tv_distance: float
    chi_square: float
    degrees_of_freedom: int
    p_value: float
    cells: int


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sampled law as two columns: ``rows``, int64 (F, d), one distinct shape
    per row in the canonical (lexicographically decreasing) order of
    ``SchurWeylDistribution``, and ``counts``, int64 (F,), the draws of each.
    Both are copied on construction and read-only; ``samples`` and
    ``mean_estimate`` are formed from them on demand."""

    rows: np.ndarray
    counts: np.ndarray
    fit: FitReport | None = None

    def __post_init__(self):
        for name in ("rows", "counts"):
            column = np.array(getattr(self, name), dtype=np.int64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def samples(self) -> int:
        return int(self.counts.sum())

    @property
    def mean_estimate(self) -> tuple[float, ...]:
        # exact integer totals of the row lengths, at most samples x N, each divided once
        scale = self.samples * (int(self.rows[0].sum()) or 1)
        return tuple(total / scale for total in (self.counts @ self.rows).tolist())


def empirical_distribution(
    cfg: SamplerConfig,
    samples: int,
    exact: SchurWeylDistribution | None = None,
) -> EmpiricalDistribution:
    """Sampled outcome counts, with a goodness-of-fit report when an exact
    distribution is supplied; that law must be at the sampler's d and N."""
    if exact is not None and (exact.d, exact.boxes) != (cfg.d, cfg.boxes):
        raise ValueError(f"a fit needs the exact law at d={cfg.d} N={cfg.boxes}, not d={exact.d} N={exact.boxes}")
    rows, counts = _shape_law(cfg, samples)
    fit = None if exact is None else _fit_report(rows, counts, exact)
    return EmpiricalDistribution(rows=rows, counts=counts, fit=fit)


def _chi2_sf(x: float, k: int) -> float:
    """P(X > x) for X chi-square with an integer number k >= 1 of degrees of freedom.

    With h = x/2 this is e^(-h) sum_a h^a / a! over a = k/2 - 1, k/2 - 2, ... >= 0,
    plus erfc(sqrt h) when k is odd (the a are then half-integers); every term
    is positive and formed in log space.
    """
    if x <= 0.0:
        return 1.0
    h = x / 2
    orders = k % 2 / 2 + np.arange(k // 2)
    terms = orders * math.log(h) - h - np.array([math.lgamma(a + 1) for a in orders])
    return (math.erfc(math.sqrt(h)) if k % 2 else 0.0) + math.exp(log_sum_exp(terms))


def _fit_report(rows: np.ndarray, counts: np.ndarray, exact: SchurWeylDistribution) -> FitReport:
    samples = int(counts.sum())
    log_probs = exact.log_probs.tolist()
    probs = np.array(list(map(math.exp, log_probs)))
    sampled = dict(zip(map(tuple, rows.tolist()), counts.tolist()))
    observed = np.array([sampled.get(frame, 0) for frame in map(tuple, exact.rows.tolist())])
    # sampled shapes outside the exact support count fully toward TV
    outside = samples - int(observed.sum())
    tv = 0.5 * (float(np.abs(observed / samples - probs).sum()) + outside / samples)

    # chi-square over frames with expected count >= 5; the rest pool into one tail cell
    expected = probs * samples
    large = expected >= 5.0
    chi = float(((observed[large] - expected[large]) ** 2 / expected[large]).sum())
    cells = int(large.sum())
    tail_expected = float(expected[~large].sum())
    tail_observed = int(observed[~large].sum())
    if tail_expected > 0.0:
        chi += (tail_observed - tail_expected) ** 2 / tail_expected
        cells += 1
    dof = max(cells - 1, 1)
    return FitReport(tv_distance=tv, chi_square=chi, degrees_of_freedom=dof, p_value=_chi2_sf(chi, dof), cells=cells)
