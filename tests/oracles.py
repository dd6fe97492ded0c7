"""Brute-force oracles, deliberately independent of the package internals.

Everything here works on explicit fillings, explicit rows, or exhaustive
word enumeration, so agreement with the package is evidence rather than
tautology. The reference forms the package does not ship live here too:
the recursive partition generator, row insertion into a count-matrix
tableau, and a one-sample draw through the public sampler.
"""
from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from spectrum_scope import YoungFrame, empirical_distribution


class DegenerateSpectrumError(ValueError):
    """The determinant-based evaluator refused a near-degenerate spectrum."""


def partition_tuples(n: int, max_part: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into ``slots`` parts <= max_part, zeros kept, lexicographically decreasing."""
    if slots == 0:
        if n == 0:
            yield ()
        return
    if n == 0:
        yield (0,) * slots
        return
    lowest = -(-n // slots)  # smallest feasible leading part
    for part in range(min(n, max_part), lowest - 1, -1):
        for rest in partition_tuples(n - part, part, slots - 1):
            yield (part,) + rest


def count_partitions(n: int, max_parts: int) -> int:
    """Partitions of n into at most max_parts parts, by largest-part recursion."""
    memo = {}

    def rec(remaining: int, largest: int, slots: int) -> int:
        if remaining == 0:
            return 1
        if slots == 0 or largest == 0:
            return 0
        key = (remaining, largest, slots)
        if key not in memo:
            memo[key] = sum(
                rec(remaining - part, part, slots - 1)
                for part in range(min(remaining, largest), 0, -1)
            )
        return memo[key]

    return rec(n, n, max_parts)


def frame_to_exact_estimate(frame) -> tuple[Fraction, ...]:
    """Y/N with exact rational entries, for boundary-safe comparisons."""
    n = frame.boxes
    if n == 0:
        raise ValueError("cannot normalize an empty frame")
    return tuple(Fraction(value, n) for value in frame.rows)


def standard_tableaux_count(shape) -> int:
    """Standard fillings counted by removing one outer corner at a time."""
    rows = tuple(r for r in shape if r > 0)
    memo = {}

    def rec(current) -> int:
        if sum(current) == 0:
            return 1
        if current in memo:
            return memo[current]
        total = 0
        for i, length in enumerate(current):
            if length > 0 and (i == len(current) - 1 or length > current[i + 1]):
                child = current[:i] + (length - 1,) + current[i + 1 :]
                total += rec(child)
        memo[current] = total
        return total

    return rec(rows)


def hook_length_count(shape) -> int:
    """Standard fillings by the hook-length formula: N! over the product of hooks."""
    rows = [r for r in shape if r > 0]
    product = 1
    for i, length in enumerate(rows):
        for j in range(length):
            leg = sum(1 for below in rows[i + 1 :] if below > j)
            product *= length - j + leg
    return math.factorial(sum(rows)) // product


def uniform_law_probability(shape, d: int) -> Fraction:
    """P(Y) = f^Y dim_U(Y) / d^N for the uniform spectrum of d levels.

    dim_U is the hook-content formula, prod over cells (i, j) of
    (d + j - i) / hook(i, j); a shape with more than d rows gets 0.
    """
    rows = [r for r in shape if r > 0]
    contents, hooks = 1, 1
    for i, length in enumerate(rows):
        for j in range(length):
            contents *= d + j - i
            hooks *= length - j + sum(1 for below in rows[i + 1 :] if below > j)
    return Fraction(hook_length_count(rows) * contents, hooks * d ** sum(rows))


def ssyt_contents(shape, d: int):
    """Content vectors of all semistandard fillings, by cell-wise backtracking."""
    rows = [r for r in shape if r > 0]
    cells = [(i, j) for i, r in enumerate(rows) for j in range(r)]
    grid = {}

    def ok(i: int, j: int, value: int) -> bool:
        if j > 0 and value < grid[(i, j - 1)]:
            return False
        if i > 0 and value <= grid[(i - 1, j)]:
            return False
        return True

    def rec(idx: int):
        if idx == len(cells):
            content = [0] * d
            for value in grid.values():
                content[value - 1] += 1
            yield tuple(content)
            return
        i, j = cells[idx]
        for value in range(1, d + 1):
            if ok(i, j, value):
                grid[(i, j)] = value
                yield from rec(idx + 1)
                del grid[(i, j)]

    if not cells:
        yield (0,) * d
        return
    yield from rec(0)


def kostka_table(shape, d: int) -> Counter:
    return Counter(ssyt_contents(shape, d))


def schur_by_monomials(shape, values) -> float:
    """Schur polynomial as the content-monomial sum over semistandard fillings."""
    total = 0.0
    for content in ssyt_contents(shape, len(values)):
        term = 1.0
        for value, power in zip(values, content):
            term *= value**power
        total += term
    return total


def schur_log_jacobi_trudi(shape, numerators, denominator: int) -> float:
    """ln s_Y(a / denominator) for integer a, exact until the final logarithms.

    The Jacobi-Trudi determinant det[h_(Y_i - i + j)] of complete homogeneous
    polynomials of the integers a (valid for repeated and zero entries too),
    by fraction-free (Bareiss) elimination in exact integers; s_Y of the
    rational spectrum is that integer over denominator^|Y|.
    """
    rows = list(shape) + [0] * (len(numerators) - len(shape))
    d = len(rows)
    top = rows[0] + d
    h = [1] + [0] * top
    for a in numerators:  # h_k(a_1..a_m) = h_k(a_1..a_(m-1)) + a_m h_(k-1)(a_1..a_m)
        for k in range(1, top + 1):
            h[k] += a * h[k - 1]
    m = [[h[rows[i] - i + j] if rows[i] - i + j >= 0 else 0 for j in range(d)] for i in range(d)]
    sign, previous = 1, 1
    for k in range(d - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, d) if m[i][k]), None)
            if swap is None:
                return -math.inf
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    det = sign * m[d - 1][d - 1]
    if det < 0:
        raise ArithmeticError(f"Schur value of {tuple(shape)} came out negative")
    if det == 0:
        return -math.inf
    return math.log(det) - sum(rows) * math.log(denominator)


def schur_log_bialternant(frame, spectrum, *, min_gap: float = 1e-9) -> float:
    """ln s_Y(r) as a ratio of determinants, usable only for well-separated spectra.

    Refuses spectra with near-equal or zero entries, where the alternating
    sums cancel catastrophically.
    """
    x = np.asarray(spectrum.values, dtype=float)
    d = len(x)
    if frame.d != d:
        raise ValueError("frame and spectrum dimensions differ")
    if x[-1] <= 0.0:
        raise DegenerateSpectrumError("bialternant form needs strictly positive eigenvalues")
    gaps = x[:-1] - x[1:]
    if gaps.size and gaps.min() <= min_gap:
        raise DegenerateSpectrumError(
            f"eigenvalue gap {gaps.min():.3e} below {min_gap:.0e}; use the branching evaluator"
        )
    exponents = np.array([frame.rows[j] + d - 1 - j for j in range(d)], dtype=float)
    log_x = np.log(x)
    powers = np.outer(log_x, exponents)
    shift = powers.max(axis=0)
    sign, log_det = np.linalg.slogdet(np.exp(powers - shift[None, :]))
    if sign <= 0:
        raise DegenerateSpectrumError("numerator determinant lost its sign to cancellation")
    log_vandermonde = float(sum(math.log(x[i] - x[j]) for i in range(d) for j in range(i + 1, d)))
    return float(log_det + shift.sum() - log_vandermonde)


def rsk_shape(word) -> tuple[int, ...]:
    """Shape after row-inserting a word (1-based letters), on explicit rows."""
    rows: list[list[int]] = []
    for letter in word:
        x = letter
        for row in rows:
            pos = bisect.bisect_right(row, x)
            if pos == len(row):
                row.append(x)
                x = None
                break
            x, row[pos] = row[pos], x
        if x is not None:
            rows.append([x])
    return tuple(len(r) for r in rows)


def word_shape_distribution(d: int, n: int, values) -> dict[tuple[int, ...], float]:
    """Exact law of the insertion shape, by enumerating all d^n letter words."""
    dist: dict[tuple[int, ...], float] = {}
    for word in itertools.product(range(1, d + 1), repeat=n):
        prob = 1.0
        for letter in word:
            prob *= values[letter - 1]
        shape = rsk_shape(word)
        padded = shape + (0,) * (d - len(shape))
        dist[padded] = dist.get(padded, 0.0) + prob
    return dist


def ball_complement_contains(rows, center, radius) -> bool:
    """Estimate Y/N outside the closed sup-norm ball, one exact Fraction per entry."""
    n = sum(rows)
    return any(
        abs(Fraction(y, n) - Fraction(c)) > Fraction(radius) for y, c in zip(rows, center)
    )


@dataclass(frozen=True)
class CompactTableau:
    """Semistandard tableau over letters 1..d as per-row letter counts.

    ``counts[i][j]`` is the number of letters ``j+1`` in row ``i+1``; only
    ``j >= i`` can be occupied because columns increase strictly.
    """

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.counts)
        for i, row in enumerate(self.counts):
            if len(row) != d:
                raise ValueError("count matrix must be square")
            if any(c < 0 for c in row):
                raise ValueError("letter counts must be non-negative")
            if any(row[j] != 0 for j in range(i)):
                raise ValueError(f"row {i + 1} cannot hold letters smaller than {i + 1}")
        lengths = self.shape()
        for upper, lower in zip(lengths, lengths[1:]):
            if upper < lower:
                raise ValueError(f"row lengths must be non-increasing: {lengths}")
        # columns strict: letters <= l+1 in a row fit strictly above row below
        for i in range(d - 1):
            upper_prefix = 0
            lower_prefix = 0
            for letter in range(d - 1):
                upper_prefix += self.counts[i][letter]
                lower_prefix += self.counts[i + 1][letter + 1]
                if lower_prefix > upper_prefix:
                    raise ValueError("column-strictness violated")

    @classmethod
    def empty(cls, d: int) -> "CompactTableau":
        if d < 1:
            raise ValueError("need at least one letter")
        return cls(counts=tuple((0,) * d for _ in range(d)))

    @property
    def d(self) -> int:
        return len(self.counts)

    def shape(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def boxes(self) -> int:
        return sum(self.shape())

    def frame(self) -> YoungFrame:
        return YoungFrame(self.shape())


def insert_letter(tableau: CompactTableau, letter: int) -> CompactTableau:
    """Row-insert one letter (1-based), bumping through rows; returns a new tableau."""
    d = tableau.d
    if not 1 <= letter <= d:
        raise ValueError(f"letter must be in 1..{d}, got {letter}")
    counts = [list(row) for row in tableau.counts]
    carry = letter - 1
    for row in range(d):
        bumped = -1
        for candidate in range(carry + 1, d):
            if counts[row][candidate] > 0:
                bumped = candidate
                break
        counts[row][carry] += 1
        if bumped < 0:
            break
        counts[row][bumped] -= 1
        carry = bumped
    else:  # pragma: no cover - insertion always terminates within d rows
        raise AssertionError("bumping chain escaped the tableau")
    return CompactTableau(counts=tuple(tuple(row) for row in counts))




def sample_frame(cfg) -> YoungFrame:
    """Draw one outcome frame: the single sample of chain 0 of the configured stream."""
    return YoungFrame(tuple(empirical_distribution(cfg, 1).rows[0].tolist()))
