"""Workload definitions: which CLI invocations each workload runs, with
inputs derived from the workload seed.

Spectra are short exact decimals (thousandths) that sum to exactly 1, are
strictly decreasing and keep every gap at least 0.05, so costs and sampler
biases stay comparable from seed to seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from checks import frame_count

CHAINS = 2

# base spectra in thousandths, perturbed per seed by at most +-SPREAD
_BASE = {2: (700, 300), 3: (500, 300, 200), 4: (400, 300, 200, 100)}
_SPREAD = {2: 40, 3: 25, 4: 20}
_MIN_GAP = 50


def spectrum_for(seed: int, d: int) -> tuple[int, ...]:
    """Eigenvalues in thousandths: distinct, descending, summing to 1000."""
    rng = random.Random(f"spectrum-{seed}-{d}")
    base, spread = _BASE[d], _SPREAD[d]
    while True:
        head = [b + rng.randint(-spread, spread) for b in base[:-1]]
        values = tuple(head + [1000 - sum(head)])
        gaps = [a - b for a, b in zip(values, values[1:])]
        if min(gaps) >= _MIN_GAP and values[-1] >= _MIN_GAP:
            return values


def spectrum_text(thousandths: tuple[int, ...]) -> str:
    return ",".join(f"0.{v:03d}" for v in thousandths)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its command, sizes and the data the output check needs."""

    name: str
    command: str
    d: int
    spectrum: tuple[int, ...]
    boxes: int = 0
    n_list: tuple[int, ...] = ()
    samples: int = 0
    seed: int = 0
    epsilon: str = "0.1"

    def argv(self, out: str) -> list[str]:
        args = [self.command, "--d", str(self.d), "--spectrum", spectrum_text(self.spectrum)]
        if self.command == "dist":
            args += ["--n", str(self.boxes)]
        elif self.command == "rate-scan":
            args += ["--epsilon", self.epsilon, "--n-list", ",".join(map(str, self.n_list))]
        else:
            args += [
                "--n", str(self.boxes), "--samples", str(self.samples),
                "--seed", str(self.seed), "--chains", str(CHAINS),
            ]
        return args + ["--out", out]

    def threads(self) -> int:
        """Threads the call computes on: the sampler's chains, else one."""
        return CHAINS if self.command == "sample" else 1

    def items(self) -> int:
        """Work units of one call: frames written, frames classified, or letters drawn."""
        if self.command == "dist":
            return frame_count(self.d, self.boxes)
        if self.command == "rate-scan":
            return sum(frame_count(self.d, n) for n in self.n_list)
        return self.boxes * self.samples


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The group's two invocations, in the order of ``first_s``/``second_s``."""
    s2, s3, s4 = (spectrum_for(seed, d) for d in (2, 3, 4))
    if workload == "exact":
        return [
            Invocation("dist_d3", "dist", 3, s3, boxes=200),
            Invocation("dist_d4", "dist", 4, s4, boxes=100),
        ]
    if workload == "scan":
        return [
            Invocation("scan_d2", "rate-scan", 2, s2, n_list=(40, 80, 160, 320)),
            Invocation("scan_d4", "rate-scan", 4, s4, n_list=(20, 40, 60)),
        ]
    if workload == "sample":
        return [
            Invocation("sample_wide", "sample", 3, s3, boxes=1000, samples=10000, seed=seed),
            Invocation("sample_narrow", "sample", 3, s3, boxes=4000, samples=16, seed=seed),
        ]
    raise ValueError(f"unknown workload {workload!r}")


#: Invocation groups; the traced run covers all of them.
GROUPS = ("exact", "scan", "sample")
#: Groups timed end to end. ``scan`` is traced but not timed: its pure-Python
#: run times drift with host contention as much as ``exact``'s, and the
#: benchmark's time budget allows only two workloads long enough to keep
#: that drift inside the bounds.
WORKLOADS = ("exact", "sample")
