"""One cold layer call per process, timed from outside the package.

Usage: python3 perfbench/trace_worker.py '<task json>'

Each worker is a fresh interpreter, so the process-wide caches of the
package (``@cache`` on dimensions and frame counts, ``SchurTable._cache``,
the lazy ``scipy`` import) start empty. Spans are kept in memory and printed
as one JSON line at exit. The Schur table's memory peak comes from
``tracemalloc`` in a task of its own. The distribution and sampler peaks are
the largest growth of resident memory over a span, sampled by a thread every
few milliseconds in the traced CLI task, because tracing allocations slows
the big-integer dimension code and the narrow sampler several-fold.
"""
from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


RSS_PERIOD_S = 0.005
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def _rss_kb() -> int:
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * _PAGE_KB


class Tracer:
    """Spans (name, start, end, parent) recorded around calls into the package.

    With ``sample_rss`` a thread records resident memory every few
    milliseconds until ``close``, which adds each span's peak growth.
    """

    def __init__(self, sample_rss: bool = False):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._rss: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True) if sample_rss else None
        if self._sampler:
            self._sampler.start()

    def _sample(self) -> None:
        while not self._stop.wait(RSS_PERIOD_S):
            self._rss.append((time.perf_counter(), _rss_kb()))

    def close(self) -> None:
        if self._sampler:
            self._stop.set()
            self._sampler.join()
        for span in self.spans:
            inside = [kb for t, kb in self._rss if span["start"] <= t <= span["end"]]
            peak = max(inside + [span["rss_start_kb"], span["rss_end_kb"]])
            span["rss_peak_growth_kb"] = peak - span["rss_start_kb"]

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "rss_start_kb": _rss_kb(),
            "start": time.perf_counter(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss_end_kb"] = _rss_kb()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by a copy that records a span per call."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(module, attr, traced)


def _spectrum(task):
    from spectrum_scope import Spectrum

    return Spectrum(tuple(v / 1000 for v in task["spectrum"]))


def _region(task):
    from spectrum_scope import BallComplement

    return BallComplement(
        center=tuple(Fraction(v, 1000) for v in task["spectrum"]),
        radius=Fraction(task["epsilon"]),
    )


def run(task: dict, tracer: Tracer) -> dict:
    kind = task["task"]
    if kind == "import":
        with tracer.span("cli.import"):
            import spectrum_scope.cli  # noqa: F401
        return {}

    from spectrum_scope import (
        SamplerConfig, SchurTable, dim_symmetric_irrep, empirical_distribution,
        enumerate_frames, exact_distribution, inf_rate_over_region, legendre_of_cgf,
        region_log_probability,
    )

    if kind == "frames":
        with tracer.span("frames.enumerate"):
            frames = list(enumerate_frames(task["d"], task["n"]))
        with tracer.span("frames.dim"):
            [math.log(dim_symmetric_irrep(frame)) for frame in frames]
        return {"count": len(frames)}
    if kind == "schur":
        frames = list(enumerate_frames(task["d"], task["n"]))
        spectrum = _spectrum(task)
        with tracer.span("schur.table_build"):
            table = SchurTable(spectrum, task["n"])
        with tracer.span("schur.query"):
            [table.log_value(frame.rows) for frame in frames]
        return {"count": len(frames)}
    if kind == "schur_mem":
        spectrum = _spectrum(task)
        tracemalloc.start()
        SchurTable(spectrum, task["n"])
        return {"peak_mb": tracemalloc.get_traced_memory()[1] / 2**20}
    if kind == "ldp":
        spectrum, region = _spectrum(task), _region(task)
        with tracer.span("ldp.inf_rate_cold"):
            inf_rate_over_region(region, spectrum)
        with tracer.span("ldp.inf_rate_warm"):
            target = inf_rate_over_region(region, spectrum)
        with tracer.span("ldp.legendre"):
            result = legendre_of_cgf(target.minimizer, spectrum)
        return {"legendre_iters": result.iterations}
    if kind == "region":
        spectrum, region = _spectrum(task), _region(task)
        table = SchurTable(spectrum, max(task["n_list"]))
        dists = [exact_distribution(task["d"], n, spectrum, table=table) for n in task["n_list"]]
        with tracer.span("measure.region"):
            for dist in dists:
                region_log_probability(dist, region)
        return {"count": sum(len(dist.frames) for dist in dists)}
    if kind == "rsk":
        cfg = SamplerConfig(
            d=task["d"], boxes=task["n"], spectrum=_spectrum(task),
            seed=task["seed"], chains=task["chains"],
        )
        with tracer.span("rsk.sample"):
            empirical_distribution(cfg, task["samples"])
        return {}
    if kind == "cli":
        from spectrum_scope import cli

        if task["traced"]:
            tracer.wrap(cli, task["library_call"], task["library_span"])
        with tracer.span("cli.main"):
            code = cli.main(task["argv"])
        return {"exit_code": code}
    raise ValueError(f"unknown task {kind!r}")


def main() -> int:
    task = json.loads(sys.argv[1])
    tracer = Tracer(sample_rss=task["task"] == "cli" and task["traced"])
    try:
        values = run(task, tracer)
    finally:
        tracer.close()
    print(json.dumps({"spans": tracer.spans, "values": values}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
