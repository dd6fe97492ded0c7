"""Traced run: per-layer metrics for every invocation of the benchmark.

Each layer call runs cold in a fresh worker process (``trace_worker.py``),
one at a time. Spans from all workers are kept in memory, tagged with their
invocation, and written once at the end. Every trace covers the invocations
of all three groups in ``spec.GROUPS``, the untimed ``scan`` group included,
so each traced run reports every per-layer metric.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from checks import PINNED_SEED, check_output
from spec import GROUPS, invocations

WORKER = Path(__file__).resolve().parent / "trace_worker.py"
TASK_TIMEOUT_S = 60

_LIBRARY_CALL = {
    "dist": ("exact_distribution", "measure.exact_distribution"),
    "rate-scan": ("rate_scan", "ldp.rate_scan"),
    "sample": ("empirical_distribution", "rsk.sample"),
}

# (suffix, unit, better) per invocation kind; names are "<invocation>.<suffix>"
DIST_LAYERS = [
    ("frames.enumerate_s", "s", "lower"),
    ("frames.count", "count", "higher"),
    ("frames.dim_s", "s", "lower"),
    ("frames.dim_us_per_frame", "us", "lower"),
    ("schur.table_build_s", "s", "lower"),
    ("schur.query_s", "s", "lower"),
    ("schur.query_us_per_frame", "us", "lower"),
    ("schur.table_peak_mb", "MB", "lower"),
    ("measure.exact_distribution_s", "s", "lower"),
    ("measure.dist_peak_mb", "MB", "lower"),
]
SCAN_LAYERS = [
    ("measure.region_s", "s", "lower"),
    ("measure.region_frames_per_s", "1/s", "higher"),
    ("ldp.inf_rate_cold_s", "s", "lower"),
    ("ldp.inf_rate_warm_s", "s", "lower"),
    ("ldp.rate_scan_s", "s", "lower"),
    ("ldp.legendre_s", "s", "lower"),
    ("ldp.legendre_iters", "count", "lower"),
]
SAMPLE_LAYERS = [
    ("rsk.sample_s", "s", "lower"),
    ("rsk.letters_per_s", "1/s", "higher"),
    ("rsk.one_chain_s", "s", "lower"),
    ("rsk.pool_ratio", "ratio", "lower"),
    ("rsk.peak_mb", "MB", "lower"),
]
CLI_LAYERS = [
    ("cli.inproc_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
]
_LAYERS = {"dist": DIST_LAYERS, "rate-scan": SCAN_LAYERS, "sample": SAMPLE_LAYERS}
OVERHEAD_PAIRS = 3  # traced/untraced in-process runs of the lightest invocation


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run reports, in report order."""
    spec = [("cli.import_s", "s", "lower"), ("trace.overhead", "ratio", "lower")]
    for group in GROUPS:
        for inv in invocations(group, PINNED_SEED):
            for suffix, unit, better in _LAYERS[inv.command] + CLI_LAYERS:
                spec.append((f"{inv.name}.{suffix}", unit, better))
    return spec


def _cli_task(inv, out: Path, traced: bool) -> dict:
    call, span = _LIBRARY_CALL[inv.command]
    return {"task": "cli", "key": "cli", "argv": inv.argv(str(out)), "traced": traced,
            "library_call": call, "library_span": span}


def _tasks(inv, out: Path) -> list[dict]:
    """Worker tasks for one invocation; ``key`` names each task's results.

    The traced CLI task times the main library call (exact_distribution,
    rate_scan, empirical_distribution) cold inside ``cli.main``, so that call
    needs no task of its own.
    """
    base = {"d": inv.d, "spectrum": list(inv.spectrum)}
    if inv.command == "dist":
        sized = dict(base, n=inv.boxes)
        tasks = [dict(sized, task=kind, key=kind) for kind in ("frames", "schur", "schur_mem")]
    elif inv.command == "rate-scan":
        scan = dict(base, epsilon=inv.epsilon, n_list=list(inv.n_list))
        tasks = [dict(scan, task=kind, key=kind) for kind in ("ldp", "region")]
    else:
        tasks = [dict(base, task="rsk", key="rsk_one", n=inv.boxes, samples=inv.samples,
                      seed=inv.seed, chains=1)]
    return tasks + [_cli_task(inv, out, traced=True)]


def _run_worker(task: dict, env: dict) -> dict:
    argv = [sys.executable, str(WORKER), json.dumps(task)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=TASK_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker {task['task']} exited {done.returncode}: {done.stderr[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _span(spans: list[dict], name: str) -> dict:
    matches = [s for s in spans if s["name"] == name]
    if len(matches) != 1:
        raise RuntimeError(f"expected one span {name!r}, got {len(matches)}")
    return matches[0]


def _duration(spans: list[dict], name: str) -> float:
    span = _span(spans, name)
    return span["end"] - span["start"]


def _invocation_metrics(inv, results: list[tuple[dict, dict]]) -> dict[str, float]:
    """Per-layer values of one invocation from its workers' spans and values."""
    spans_of = {task["key"]: result["spans"] for task, result in results}
    values_of = {task["key"]: result["values"] for task, result in results}
    m: dict[str, float] = {}
    if inv.command == "dist":
        count = values_of["frames"]["count"]
        m["frames.enumerate_s"] = _duration(spans_of["frames"], "frames.enumerate")
        m["frames.count"] = count
        m["frames.dim_s"] = _duration(spans_of["frames"], "frames.dim")
        m["frames.dim_us_per_frame"] = m["frames.dim_s"] / count * 1e6
        m["schur.table_build_s"] = _duration(spans_of["schur"], "schur.table_build")
        m["schur.query_s"] = _duration(spans_of["schur"], "schur.query")
        m["schur.query_us_per_frame"] = m["schur.query_s"] / count * 1e6
        m["schur.table_peak_mb"] = values_of["schur_mem"]["peak_mb"]
        m["measure.exact_distribution_s"] = _duration(spans_of["cli"], "measure.exact_distribution")
        m["measure.dist_peak_mb"] = _span(spans_of["cli"], "measure.exact_distribution")["rss_peak_growth_kb"] / 1024
    elif inv.command == "rate-scan":
        m["measure.region_s"] = _duration(spans_of["region"], "measure.region")
        m["measure.region_frames_per_s"] = values_of["region"]["count"] / m["measure.region_s"]
        m["ldp.inf_rate_cold_s"] = _duration(spans_of["ldp"], "ldp.inf_rate_cold")
        m["ldp.inf_rate_warm_s"] = _duration(spans_of["ldp"], "ldp.inf_rate_warm")
        m["ldp.rate_scan_s"] = _duration(spans_of["cli"], "ldp.rate_scan")
        m["ldp.legendre_s"] = _duration(spans_of["ldp"], "ldp.legendre")
        m["ldp.legendre_iters"] = values_of["ldp"]["legendre_iters"]
    else:
        m["rsk.sample_s"] = _duration(spans_of["cli"], "rsk.sample")
        m["rsk.letters_per_s"] = inv.boxes * inv.samples / m["rsk.sample_s"]
        m["rsk.one_chain_s"] = _duration(spans_of["rsk_one"], "rsk.sample")
        m["rsk.pool_ratio"] = m["rsk.sample_s"] / m["rsk.one_chain_s"]
        m["rsk.peak_mb"] = _span(spans_of["cli"], "rsk.sample")["rss_peak_growth_kb"] / 1024
    _, library_span = _LIBRARY_CALL[inv.command]
    main = _duration(spans_of["cli"], "cli.main")
    m["cli.inproc_s"] = main
    m["cli.emit_s"] = main - _duration(spans_of["cli"], library_span)
    return m


def traced_run(seed: int, work: Path, env: dict, log) -> tuple[dict, int, int, list[str]]:
    """Run every layer task once; returns (metrics, attempted, failed, problems).

    ``metrics`` maps each per-layer name to its value. The spans of all
    workers are written to ``work/spans-seed<seed>.json`` at the end.
    """
    spans: list[dict] = []
    metrics: dict[str, float] = {}
    attempted = failed = 0
    problems: list[str] = []

    def attempt(task: dict, invocation: str):
        nonlocal attempted, failed
        attempted += 1
        try:
            result = _run_worker(task, env)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            failed += 1
            problems.append(f"{invocation}/{task['task']}: {exc}")
            return None
        for span in result["spans"]:
            spans.append(dict(span, invocation=invocation, worker=attempted))
        return result

    result = attempt({"task": "import"}, "global")
    if result is not None:
        metrics["cli.import_s"] = _duration(result["spans"], "cli.import")
    lightest = invocations("scan", seed)[0]
    mains = {True: [], False: []}
    for traced in [True, False] * OVERHEAD_PAIRS:
        result = attempt(_cli_task(lightest, work / "trace-overhead.csv", traced), "overhead")
        if result is not None:
            mains[traced].append(_duration(result["spans"], "cli.main"))
    if all(mains.values()):
        metrics["trace.overhead"] = statistics.median(mains[True]) / statistics.median(mains[False])
    log("layer times as shares of cli.inproc_s; frames.*, schur.*, ldp.inf_rate_cold and "
        "measure.region are parts of the library call, each timed cold in its own process")
    for group in GROUPS:
        for inv in invocations(group, seed):
            out = work / f"trace-{inv.name}.csv"
            results = []
            for task in _tasks(inv, out):
                result = attempt(task, inv.name)
                if result is None:
                    break
                results.append((task, result))
            else:
                output_problems = check_output(inv, out, seed)
                if any(r["values"].get("exit_code", 0) != 0 for _, r in results):
                    output_problems.append("cli.main returned non-zero")
                if output_problems:
                    failed += 1
                    problems += [f"{inv.name}: {p}" for p in output_problems]
                m = _invocation_metrics(inv, results)
                m["cli.output_bytes"] = out.stat().st_size
                metrics.update({f"{inv.name}.{k}": v for k, v in m.items()})
                log(_share_table(inv.name, m))
    (work / f"spans-seed{seed}.json").write_text(json.dumps(spans, indent=1) + "\n")
    return metrics, attempted, failed, problems


# timed separately, not parts of the invocation's in-process time
_NOT_PARTS = {"cli.inproc_s", "ldp.inf_rate_warm_s", "ldp.legendre_s", "rsk.one_chain_s"}


def _share_table(name: str, m: dict[str, float]) -> str:
    """Each timed layer as a share of the in-process CLI time of the invocation."""
    total = m["cli.inproc_s"]
    rows = [
        f"  {k:<30} {v:9.4f} s  {100 * v / total:5.1f}%"
        for k, v in m.items()
        if k.endswith("_s") and not k.endswith("per_s") and k not in _NOT_PARTS
    ]
    return f"{name}: cli.inproc_s = {total:.4f} s\n" + "\n".join(rows)
