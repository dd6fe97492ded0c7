"""End-to-end benchmark of the spectrum-scope command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60
    python3 perfbench/run.py --workload exact --seed 1 --trace 1
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl
    python3 perfbench/run.py --selftest

With ``--trace 0`` each workload's two CLI invocations run as subprocesses
(``python -m spectrum_scope``, interpreter start included) in a closed loop
with one client, one invocation at a time: at least ``MIN_GROUPS`` groups
of one cycle per CPU through the invocations, then more until the next
group would end after ``--seconds``.
Every output is checked (see ``checks.py``); each timing is the median over
the run's groups of the group's mean (see ``group_median``). With
``--trace 1`` every layer call of every invocation runs cold in its own
process instead (see ``tracing.py``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--save PATH`` appends the run's record to a
JSON-lines file that ``--compare`` reads; ``perfbench/baseline/`` holds such
records for the first benchmarked commit (ten seeds per workload, and one
traced run at seed 1). Outputs and spans go to ``.perfbench-out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

from checks import PINNED_SEED
from spec import WORKLOADS, invocations

ROOT = Path(__file__).resolve().parent.parent
CHECKER = Path(__file__).resolve().parent / "checks.py"
WORK = ROOT / ".perfbench-out"
CPUS = sorted(os.sched_getaffinity(0))
SETUP_REPEATS = 2 * len(CPUS)  # before the loop; one more per cycle
MIN_GROUPS = 3  # a median of three discards one group caught by host contention
CALL_TIMEOUT_S = 90
MB = 2**20

# (name, unit); directions and bounds live in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"),
    ("first_s", "s"),
    ("second_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
    ("ok_frac", "ratio"),
]

# per-invocation names printed by --workload all: (name, unit, workload, metric)
NAMED = [
    ("dist_d3_s", "s", "exact", "first_s"),
    ("dist_d4_s", "s", "exact", "second_s"),
    ("frames_per_s", "1/s", "exact", "items_per_s"),
    ("sample_wide_s", "s", "sample", "first_s"),
    ("sample_narrow_s", "s", "sample", "second_s"),
    ("letters_per_s", "1/s", "sample", "items_per_s"),
]


def log(text: str) -> None:
    print(text, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine() -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "SPECTRUM_SCOPE_THREADS": os.environ.get("SPECTRUM_SCOPE_THREADS", "unset"),
    }


def host_speed_ms(chunks: int = 15) -> float:
    """Median time of a fixed pure-Python loop: a diagnostic of host contention.

    On shared hosts single-thread speed swings by up to 1.7x over seconds to
    minutes; this number shows which state a run was measured in. It is not
    used to adjust any metric.
    """
    times = []
    for _ in range(chunks):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


@dataclass(frozen=True)
class Child:
    wall_s: float
    peak_rss_mb: float
    exit_code: int


def run_cli(args: list[str], env: dict, stderr_path: Path, cpus: set[int] | None = None) -> Child:
    """Run ``python -m spectrum_scope ARGS``; wall time from start to reaped exit.

    The child inherits ``cpus`` (default: every CPU) as its CPU affinity.
    """
    argv = [sys.executable, "-m", "spectrum_scope", *args]
    os.sched_setaffinity(0, cpus or CPUS)
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=stderr, env=env, cwd=ROOT)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024, exit_code=proc.returncode)


def check_in_child(inv, out: Path, seed: int) -> list[str]:
    """Run the output checks in their own process.

    A child's ``ru_maxrss`` includes the runner's resident peak at spawn
    time, so the runner itself must never hold a parsed output.
    """
    request = json.dumps({"inv": asdict(inv), "out": str(out), "seed": seed})
    done = subprocess.run([sys.executable, str(CHECKER), request],
                          capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    if done.returncode != 0:
        return [f"checker exited {done.returncode}: {done.stderr[-300:]}"]
    return json.loads(done.stdout)


def output_digest(out: Path) -> str | None:
    """SHA-256 over an output and its manifest, read in chunks; None if either is missing."""
    digest = hashlib.sha256()
    try:
        for path in (out, Path(f"{out}.manifest.json")):
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 16), b""):
                    digest.update(block)
            digest.update(b"\0")
    except OSError:
        return None
    return digest.hexdigest()


def run_setup(env: dict, work: Path, cpus: set[int] | None = None) -> float:
    """Wall time of one ``--version`` call."""
    child = run_cli(["--version"], env, work / "setup.err", cpus)
    if child.exit_code != 0:
        raise RuntimeError(f"--version exited {child.exit_code}: {(work / 'setup.err').read_text()}")
    return child.wall_s


def group_median(walls: list[float]) -> float:
    """Median over consecutive groups of one sample per CPU of each group's mean.

    Children of an idle runner keep landing on the CPU it last ran on, and
    each CPU of a shared host has slow and fast phases of its own lasting
    tens of seconds. Cycle k runs its single-threaded calls on CPU k mod n,
    and each group averages one call per CPU, so a run does not measure the
    phase of whichever CPU it happened to start on.
    """
    n = len(CPUS)
    return statistics.median(statistics.fmean(walls[i:i + n]) for i in range(0, len(walls) - n + 1, n))


def timed_run(workload: str, seed: int, seconds: float, env: dict) -> dict:
    """Closed loop over the workload's invocations; returns the run record.

    Each cycle runs ``--version`` and then every invocation once, so set-up
    and invocation samples are spread over the same stretch of the run.
    Single-threaded calls of a cycle share one CPU, taken in turn (see
    ``group_median``); the sampler's chains get every CPU. An output whose
    bytes and manifest equal those of an output that passed its checks
    passes too; any other output is checked in full.
    """
    start = time.perf_counter()
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    invs = invocations(workload, seed)
    speed = host_speed_ms()
    run_setup(env, work)  # untimed: writes bytecode
    setup = [run_setup(env, work, {CPUS[i % len(CPUS)]}) for i in range(SETUP_REPEATS)]
    samples = {inv.name: {"wall_s": [], "peak_rss_mb": [], "bytes": []} for inv in invs}
    passed: set[str] = set()
    attempted = failed = 0
    problems: list[str] = []
    for cycle in itertools.count():
        cycle_start = time.perf_counter()
        cpu = {CPUS[cycle % len(CPUS)]}
        setup.append(run_setup(env, work, cpu))
        for inv in invs:
            out = work / f"{inv.name}.csv"
            for stale in (out, Path(f"{out}.manifest.json")):
                stale.unlink(missing_ok=True)
            child = run_cli(inv.argv(str(out)), env, work / f"{inv.name}.err",
                            cpu if inv.threads() == 1 else None)
            attempted += 1
            digest = output_digest(out)
            if child.exit_code != 0:
                issues = [f"exit code {child.exit_code}: {(work / f'{inv.name}.err').read_text()[-300:]}"]
            elif digest is not None and digest in passed:
                issues = []
            else:
                issues = check_in_child(inv, out, seed)
                if not issues and digest is not None:
                    passed.add(digest)
            if issues:
                failed += 1
                problems += [f"{inv.name}: {issue}" for issue in issues]
            record = samples[inv.name]
            record["wall_s"].append(child.wall_s)
            record["peak_rss_mb"].append(child.peak_rss_mb)
            record["bytes"].append(out.stat().st_size if out.exists() else 0)
        now = time.perf_counter()
        done = cycle + 1
        if (done % len(CPUS) == 0 and done >= MIN_GROUPS * len(CPUS)
                and now - start + len(CPUS) * (now - cycle_start) > seconds):
            break
    os.sched_setaffinity(0, CPUS)
    med = {name: {k: statistics.median(v) for k, v in rec.items()} for name, rec in samples.items()}
    for name, rec in samples.items():
        med[name]["wall_s"] = group_median(rec["wall_s"])
    first, second = (med[inv.name] for inv in invs)
    metrics = {
        "setup_s": group_median(setup),
        "first_s": first["wall_s"],
        "second_s": second["wall_s"],
        "items_per_s": sum(inv.items() for inv in invs) / (first["wall_s"] + second["wall_s"]),
        "peak_rss_mb": max(m["peak_rss_mb"] for m in med.values()),
        "output_mb": sum(m["bytes"] for m in med.values()) / MB,
        "ok_frac": 1.0 - failed / attempted,
    }
    for inv in invs:
        walls = samples[inv.name]["wall_s"]
        log(
            f"{workload}/{inv.name}: python -m spectrum_scope {' '.join(inv.argv('OUT'))}\n"
            f"  wall_s {med[inv.name]['wall_s']:.4f} (median of per-CPU-group means) over {len(walls)} "
            f"(min {min(walls):.4f}, max {max(walls):.4f}); "
            f"peak_rss_mb {med[inv.name]['peak_rss_mb']:.1f}; bytes {med[inv.name]['bytes']:.0f}"
        )
    log(f"{workload}/setup: --version {metrics['setup_s']:.4f} s over {len(setup)}")
    log(f"{workload}/host: pure-Python loop median {speed:.2f} ms (diagnostic only)")
    log(f"{workload}/run: {time.perf_counter() - start:.1f} s, {len(passed)} distinct outputs checked in full")
    return {
        "workload": workload, "seed": seed, "trace": 0, "metrics": metrics,
        "samples": samples, "setup_s": setup, "host_loop_ms": speed,
        "attempted": attempted, "failed": failed, "problems": problems,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def run_all(seed: int, seconds: float, env: dict) -> tuple[list[dict], str]:
    """Every workload in turn; the summary uses the per-invocation metric names."""
    records = [timed_run(w, seed, seconds, env) for w in WORKLOADS]
    by = {r["workload"]: r["metrics"] for r in records}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    named = {"setup_s": statistics.median(s for r in records for s in r["setup_s"])}
    named.update({name: by[w][m] for name, _, w, m in NAMED})
    named["peak_rss_mb"] = max(m["peak_rss_mb"] for m in by.values())
    named["output_mb"] = sum(m["output_mb"] for m in by.values())
    named["fail_frac"] = failed / attempted
    units = {"setup_s": "s", **{n: u for n, u, _, _ in NAMED}}
    units.update(peak_rss_mb="MB", output_mb="MB", fail_frac="ratio")
    for name, unit in units.items():
        log(f"  {name:<16} {named[name]:>16.6g} {unit}")
    return records, result_line(failed == 0, attempted, failed, named, units)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="append the run record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    parser.add_argument("--selftest", action="store_true", help="check that the output gate rejects bad files")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare

        return compare(*args.compare, ROOT / "BENCHMARK.json")
    if not (ROOT / "src" / "spectrum_scope" / "__init__.py").is_file():
        print(f"error: no spectrum_scope package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    WORK.mkdir(exist_ok=True)
    if args.selftest:
        from selftest import selftest

        return selftest(WORK / "selftest", env, run_cli, ROOT)

    log("machine: " + json.dumps(machine()))
    if args.trace:
        from tracing import per_layer_spec, traced_run

        metrics, attempted, failed, problems = traced_run(args.seed, WORK, env, log)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        correct = failed == 0 and set(metrics) == set(units)
        records = [{"workload": args.workload, "seed": args.seed, "trace": 1, "metrics": metrics,
                    "attempted": attempted, "failed": failed, "problems": problems}]
        metrics = {name: metrics.get(name, 0.0) for name in units}
        line = result_line(correct, attempted, failed, metrics, units)
    elif args.workload == "all":
        records, line = run_all(args.seed, args.seconds, env)
        problems = [p for r in records for p in r["problems"]]
    else:
        record = timed_run(args.workload, args.seed, args.seconds, env)
        records, problems = [record], record["problems"]
        line = result_line(record["failed"] == 0, record["attempted"], record["failed"],
                           record["metrics"], dict(END_TO_END))
    for problem in problems:
        log(f"FAILED CHECK {problem}")
    if args.save:
        with open(args.save, "a", encoding="utf-8") as sink:
            for record in records:
                sink.write(json.dumps(dict(record, machine=machine())) + "\n")
    log(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
