"""Self-tests of the benchmark's own gate.

Small real outputs must pass their checks, and each deliberately damaged
copy must fail: a dist file with one log_prob moved by 1e-6, a sample file
with one count changed, a rate-scan file with a raised target rate, outputs
that differ from a pinned SHA-256, and a manifest that does not match its
output. Also checks that BENCHMARK.json names exactly the metrics the runner
reports.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import checks
from spec import Invocation


def _rewrite(out: Path, target: Path, edit) -> Path:
    """Copy ``out`` to ``target`` with ``edit`` applied to its lines, manifest kept in step."""
    lines = out.read_text(encoding="utf-8").splitlines()
    data = ("\n".join(edit(lines)) + "\n").encode("utf-8")
    target.write_bytes(data)
    manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    manifest["output"].update(bytes=len(data), sha256=hashlib.sha256(data).hexdigest())
    Path(f"{target}.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return target


def _edit_cell(row: int, column: int, change):
    def edit(lines: list[str]) -> list[str]:
        at = row % len(lines)
        cells = lines[at].split(",")
        cells[column] = change(cells[column])
        return lines[:at] + [",".join(cells)] + lines[at + 1:]

    return edit


def _benchmark_names_match(root: Path) -> list[str]:
    from run import END_TO_END
    from tracing import per_layer_spec

    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [m["name"] for m in bench["end_to_end"]] != [name for name, _ in END_TO_END]:
        problems.append("end_to_end names differ from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != per_layer_spec():
        problems.append("per_layer entries differ from tracing.per_layer_spec()")
    return problems


def selftest(work: Path, env: dict, run_cli, root: Path) -> int:
    work.mkdir(parents=True, exist_ok=True)
    dist = Invocation("dist_small", "dist", 3, (500, 300, 200), boxes=30)
    scan = Invocation("scan_small", "rate-scan", 2, (700, 300), n_list=(10, 20))
    sample = Invocation("sample_small", "sample", 3, (500, 300, 200), boxes=1000, samples=200, seed=1)
    outputs = {}
    for inv in (dist, scan, sample):
        out = work / f"{inv.name}.csv"
        child = run_cli(inv.argv(str(out)), env, work / f"{inv.name}.err")
        if child.exit_code != 0:
            print(f"selftest: {inv.name} exited {child.exit_code}")
            return 1
        outputs[inv.name] = out

    def check(inv, path: Path, pinned: str | None = None) -> list[str]:
        if pinned is not None:
            return checks.check_sample(inv, path.read_bytes(), pinned)
        return checks.check_output(inv, path, seed=0)

    d_out, s_out, m_out = outputs[dist.name], outputs[scan.name], outputs[sample.name]
    bad_manifest = work / "manifest_mismatch.csv"
    bad_manifest.write_bytes(d_out.read_bytes())
    Path(f"{bad_manifest}.manifest.json").write_text(
        Path(f"{d_out}.manifest.json").read_text().replace('"sha256": "', '"sha256": "0')
    )
    lp_column = 2 * dist.d + 1
    cases = [
        ("dist output passes", check(dist, d_out), False),
        ("rate-scan output passes", check(scan, s_out), False),
        ("sample output passes", check(sample, m_out), False),
        ("sample output matches its own SHA-256",
         check(sample, m_out, hashlib.sha256(m_out.read_bytes()).hexdigest()), False),
        ("dist with one log_prob moved by 1e-6", check(dist, _rewrite(
            d_out, work / "lp_moved.csv",
            _edit_cell(-40, lp_column, lambda v: repr(float(v) + 1e-6)))), True),
        ("sample with one count changed", check(sample, _rewrite(
            m_out, work / "count_changed.csv",
            _edit_cell(1, sample.d, lambda v: str(int(v) + 1)))), True),
        ("rate-scan with a raised target_rate", check(scan, _rewrite(
            s_out, work / "target_raised.csv",
            lambda lines: [lines[0]] + [
                ",".join(row.split(",")[:3] + [repr(float(row.split(",")[3]) + 0.05)])
                for row in lines[1:]
            ])), True),
        ("sample bytes differ from the pinned SHA-256", check(sample, m_out, "0" * 64), True),
        ("mismatched manifest", check(dist, bad_manifest), True),
        ("BENCHMARK.json metric names", _benchmark_names_match(root), False),
    ]
    ok = True
    for name, problems, should_fail in cases:
        passed = bool(problems) == should_fail
        ok &= passed
        detail = problems[0] if problems else "no problems"
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {'rejected' if problems else 'accepted'} ({detail})")
    return 0 if ok else 1
