import dataclasses
import json

import pytest

from spectrum_scope import ConvergenceError, cli, ldp, verify
from spectrum_scope.verify import QUICK, report_dict, run_checks


def test_quick_level_all_pass():
    results = run_checks(QUICK)
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]


def test_report_shape():
    results = run_checks(QUICK)
    report = report_dict(QUICK, results)
    assert report["level"] == "quick"
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} == {
        "normalization",
        "oracle",
        "bounds",
        "duality",
        "sampler-equivalence",
    }


def test_tampered_rate_function_fails_duality(monkeypatch):
    monkeypatch.setattr(ldp, "rate", lambda s, r: 0.0)
    results = run_checks(QUICK)
    by_name = {r.name: r for r in results}
    assert not by_name["duality"].passed
    report = report_dict(QUICK, results)
    assert report["passed"] is False
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["duality"]


def test_unconverged_ascent_fails_duality(monkeypatch):
    def unconverged(s, r):
        raise ConvergenceError("budget spent", last_iterate=(0.0, 0.0))

    monkeypatch.setattr(ldp, "legendre_of_cgf", unconverged)
    by_name = {r.name: r for r in run_checks(QUICK)}
    assert not by_name["duality"].passed
    assert by_name["duality"].detail == "tilt ascent failed to converge"


def test_other_ascent_errors_propagate(monkeypatch):
    def broken(s, r):
        raise RuntimeError("not a convergence failure")

    monkeypatch.setattr(ldp, "legendre_of_cgf", broken)
    with pytest.raises(RuntimeError, match="not a convergence failure"):
        run_checks(QUICK)


def test_one_failed_sandwich_fails_bounds(monkeypatch, tmp_path, capsys):
    real = verify.character_bounds_check
    calls = []

    def fails_once(frame, spectrum):
        calls.append(frame)
        bounds = real(frame, spectrum)
        return dataclasses.replace(bounds, holds=False) if len(calls) == 1 else bounds

    monkeypatch.setattr(verify, "character_bounds_check", fails_once)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--level", "quick", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert [name for name, c in checks.items() if not c["passed"]] == ["bounds"]
    assert checks["bounds"]["detail"] == f"1 of {len(calls)} highest-weight sandwich checks failed"
    assert "FAILED invariants: bounds" in capsys.readouterr().err


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_checks("exhaustive")
