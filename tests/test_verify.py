import pytest

from spectrum_scope import ldp
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


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_checks("exhaustive")
