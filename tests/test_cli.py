import csv
import gc
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SOURCE_ROOT, subprocess_env

from spectrum_scope import (
    ConvergenceError,
    SamplerConfig,
    Spectrum,
    YoungFrame,
    empirical_distribution,
    exact_distribution,
)
from spectrum_scope import cli, ldp
from spectrum_scope.cli import main, replay_manifest
from spectrum_scope.regions import BallComplement


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# reference records from library values, one row (or dict) per record
def _law_rows(d, n, values):
    dist = exact_distribution(d, n, Spectrum(values))
    header = [f"Y{j + 1}" for j in range(d)] + [f"est{j + 1}" for j in range(d)] + ["prob", "log_prob"]
    rows = [
        r + [v / n if n else 0.0 for v in r] + [math.exp(lp), lp]
        for r, lp in zip(dist.rows.tolist(), dist.log_probs.tolist())
    ]
    return header, rows


def _count_rows(d, n, values, chains, samples=3000):
    cfg = SamplerConfig(d=d, boxes=n, spectrum=Spectrum(values), seed=5, chains=chains)
    empirical = empirical_distribution(cfg, samples)
    header = [f"Y{j + 1}" for j in range(d)] + ["count", "frequency"]
    rows = [
        frame + [count, count / samples] for frame, count in zip(empirical.rows.tolist(), empirical.counts.tolist())
    ]
    return header, rows, empirical


def _csv_reference(header, rows):
    return ",".join(header) + "\n" + "".join(",".join(map(cli._format_number, row)) + "\n" for row in rows)


def _records(header, rows):
    return [dict(zip(header, row)) for row in rows]


def _scan_records(values, epsilon, boxes_list):
    region = BallComplement(center=tuple(Fraction(str(v)) for v in values), radius=Fraction(epsilon))
    profile = ldp.rate_scan(len(values), Spectrum(values), region, boxes_list)
    target = profile.target
    minimizer = list(target.minimizer.values) if math.isfinite(target.value) else None
    header = ["N", "region_prob", "decay_rate", "target_rate", "target_minimizer"]
    rows = [
        [p.boxes, 0.0 if p.empty else math.exp(p.log_prob), p.decay, target.value, minimizer]
        for p in profile.points
    ]
    return _records(header, rows)


def _sample_report(d, n, values, chains):
    header, rows, empirical = _count_rows(d, n, values, chains)
    return {"samples": 3000, "mean_estimate": list(empirical.mean_estimate), "frequencies": _records(header, rows)}


def _legendre_records(point, spectrum):
    rate_value = ldp.rate(point, spectrum)
    result = ldp.legendre_of_cgf(Spectrum(point), Spectrum(spectrum))
    header = ["rate", "legendre_value", "difference"] + [f"eta{j + 1}" for j in range(len(point))]
    return _records(header, [[rate_value, result.value, result.value - rate_value, *result.eta]])


_SAMPLE = ["sample", "--samples", 3000, "--seed", 5, "--spectrum"]


@pytest.mark.parametrize(
    "argv, reference, marker",
    [
        (["dist", "--d", 2, "--n", 3, "--spectrum", "0.6,0.4"], lambda: _records(*_law_rows(2, 3, (0.6, 0.4))), '"Y2": 1'),
        (
            ["dist", "--d", 5, "--n", 3, "--spectrum", "0.5,0.5,0,0,0"],
            lambda: _records(*_law_rows(5, 3, (0.5, 0.5, 0.0, 0.0, 0.0))),
            '"log_prob": "-inf"',
        ),
        (["dist", "--d", 3, "--n", 0, "--spectrum", "0.5,0.3,0.2"], lambda: _records(*_law_rows(3, 0, (0.5, 0.3, 0.2))), '"est3": 0'),
        (
            ["rate-scan", "--d", 2, "--spectrum", "0.7,0.3", "--epsilon", "0.1", "--n-list", "20,40"],
            lambda: _scan_records((0.7, 0.3), "0.1", [20, 40]),
            '"target_minimizer": [\n      0.',
        ),
        (
            ["rate-scan", "--d", 2, "--spectrum", "0.7,0.3", "--epsilon", "5", "--n-list", "5,10"],
            lambda: _scan_records((0.7, 0.3), "5", [5, 10]),
            '"target_rate": "inf",\n    "target_minimizer": null',
        ),
        (_SAMPLE + ["0.5,0.3,0.2", "--d", 3, "--n", 40, "--chains", 2], lambda: _sample_report(3, 40, (0.5, 0.3, 0.2), 2), '"Y3"'),
        (_SAMPLE + ["1", "--d", 1, "--n", 0, "--chains", 1], lambda: _sample_report(1, 0, (1.0,), 1), '"frequency": 1'),
        (
            ["legendre", "--d", 2, "--spectrum", "0.6,0.4", "--s-point", "1,0"],
            lambda: _legendre_records((1.0, 0.0), (0.6, 0.4)),
            '"eta2": "-inf"',
        ),
    ],
    ids=["dist-d2", "dist-zero-tail", "dist-n0", "rate-scan", "rate-scan-empty", "sample-d3", "sample-d1", "legendre-boundary"],
)
def test_json_bytes_are_the_reference_renderer(tmp_path, argv, reference, marker):
    # each command's JSON is the generic renderer's text of its per-row dicts
    out = tmp_path / "out.json"
    assert run(argv + ["--format", "json", "--out", out]) == 0
    text = out.read_text()
    assert text == cli._render_json(reference()) + "\n"
    assert marker in text


class TestDist:
    def test_balanced_two_copies(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert run(["dist", "--d", 2, "--n", 2, "--spectrum", "0.5,0.5", "--out", out]) == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == ["Y1", "Y2", "est1", "est2", "prob", "log_prob"]
        assert [r["Y1"] for r in rows] == ["2", "1"]
        assert float(rows[0]["prob"]) == pytest.approx(0.75, abs=1e-12)
        assert float(rows[1]["prob"]) == pytest.approx(0.25, abs=1e-12)

    def test_single_level(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert run(["dist", "--d", 1, "--n", 5, "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["prob"]) == 1.0

    def test_json_same_data(self, tmp_path):
        out_csv, out_json = tmp_path / "d.csv", tmp_path / "d.json"
        run(["dist", "--d", 2, "--n", 3, "--spectrum", "0.6,0.4", "--out", out_csv])
        run(["dist", "--d", 2, "--n", 3, "--spectrum", "0.6,0.4", "--format", "json", "--out", out_json])
        csv_rows = read_csv(out_csv)
        json_rows = json.loads(out_json.read_text())
        assert len(csv_rows) == len(json_rows)
        for a, b in zip(csv_rows, json_rows):
            assert list(a.keys()) == list(b.keys())
            assert float(a["prob"]) == b["prob"]
            assert float(a["log_prob"]) == b["log_prob"]

    def test_round_trip_precision(self, tmp_path):
        out = tmp_path / "dist.csv"
        run(["dist", "--d", 2, "--n", 2, "--spectrum", "0.5,0.5", "--out", out])
        dist = exact_distribution(2, 2, Spectrum((0.5, 0.5)))
        rows = read_csv(out)
        for row, (frame, lp) in zip(rows, dist.items()):
            assert float(row["log_prob"]) == lp
            assert float(row["prob"]) == math.exp(lp)

    @pytest.mark.parametrize("d, n, values", [(4, 30, (0.4, 0.3, 0.2, 0.1)), (3, 0, (0.5, 0.3, 0.2)), (3, 12, (0.5, 0.5, 0.0))])
    def test_csv_bytes_are_the_generic_writer_of_the_law(self, tmp_path, d, n, values):
        out = tmp_path / "dist.csv"
        assert run(["dist", "--d", d, "--n", n, "--spectrum", ",".join(map(str, values)), "--out", out]) == 0
        assert out.read_bytes() == _csv_reference(*_law_rows(d, n, values)).encode()

    def test_rejects_bad_sum(self, tmp_path):
        # the second sums to 1 but holds a negative eigenvalue
        for spectrum in ("0.7,0.4", "1.5,-0.5"):
            code = run(["dist", "--d", 2, "--n", 2, "--spectrum", spectrum, "--out", tmp_path / "x.csv"])
            assert code == 2
            assert list(tmp_path.iterdir()) == []

    def test_rejects_unsorted_without_flag(self, tmp_path):
        code = run(["dist", "--d", 2, "--n", 2, "--spectrum", "0.3,0.7", "--out", tmp_path / "x.csv"])
        assert code == 2

    def test_allow_unsorted_canonicalizes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["dist", "--d", 2, "--n", 4, "--spectrum", "0.3,0.7", "--allow-unsorted", "--out", a])
        run(["dist", "--d", 2, "--n", 4, "--spectrum", "0.7,0.3", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_resource_cap_exit_code(self, tmp_path):
        # d1000 N15 is the largest size whose Schur table fits
        code = run(["dist", "--d", 1000, "--n", 16, "--spectrum", ",".join(["0.001"] * 1000), "--out", tmp_path / "x.csv"])
        assert code == 3
        code = run(["dist", "--d", 2, "--n", 401, "--spectrum", "0.5,0.5", "--out", tmp_path / "x.csv"])
        assert code == 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("d, boxes", [(4, 401), (5, 168), (6, 81)])
    def test_one_past_each_cap_allocates_nothing(self, tmp_path, d, boxes):
        # d4 N400, d5 N167 and d6 N80 are the largest accepted sizes
        spectrum = ",".join(["0.5"] + [str(0.5 / (d - 1))] * (d - 1))
        tracemalloc.start()
        try:
            code = run(["dist", "--d", d, "--n", boxes, "--spectrum", spectrum, "--out", tmp_path / "x.csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert list(tmp_path.iterdir()) == []
        assert peak < 2**20

    @pytest.mark.parametrize("d", [66, 1000])
    def test_more_rows_than_numpy_axes(self, tmp_path, d):
        # the Schur table keeps one axis per row that can be nonzero, at most N
        out = tmp_path / "x.csv"
        assert run(["dist", "--d", d, "--n", 0, "--spectrum", ",".join([repr(1 / d)] * d), "--out", out]) == 0
        assert len(read_csv(out)) == 1


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command",
    [
        ["dist", "--d", 2, "--n", 5, "--spectrum={bad},1"],
        ["sample", "--d", 2, "--n", 5, "--spectrum={bad},1", "--samples", 10],
        ["rate-scan", "--d", 2, "--spectrum={bad},1", "--epsilon", "0.1", "--n-list", "10"],
        ["legendre", "--d", 2, "--spectrum", "0.6,0.4", "--s-point={bad},1"],
    ],
    ids=lambda command: command[0],
)
def test_non_finite_input_writes_nothing(tmp_path, command, bad):
    out = tmp_path / "out.csv"
    argv = [a.format(bad=bad) if isinstance(a, str) else a for a in command]
    assert run(argv + ["--out", out]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [
        ["dist", "--d", 2, "--n", 2, "--spectrum", "1e308,1e308"],
        ["legendre", "--d", 2, "--spectrum", "0.6,0.4", "--s-point", "1e308,1e308"],
        ["rate-scan", "--d", 2, "--spectrum", "0.7,0.3", "--epsilon", "1e400", "--n-list", 5],
    ],
    ids=lambda command: command[0],
)
def test_overflowing_input_writes_nothing(tmp_path, command):
    # finite text whose sum or float value overflows is bad input, not a crash
    assert run(command + ["--out", tmp_path / "out.csv"]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [
        ["dist", "--n", 3],
        ["sample", "--n", 3, "--samples", 2],
        ["rate-scan", "--epsilon", "0.1", "--n-list", "10"],
        ["legendre", "--s-point", "0.6,0.4"],
    ],
    ids=lambda command: command[0],
)
def test_missing_spectrum_above_one_level_is_bad_input(tmp_path, capsys, command):
    assert run(command + ["--d", 2, "--out", tmp_path / "out.csv"]) == 2
    assert capsys.readouterr().err == "error: --spectrum is required for d > 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["nan,0.5", "inf,-inf"])
def test_non_finite_spectrum_named_as_given(tmp_path, capsys, text):
    # a NaN passes a sum test and an inf pair makes fsum fail, so finiteness is checked first
    assert run(["dist", "--d", 2, "--n", 5, f"--spectrum={text}", "--out", tmp_path / "out.csv"]) == 2
    assert capsys.readouterr().err == f"error: eigenvalues must be finite, got {text!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, call",
    [
        (["dist", "--d", 2, "--n", 3, "--spectrum", "0.5,0.5"], "exact_distribution"),
        (["sample", "--d", 2, "--n", 3, "--spectrum", "0.5,0.5", "--samples", 2], "empirical_distribution"),
        (["rate-scan", "--d", 2, "--spectrum", "0.5,0.5", "--epsilon", "0.1", "--n-list", "10"], "rate_scan"),
        (["legendre", "--d", 2, "--spectrum", "0.6,0.4", "--s-point", "0.5,0.5"], "legendre_of_cgf"),
        (["verify"], "run_checks"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else value,
)
def test_output_in_a_missing_directory_is_bad_input(tmp_path, capsys, monkeypatch, command, call):
    # the directory is checked before the command computes anything
    def refuse(*args, **kwargs):
        raise AssertionError(f"{call} ran")

    monkeypatch.setattr(importlib.import_module(f"spectrum_scope.{cli._LIBRARY_CALLS[call]}"), call, refuse)
    assert run(command + ["--out", tmp_path / "missing" / "out.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("blocked", ["out.csv", "out.csv.manifest.json"], ids=["data", "manifest"])
def test_unwritable_output_is_bad_input(tmp_path, capsys, blocked):
    # a directory where the data or the manifest goes makes the write fail,
    # and no data file is left without its manifest
    (tmp_path / blocked).mkdir()
    assert run(["dist", "--d", 2, "--n", 3, "--spectrum", "0.5,0.5", "--out", tmp_path / "out.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: could not write {tmp_path / blocked}: ") and err.count("\n") == 1, err
    assert [path.name for path in tmp_path.iterdir()] == [blocked]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a malformed integer with exit 2
        return exc.code


# past every cap: N > 400 for exact enumeration, and 10**11 samples need far
# more than one sampler chain may hold, so no draw allocates or runs long
_HUGE = str(10**11)
_HOSTILE = ["nan", "inf", "-inf", "1e308", "-1", "-0.5", "", "abc", "1..2", "0x10"]


def _valid_spectrum(d):
    # thousandths summing to exactly 1000, descending, zeros allowed
    cuts = st.lists(st.integers(0, 1000), min_size=d - 1, max_size=d - 1).map(sorted)
    return cuts.map(
        lambda c: ",".join(
            f"{v}e-3" for v in sorted((b - a for a, b in zip([0, *c], [*c, 1000])), reverse=True)
        )
    )


@st.composite
def _fuzzed_argv(draw):
    """A valid small invocation with at most one argument replaced by hostile text."""
    command = draw(st.sampled_from(["dist", "rate-scan", "sample", "legendre"]))
    # every command reaches d = 4: a ball complement's rate infimum runs no grid
    d = draw(st.integers(1, 4))
    spectra = [",".join([bad] * d) for bad in _HOSTILE] + ["1e308," * d + "1e308", "0.5,0.5,"]
    options = {"d": str(d), "spectrum": draw(_valid_spectrum(d)), "format": draw(st.sampled_from(["csv", "json"]))}
    hostile = {"d": ["0", "-2", _HUGE, "", "2.5", "nan"], "spectrum": spectra}
    if command in ("dist", "sample"):
        options["n"] = str(draw(st.integers(0, 30)))
        # the sampler has no cap on N alone, so only dist is sent past it
        hostile["n"] = ["-1", "", "1e308", "nan"] + (["401", _HUGE] if command == "dist" else [])
    if command == "rate-scan":
        options["epsilon"] = draw(st.sampled_from(["0", "0.1", "0.25", "1", "1e308"]))
        hostile["epsilon"] = _HOSTILE + ["1e400"]
        options["n-list"] = ",".join(map(str, draw(st.lists(st.integers(1, 30), min_size=1, max_size=3))))
        hostile["n-list"] = ["0", "-1", "401", _HUGE, "5,", "", "nan", "5," + _HUGE]
    if command == "sample":
        options["samples"] = str(draw(st.integers(1, 200)))
        hostile["samples"] = ["0", "-5", _HUGE, str(10**12), "", "1e308"]
        options["chains"] = str(draw(st.integers(1, 3)))
        hostile["chains"] = ["0", "-1", "", "nan"]
        options["seed"] = str(draw(st.integers(0, 2**64 - 1)))
        hostile["seed"] = ["-1", str(2**64), "", "abc"]
    if command == "legendre":
        options["s-point"] = draw(_valid_spectrum(d))
        hostile["s-point"] = spectra
    name = draw(st.sampled_from([None, *hostile]))
    if name is not None:
        options[name] = draw(st.sampled_from(hostile[name]))
    return [command] + [f"--{key}={value}" for key, value in options.items()]


@settings(max_examples=500, deadline=None)
@given(_fuzzed_argv())
def test_fuzzed_numbers_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code = _exit_code(argv + [f"--out={tmp}/out.dat"])
        assert code in (0, 2, 3), argv
        if code != 0:
            assert os.listdir(tmp) == [], argv
        else:
            assert "nan" not in Path(tmp, "out.dat").read_text().lower(), argv


class TestEntryPoint:
    # ``python -m spectrum_scope`` and the installed script run ``script_main``,
    # which turns the cyclic collector off and freezes the heap when ``main`` returns
    def test_in_process_main_leaves_the_collector_alone(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert gc.isenabled()
        assert run(["dist", "--d", 3, "--n", 12, "--spectrum", "0.5,0.3,0.2", "--out", tmp_path / "x.csv"]) == 0
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen

    def test_script_main_runs_without_the_collector(self):
        script = (
            "import gc, sys\nfrom spectrum_scope import cli\nsys.argv[1:] = ['--version']\n"
            "try:\n    cli.script_main()\nexcept SystemExit as stop:\n"
            "    print(stop.code, gc.isenabled(), gc.get_freeze_count() > 0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(), capture_output=True, text=True)
        assert proc.stdout.split() == ["0.1.0", "0", "False", "True"], proc.stderr

    def test_module_run_writes_the_in_process_bytes(self, tmp_path, monkeypatch):
        argv = ["dist", "--d", "3", "--n", "40", "--spectrum", "0.5,0.3,0.2", "--out", "law.csv"]
        child, here = tmp_path / "child", tmp_path / "here"
        child.mkdir()
        here.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "spectrum_scope", *argv], cwd=child, env=subprocess_env(), capture_output=True
        )
        assert proc.returncode == 0, proc.stderr
        monkeypatch.chdir(here)
        assert main(argv) == 0
        for name in ("law.csv", "law.csv.manifest.json"):
            assert (child / name).read_bytes() == (here / name).read_bytes()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--version"], 0),
            (["dist", "--d", "2", "--n", "2", "--spectrum", "0.7,0.4"], 2),
            (["dist", "--d", "2", "--n", "401", "--spectrum", "0.5,0.5"], 3),
        ],
        ids=["version", "bad-input", "cap"],
    )
    def test_exit_codes_through_the_entry_point(self, tmp_path, argv, code):
        out = [] if argv == ["--version"] else ["--out", str(tmp_path / "x.csv")]
        proc = subprocess.run(
            [sys.executable, "-m", "spectrum_scope", *argv, *out], env=subprocess_env(), capture_output=True, text=True
        )
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stdout == "0.1.0\n"
        else:
            assert proc.stderr.startswith("error: ")
            assert list(tmp_path.iterdir()) == []


class TestManifest:
    def test_written_with_checksum(self, tmp_path):
        out = tmp_path / "dist.csv"
        run(["dist", "--d", 2, "--n", 2, "--spectrum", "0.5,0.5", "--out", out])
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["command"] == "dist"
        assert manifest["output"]["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()

    def test_replay_reproduces_bytes(self, tmp_path):
        out = tmp_path / "dist.csv"
        run(["dist", "--d", 3, "--n", 9, "--spectrum", "0.5,0.3,0.2", "--out", out])
        original = out.read_bytes()
        out.unlink()
        assert replay_manifest(str(out) + ".manifest.json") == 0
        assert out.read_bytes() == original

    def test_repeat_runs_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--d", 2, "--n", 20, "--spectrum", "0.7,0.3", "--samples", 5000, "--seed", 4, "--chains", 3]
        run(args + ["--out", a])
        run(args + ["--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestRateScan:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["rate-scan", "--d", 2, "--spectrum", "0.7,0.3", "--epsilon", "0.1", "--n-list", "20,40", "--out", out]) == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == ["N", "region_prob", "decay_rate", "target_rate"]
        assert [r["N"] for r in rows] == ["20", "40"]
        target = 0.6 * math.log(0.6 / 0.7) + 0.4 * math.log(0.4 / 0.3)
        assert float(rows[0]["target_rate"]) == pytest.approx(target, abs=1e-8)

    def test_huge_radius_flags_infinite(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["rate-scan", "--d", 2, "--spectrum", "0.6,0.4", "--epsilon", "1", "--n-list", "5", "--out", out]) == 0
        row = read_csv(out)[0]
        assert float(row["region_prob"]) == 0.0
        assert row["decay_rate"] == "inf"

    def test_zero_radius_excludes_exact_hits_only(self, tmp_path):
        out = tmp_path / "scan.csv"
        run(["rate-scan", "--d", 2, "--spectrum", "0.75,0.25", "--epsilon", "0", "--n-list", "8", "--out", out])
        row = read_csv(out)[0]
        dist = exact_distribution(2, 8, Spectrum((0.75, 0.25)))
        expected = 1.0 - dist.prob(YoungFrame((6, 2)))
        assert float(row["region_prob"]) == pytest.approx(expected, abs=1e-12)

    def test_json_records_carry_the_minimizer(self, tmp_path):
        out = tmp_path / "scan.json"
        args = ["rate-scan", "--d", 2, "--spectrum", "0.7,0.3", "--format", "json", "--out", out]
        assert run(args + ["--epsilon", "0.1", "--n-list", "20,40"]) == 0
        records = json.loads(out.read_text())
        minimizer = records[0]["target_minimizer"]
        assert all(record["target_minimizer"] == minimizer for record in records)
        assert ldp.rate(minimizer, (0.7, 0.3)) == records[0]["target_rate"]
        assert max(abs(a - b) for a, b in zip(minimizer, (0.7, 0.3))) > 0.1
        assert run(args + ["--epsilon", "1", "--n-list", "5"]) == 0
        assert json.loads(out.read_text())[0]["target_minimizer"] is None

    def test_scan_leaves_scipy_optimize_unimported(self, tmp_path):
        # the rate infimum needs no numerical optimizer, so a fresh scan process never loads one
        script = (
            "import sys; from spectrum_scope.cli import main; "
            "code = main(sys.argv[1:]); assert 'scipy.optimize' not in sys.modules; sys.exit(code)"
        )
        args = ["rate-scan", "--d", "4", "--spectrum", "0.4,0.3,0.2,0.1", "--epsilon", "0.1", "--n-list", "10"]
        proc = subprocess.run(
            [sys.executable, "-c", script, *args, "--out", str(tmp_path / "scan.csv")],
            env=subprocess_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_epsilon_larger_cap_exit(self, tmp_path):
        code = run(["rate-scan", "--d", 2, "--spectrum", "0.7,0.3", "--epsilon", "0.1", "--n-list", "500", "--out", tmp_path / "x.csv"])
        assert code == 3

    def test_cap_checked_before_target_and_table(self, tmp_path, monkeypatch):
        # an N past the cap anywhere in the list stops the scan before any work
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the cap check")

        monkeypatch.setattr(ldp, "inf_rate_over_region", must_not_run)
        monkeypatch.setattr(ldp, "SchurTable", must_not_run)
        args = ["rate-scan", "--d", 4, "--spectrum", "0.4,0.3,0.2,0.1", "--epsilon", "0.1"]
        assert run(args + ["--n-list", "20,700", "--out", tmp_path / "x.csv"]) == 3
        assert list(tmp_path.iterdir()) == []


class TestSample:
    def test_schema_and_totals(self, tmp_path):
        out = tmp_path / "sample.csv"
        assert run(["sample", "--d", 3, "--n", 6, "--spectrum", "0.5,0.3,0.2", "--samples", 2000, "--seed", 8, "--out", out]) == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == ["Y1", "Y2", "Y3", "count", "frequency"]
        assert sum(int(r["count"]) for r in rows) == 2000
        assert math.fsum(float(r["frequency"]) for r in rows) == pytest.approx(1.0, abs=1e-12)

    def test_point_spectrum(self, tmp_path):
        out = tmp_path / "sample.csv"
        run(["sample", "--d", 2, "--n", 7, "--spectrum", "1,0", "--samples", 50, "--seed", 1, "--out", out])
        rows = read_csv(out)
        assert len(rows) == 1
        assert (rows[0]["Y1"], rows[0]["Y2"]) == ("7", "0")

    def test_sample_memory_cap_exit_code(self, tmp_path):
        # the cap is checked before the count matrices are allocated
        out = tmp_path / "s.csv"
        args = ["sample", "--d", 3, "--n", 5, "--spectrum", "0.5,0.3,0.2", "--samples", 10**11]
        assert run(args + ["--out", out]) == 3
        assert list(tmp_path.iterdir()) == []

    def test_box_count_past_int32_exit_code(self, tmp_path):
        # the sampler's path state is int32, so N = 2^31 is refused before any draw
        out = tmp_path / "s.csv"
        args = ["sample", "--d", 3, "--n", 2**31, "--spectrum", "0.5,0.3,0.2", "--samples", 1]
        assert run(args + ["--out", out]) == 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("d, n, values, chains", [(3, 40, (0.5, 0.3, 0.2), 2), (1, 0, (1.0,), 1)])
    def test_csv_bytes_are_the_generic_writer_of_the_counts(self, tmp_path, d, n, values, chains):
        out = tmp_path / "sample.csv"
        argv = ["sample", "--d", d, "--n", n, "--spectrum", ",".join(map(str, values)), "--samples", 3000]
        assert run(argv + ["--seed", 5, "--chains", chains, "--out", out]) == 0
        header, rows, _ = _count_rows(d, n, values, chains)
        assert out.read_bytes() == _csv_reference(header, rows).encode()

    def test_single_level_needs_no_spectrum(self, tmp_path):
        out = tmp_path / "sample.csv"
        assert run(["sample", "--d", 1, "--n", 3, "--samples", 2, "--out", out]) == 0
        assert out.read_text() == "Y1,count,frequency\n3,2,1\n"

    def test_json_bytes_pinned(self, tmp_path):
        # 1,348 distinct shapes over 3 chains; the bytes, mean and counts
        # included, are those of earlier versions
        out = tmp_path / "sample.json"
        argv = ["sample", "--d", 3, "--n", 1000, "--spectrum", "0.5,0.3,0.2", "--samples", 2000]
        assert run(argv + ["--seed", 1, "--chains", 3, "--format", "json", "--out", out]) == 0
        assert len(json.loads(out.read_text())["frequencies"]) == 1348
        digest = "42afb6f6688a0c8ab6d1eb15b1f1c96d348a8977a2da4a41b5be0c2ea772262f"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_rejects_zero_samples(self, tmp_path):
        assert run(["sample", "--d", 2, "--n", 3, "--spectrum", "0.5,0.5", "--samples", 0, "--out", tmp_path / "x.csv"]) == 2

    def test_json_same_data(self, tmp_path):
        out_csv, out_json = tmp_path / "s.csv", tmp_path / "s.json"
        argv = ["sample", "--d", 3, "--n", 40, "--spectrum", "0.5,0.3,0.2", "--samples", 3000, "--seed", 5, "--chains", 2]
        assert run(argv + ["--out", out_csv]) == 0
        assert run(argv + ["--format", "json", "--out", out_json]) == 0
        report = json.loads(out_json.read_text())
        assert report["frequencies"] == [
            {k: float(v) if k == "frequency" else int(v) for k, v in row.items()} for row in read_csv(out_csv)
        ]
        cfg = SamplerConfig(d=3, boxes=40, spectrum=Spectrum((0.5, 0.3, 0.2)), seed=5, chains=2)
        empirical = empirical_distribution(cfg, 3000)
        assert report["samples"] == empirical.samples == 3000
        assert tuple(report["mean_estimate"]) == empirical.mean_estimate


class TestLegendre:
    def test_prints_matching_values(self, tmp_path, capsys):
        assert run(["legendre", "--d", 2, "--spectrum", "0.6,0.4", "--s-point", "0.8,0.2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        record = dict(zip(header, row))
        expected = 0.8 * math.log(0.8 / 0.6) + 0.2 * math.log(0.2 / 0.4)
        assert float(record["rate"]) == pytest.approx(expected, abs=1e-12)
        assert abs(float(record["difference"])) < 1e-8

    def test_tiny_eigenvalue_converges(self, capsys):
        argv = ["legendre", "--d", 3, "--spectrum", "0.9996,0.0004,1e-20", "--s-point", "0.6,0.2,0.2"]
        assert run(argv) == 0
        record = dict(zip(*[line.split(",") for line in capsys.readouterr().out.strip().splitlines()]))
        assert float(record["rate"]) == pytest.approx(9.8251190829270101, abs=1e-12)
        assert abs(float(record["difference"])) <= 1e-8

    def test_identical_points_give_zero(self, capsys):
        assert run(["legendre", "--d", 2, "--spectrum", "0.6,0.4", "--s-point", "0.6,0.4"]) == 0
        record = dict(zip(*[line.split(",") for line in capsys.readouterr().out.strip().splitlines()]))
        assert float(record["rate"]) == 0.0
        assert abs(float(record["legendre_value"])) < 1e-12

    def test_boundary_point_finite(self, capsys):
        assert run(["legendre", "--d", 2, "--spectrum", "0.6,0.4", "--s-point", "1,0"]) == 0
        record = dict(zip(*[line.split(",") for line in capsys.readouterr().out.strip().splitlines()]))
        assert float(record["rate"]) == pytest.approx(math.log(1 / 0.6), abs=1e-10)
        assert float(record["legendre_value"]) == pytest.approx(math.log(1 / 0.6), abs=1e-8)

    def test_weight_on_a_zero_eigenvalue_writes_nothing(self, tmp_path, capsys):
        # the rate is +inf there and no finite tilt attains it
        out = tmp_path / "x.csv"
        assert run(["legendre", "--d", 2, "--spectrum", "1,0", "--s-point", "0.5,0.5", "--out", out]) == 2
        assert "+inf" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_convergence_exit_code(self, monkeypatch):
        def explode(*args, **kwargs):
            raise ConvergenceError("no progress", last_iterate=(0.0, 0.0))

        monkeypatch.setattr(ldp, "legendre_of_cgf", explode)
        assert run(["legendre", "--d", 2, "--spectrum", "0.6,0.4", "--s-point", "0.8,0.2"]) == 4


class TestVerifyCommand:
    def test_quick_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--level", "quick", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert [c["name"] for c in report["checks"]] == [
            "normalization",
            "oracle",
            "bounds",
            "duality",
            "sampler-equivalence",
        ]

    def test_failed_check_exits_one(self, tmp_path, capsys, monkeypatch):
        from spectrum_scope import verify

        monkeypatch.setattr(verify, "_check_bounds", lambda level: verify.CheckResult("bounds", False, "forced"))
        out = tmp_path / "report.json"
        assert run(["verify", "--level", "quick", "--out", out]) == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert [c["name"] for c in report["checks"] if not c["passed"]] == ["bounds"]
        assert "bounds" in capsys.readouterr().err

    def test_levels_are_the_checks_levels(self):
        from spectrum_scope import verify

        assert cli.VERIFY_LEVELS == verify.LEVELS
        assert cli.VERIFY_LEVELS[0] == verify.QUICK


# each command runs in a fresh process and must leave these modules unloaded
_LOADING_SCRIPT = """
import sys
from spectrum_scope.cli import main

absent, argv = sys.argv[1].split(","), sys.argv[2:]
try:
    code = main(argv)
except SystemExit as stop:
    code = stop.code
loaded = [name for name in absent if name in sys.modules]
sys.exit(f"loaded {loaded}" if loaded else code)
"""


class TestModuleLoading:
    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["--version"], ["numpy"]),
            (
                ["dist", "--d", "3", "--n", "20", "--spectrum", "0.5,0.3,0.2"],
                ["fractions", ".regions", ".characters", ".ldp", ".rsk", ".verify"],
            ),
            (
                ["sample", "--d", "3", "--n", "20", "--spectrum", "0.5,0.3,0.2", "--samples", "10"],
                ["fractions", ".schur", ".measure", ".ldp", ".verify"],
            ),
        ],
        ids=["version", "dist", "sample"],
    )
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, absent):
        names = [f"spectrum_scope{name}" if name.startswith(".") else name for name in absent]
        out = [] if argv == ["--version"] else ["--out", str(tmp_path / "out.csv")]
        proc = subprocess.run(
            [sys.executable, "-c", _LOADING_SCRIPT, ",".join(names), *argv, *out],
            env=subprocess_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_every_export_resolves(self):
        script = (
            "import spectrum_scope; from spectrum_scope import *; "
            "missing = [n for n in spectrum_scope.__all__ if n not in globals()]; "
            "assert not missing, missing; assert set(spectrum_scope.__all__) <= set(dir(spectrum_scope))"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs(tmp_path):
    # the README's Python block, in a fresh interpreter, prints the mode it promises
    readme = (SOURCE_ROOT.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    proc = subprocess.run(
        [sys.executable, "-c", example], cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("(74, 35, 11) "), proc.stdout
