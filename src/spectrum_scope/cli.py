"""Command-line interface: distributions, rate scans, sampling, self-checks.

Each command hands its columns of cell text to one record writer
(``_records_text``, CSV or JSON) and its text to one write path (``_emit``).
Every data-writing invocation also writes a run manifest next to its output
(``<out>.manifest.json``) holding the resolved arguments and the SHA-256 of
the produced bytes; re-running the recorded argv reproduces the file
exactly, and a data file whose manifest cannot be written is removed. Exit
codes: 0 success, 1 failed invariant, 2 bad input (an unwritable ``--out``
included), 3 resource cap, 4 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from . import __version__
from .errors import ConvergenceError, EmptyRegionError, ResourceLimitError

if TYPE_CHECKING:
    from .frames import Spectrum

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NO_CONVERGENCE = 4

# the levels of ``verify.run_checks``, named here so that parsing loads no library module
VERIFY_LEVELS = ("quick", "full")

# each command's main library call by defining module. Commands import what
# they run; these calls are resolved as attributes of this module on first
# access (PEP 562), so a wrapper set here, as perfbench's tracer sets one, is
# the one that runs
_LIBRARY_CALLS = {
    "exact_distribution": "measure",
    "rate_scan": "ldp",
    "empirical_distribution": "rsk",
    "legendre_of_cgf": "ldp",
    "run_checks": "verify",
}


def __getattr__(name: str):
    if name not in _LIBRARY_CALLS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LIBRARY_CALLS[name]}", __package__), name)


def _library_call(name: str):
    """The library call ``name`` as this module's attribute now."""
    return getattr(sys.modules[__name__], name)


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def _render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats (infinities as strings)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, float) and not math.isfinite(obj):
        return json.dumps(_format_number(obj))
    if isinstance(obj, (int, float)):
        return _format_number(obj)
    return json.dumps(str(obj))


def _write_bytes(path: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise _UsageError(f"could not write {path}: {exc.strerror or exc}") from exc


def _records_text(header: Sequence[str], columns: Iterable[Iterable[str]], fmt: str, indent: int = 0) -> str:
    """Records from one iterable of cell text per column: CSV lines under the
    header, or the JSON list of objects that ``_render_json`` gives at
    ``indent``, ending in a newline."""
    if fmt == "csv":
        return "\n".join([",".join(header), *map(",".join, zip(*columns)), ""])
    pad = "  " * indent
    fields = ",\n".join(f"{pad}    {json.dumps(name)}: {{}}" for name in header)
    # one str.format template per record; the record's own braces are doubled
    template = pad + "  {{\n" + fields + "\n" + pad + "  }}"
    records = ",\n".join(map(template.format, *columns))
    return f"[\n{records}\n{pad}]\n"


def _float_cells(values, fmt: str):
    """Float cells: 17 significant digits; JSON quotes the non-finite ones."""
    return map("{:.17g}".format if fmt == "csv" else _render_json, values)


def _emit(command: str, args: argparse.Namespace, argv: list[str], text: str) -> None:
    """Print ``text``, or write it to ``--out`` and then its manifest. A data
    file whose manifest cannot be written is removed."""
    if args.out is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    _write_bytes(args.out, data)
    parameters = {
        k: v for k, v in sorted(vars(args).items()) if k not in {"func", "command"}
    }
    manifest = {
        "command": command,
        "version": __version__,
        "argv": argv,
        "parameters": parameters,
        "seed": getattr(args, "seed", None),
        "output": {
            "path": args.out,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        },
    }
    try:
        _write_bytes(args.out + ".manifest.json", (_render_json(manifest) + "\n").encode("utf-8"))
    except _UsageError:
        Path(args.out).unlink()
        raise


def replay_manifest(manifest_path: str) -> int:
    """Re-run the argv recorded in a manifest; outputs are reproduced exactly."""
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    return main([str(a) for a in manifest["argv"]])


class _UsageError(Exception):
    pass


def _parse_spectrum(text: str, d: int, allow_unsorted: bool) -> Spectrum:
    from .frames import Spectrum

    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"could not parse spectrum {text!r}: {exc}") from exc
    if len(values) != d:
        raise _UsageError(f"spectrum has {len(values)} entries, expected d={d}")
    try:
        total = math.fsum(values)
    except OverflowError as exc:
        raise _UsageError(f"eigenvalues {text!r} overflow their sum") from exc
    if abs(total - 1.0) > 1e-9:
        raise _UsageError(f"eigenvalues must sum to 1 within 1e-9, got {total!r}")
    values = [v / total for v in values]
    if not allow_unsorted and any(a < b for a, b in zip(values, values[1:])):
        raise _UsageError(
            "eigenvalues are not in descending order; pass --allow-unsorted to canonicalize"
        )
    return Spectrum.from_unsorted(values)


def _spectrum_text(args: argparse.Namespace) -> str:
    """The ``--spectrum`` text; a one-level system has only the spectrum "1"."""
    if args.spectrum is not None:
        return args.spectrum
    if args.d == 1:
        return "1"
    raise _UsageError("--spectrum is required for d > 1")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"could not parse integer list {text!r}: {exc}") from exc


def _cmd_dist(args: argparse.Namespace, argv: list[str]) -> int:
    from .frames import frame_to_estimate
    from .measure import distribution_mode

    spectrum = _parse_spectrum(_spectrum_text(args), args.d, args.allow_unsorted)
    dist = _library_call("exact_distribution")(args.d, args.n, spectrum)
    header = (
        [f"Y{j + 1}" for j in range(args.d)]
        + [f"est{j + 1}" for j in range(args.d)]
        + ["prob", "log_prob"]
    )
    # Y_j and Y_j/N take N+1 values each, so each value is formatted once
    n = dist.boxes
    counts = [str(v) for v in range(n + 1)]
    estimates = [_format_number(v / n if n else 0.0) for v in range(n + 1)]
    frame_columns = dist.rows.T.tolist()
    log_probs = dist.log_probs.tolist()
    columns = (
        [map(counts.__getitem__, c) for c in frame_columns]
        + [map(estimates.__getitem__, c) for c in frame_columns]
        + [_float_cells(map(math.exp, log_probs), args.format), _float_cells(log_probs, args.format)]
    )
    _emit("dist", args, argv, _records_text(header, columns, args.format))
    mode = distribution_mode(dist)
    summary = f"dist: d={args.d} N={args.n} frames={len(log_probs)} mode={mode}"
    if n:
        estimate = ",".join(_format_number(v) for v in frame_to_estimate(mode))
        summary += f" mode_estimate=({estimate})"
    print(summary, file=sys.stderr)
    return EXIT_OK


def _cmd_rate_scan(args: argparse.Namespace, argv: list[str]) -> int:
    from fractions import Fraction

    from .regions import BallComplement

    spectrum_text = _spectrum_text(args)
    spectrum = _parse_spectrum(spectrum_text, args.d, args.allow_unsorted)
    try:
        epsilon = Fraction(args.epsilon)
        float(epsilon)  # the rate infimum takes the radius as a float
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _UsageError(f"could not parse --epsilon {args.epsilon!r}: {exc}") from exc
    if epsilon < 0:
        raise _UsageError(f"--epsilon must be non-negative, got {args.epsilon}")
    boxes_list = _parse_int_list(args.n_list)
    if any(n < 1 for n in boxes_list):
        raise _UsageError("--n-list entries must be positive")
    # exact decimal region data, normalized and sorted descending, so boundary estimates classify exactly
    try:
        parts = [Fraction(part) for part in spectrum_text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"could not parse spectrum {spectrum_text!r}: {exc}") from exc
    total = sum(parts)
    region = BallComplement(center=tuple(sorted((p / total for p in parts), reverse=True)), radius=epsilon)
    profile = _library_call("rate_scan")(args.d, spectrum, region, boxes_list)
    target, points = profile.target, profile.points
    header = ["N", "region_prob", "decay_rate", "target_rate"]
    columns = [
        [str(point.boxes) for point in points],
        _float_cells([0.0 if point.empty else math.exp(point.log_prob) for point in points], args.format),
        _float_cells([point.decay for point in points], args.format),
        _float_cells([target.value] * len(points), args.format),
    ]
    if args.format == "json":
        # JSON records also carry the region member that attains a finite target
        minimizer = list(target.minimizer.values) if math.isfinite(target.value) else None
        header.append("target_minimizer")
        columns.append([_render_json(minimizer, 2)] * len(points))
    _emit("rate-scan", args, argv, _records_text(header, columns, args.format))
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace, argv: list[str]) -> int:
    from .rsk import SamplerConfig

    spectrum = _parse_spectrum(_spectrum_text(args), args.d, args.allow_unsorted)
    if args.samples < 1:
        raise _UsageError(f"--samples must be positive, got {args.samples}")
    cfg = SamplerConfig(
        d=args.d, boxes=args.n, spectrum=spectrum, seed=args.seed, chains=args.chains
    )
    empirical = _library_call("empirical_distribution")(cfg, args.samples)
    header = [f"Y{j + 1}" for j in range(args.d)] + ["count", "frequency"]
    frequencies = list(empirical.frequencies.values())
    columns = [map(str, column) for column in zip(*empirical.frequencies)] + [
        (str(round(freq * args.samples)) for freq in frequencies),
        _float_cells(frequencies, args.format),
    ]
    if args.format == "csv":
        text = _records_text(header, columns, "csv")
    else:
        text = (
            f'{{\n  "samples": {args.samples},\n'
            f'  "mean_estimate": {_render_json(list(empirical.mean_estimate), 1)},\n'
            f'  "frequencies": {_records_text(header, columns, "json", indent=1)}}}\n'
        )
    _emit("sample", args, argv, text)
    print(
        "sample: mean_estimate=("
        + ",".join(_format_number(v) for v in empirical.mean_estimate)
        + f") over {args.samples} draws",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_legendre(args: argparse.Namespace, argv: list[str]) -> int:
    from .ldp import rate

    d = args.d
    spectrum = _parse_spectrum(_spectrum_text(args), d, args.allow_unsorted)
    point = _parse_spectrum(args.s_point, d, args.allow_unsorted)
    rate_value = rate(point, spectrum)
    if math.isinf(rate_value):
        raise _UsageError(
            "the rate is +inf: the point puts weight on a zero eigenvalue, and no finite tilt attains it"
        )
    result = _library_call("legendre_of_cgf")(point, spectrum)
    header = (
        ["rate", "legendre_value", "difference"] + [f"eta{j + 1}" for j in range(d)]
    )
    cells = _float_cells([rate_value, result.value, result.value - rate_value, *result.eta], args.format)
    _emit("legendre", args, argv, _records_text(header, [[cell] for cell in cells], args.format))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, argv: list[str]) -> int:
    from .verify import report_dict

    results = _library_call("run_checks")(args.level)
    report = report_dict(args.level, results)
    _emit("verify", args, argv, _render_json(report) + "\n")
    if not report["passed"]:
        failed = ", ".join(r.name for r in results if not r.passed)
        print(f"verify: FAILED invariants: {failed}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrum-scope",
        description=(
            "Exact outcome distributions, decay-rate analysis, and sampling for "
            "the Young-frame spectrum measurement on N copies of a d-level state."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, with_n=True, out_required=True):
        p.add_argument("--d", type=int, required=True, help="single-system dimension")
        if with_n:
            p.add_argument("--n", type=int, required=True, help="number of copies")
        p.add_argument("--spectrum", type=str, help="comma-separated eigenvalues")
        p.add_argument(
            "--allow-unsorted",
            action="store_true",
            help="canonicalize unsorted eigenvalues instead of rejecting them",
        )
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", type=str, required=out_required, help="output path")

    p_dist = sub.add_parser("dist", help="exact outcome distribution over frames")
    add_common(p_dist)
    p_dist.set_defaults(func=_cmd_dist)

    p_scan = sub.add_parser("rate-scan", help="decay rates of an error-ball complement")
    add_common(p_scan, with_n=False)
    p_scan.add_argument("--epsilon", type=str, required=True, help="sup-norm ball radius")
    p_scan.add_argument("--n-list", type=str, required=True, help="comma-separated copy counts")
    p_scan.set_defaults(func=_cmd_rate_scan)

    p_sample = sub.add_parser("sample", help="draw outcomes by letter insertion")
    add_common(p_sample)
    p_sample.add_argument("--samples", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--chains", type=int, default=1)
    p_sample.set_defaults(func=_cmd_sample)

    p_leg = sub.add_parser("legendre", help="rate vs. tilt-maximization at one point")
    add_common(p_leg, with_n=False, out_required=False)
    p_leg.add_argument("--s-point", type=str, required=True, help="evaluation point")
    p_leg.set_defaults(func=_cmd_legendre)

    p_verify = sub.add_parser("verify", help="run the invariant self-checks")
    p_verify.add_argument("--level", choices=VERIFY_LEVELS, default=VERIFY_LEVELS[0])
    p_verify.add_argument("--out", type=str, default=None, help="report path")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None and not Path(args.out).parent.is_dir():
            raise _UsageError(f"could not write {args.out}: no directory {Path(args.out).parent}")
        return args.func(args, argv)
    except (_UsageError, EmptyRegionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


def script_main() -> None:
    """``main`` as a process. A command leaves no cyclic garbage worth a pass over numpy's heap:
    the collector stays off, and the heap is frozen out of the collections at exit."""
    gc.disable()
    try:
        raise SystemExit(main())
    finally:
        gc.freeze()
