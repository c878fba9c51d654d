"""Command-line front end: per-state reports, family sweeps, verification.

Subcommands:
  report   one state -> JSON document with every correlation measure
  sweep    one family parameter swept over a range -> CSV (or JSON) rows
  verify   oracle-vs-closed-form and spectral cross-check suites

Exit codes: 0 success, 1 verification breach, 2 invalid or unphysical input.

``sweep``, and ``report`` of family or standard-form input (--sts, --mts,
--std-form), evaluate the float closed forms of ``ghk.forms`` and never
load numpy. ``report --matrix`` and ``verify`` import the numpy layer when
they run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import (
    ConsistencyError,
    GhkError,
    InvalidParamsError,
    NotConvergedError,
    NotPhysicalError,
    ParseError,
    TruncationInsufficientError,
)
from .forms import (
    MtsParams,
    StandardForm,
    StsParams,
    _form_report,
    mts_standard_form,
    sts_standard_form,
)
from .tolerances import active_profile

_MEASURES = (
    "hellinger_discord",
    "entropic_discord",
    "mutual_information",
    "classical_correlations",
    "eof",
    "separable",
)

_FAMILY_KEYS = {
    "sts": {"nbar1", "nbar2", "r", "phi"},
    "mts": {"kappa1", "kappa2", "theta", "phi"},
    "symmetric": {"b", "c", "d", "b2c2", "dsign"},
}


def _fmt(x: float) -> str:
    """CSV number format: 12 significant digits, locale independent."""
    return format(float(x), ".12g")


def _parse_kv(tokens) -> dict[str, float]:
    out = {}
    for token in tokens or []:
        if "=" not in token:
            raise ParseError(f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise ParseError(f"value of {key!r} is not a number: {value!r}") from None
    return out


def _check_keys(family: str, params: dict) -> None:
    unknown = set(params) - _FAMILY_KEYS[family]
    if unknown:
        raise ParseError(
            f"unknown {family} parameter(s): {sorted(unknown)}; "
            f"allowed: {sorted(_FAMILY_KEYS[family])}"
        )


def _symmetric_standard_form(params: dict) -> StandardForm:
    try:
        b = params["b"]
    except KeyError:
        raise ParseError("symmetric family needs b") from None
    if "c" in params:
        c = params["c"]
    elif "b2c2" in params:
        c_sq = b * b - params["b2c2"]
        if c_sq < 0:
            raise InvalidParamsError("b^2 - c^2 constraint unreachable at this b")
        c = math.sqrt(c_sq)
    else:
        raise ParseError("symmetric family needs c or b2c2")
    if "d" in params:
        d = params["d"]
    elif "dsign" in params:
        d = math.copysign(c, params["dsign"])
    else:
        raise ParseError("symmetric family needs d or dsign")
    return StandardForm(b, b, c, d)


def _family_standard_form(family: str, params: dict) -> StandardForm:
    _check_keys(family, params)
    if family == "sts":
        return sts_standard_form(
            StsParams(
                nbar1=params.get("nbar1", 0.0),
                nbar2=params.get("nbar2", 0.0),
                r=params.get("r", 0.0),
                phi=params.get("phi", 0.0),
            )
        )
    if family == "mts":
        try:
            p = MtsParams(
                kappa1=params["kappa1"],
                kappa2=params["kappa2"],
                theta=params.get("theta", 0.0),
                phi=params.get("phi", 0.0),
            )
        except KeyError as missing:
            raise ParseError(f"mts family needs {missing}") from None
        return mts_standard_form(p)
    return _symmetric_standard_form(params)


def _parse_std_form(text: str) -> StandardForm:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) not in (4, 6):
        raise ParseError("--std-form expects b1,b2,c,d or b1,b2,c,d,s1,s2")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ParseError(f"--std-form has a non-numeric entry: {text!r}") from None
    return StandardForm(*vals)


def _parse_matrix(text: str):
    """Parse a 4x4 matrix from a path or inline text; JSON reports re-ingest.

    Returns (matrix, mean) as numpy arrays.
    """
    import numpy as np

    path = Path(text)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. inline text too long to be a file name
        is_file = False
    content = path.read_text(encoding="utf-8") if is_file else text
    content = content.strip()
    if content.startswith("{"):
        try:
            payload = json.loads(content)
            matrix = np.array(payload["input"]["matrix"], dtype=float)
            mean = np.array(payload["input"].get("mean", [0.0] * 4), dtype=float)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"could not read a report document: {exc}") from None
        return matrix, mean
    rows = [r for r in content.replace(";", "\n").splitlines() if r.strip()]
    try:
        values = [
            [float(x) for x in row.replace(",", " ").split()] for row in rows
        ]
        flat = [x for row in values for x in row]
    except ValueError:
        raise ParseError(f"matrix text has a non-numeric entry") from None
    if len(flat) != 16:
        raise ParseError(f"expected 16 matrix entries, got {len(flat)}")
    if len(values) == 1:
        matrix = np.array(flat, dtype=float).reshape(4, 4)
    else:
        if len(values) != 4 or any(len(r) != 4 for r in values):
            raise ParseError("matrix text must have 4 rows of 4 entries")
        matrix = np.array(values, dtype=float)
    return matrix, np.zeros(4)


def _input_state(args):
    """Resolve the state input of `report`.

    Returns (state, input echo): the state is a ``StandardForm`` for family
    and standard-form input, and the ``--matrix`` text otherwise.
    """
    chosen = [
        name
        for name, value in (
            ("sts", args.sts),
            ("mts", args.mts),
            ("std_form", args.std_form),
            ("matrix", args.matrix),
        )
        if value is not None
    ]
    if len(chosen) != 1:
        raise ParseError(
            "exactly one of --sts, --mts, --std-form, --matrix is required"
        )
    kind = chosen[0]
    if kind in ("sts", "mts"):
        params = _parse_kv(getattr(args, kind))
        return _family_standard_form(kind, params), {"kind": kind, "params": params}
    if kind == "std_form":
        sf = _parse_std_form(args.std_form)
        return sf, {"kind": "std-form", "params": _sf_dict(sf)}
    return args.matrix, {"kind": "matrix"}


def _sf_dict(sf: StandardForm) -> dict:
    return {
        "b1": sf.b1, "b2": sf.b2, "c": sf.c, "d": sf.d, "s1": sf.s1, "s2": sf.s2
    }


def _form_echo(sf: StandardForm) -> tuple[list[list[float]], list[float]]:
    """(matrix, mean) echoed for a standard form: its matrix at zero mean."""
    rows = sf.matrix_rows()
    if not all(math.isfinite(x) for row in rows for x in row):
        raise InvalidParamsError("covariance matrix entries must be finite")
    return rows, [0.0] * 4


def _matrix_report(text: str):
    """(report, matrix, mean) of ``--matrix`` input, through the numpy layer."""
    from .discord import correlation_report
    from .symplectic import as_covariance

    matrix, mean = _parse_matrix(text)
    cov = as_covariance(matrix)
    return correlation_report(cov, mean), cov.matrix.tolist(), mean.tolist()


def cmd_report(args) -> int:
    state, echo = _input_state(args)
    if isinstance(state, StandardForm):
        echo["matrix"], echo["mean"] = _form_echo(state)
        report = _form_report(state, active_profile().phys_tol)
    else:
        report, echo["matrix"], echo["mean"] = _matrix_report(state)
    payload = {
        "schema": 1,
        "library": {"name": "ghk", "version": __version__},
        "tolerance_profile": active_profile().name,
        "input": echo,
        "standard_form": _sf_dict(report.standard_form),
        "report": {
            "hellinger_discord": report.hellinger_discord,
            "entropic_discord": report.entropic_discord,
            "mutual_information": report.mutual_information,
            "classical_correlations": report.classical_correlations,
            "eof": report.eof,
            "separable": report.separable,
            "symplectic_spectrum": list(report.symplectic_spectrum),
            "pt_spectrum": list(report.pt_spectrum),
        },
    }
    print(json.dumps(payload, indent=2))
    return 0


def _sweep_row(family: str, params: dict, outputs) -> tuple[bool, dict]:
    """One sweep row: the report of the family's standard form, as
    ``correlation_report`` gives it for a ``StandardForm``."""
    try:
        sf = _family_standard_form(family, params)
        report = _form_report(sf, active_profile().phys_tol)
    except (InvalidParamsError, NotPhysicalError):
        return False, {name: None for name in outputs}
    values = {}
    for name in outputs:
        values[name] = getattr(report, name)
    return True, values


def _grid(start: float, stop: float, steps: int) -> list[float]:
    """``np.linspace(start, stop, steps).tolist()``, bit for bit, in floats."""
    step = (stop - start) / (steps - 1)
    grid = [i * step + start for i in range(steps)]
    grid[-1] = stop
    return grid


def cmd_sweep(args) -> int:
    family_args = [
        ("sts", args.sts), ("mts", args.mts), ("symmetric", args.symmetric)
    ]
    chosen = [(name, val) for name, val in family_args if val is not None]
    if len(chosen) != 1:
        raise ParseError("exactly one of --sts, --mts, --symmetric is required")
    family, inline = chosen[0]
    fixed = _parse_kv(inline)
    fixed.update(_parse_kv(args.fixed))
    sweep_param = args.sweep_param
    if sweep_param is None:
        raise ParseError("--sweep-param is required")
    if sweep_param in fixed:
        raise ParseError(f"sweep parameter {sweep_param!r} also appears as fixed")
    if sweep_param not in _FAMILY_KEYS[family]:
        raise ParseError(
            f"{sweep_param!r} is not a {family} parameter; "
            f"allowed: {sorted(_FAMILY_KEYS[family])}"
        )
    if args.range is None:
        raise ParseError("--range start:stop:steps is required")
    pieces = args.range.split(":")
    if len(pieces) != 3:
        raise ParseError("--range must look like start:stop:steps")
    try:
        start, stop = float(pieces[0]), float(pieces[1])
        steps = int(pieces[2])
    except ValueError:
        raise ParseError(f"could not parse --range {args.range!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ParseError(f"--range start and stop must be finite: {args.range!r}")
    if steps < 2:
        raise ParseError("--range needs at least 2 steps")
    outputs = list(_MEASURES)
    if args.outputs:
        outputs = [name.strip() for name in args.outputs.split(",") if name.strip()]
        unknown = set(outputs) - set(_MEASURES)
        if unknown:
            raise ParseError(f"unknown output column(s): {sorted(unknown)}")

    rows = []
    for value in _grid(start, stop, steps):
        params = dict(fixed)
        params[sweep_param] = value
        physical, values = _sweep_row(family, params, outputs)
        rows.append((value, physical, values))

    if args.out == "json":
        payload = {
            "schema": 1,
            "family": family,
            "sweep_param": sweep_param,
            "fixed": fixed,
            "columns": [sweep_param, "physical", *outputs],
            "rows": [
                [value, physical, *[values[name] for name in outputs]]
                for value, physical, values in rows
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(",".join([sweep_param, "physical", *outputs]))
    for value, physical, values in rows:
        cells = [_fmt(value), "true" if physical else "false"]
        for name in outputs:
            cell = values[name]
            if cell is None:
                cells.append("")
            elif isinstance(cell, bool):
                cells.append("true" if cell else "false")
            else:
                cells.append(_fmt(cell))
        print(",".join(cells))
    return 0


def cmd_verify(args) -> int:
    from . import checks

    failures = 0
    print(f"verification: seed={args.seed} trials={args.trials} "
          f"profile={active_profile().name}")
    for name, worst, tol, detail in checks.suites(args.seed, args.trials):
        ok = worst <= tol
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name:<36} max deviation {worst:.3e} (tol {tol:.0e})"
        print(line)
        if not ok:
            failures += 1
            if detail:
                print(f"      offending input: {detail}")
    return 1 if failures else 0


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghk",
        description=(
            "Hellinger-distance correlation measures of two-mode Gaussian "
            "states: closed forms plus brute-force verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="all measures of one state as JSON")
    report.add_argument("--sts", nargs="*", metavar="K=V",
                        help="squeezed thermal state: nbar1= nbar2= r= [phi=]")
    report.add_argument("--mts", nargs="*", metavar="K=V",
                        help="mode-mixed thermal state: kappa1= kappa2= theta= [phi=]")
    report.add_argument("--std-form", metavar="B1,B2,C,D[,S1,S2]",
                        help="standard-form parameters")
    report.add_argument("--matrix", metavar="PATH|TEXT",
                        help="4x4 covariance matrix (file, inline text, or a "
                             "previously emitted report JSON)")
    report.set_defaults(func=cmd_report)

    sweep = sub.add_parser("sweep", help="sweep one family parameter, emit rows")
    sweep.add_argument("--sts", nargs="*", metavar="K=V", help="sweep the STS family")
    sweep.add_argument("--mts", nargs="*", metavar="K=V", help="sweep the MTS family")
    sweep.add_argument("--symmetric", nargs="*", metavar="K=V",
                       help="sweep the symmetric family (keys b, c|b2c2, d|dsign)")
    sweep.add_argument("--sweep-param", metavar="NAME", help="parameter to sweep")
    sweep.add_argument("--range", metavar="START:STOP:STEPS",
                       help="inclusive linear grid (START may be negative)")
    sweep.add_argument("--fixed", nargs="*", metavar="K=V", default=[],
                       help="additional fixed parameters")
    sweep.add_argument("--out", choices=("csv", "json"), default="csv")
    sweep.add_argument("--outputs", metavar="COL[,COL...]",
                       help=f"measure columns (default: all of {','.join(_MEASURES)})")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run the numerical verification suites")
    verify.add_argument("--seed", type=_non_negative_int, default=0)
    verify.add_argument("--trials", type=_positive_int, default=100)
    verify.set_defaults(func=cmd_verify)
    return parser


def _join_range(argv: list[str]) -> list[str]:
    """Write ``--range START:STOP:STEPS`` as one token when START is negative.

    argparse takes a value that starts with '-' and is not a plain number
    for an option, so ``--range -1:1:3`` would lose its value.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--range" and token.startswith("-") and ":" in token:
            out[-1] = f"--range={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_range(argv))
    try:
        return args.func(args)
    except (NotConvergedError, TruncationInsufficientError, ConsistencyError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    except GhkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
