"""Command-line front end: per-state reports, family sweeps, verification.

Subcommands:
  report   one state -> JSON document with every correlation measure
  sweep    one family parameter swept over a range -> CSV (or JSON) rows
  verify   oracle-vs-closed-form and spectral cross-check suites

Exit codes: 0 success, 1 verification breach, 2 invalid or unphysical input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .affinity import affinity, gaussian_overlap_trace, trace_of_sqrt
from .discord import (
    correlation_report,
    max_affinity,
    max_affinity_via_invariants,
    stationarity_residual,
)
from .errors import (
    ConsistencyError,
    GhkError,
    InvalidParamsError,
    NotConvergedError,
    NotPhysicalError,
    ParseError,
    TruncationInsufficientError,
)
from .oracle import (
    FockOracleConfig,
    fock_affinity_diagonal,
    fock_sqrt_trace_diagonal,
    fock_trace_distance_diagonal,
    fock_product_trace_diagonal,
    oracle_max_affinity,
)
from .sampling import random_standard_form, random_symplectic
from .states import (
    GaussianState,
    MtsParams,
    StsParams,
    mts_standard_form,
    sts_standard_form,
    thermal_state,
)
from .symplectic import (
    CovarianceMatrix,
    StandardForm,
    as_covariance,
    square_root_cm,
    square_root_standard_form,
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


def _parse_matrix(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a 4x4 matrix from a path or inline text; JSON reports re-ingest.

    Returns (matrix, mean).
    """
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


def _input_cm(args) -> tuple[CovarianceMatrix, np.ndarray, dict]:
    """Resolve the state input of `report`; returns (cm, mean, input echo)."""
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
    mean = np.zeros(4)
    if kind in ("sts", "mts"):
        params = _parse_kv(getattr(args, kind))
        sf = _family_standard_form(kind, params)
        echo = {"kind": kind, "params": params}
    elif kind == "std_form":
        sf = _parse_std_form(args.std_form)
        echo = {"kind": "std-form", "params": _sf_dict(sf)}
    else:
        matrix, mean = _parse_matrix(args.matrix)
        cov = as_covariance(matrix)
        return cov, mean, {"kind": "matrix"}
    return sf.to_cm(), mean, echo


def _sf_dict(sf: StandardForm) -> dict:
    return {
        "b1": sf.b1, "b2": sf.b2, "c": sf.c, "d": sf.d, "s1": sf.s1, "s2": sf.s2
    }


def cmd_report(args) -> int:
    cov, mean, echo = _input_cm(args)
    report = correlation_report(cov, mean)
    echo["matrix"] = cov.matrix.tolist()
    echo["mean"] = mean.tolist()
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
    try:
        report = correlation_report(_family_standard_form(family, params))
    except (InvalidParamsError, NotPhysicalError):
        return False, {name: None for name in outputs}
    values = {}
    for name in outputs:
        values[name] = getattr(report, name)
    return True, values


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
    if steps < 2:
        raise ParseError("--range needs at least 2 steps")
    outputs = list(_MEASURES)
    if args.outputs:
        outputs = [name.strip() for name in args.outputs.split(",") if name.strip()]
        unknown = set(outputs) - set(_MEASURES)
        if unknown:
            raise ParseError(f"unknown output column(s): {sorted(unknown)}")

    grid = np.linspace(start, stop, steps)
    rows = []
    for value in grid:
        params = dict(fixed)
        params[sweep_param] = float(value)
        physical, values = _sweep_row(family, params, outputs)
        rows.append((float(value), physical, values))

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


def _verify_suites(seed: int, trials: int, inject_breach: bool):
    """Run the verification suites; yields (name, worst, tol, detail)."""
    rng = np.random.default_rng(seed)
    forms = [random_standard_form(rng) for _ in range(trials)]

    gap_worst = excess_worst = 0.0
    gap_detail = excess_detail = ""
    route_worst = sqrt_worst = resid_worst = 0.0
    route_detail = sqrt_detail = resid_detail = ""
    for sf in forms:
        cov = sf.to_cm()
        closed = max_affinity(cov)
        if inject_breach:
            closed += 1e-3
        value, _ = oracle_max_affinity(cov, rng=rng)
        if closed - value > gap_worst:
            gap_worst, gap_detail = closed - value, _sf_repr(sf)
        if value - closed > excess_worst:
            excess_worst, excess_detail = value - closed, _sf_repr(sf)

        alt = max_affinity_via_invariants(cov)
        rel = abs(alt - closed) / closed
        if rel > route_worst:
            route_worst, route_detail = rel, _sf_repr(sf)

        via_matrix = square_root_cm(cov).matrix
        via_form = square_root_standard_form(sf).to_cm().matrix
        err = np.max(np.abs(via_matrix - via_form)) / np.max(np.abs(via_matrix))
        if err > sqrt_worst:
            sqrt_worst, sqrt_detail = err, _sf_repr(sf)

        resid = stationarity_residual(cov)
        if resid > resid_worst:
            resid_worst, resid_detail = resid, _sf_repr(sf)

    yield ("closed form below oracle", gap_worst, 1e-5, gap_detail)
    yield ("oracle above closed form", excess_worst, 1e-7, excess_detail)
    if inject_breach:
        # adding 1e-3 to the closed form shifts the route comparison too;
        # only the oracle suites are meaningful under injection
        route_worst = sqrt_worst = resid_worst = 0.0
    yield ("max-affinity route equivalence", route_worst, 1e-8, route_detail)
    yield ("square-root form vs decomposition", sqrt_worst, 1e-8, sqrt_detail)
    yield ("stationarity residual", resid_worst, 1e-9, resid_detail)

    # spectral (photon-number) cross-checks on a thermal grid
    grid = [0.0, 0.3, 1.0, 3.0, 10.0]
    fock_cfg = FockOracleConfig()
    fock_worst, sandwich_worst = 0.0, 0.0
    fock_detail = sandwich_detail = ""
    for nb1 in grid:
        one = thermal_state([nb1])
        diff = abs(trace_of_sqrt(one) - fock_sqrt_trace_diagonal(nb1, fock_cfg))
        if diff > fock_worst:
            fock_worst, fock_detail = diff, f"tr-sqrt nbar={nb1}"
        for nb2 in grid:
            other = thermal_state([nb2])
            a_g = affinity(one, other).value
            a_f = fock_affinity_diagonal(nb1, nb2, fock_cfg)
            if abs(a_g - a_f) > fock_worst:
                fock_worst, fock_detail = abs(a_g - a_f), f"affinity nbar=({nb1},{nb2})"
            o_g = gaussian_overlap_trace(one.cm, other.cm, np.zeros(2))
            o_f = fock_product_trace_diagonal(nb1, nb2, fock_cfg)
            if abs(o_g - o_f) > fock_worst:
                fock_worst, fock_detail = abs(o_g - o_f), f"overlap nbar=({nb1},{nb2})"
            t = fock_trace_distance_diagonal(nb1, nb2, fock_cfg)
            upper = math.sqrt(max(1.0 - a_f * a_f, 0.0))
            breach = max(0.0, (1.0 - a_f) - t, t - upper)
            if breach > sandwich_worst:
                sandwich_worst, sandwich_detail = breach, f"nbar=({nb1},{nb2})"
    yield ("photon-number vs Gaussian", fock_worst, 1e-6, fock_detail)
    yield ("trace-distance sandwich", sandwich_worst, 1e-9, sandwich_detail)

    # invariance properties of the affinity on random pairs
    prop_worst, prop_detail = 0.0, ""
    for _ in range(min(trials, 40)):
        s1 = GaussianState(rng.normal(0, 1, 4), random_standard_form(rng).to_cm())
        s2 = GaussianState(rng.normal(0, 1, 4), random_standard_form(rng).to_cm())
        a12 = affinity(s1, s2).value
        a21 = affinity(s2, s1).value
        if abs(a12 - a21) > prop_worst:
            prop_worst, prop_detail = abs(a12 - a21), "symmetry"
        sym = random_symplectic(2, rng)
        shift = rng.normal(0, 1, 4)
        moved1 = GaussianState(
            sym @ s1.mean + shift, CovarianceMatrix(sym @ s1.cm.matrix @ sym.T)
        )
        moved2 = GaussianState(
            sym @ s2.mean + shift, CovarianceMatrix(sym @ s2.cm.matrix @ sym.T)
        )
        moved = affinity(moved1, moved2).value
        if abs(moved - a12) > prop_worst:
            prop_worst, prop_detail = abs(moved - a12), "unitary invariance"
    yield ("affinity invariance properties", prop_worst, 1e-9, prop_detail)


def _sf_repr(sf: StandardForm) -> str:
    return (
        f"standard form b1={sf.b1!r} b2={sf.b2!r} c={sf.c!r} d={sf.d!r}"
    )


def cmd_verify(args) -> int:
    failures = 0
    print(f"verification: seed={args.seed} trials={args.trials} "
          f"profile={active_profile().name}")
    for name, worst, tol, detail in _verify_suites(
        args.seed, args.trials, args.inject_breach
    ):
        ok = worst <= tol
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name:<36} max deviation {worst:.3e} (tol {tol:.0e})"
        print(line)
        if not ok:
            failures += 1
            if detail:
                print(f"      offending input: {detail}")
    return 1 if failures else 0


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
                       help="inclusive linear grid")
    sweep.add_argument("--fixed", nargs="*", metavar="K=V", default=[],
                       help="additional fixed parameters")
    sweep.add_argument("--out", choices=("csv", "json"), default="csv")
    sweep.add_argument("--outputs", metavar="COL[,COL...]",
                       help=f"measure columns (default: all of {','.join(_MEASURES)})")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run the numerical verification suites")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=_positive_int, default=100)
    verify.add_argument("--inject-breach", action="store_true",
                        help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
