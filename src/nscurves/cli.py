"""Command-line surface: inspection, dumps, formula emission, round trips.

Exit codes: 0 on success, 1 when a numeric check fails, 2 on invalid input.
Reports are deterministic for a fixed seed, byte for byte.
"""
import argparse
import json
import math
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from .abelian import build_inversion_system, emit_system
from .curves import family_from_text, make_family
from .divisors import (
    divisor_payload,
    make_divisor,
    random_divisor,
    rfunctions_from_divisor,
    sample_points,
    solve_divisor,
)
from .errors import (
    InvalidLambdaIndex,
    NSCurveError,
    NotCoprime,
    OrderExceedsSupport,
    SymbolicLambda,
)
from .expansions import associated_second_kind, expand_at_infinity, first_kind_basis
from .hyperell import (
    MAX_GENUS,
    compute_periods,
    hyperelliptic_from_branch_points,
    report_payload,
    verify_inversion,
)

INVALID_INPUT = (
    NotCoprime,
    InvalidLambdaIndex,
    SymbolicLambda,
    OrderExceedsSupport,
    ValueError,
    OSError,
)


def _emit(args, text: str) -> None:
    """Write text, newline-terminated, to --output or else to stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")


def sigma_weight(n: int, s: int) -> Fraction:
    return -Fraction((n * n - 1) * (s * s - 1), 24)


def cmd_info(args) -> int:
    fam = make_family(args.n, args.s, "sym")
    weight = sigma_weight(args.n, args.s)
    value = weight.numerator if weight.denominator == 1 else weight
    lines = [
        f"curve ({fam.n},{fam.s}): {fam.f_text()}",
        f"genus        {fam.genus}",
        "gaps         " + ", ".join(str(w) for w in fam.gaps),
        f"sigma weight {value}",
        "monomials    label  weight  term",
    ]
    for mono in fam.monomial_basis(2 * fam.genus):
        lines.append(
            f"             {mono.label:5d}  {mono.sato_weight:6d}  {mono.as_text()}"
        )
    _emit(args, "\n".join(lines))
    return 0


def cmd_expand(args) -> int:
    fam = make_family(args.n, args.s, "sym")
    chart = expand_at_infinity(fam, args.order)
    first = first_kind_basis(chart)
    entries = {
        "x": chart.x_series.to_text(),
        "y": chart.y_series.to_text(),
        "dx/f_y": chart.dxdyf_series.to_text(),
    }
    for w, series in zip(first.gaps, first.u_series):
        entries[f"u_{w}"] = series.to_text()
    if args.format == "json":
        _emit(args, json.dumps(entries, indent=2, sort_keys=False))
    else:
        _emit(args, "\n".join(f"{k} = {v}" for k, v in entries.items()))
    return 0


def cmd_differentials(args) -> int:
    fam = make_family(args.n, args.s, "sym")
    chart = expand_at_infinity(fam)
    first = first_kind_basis(chart)
    second = associated_second_kind(chart, first)
    du = {
        f"du_{w}": f"({mono.as_text()}) dx / f_y"
        for w, mono in zip(first.gaps, first.numerators)
    }
    dr = {
        f"dr_{level}": f"({fn.as_text()}) dx / f_y"
        for level, fn in enumerate(second.numerators, 1)
    }
    if args.format == "json":
        _emit(args, json.dumps({"first_kind": du, "second_kind": dr}, indent=2))
    else:
        lines = [f"{k} = {v}" for k, v in du.items()]
        lines += [f"{k} = {v}" for k, v in dr.items()]
        _emit(args, "\n".join(lines))
    return 0


def cmd_formulas(args) -> int:
    if args.m != args.s // args.n:
        print(
            f"error: family index {args.m} does not match ({args.n},{args.s})",
            file=sys.stderr,
        )
        return 2
    fam = make_family(args.n, args.s, "sym")
    system = build_inversion_system(fam)
    if args.check_golden:
        name = f"system_{args.n}_{args.s}.json"
        store = resources.files("nscurves") / "golden" / name
        if not store.is_file():
            print(f"error: no frozen system for ({args.n},{args.s})", file=sys.stderr)
            return 2
        frozen = store.read_text()
        emitted = emit_system(system, fmt="json")
        if emitted == frozen:
            print(f"PASS {name}")
            return 0
        for lineno, (a, b) in enumerate(
            zip(emitted.splitlines(), frozen.splitlines()), 1
        ):
            if a != b:
                print(f"FAIL {name}: first difference at line {lineno}")
                print(f"  emitted: {a}")
                print(f"  frozen:  {b}")
                return 1
        print(f"FAIL {name}: length mismatch")
        return 1
    _emit(args, emit_system(system, fmt=args.format))
    return 0


def _max_recovery_error(got, want) -> float:
    order = lambda p: (p.x.real, p.x.imag, p.y.real, p.y.imag)
    worst = 0.0
    for a, b in zip(sorted(got, key=order), sorted(want, key=order)):
        scale = max(1.0, abs(b.x), abs(b.y))
        worst = max(worst, abs(a.x - b.x) / scale, abs(a.y - b.y) / scale)
    return worst


def _require_tolerance(tolerance: float) -> None:
    # err < tolerance fails every error at nan or a bound <= 0 and passes every
    # finite one at inf, so the verdict would say nothing about the curve
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"--tolerance must be positive and finite, not {tolerance:g}")


def cmd_roundtrip(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, not {args.count}")
    _require_tolerance(args.tolerance)
    fam = family_from_text(Path(args.curve).read_text())
    fam.numeric_lambda()  # raises SymbolicLambda when coefficients are not fixed
    rng = np.random.default_rng(args.seed)
    rows = []
    failed = False
    for trial in range(args.count):
        divisor = random_divisor(fam, rng)
        recovered = solve_divisor(rfunctions_from_divisor(fam, divisor))
        err = _max_recovery_error(recovered.points, divisor.points)
        ok = err < args.tolerance
        failed = failed or not ok
        rows.append(
            f"trial {trial:02d}  error {err:.3e}  {'PASS' if ok else 'FAIL'}"
        )
    rows.append(f"{'FAIL' if failed else 'PASS'} ({args.count} round trips)")
    _emit(args, "\n".join(rows))
    return 1 if failed else 0


def _demo_family(g: int, rng):
    while True:
        es = np.sort(rng.uniform(-2.2, 2.2, size=2 * g + 1))
        es -= es.mean()
        if min(np.diff(es)) > 0.25:
            return hyperelliptic_from_branch_points(es)


def cmd_hyper_demo(args) -> int:
    # also keeps _demo_family finite: it never returns once 2g * 0.25 > 4.4
    if not 1 <= args.g <= MAX_GENUS:
        raise ValueError(f"the demo covers genus 1 to {MAX_GENUS}")
    _require_tolerance(args.tolerance)
    rng = np.random.default_rng(args.seed)
    fam = _demo_family(args.g, rng)
    periods = compute_periods(fam)
    divisor = make_divisor(fam, sample_points(fam, rng, args.g, scale=1.4))
    report = verify_inversion(fam, divisor, periods)
    worst = max(c.abs_err for c in report)
    payload = {
        "curve": {
            "n": fam.n,
            "s": fam.s,
            "lambda": {
                str(k): [v.real, v.imag]
                for k, v in sorted(fam.numeric_lambda().items())
            },
        },
        "branch_points": [e.real for e in periods.branch_points],
        "tau": [
            [[v.real, v.imag] for v in row] for row in periods.tau
        ],
        "divisor": divisor_payload(divisor),
        "report": report_payload(report),
        "max_abs_err": worst,
    }
    _emit(args, json.dumps(payload, indent=2))
    return 0 if worst < args.tolerance else 1


def _add_common(sub, seed=False, tolerance=False, fmt=None):
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if tolerance:
        sub.add_argument("--tolerance", type=float, default=1e-6)
    if fmt:
        sub.add_argument("--format", choices=fmt, default=fmt[0])
    sub.add_argument("--output", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nscurves",
        description="inversion formulas and numeric checks on plane (n,s)-curves",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="genus, gaps, monomial labels")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_info)

    p = subs.add_parser("expand", help="series at infinity")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.add_argument(
        "--order", type=int, default=None,
        help="relative truncation order (default: the level count c)",
    )
    _add_common(p, fmt=("text", "json"))
    p.set_defaults(func=cmd_expand)

    p = subs.add_parser("differentials", help="first and second kind numerators")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    _add_common(p, fmt=("text", "json"))
    p.set_defaults(func=cmd_differentials)

    p = subs.add_parser("formulas", help="emit the inversion system")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--check-golden", action="store_true")
    _add_common(p, fmt=("latex", "json"))
    p.set_defaults(func=cmd_formulas)

    p = subs.add_parser("roundtrip", help="construct and re-solve random divisors")
    p.add_argument("curve", type=str)
    p.add_argument("--count", type=int, default=20)
    _add_common(p, seed=True, tolerance=True)
    p.set_defaults(func=cmd_roundtrip)

    p = subs.add_parser("hyper-demo", help="numeric inversion demo, JSON report")
    p.add_argument("g", type=int)
    _add_common(p, seed=True, tolerance=True)
    p.set_defaults(func=cmd_hyper_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INVALID_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NSCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
