"""Command-line front end: analyze, norm, sweep, blocks, dyadpol, selftest.

Every JSON payload carries a schema tag and a provenance block (the
seed), and serializes floats as shortest round-trip decimals and
rationals as p/q strings, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .blocks import chi, theta, verify_blocks
from .dyadpol import (
    ExponentProfile,
    envelope_corners,
    lower_bound_set,
    verify_lower_bound,
)
from .errors import EmptyPolygonError, ParseError
from .newton import analyze_decay, build_polygon
from .opnorm import (
    DiscreteOperator,
    GridSpec,
    PhaseSpec,
    bump,
    discretize,
    operator_norm,
)
from .polycore import integrate_xy, mixed_derivative, parse_poly
from .puiseux import expand_branches
from .scaling import SweepConfig, norm_at, verify_theorem

SCHEMA_ID = "newton-osc/2"

NORM_CSV_HEADER = "lambda,n,norm,conv_err,iterations"
BLOCKS_CSV_HEADER = "j,k,region,mu,measured,size_bound,osc_bound,ratio"


# ---------------------------------------------------------------------------
# output plumbing


def _fnum(x: float) -> str:
    return repr(float(x))


def _write(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(args, payload: dict) -> None:
    payload = {"schema": SCHEMA_ID, "provenance": {"seed": args.seed}, **payload}
    _write(args, _json(payload) + "\n")


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, in one pass.

    Takes what a payload holds: str-keyed dicts, lists, tuples, str, int,
    float, bool and None, with str and int subclasses written as json
    writes them.  indent is the newline and indentation before the value's
    closing bracket.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        # repr spells the non-finite floats nan, inf and -inf; json NaN and Infinity
        return float.__repr__(value).replace("inf", "Infinity").replace("nan", "NaN")
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv_row(header: str, d: dict) -> str:
    """d's values in header order: str as is, int by str, anything else by _fnum."""
    values = (d[key] for key in header.split(","))
    return ",".join(
        v if isinstance(v, str) else str(v) if isinstance(v, int) else _fnum(v)
        for v in values
    )


def _emit(args, payload: dict, header: str, rows) -> None:
    """Write payload as JSON, or the CSV header and rows, as --format says."""
    if args.format == "json":
        _emit_json(args, payload)
    else:
        lines = [f"# {SCHEMA_ID} seed={args.seed}", header, *rows]
        _write(args, "\n".join(lines) + "\n")


def _phase_spec(args) -> PhaseSpec:
    """The phase and cutoff of --phase and --rho; --mixed means --phase is F = S''_xy itself."""
    poly = parse_poly(args.phase)
    return PhaseSpec(S=integrate_xy(poly) if args.mixed else poly, rho=args.rho)


def _parse_numbers(text: str, kind=float) -> tuple:
    try:
        return tuple(kind(t) for t in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad numeric list {text!r}", 0) from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    # unlike _phase_spec, never builds the phase S that --mixed would imply
    F = parse_poly(args.phase)
    if not args.mixed:
        F = mixed_derivative(F)
    polygon = build_polygon(F)  # EmptyPolygonError -> exit 3
    try:
        order = None if args.order is None else Fraction(args.order)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad fraction {args.order!r}", 0) from exc
    branches = expand_branches(F, order=order)
    decay = analyze_decay(F)
    payload = {
        "phase": args.phase,
        "mixed": bool(args.mixed),
        "mixed_derivative": F.render(),
        "polygon": {
            "vertices": [[a, b] for a, b in polygon.vertices],
            "A": polygon.A,
            "B": polygon.B,
        },
        "decay": decay.to_dict(),
        "branches": branches.to_dict(),
    }
    _emit_json(args, payload)
    return 0


def cmd_norm(args) -> int:
    sample = norm_at(_phase_spec(args), args.lam, seed=args.seed).to_dict()
    rows = [_csv_row(NORM_CSV_HEADER, sample)]
    _emit(args, {"samples": [sample]}, NORM_CSV_HEADER, rows)
    return 0


def _plot_rows(report) -> list[str]:
    valid = [s for s in report.samples if s.valid]
    x = np.log2([s.lam for s in valid])
    y = np.log2([s.value for s in valid])
    p = float(report.predicted)
    anchor = float(np.mean(y - p * x))
    return [
        ",".join([_fnum(xi), _fnum(yi), _fnum(anchor + p * xi)])
        for xi, yi in zip(x, y)
    ]


def cmd_sweep(args) -> int:
    p = _phase_spec(args)
    lambdas = () if args.lambdas is None else _parse_numbers(args.lambdas)
    window = None if args.fit_window is None else _parse_numbers(args.fit_window)
    if window is not None and len(window) != 2:
        raise ParseError("fit window must be two numbers lo,hi", 0)
    cfg = SweepConfig(
        lambdas=lambdas, tol_slope=args.tol_slope, fit_window=window, seed=args.seed
    )
    report = verify_theorem(p, cfg)
    if args.emit_plot_data is not None:
        rows = _plot_rows(report)
        with open(args.emit_plot_data, "w") as fh:
            fh.write("log2_lambda,log2_norm,predicted\n")
            fh.write("\n".join(rows) + "\n")
    rows = (_csv_row(NORM_CSV_HEADER, s.to_dict()) for s in report.samples)
    _emit(args, {"report": report.to_dict()}, NORM_CSV_HEADER, rows)
    return 0


def cmd_blocks(args) -> int:
    estimates, summary = verify_blocks(
        _phase_spec(args), args.lam, D=args.D, j_max=args.j_max, seed=args.seed
    )
    estimates = [e.to_row() for e in estimates]
    rows = (_csv_row(BLOCKS_CSV_HEADER, e) for e in estimates)
    payload = {"estimates": estimates, "summary": summary}
    _emit(args, payload, BLOCKS_CSV_HEADER, rows)
    return 0


def cmd_dyadpol(args) -> int:
    profile = ExponentProfile(r=_parse_numbers(args.r, int), C=args.C)
    lbset = lower_bound_set(profile)
    report = verify_lower_bound(
        profile,
        lbset,
        trials=args.trials,
        h_density=args.h_density,
        master_seed=args.seed,
    )
    payload = {
        "profile": {"r": list(profile.r), "C": profile.C, "N": profile.N},
        "corners": [str(c) for c in lbset.corners],
        "set": lbset.to_dict(),
        "verification": report.to_dict(),
    }
    _emit_json(args, payload)
    return 0


# ---------------------------------------------------------------------------
# selftest: quick frozen examples plus dense-oracle agreements


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _case_parse_round_trip():
    for s in ("x*y", "y^2 - x^3", "1/2*x^2*y + y^4"):
        p = parse_poly(s)
        _check(parse_poly(p.render()) == p, f"render round trip failed for {s}")
    _check(
        mixed_derivative(parse_poly("x^2*y^2/4")) == parse_poly("x*y"),
        "mixed derivative of x^2*y^2/4",
    )


def _case_polygon_oracle():
    # independent of the hull construction: a support point is a vertex iff
    # it uniquely minimizes w1*a + w2*b over some positive direction, and
    # directions up to 13 reach every normal cone for exponents in [0, 6]
    directions = [(w1, w2) for w1 in range(1, 14) for w2 in range(1, 14)]
    rng = np.random.default_rng(0)
    for _ in range(40):
        pts = {tuple(q) for q in rng.integers(0, 7, size=(rng.integers(1, 6), 2))}
        F = parse_poly(" + ".join(f"x^{a}*y^{b}" for a, b in sorted(pts)))
        found = set()
        for w1, w2 in directions:
            vals = {p: w1 * p[0] + w2 * p[1] for p in pts}
            best = min(vals.values())
            argmin = [p for p, v in vals.items() if v == best]
            if len(argmin) == 1:
                found.add(argmin[0])
        _check(
            tuple(sorted(found)) == build_polygon(F).vertices,
            f"polygon mismatch on {sorted(pts)}",
        )


def _case_decay_rates():
    _check(analyze_decay(parse_poly("1")).delta == 1, "delta of constant")
    _check(analyze_decay(parse_poly("x*y")).delta == Fraction(1, 2), "delta of x*y")
    _check(
        analyze_decay(parse_poly("y^3 + x^2*y")).delta == Fraction(2, 5),
        "delta of y^3 + x^2*y",
    )


def _case_theta_plateau():
    _check(float(theta(0.5)) == 1.0, "theta must be 1 below the transition")
    _check(float(theta(3.0)) == 0.0, "theta must be 0 above the transition")
    _check(abs(float(chi(4, 2.0**-4)) - 1.0) < 1e-15, "chi peak must be 1")


def _case_partition_telescoping():
    # the rings j = 2..9 telescope to theta(2^2 t) - theta(2^10 t)
    t = np.geomspace(2.0**-10, 1.0, 300)
    s = sum(chi(j, t) for j in range(2, 10))
    _check(
        float(np.max(np.abs(theta(4 * t) - theta(1024 * t) - s))) < 1e-12,
        "telescoped total deviates from the summed partition",
    )


def _case_envelope_corners():
    prof = ExponentProfile(r=(0, 6), C=1.0)
    _check(envelope_corners(prof) == (Fraction(-3),), "corners of (0,6)")
    lb = lower_bound_set(prof)
    _check(lb.B_prime == 4 and lb.B == 256, "constants for (0,6) at C=1")


def _case_dyadpol_soundness():
    prof = ExponentProfile(r=(0,), C=2.0)
    rep = verify_lower_bound(prof, lower_bound_set(prof), trials=20, h_density=6)
    _check(rep.passed, "lower bound violated on the one-coefficient profile")


def _case_lanczos_vs_dense():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    op = DiscreteOperator(matrix=m)
    val = operator_norm(op, tol=1e-13, max_iter=3000)[0]
    ref = float(np.linalg.norm(m, 2))
    _check(abs(val - ref) / ref < 1e-8, "Lanczos norm vs dense SVD")


def _case_adjoint_identity():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    op = DiscreteOperator(matrix=m)
    v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    w = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    lhs = np.vdot(w, op.apply(v))
    rhs = np.vdot(op.apply_adjoint(w), v)
    _check(abs(lhs - rhs) < 1e-12 * abs(lhs), "adjoint identity")


def _case_static_norm():
    # lam = 0 makes the kernel rank one, so the norm is the squared
    # L2 mass of the cutoff profile
    p = PhaseSpec(S=parse_poly("0"), rho=0.5)
    op = discretize(p, 0.0, GridSpec.square(64, 0.5))
    val = operator_norm(op)[0]
    ts = np.linspace(-0.5, 0.5, 20001)
    ref = float(np.trapezoid(bump(ts / 0.5) ** 2, ts))
    _check(abs(val - ref) / ref < 1e-5, "static rank-one norm vs quadrature")


def _case_puiseux_exact_root():
    # F(x, c*x^(3/2)) = (c^2 - 1)*x^3, so c^2 == 1 is the zero-residual claim, made exactly
    bs = expand_branches(parse_poly("y^2 - x^3"))
    _check(len(bs.branches) == 2, "y^2 - x^3 must have two sheets")
    for b in bs.branches:
        _check(b.exact and [t.exponent for t in b.terms] == [Fraction(3, 2)],
               "each sheet must be exactly c*x^(3/2)")
        _check(b.leading_coefficient**2 == 1, "each sheet must solve c^2 = 1 exactly")


def _case_degeneracy():
    cases = {"(y - x)^2": (2, 1), "((1+x)*y - x)^2": (2, 1), "(y-x)^2 - x^7": (None, None)}
    for text, want in cases.items():
        d = analyze_decay(parse_poly(text)).degeneracy
        _check((d.N, d.c) == want, f"{text} must have (N, c) = {want}")


def _case_norm_sample_validity():
    p = PhaseSpec(S=parse_poly("x*y"), rho=0.5)
    s = norm_at(p, 64.0, seed=0)
    _check(s.valid, "x*y at lambda 64 must agree with its half-grid check to 2%")


_SELFTEST_CASES = [
    ("parse round trip", _case_parse_round_trip),
    ("polygon oracle", _case_polygon_oracle),
    ("decay rates", _case_decay_rates),
    ("theta plateau", _case_theta_plateau),
    ("partition telescoping", _case_partition_telescoping),
    ("envelope corners", _case_envelope_corners),
    ("dyadpol soundness", _case_dyadpol_soundness),
    ("Lanczos norm vs dense", _case_lanczos_vs_dense),
    ("adjoint identity", _case_adjoint_identity),
    ("static norm", _case_static_norm),
    ("puiseux exact root", _case_puiseux_exact_root),
    ("degeneracy detection", _case_degeneracy),
    ("norm sample validity", _case_norm_sample_validity),
]


def cmd_selftest(args) -> int:
    buf = io.StringIO()
    for name, fn in _SELFTEST_CASES:
        try:
            fn()
        except Exception as exc:
            buf.write(f"FAIL {name}: {exc}\n")
            _write(args, buf.getvalue())
            return 1
        buf.write(f"ok {name}\n")
    buf.write(f"selftest passed ({len(_SELFTEST_CASES)} cases)\n")
    _write(args, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _BadOptionValue(Exception):
    """Carries a ParseError past argparse, which turns a ValueError into usage text."""


def _typed(kind):
    """argparse type= for int or float: a bad value fails as ParseError JSON."""

    def convert(text: str):
        try:
            return kind(text)
        except ValueError:
            raise _BadOptionValue(ParseError(f"bad {kind.__name__} value {text!r}", 0)) from None

    return convert


def _add_common(sp, phase=True, fmt_default=None, seed=True):
    if phase:
        sp.add_argument("--phase", required=True, help="phase expression S(x,y)")
        sp.add_argument(
            "--mixed",
            action="store_true",
            help="treat the expression as F = S''_xy and synthesize S",
        )
    if seed:
        sp.add_argument("--seed", type=_typed(int), default=0)
    sp.add_argument("--out", default="-", help="output path, - for stdout")
    if fmt_default is not None:
        sp.add_argument("--format", choices=("json", "csv"), default=fmt_default)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="newtonosc",
        description="Newton-polygon decay analysis of oscillatory operator phases",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="polygon, decay rate, branches, degeneracy")
    # analyze draws no random number; its provenance reads seed 0
    _add_common(sp, fmt_default=None, seed=False)
    sp.add_argument("--order", default=None, help="branch truncation order, e.g. 8 or 1/2")
    sp.set_defaults(fn=cmd_analyze, seed=0)

    sp = sub.add_parser("norm", help="operator norm at one lambda")
    _add_common(sp, fmt_default="csv")
    sp.add_argument("--rho", type=_typed(float), default=0.5, help="cutoff radius")
    sp.add_argument("--lambda", dest="lam", type=_typed(float), required=True)
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("sweep", help="lambda sweep, decay fit, and verdict")
    _add_common(sp, fmt_default="json")
    sp.add_argument("--rho", type=_typed(float), default=0.5, help="cutoff radius")
    sp.add_argument("--lambdas", default=None, help="comma-separated lambda grid")
    sp.add_argument("--tol-slope", type=_typed(float), default=0.1)
    sp.add_argument("--fit-window", default=None, help="lo,hi lambda sub-range")
    sp.add_argument("--emit-plot-data", default=None, metavar="PATH",
                    help="write log2 sweep triples for external plotting")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("blocks", help="dyadic block estimates at one lambda")
    _add_common(sp, fmt_default="csv")
    sp.add_argument("--rho", type=_typed(float), default=0.5, help="cutoff radius")
    sp.add_argument("--lambda", dest="lam", type=_typed(float), required=True)
    sp.add_argument("--D", type=_typed(float), default=3.0, help="near-edge band width")
    sp.add_argument("--j-max", type=_typed(int), default=6)
    sp.set_defaults(fn=cmd_blocks)

    sp = sub.add_parser("dyadpol", help="dyadic-coefficient lower-bound check")
    _add_common(sp, phase=False, fmt_default=None)
    sp.add_argument("--r", required=True, help="comma-separated exponents r_1..r_N")
    sp.add_argument("--C", type=_typed(float), default=2.0)
    sp.add_argument("--trials", type=_typed(int), default=200)
    sp.add_argument("--h-density", type=_typed(int), default=12)
    sp.set_defaults(fn=cmd_dyadpol)

    sp = sub.add_parser("selftest", help="frozen examples and oracle agreements")
    sp.add_argument("--out", default="-", help="output path, - for stdout")
    sp.set_defaults(fn=cmd_selftest)

    return ap


@functools.cache
def _value_options() -> frozenset[str]:
    """Every option string, over all subcommands, that takes a value."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for sp in sub.choices.values() for a in sp._actions if a.nargs != 0]
    return frozenset(s for a in actions for s in a.option_strings)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads an option value that starts with '-' as a flag unless it
    # looks like -1 or -.5: a phase such as "-(y-x)^4/12", a lambda -1e3 or
    # -inf.  Joined as --opt=value, every such value reaches its option.
    parser, takes_value = build_parser(), _value_options()
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in takes_value and argv[i][:1] == "-" and argv[i][:2] != "--":
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy refuses negative seeds
            raise ParseError(f"seed must be non-negative, got {args.seed}", 0)
        return args.fn(args)
    except _BadOptionValue as exc:
        _error(exc.args[0])
        return 2
    except ParseError as exc:
        _error(exc)
        return 2
    except EmptyPolygonError as exc:
        _error(exc)
        return 3
    except Exception as exc:  # noqa: BLE001  uniform error JSON contract
        _error(exc)
        return 1


def _error(exc: Exception) -> None:
    blob = {
        "schema": SCHEMA_ID,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    sys.stderr.write(json.dumps(blob, sort_keys=True) + "\n")


def __getattr__(name: str):
    # perfbench/layers.py still patches cli.jsonschema until ROADMAP item 1
    # lands; nothing here reads the name, so jsonschema loads only then
    if name == "jsonschema":
        import jsonschema

        return jsonschema
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
