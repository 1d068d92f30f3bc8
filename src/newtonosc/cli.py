"""Command-line front end: analyze, norm, sweep, blocks, dyadpol, selftest.

Every JSON payload carries a schema tag and a provenance block (the
seed), is validated against the subcommand's schema before it is
written, and serializes floats as shortest round-trip decimals and
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

import numpy as np

from .blocks import chi, theta, verify_blocks
from .dyadpol import (
    ExponentProfile,
    envelope_corners,
    lower_bound_set,
    verify_lower_bound,
)
from .errors import EmptyPolygonError, ParseError
from .newton import DegeneracyKind, analyze_decay, build_polygon
from .opnorm import (
    DiscreteOperator,
    GridSpec,
    PhaseSpec,
    bump,
    discretize,
    operator_norm,
)
from .polycore import integrate_xy, mixed_derivative, parse_poly
from .puiseux import branch_residual_order, expand_branches
from .scaling import SweepConfig, norm_at, verify_theorem
from .scaling import VERDICT_FAIL, VERDICT_INCONCLUSIVE, VERDICT_PASS

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


def _emit_json(args, schema: dict, payload: dict) -> None:
    payload = {"schema": SCHEMA_ID, "provenance": {"seed": args.seed}, **payload}
    # _validate covers exactly the JSON Schema keywords the schemas below use
    _validate(schema, payload, "payload")
    _write(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _csv_row(header: str, d: dict) -> str:
    """d's values in header order: str as is, int by str, anything else by _fnum."""
    values = (d[key] for key in header.split(","))
    return ",".join(
        v if isinstance(v, str) else str(v) if isinstance(v, int) else _fnum(v)
        for v in values
    )


def _emit_csv(args, header: str, rows: list[str]) -> None:
    lines = [f"# {SCHEMA_ID} seed={args.seed}", header]
    lines.extend(rows)
    _write(args, "\n".join(lines) + "\n")


def _load_phase(expr: str, mixed: bool):
    """Return (S, F) with F = S''_xy; --mixed means expr is F itself."""
    poly = parse_poly(expr)
    if mixed:
        return integrate_xy(poly), poly
    return poly, mixed_derivative(poly)


def _parse_numbers(text: str, kind=float) -> tuple:
    try:
        return tuple(kind(t) for t in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad numeric list {text!r}", 0) from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad fraction {text!r}", 0) from exc


# ---------------------------------------------------------------------------
# schemas

_PROV = {
    "type": "object",
    "required": ["seed"],
    "properties": {"seed": {"type": "integer"}},
}

_SAMPLE = {
    "type": "object",
    "required": ["lambda", "n", "norm", "conv_err", "iterations", "valid"],
}


class ValidationError(ValueError):
    """A payload does not match its subcommand's schema."""


_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


def _validate(schema: dict, value, path: str) -> None:
    """Raise ValidationError where value breaks schema, as JSON Schema would.

    Knows type (object, array, integer), const, enum, required, properties,
    items and minItems; each applies only to the values its keyword
    concerns.  Every const and enum value is a string, so == is JSON
    equality.
    """
    kind = schema.get("type")
    if kind is not None and not _IS_TYPE[kind](value):
        raise ValidationError(f"{path}: {value!r} is not of type {kind!r}")
    if "const" in schema and value != schema["const"]:
        raise ValidationError(f"{path}: {schema['const']!r} was expected")
    if "enum" in schema and value not in schema["enum"]:
        raise ValidationError(f"{path}: {value!r} is not one of {schema['enum']!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValidationError(f"{path}: {key!r} is a required property")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _validate(sub, value[key], f"{path}.{key}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ValidationError(f"{path}: {value!r} has fewer than {schema['minItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                _validate(schema["items"], item, f"{path}[{i}]")


def _payload_schema(required, **properties):
    """Schema of a CLI payload: schema id and provenance, then the command's keys."""
    return {
        "type": "object",
        "required": ["schema", "provenance", *required],
        "properties": {"schema": {"const": SCHEMA_ID}, "provenance": _PROV, **properties},
    }


ANALYZE_SCHEMA = _payload_schema(
    ["phase", "mixed_derivative", "polygon", "decay", "branches"],
    polygon={"type": "object", "required": ["vertices", "A", "B"]},
    decay={
        "type": "object",
        "required": ["t0", "delta", "boundary_crossing", "A", "B", "edges", "degeneracy"],
    },
    branches={"type": "object", "required": ["branches", "total_multiplicity"]},
)

NORM_SCHEMA = _payload_schema(
    ["samples"], samples={"type": "array", "items": _SAMPLE, "minItems": 1}
)

SWEEP_SCHEMA = _payload_schema(
    ["report"],
    report={
        "type": "object",
        "required": ["samples", "slope", "stderr", "predicted", "tol_slope", "verdict"],
        "properties": {
            "verdict": {"enum": [VERDICT_PASS, VERDICT_FAIL, VERDICT_INCONCLUSIVE]},
            "samples": {"type": "array", "items": _SAMPLE},
        },
    },
)

BLOCKS_SCHEMA = _payload_schema(
    ["estimates", "summary"],
    estimates={"type": "array"},
    summary={
        "type": "object",
        "required": ["lambda", "D", "j_range", "worst_ratio", "violations", "resolution_failures"],
    },
)

DYADPOL_SCHEMA = _payload_schema(
    ["profile", "corners", "set", "verification"],
    verification={"type": "object", "required": ["pass", "min_observed", "bound"]},
)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    _, F = _load_phase(args.phase, args.mixed)
    polygon = build_polygon(F)  # EmptyPolygonError -> exit 3
    order = _parse_fraction(args.order) if args.order is not None else None
    branches = expand_branches(F, order=order)
    decay = analyze_decay(F, branches=branches)
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
    _emit_json(args, ANALYZE_SCHEMA, payload)
    return 0


def cmd_norm(args) -> int:
    S, _ = _load_phase(args.phase, args.mixed)
    p = PhaseSpec(S=S, rho=args.rho)
    sample = norm_at(p, args.lam, seed=args.seed)
    if args.format == "json":
        _emit_json(args, NORM_SCHEMA, {"samples": [sample.to_dict()]})
    else:
        _emit_csv(args, NORM_CSV_HEADER, [_csv_row(NORM_CSV_HEADER, sample.to_dict())])
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
    S, _ = _load_phase(args.phase, args.mixed)
    p = PhaseSpec(S=S, rho=args.rho)
    kwargs = {"tol_slope": args.tol_slope, "seed": args.seed}
    if args.lambdas is not None:
        kwargs["lambdas"] = _parse_numbers(args.lambdas)
    if args.fit_window is not None:
        window = _parse_numbers(args.fit_window)
        if len(window) != 2:
            raise ParseError("fit window must be two numbers lo,hi", 0)
        kwargs["fit_window"] = window
    cfg = SweepConfig(**kwargs)
    report = verify_theorem(p, cfg)
    if args.emit_plot_data is not None:
        rows = _plot_rows(report)
        with open(args.emit_plot_data, "w") as fh:
            fh.write("log2_lambda,log2_norm,predicted\n")
            fh.write("\n".join(rows) + "\n")
    if args.format == "json":
        _emit_json(args, SWEEP_SCHEMA, {"report": report.to_dict()})
    else:
        rows = [_csv_row(NORM_CSV_HEADER, s.to_dict()) for s in report.samples]
        _emit_csv(args, NORM_CSV_HEADER, rows)
    return 0


def cmd_blocks(args) -> int:
    S, _ = _load_phase(args.phase, args.mixed)
    p = PhaseSpec(S=S, rho=args.rho)
    estimates, summary = verify_blocks(p, args.lam, D=args.D, j_max=args.j_max, seed=args.seed)
    if args.format == "json":
        payload = {
            "estimates": [e.to_row() for e in estimates],
            "summary": summary,
        }
        _emit_json(args, BLOCKS_SCHEMA, payload)
    else:
        rows = [_csv_row(BLOCKS_CSV_HEADER, e.to_row()) for e in estimates]
        _emit_csv(args, BLOCKS_CSV_HEADER, rows)
    return 0


def cmd_dyadpol(args) -> int:
    profile = ExponentProfile(r=_parse_numbers(args.r, int), C=args.C)
    corners = envelope_corners(profile)
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
        "corners": [str(c) for c in corners],
        "set": lbset.to_dict(),
        "verification": report.to_dict(),
    }
    _emit_json(args, DYADPOL_SCHEMA, payload)
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
    F = parse_poly("y^2 - x^3")
    bs = expand_branches(F)
    _check(len(bs.branches) == 2, "y^2 - x^3 must have two sheets")
    for b in bs.branches:
        _check(b.leading_exponent == Fraction(3, 2), "sheet exponent must be 3/2")
        _check(branch_residual_order(F, b) >= 30, "exact root must leave no residual")


def _case_degeneracy():
    d = analyze_decay(parse_poly("(y - x)^2")).degeneracy
    _check(
        d.kind is DegeneracyKind.COMPLETELY_DEGENERATE and d.N == 2,
        "(y - x)^2 must be completely degenerate with N = 2",
    )


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


def _add_common(sp, phase=True, fmt_default=None):
    if phase:
        sp.add_argument("--phase", required=True, help="phase expression S(x,y)")
        sp.add_argument(
            "--mixed",
            action="store_true",
            help="treat the expression as F = S''_xy and synthesize S",
        )
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
    _add_common(sp, fmt_default=None)
    sp.add_argument("--order", default=None, help="branch truncation order, e.g. 8 or 1/2")
    sp.set_defaults(fn=cmd_analyze)

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
