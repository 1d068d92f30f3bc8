"""Which names are traced, and the per-layer metrics read from the spans.

Every traced name is wrapped where its caller looks it up, so a span's
name is the callee (``opnorm.discretize``) and ``attrs["via"]`` the module
that called it.  Layers are the package modules.
"""

from __future__ import annotations

import statistics

import jsonschema
import numpy as np

from newtonosc import blocks, cli, dyadpol, newton, opnorm, polycore, puiseux, scaling
from tracing import LAYERS, Patches, Proxy, Recorder, children_of, layer_self_times

_MODULES = {
    "cli": cli, "polycore": polycore, "newton": newton, "puiseux": puiseux,
    "opnorm": opnorm, "scaling": scaling, "blocks": blocks, "dyadpol": dyadpol,
}

# (module whose namespace holds the name, name, layer that owns the callee)
TARGETS = (
    ("cli", "main", "cli"),
    ("cli", "build_parser", "cli"),
    ("cli", "parse_poly", "polycore"),
    ("cli", "integrate_xy", "polycore"),
    ("cli", "mixed_derivative", "polycore"),
    ("cli", "build_polygon", "newton"),
    ("cli", "analyze_decay", "newton"),
    ("cli", "expand_branches", "puiseux"),
    ("cli", "verify_blocks", "blocks"),
    ("cli", "envelope_corners", "dyadpol"),
    ("cli", "lower_bound_set", "dyadpol"),
    ("cli", "verify_lower_bound", "dyadpol"),
    ("polycore", "parse_poly", "polycore"),
    ("newton", "build_polygon", "newton"),
    ("newton", "decay_rate", "newton"),
    ("puiseux", "expand_branches", "puiseux"),
    ("scaling", "verify_theorem", "scaling"),
    ("scaling", "norm_at", "scaling"),
    ("scaling", "fit_decay", "scaling"),
    ("scaling", "log_exponent_fit", "scaling"),
    ("scaling", "mixed_derivative", "polycore"),
    ("scaling", "analyze_decay", "newton"),
    ("scaling", "auto_grid", "opnorm"),
    ("scaling", "discretize", "opnorm"),
    ("scaling", "operator_norm", "opnorm"),
    ("opnorm", "gradient_bound", "opnorm"),
    ("opnorm", "eval_grid", "polycore"),
    ("blocks", "measure_block", "blocks"),
    ("blocks", "mixed_derivative", "polycore"),
    ("blocks", "eval_grid", "polycore"),
    ("blocks", "gradient_bound", "opnorm"),
    ("blocks", "discretize", "opnorm"),
    ("blocks", "operator_norm", "opnorm"),
)


def _hook(via: str, name: str):
    def hook(span, args, kwargs, result):
        span.attrs["via"] = via
        if name == "discretize":
            m = result.matrix
            span.attrs.update(entries=m.size, nbytes=m.nbytes, c64=m.dtype == np.complex64)
        elif name == "operator_norm":
            span.attrs["iterations"] = result[1]
        elif name == "norm_at":
            span.attrs.update(lam=result.lam, n=result.n, valid=result.valid,
                              iterations=result.iterations)
        elif name == "expand_branches":
            span.attrs["branches"] = len(result.branches)
        elif name == "verify_lower_bound":
            span.attrs["trials"] = result.trials
        elif name == "verify_blocks":
            span.attrs["resolution_failures"] = len(result[1]["resolution_failures"])

    return hook


def instrument(rec: Recorder, patches: Patches) -> None:
    """Install every traced wrapper; patches undoes them."""
    for via, name, layer in TARGETS:
        mod = _MODULES[via]
        fn = getattr(mod, name)
        patches.set(mod, name, rec.wrap(fn, f"{layer}.{name}", layer, _hook(via, name)))
    validate = rec.wrap(jsonschema.validate, "cli.validate", "cli", _hook("cli", "validate"))
    patches.set(cli, "jsonschema", Proxy(jsonschema, validate=validate))
    svd = rec.wrap(np.linalg.norm, "blocks.dense_svd", "blocks", _hook("blocks", "dense_svd"))
    patches.set(blocks, "np", Proxy(np, linalg=Proxy(np.linalg, norm=svd)))
    for method in ("apply", "apply_adjoint"):
        patches.set(opnorm.DiscreteOperator, method, _counted(rec, getattr(opnorm.DiscreteOperator, method)))


def _counted(rec: Recorder, method):
    def matvec(self, v):
        rec.count("matvecs")
        rec.count("matvec_bytes", self.matrix.nbytes)
        return method(self, v)

    return matvec


# ---------------------------------------------------------------------------
# metrics of one traced pass

# name -> unit, in the order they are reported
PER_LAYER = {
    "opnorm.solve_s": "s", "opnorm.solve_calls": "count", "opnorm.iterations": "count",
    "opnorm.matvecs": "count", "opnorm.matvec_bytes": "bytes", "opnorm.matvec_gbps": "GB/s",
    "opnorm.build_s": "s", "opnorm.build_calls": "count", "opnorm.kernel_entries": "count",
    "opnorm.ns_per_entry": "ns", "opnorm.c64_share": "ratio", "opnorm.grid_ms": "ms",
    "opnorm.kernel_peak_bytes": "bytes",
    "scaling.norm_at_s": "s", "scaling.samples": "count", "scaling.base_s": "s",
    "scaling.refine_s": "s", "scaling.refine_passes": "count",
    "scaling.refine_entry_share": "ratio", "scaling.first_check_accept_ratio": "ratio",
    "scaling.retries": "count", "scaling.fit_ms": "ms", "scaling.n_max": "count",
    "scaling.valid_ratio": "ratio",
    "puiseux.expand_ms": "ms", "puiseux.expand_calls": "count",
    "puiseux.expand_max_ms": "ms", "puiseux.branches": "count",
    "newton.polygon_ms": "ms", "newton.decay_ms": "ms",
    "polycore.parse_ms": "ms", "polycore.parse_calls": "count",
    "cli.calls": "count", "cli.self_ms": "ms", "cli.validate_ms": "ms",
    "cli.parser_ms": "ms", "cli.bytes_out": "bytes",
    "blocks.verify_s": "s", "blocks.blocks": "count", "blocks.build_s": "s",
    "blocks.dense_svd_s": "s", "blocks.power_s": "s", "blocks.dense_ratio": "ratio",
    "blocks.resolution_failures": "count",
    "dyadpol.set_ms": "ms", "dyadpol.verify_s": "s", "dyadpol.trials": "count",
    "dyadpol.us_per_trial": "us",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "cli"},
    "trace.overhead_frac": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_metrics(rec: Recorder, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of the spans and counters of one traced pass."""
    spans = rec.spans
    by: dict[str, list] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name, via=None):
        return sum(s.duration for s in by.get(name, ()) if via is None or s.attrs.get("via") == via)

    def calls(name, via=None):
        return sum(1 for s in by.get(name, ()) if via is None or s.attrs.get("via") == via)

    builds = by.get("opnorm.discretize", [])
    entries = sum(s.attrs["entries"] for s in builds)
    solve_s = total("opnorm.operator_norm")
    build_s = total("opnorm.discretize")
    m = {
        "opnorm.solve_s": solve_s,
        "opnorm.solve_calls": calls("opnorm.operator_norm"),
        "opnorm.iterations": sum(s.attrs["iterations"] for s in by.get("opnorm.operator_norm", ())),
        "opnorm.matvecs": rec.counters.get("matvecs", 0),
        "opnorm.matvec_bytes": rec.counters.get("matvec_bytes", 0),
        "opnorm.matvec_gbps": _ratio(rec.counters.get("matvec_bytes", 0), solve_s) / 1e9,
        "opnorm.build_s": build_s,
        "opnorm.build_calls": len(builds),
        "opnorm.kernel_entries": entries,
        "opnorm.ns_per_entry": _ratio(build_s * 1e9, entries),
        "opnorm.c64_share": _ratio(sum(s.attrs["entries"] for s in builds if s.attrs["c64"]), entries),
        "opnorm.grid_ms": total("opnorm.gradient_bound") * 1e3,
        "opnorm.kernel_peak_bytes": max((s.attrs["nbytes"] for s in builds), default=0),
    }
    m.update(_norm_at_metrics(spans, by))
    expands = by.get("puiseux.expand_branches", [])
    m.update({
        "puiseux.expand_ms": total("puiseux.expand_branches") * 1e3,
        "puiseux.expand_calls": len(expands),
        "puiseux.expand_max_ms": max((s.duration for s in expands), default=0.0) * 1e3,
        "puiseux.branches": sum(s.attrs["branches"] for s in expands),
        "newton.polygon_ms": total("newton.build_polygon") * 1e3,
        "newton.decay_ms": total("newton.analyze_decay") * 1e3,
        "polycore.parse_ms": total("polycore.parse_poly") * 1e3,
        "polycore.parse_calls": calls("polycore.parse_poly"),
        "cli.calls": calls("cli.main"),
        "cli.validate_ms": total("cli.validate") * 1e3,
        "cli.parser_ms": total("cli.build_parser") * 1e3,
        "cli.bytes_out": bytes_out,
    })
    n_blocks = calls("blocks.measure_block")
    m.update({
        "blocks.verify_s": total("blocks.verify_blocks"),
        "blocks.blocks": n_blocks,
        "blocks.build_s": total("opnorm.discretize", via="blocks"),
        "blocks.dense_svd_s": total("blocks.dense_svd"),
        "blocks.power_s": total("opnorm.operator_norm", via="blocks"),
        "blocks.dense_ratio": _ratio(calls("blocks.dense_svd"), n_blocks),
        "blocks.resolution_failures": sum(
            s.attrs["resolution_failures"] for s in by.get("blocks.verify_blocks", ())
        ),
    })
    verify_s = total("dyadpol.verify_lower_bound")
    trials = sum(s.attrs["trials"] for s in by.get("dyadpol.verify_lower_bound", ()))
    m.update({
        "dyadpol.set_ms": (total("dyadpol.lower_bound_set") + total("dyadpol.envelope_corners")) * 1e3,
        "dyadpol.verify_s": verify_s,
        "dyadpol.trials": trials,
        "dyadpol.us_per_trial": _ratio(verify_s * 1e6, trials),
    })
    self_s = layer_self_times(spans)
    m["cli.self_ms"] = self_s["cli"] * 1e3
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = self_s[layer]
    return m


def _norm_at_calls(spans) -> list[tuple]:
    """(norm_at span, its direct child spans in call order) for every norm_at."""
    kids = children_of(spans)
    return [
        (s, [spans[c] for c in kids.get(i, ())])
        for i, s in enumerate(spans)
        if s.name == "scaling.norm_at"
    ]


def _norm_at_metrics(spans, by) -> dict[str, float]:
    """Base and refinement work inside norm_at, told apart by call order.

    Under one norm_at span the first discretize and operator_norm (and
    auto_grid) build and solve the base grid; every later pair is a
    refinement pass.
    """
    base_s = refine_s = 0.0
    base_entries = refine_entries = 0
    refine_passes = accepted_first = 0
    calls = _norm_at_calls(spans)
    for _, children in calls:
        seen: dict[str, int] = {}
        for c in children:
            if c.layer != "opnorm":
                continue
            kind = c.name.split(".")[1]
            seen[kind] = seen.get(kind, 0) + 1
            is_base = kind == "auto_grid" or seen[kind] == 1
            if is_base:
                base_s += c.duration
            else:
                refine_s += c.duration
            if kind == "discretize":
                if is_base:
                    base_entries += c.attrs["entries"]
                else:
                    refine_entries += c.attrs["entries"]
                    refine_passes += 1
        accepted_first += seen.get("discretize", 0) == 2
    samples = [s for s, _ in calls]
    verify = by.get("scaling.verify_theorem", [])
    return {
        "scaling.norm_at_s": sum(s.duration for s in samples),
        "scaling.samples": len(samples),
        "scaling.base_s": base_s,
        "scaling.refine_s": refine_s,
        "scaling.refine_passes": refine_passes,
        "scaling.refine_entry_share": _ratio(refine_entries, base_entries + refine_entries),
        "scaling.first_check_accept_ratio": _ratio(accepted_first, len(samples)),
        "scaling.retries": sum(
            1 for s in verify if s.parent is not None and spans[s.parent].name == "scaling.verify_theorem"
        ),
        "scaling.fit_ms": (
            sum(s.duration for s in by.get("scaling.fit_decay", ()))
            + sum(s.duration for s in by.get("scaling.log_exponent_fit", ()))
        ) * 1e3,
        "scaling.n_max": max((s.attrs["n"] for s in samples), default=0),
        "scaling.valid_ratio": _ratio(sum(s.attrs["valid"] for s in samples), len(samples)),
    }


def sample_lines(rec: Recorder) -> list[str]:
    """One line per norm_at: lambda, n, iterations, build and solve times by pass."""
    lines = []
    for s, children in _norm_at_calls(rec.spans):
        builds = [c for c in children if c.name == "opnorm.discretize"]
        solves = [c for c in children if c.name == "opnorm.operator_norm"]
        lines.append(
            f"norm_at lambda={s.attrs['lam']:g} n={s.attrs['n']} iterations={s.attrs['iterations']} "
            f"wall={s.duration:.3f}s base build={builds[0].duration:.3f}s "
            f"solve={solves[0].duration:.3f}s ({solves[0].attrs['iterations']} iterations), "
            f"refinement build={sum(c.duration for c in builds[1:]):.3f}s "
            f"solve={sum(c.duration for c in solves[1:]):.3f}s"
        )
    return lines


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
