"""The four benchmark workloads: inputs from a seed, one pass, output checks.

Each workload drives the package through its public API or through
``newtonosc.cli.main`` in this process.  A pass runs every op once and
records each op's latency.  An op counts as failed when it raised,
returned an invalid NormSample, exited non-zero, or failed an output
check.  A Fail verdict is a result, not a failed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from fractions import Fraction

import numpy as np

import oracles
import speed
from newtonosc import cli, polycore, scaling
from newtonosc.opnorm import PhaseSpec
from newtonosc.scaling import SweepConfig


PROBE_WINDOW = 3


class OpLog:
    """Latency and outcome of every op in a run, plus CLI bytes written.

    Given a speed probe, it runs the probe before the first op of a pass
    and after every op; scale[i] puts latencies[i] on the reference clock.
    """

    def __init__(self, probe=None):
        self.latencies: list[float] = []
        self.scale: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.failures: list[str] = []
        self.trace_errors: list[str] = []
        self.recorder = None  # set during traced passes, to tag spans with op ids
        self.probe = probe
        self.probe_s = 0.0
        self._probes: list[float] = []
        self._pass_first = 0

    def start_pass(self) -> None:
        self._probes = []
        self._pass_first = len(self.latencies)

    def finish_pass(self) -> None:
        """Scale the pass's ops by a running median of the probes around them.

        Op k of the pass runs between probes k and k + 1; the median of the
        PROBE_WINDOW probes on each side of that gap damps the noise of a
        single 2.5 ms probe.
        """
        for k in range(len(self.latencies) - self._pass_first):
            if self.probe is None:
                self.scale.append(1.0)
                continue
            window = self._probes[max(0, k + 1 - PROBE_WINDOW): k + 1 + PROBE_WINDOW]
            self.scale.append(speed.P_REF_S / statistics.median(window))

    def _probe(self) -> None:
        t0 = time.perf_counter()
        self._probes.append(self.probe())
        self.probe_s += time.perf_counter() - t0

    def timed(self, fn):
        """fn as an op: its latency is recorded and spans carry its op id."""

        def op(*args, **kwargs):
            if self.recorder is not None:
                self.recorder.op = len(self.latencies)
            if self.probe is not None and not self._probes:
                self._probe()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - t0)
                if self.probe is not None:
                    self._probe()

        return op

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def run_cli(log: OpLog, argv: list[str], check) -> None:
    """One CLI call as an op; check(payload) returns None or what is wrong."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = log.timed(lambda: cli.main(argv))()
    text = out.getvalue()
    log.bytes_out += len(text.encode())
    try:
        problem = f"exit {code}" if code != 0 else check(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable output: {type(exc).__name__}: {exc}"
    log.outcome(problem is None, f"{' '.join(argv)}: {problem}")


# ---------------------------------------------------------------------------
# sweeps: verify_theorem with the retry the code does on Fail


def check_report(rep, ref: dict, log: OpLog, label: str) -> None:
    """One op per reference sample, at this level and in the retry."""
    level_ok = (
        rep is not None
        and rep.verdict == ref["verdict"]
        and str(rep.predicted) == ref["predicted"]
        and len(rep.samples) == len(ref["samples"])
    )
    for i, rs in enumerate(ref["samples"]):
        ok = level_ok
        if ok:
            s = rep.samples[i]
            tol = oracles.norm_tolerance(rs["conv_err"], s.conv_err)
            ok = (
                s.lam == rs["lambda"]
                and s.n == rs["n"]
                and s.valid
                and abs(s.value - rs["norm"]) <= tol * rs["norm"]
            )
        log.outcome(ok, f"{label} lambda={rs['lambda']:g}")
    if "retry" in ref:
        check_report(rep.retry if rep is not None else None, ref["retry"], log, label + "/retry")
    elif rep is not None and rep.retry is not None:
        log.outcome(False, f"{label}: unexpected retry")


class SweepWorkload:
    """verify_theorem on fixed phases.

    An op's latency is one verify_theorem call, retry included: what a
    `newtonosc sweep` user waits for.  The output checks count one op per
    norm_at sample.
    """

    # kernel builds and matvecs stream hundreds of MB and did not slow when
    # the host slowed interpreter-bound work, so sweeps keep raw seconds
    probe = None

    phases: tuple[tuple[str, str, float, tuple[float, ...] | None], ...] = ()

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference[self.name]

    def solver_seed(self) -> int:
        return self.seed

    def run_pass(self, log: OpLog) -> None:
        for label, text, rho, lams in self.phases:
            cfg = SweepConfig(lambdas=lams or (), seed=self.solver_seed())
            try:
                rep = log.timed(scaling.verify_theorem)(PhaseSpec(polycore.parse_poly(text), rho=rho), cfg)
            except Exception as exc:  # noqa: BLE001  a raising op is a failed op
                rep = None
                log.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            check_report(rep, self.reference[label], log, label)


def _pow2(lo: int, hi: int) -> tuple[float, ...]:
    return tuple(2.0**k for k in range(lo, hi + 1))


class SweepHyperbolic(SweepWorkload):
    name = "sweep_hyperbolic"
    phases = (("x*y", "x*y", 0.85, _pow2(4, 10)),)

    def solver_seed(self) -> int:
        # the power-iteration count at lambda 1024 swings 362..504 with the
        # start vector (seed 0 hits the 500 cap), which would move wall_s by
        # a third between seeds; the criterion-1 start vector is kept fixed
        return 0


class SweepVertexDegenerate(SweepWorkload):
    name = "sweep_vertex_degenerate"
    phases = (
        ("x^2*y^2/4", "x^2*y^2/4", 0.9, _pow2(4, 11)),
        ("-(y-x)^4/12", "-(y-x)^4/12", 0.5, None),
    )


# ---------------------------------------------------------------------------
# analyze_corpus: newtonosc analyze --mixed over generated F

CORPUS_SIZE = 300
# the support of F fixes the depth of the Puiseux recursion and so most of
# a call's cost; drawing supports from the seed moved the corpus total by
# a third between seeds, so supports come from one fixed stream and the
# seed draws the coefficients and the call order
SUPPORT_STREAM = 20240417


def corpus(seed: int, size: int = CORPUS_SIZE) -> list[dict[tuple[int, int], int]]:
    """F with 1-5 terms, exponents in [0, 3]^2, integer coefficients 1-4."""
    srng = np.random.default_rng(SUPPORT_STREAM)
    crng = np.random.default_rng(seed)
    out = []
    for _ in range(size):
        k = int(srng.integers(1, 6))
        pts = sorted({(int(a), int(b)) for a, b in srng.integers(0, 4, size=(k, 2))})
        coeffs = crng.integers(1, 5, size=len(pts))
        out.append({p: int(c) for p, c in zip(pts, coeffs)})
    order = crng.permutation(size)
    return [out[i] for i in order]


def render(F: dict[tuple[int, int], int]) -> str:
    return " + ".join(f"{c}*x^{a}*y^{b}" for (a, b), c in sorted(F.items()))


def check_analyze(F: dict, payload: dict) -> str | None:
    """None when the analyze payload agrees with the oracles."""
    support = list(F)
    vertices = tuple(tuple(v) for v in payload["polygon"]["vertices"])
    if vertices != oracles.polygon_vertices(support):
        return f"polygon {vertices}"
    if Fraction(payload["decay"]["delta"]) != oracles.diagonal_delta(support):
        return f"delta {payload['decay']['delta']}"
    mult = sum(b["multiplicity"] for b in payload["branches"]["branches"])
    if mult != oracles.branch_count(support):
        return f"branch multiplicity {mult}"
    return None


class AnalyzeCorpus:
    name = "analyze_corpus"
    # interpreter-bound, mostly Puiseux Fraction arithmetic
    probe = staticmethod(speed.bigint_probe)

    def __init__(self, seed: int, reference: dict):
        self.phases = [(F, render(F)) for F in corpus(seed)]

    def run_pass(self, log: OpLog) -> None:
        for F, text in self.phases:
            run_cli(log, ["analyze", "--phase", text, "--mixed"], lambda payload: check_analyze(F, payload))


# ---------------------------------------------------------------------------
# local_checks: newtonosc blocks and dyadpol

BLOCK_ARGS = ["--phase", "x^2*y^2/4", "--rho", "0.5", "--lambda", "2048", "--j-max", "8"]
BLOCK_DS = (3, 4, 5)
# 40 profiles with the three blocks calls puts the blocks calls above the
# 95th percentile of op latency, so op_p95_ms never straddles the two kinds
PROFILES = 40
TRIALS = 1000


def profiles(seed: int, count: int = PROFILES) -> list[tuple[int, ...]]:
    """The criterion-6 profile generator: N in 1..4, r_i in 0..12."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        N = int(rng.integers(1, 5))
        out.append(tuple(int(v) for v in rng.integers(0, 13, size=N)))
    return out


def _no_violations(payload: dict) -> str | None:
    violations = payload["summary"]["violations"]
    return None if violations == [] else f"block violations {violations}"


def _bound_holds(payload: dict) -> str | None:
    return None if payload["verification"]["pass"] is True else "lower bound violated"


class LocalChecks:
    name = "local_checks"
    # mostly the Python overhead of dyadpol trials and small kernel calls
    probe = staticmethod(speed.call_probe)

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.profiles = profiles(seed)

    def run_pass(self, log: OpLog) -> None:
        for D in BLOCK_DS:
            argv = ["blocks", *BLOCK_ARGS, "--D", str(D), "--format", "json", "--seed", str(self.seed)]
            run_cli(log, argv, _no_violations)
        for i, r in enumerate(self.profiles):
            argv = ["dyadpol", "--r", ",".join(map(str, r)), "--C", "2",
                    "--trials", str(TRIALS), "--seed", str(i)]
            run_cli(log, argv, _bound_holds)


WORKLOADS = {w.name: w for w in (SweepHyperbolic, SweepVertexDegenerate, AnalyzeCorpus, LocalChecks)}
