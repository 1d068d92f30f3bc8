"""newtonosc benchmark: four fixed workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep_hyperbolic --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload analyze_corpus --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Passes of the workload repeat until --seconds have gone by.  --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and traced
passes and reports the per-layer metrics, writing the spans to
.bench_out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 7
_IMPORT_CLI = "import time; t = time.perf_counter(); import newtonosc.cli; print(time.perf_counter() - t)"


def percentile(values, q: float) -> float:
    """Quantile at rank q * (N + 1) of the sorted values, clamped to the ends."""
    xs = sorted(values)
    pos = q * (len(xs) + 1)
    if pos <= 1:
        return xs[0]
    if pos >= len(xs):
        return xs[-1]
    lo = int(pos)
    return xs[lo - 1] + (pos - lo) * (xs[lo] - xs[lo - 1])


def setup_times(runs: int = SETUP_RUNS) -> list[float]:
    """Import times of newtonosc.cli in fresh interpreters; a warm-up import first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for i in range(runs + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_CLI],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        if i:  # the warm-up import may compile bytecode
            times.append(float(done.stdout))
    return times


def _blas_runtime() -> tuple[int | None, str | None]:
    """Thread count and config string of the OpenBLAS numpy loaded, if found."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return threads(), config().decode()
    return None, None


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "newtonosc", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = _blas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_config": config,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def warm_up() -> None:
    """Finish lazy set-up (numpy, argparse, jsonschema) before timing."""
    from newtonosc import cli, polycore, scaling
    from newtonosc.opnorm import PhaseSpec

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["analyze", "--phase", "x*y"])
    scaling.norm_at(PhaseSpec(polycore.parse_poly("x*y")), 16.0)


class Run:
    """Pass walls (raw and on the reference clock), ops, and traced passes of one run."""

    def __init__(self, trace: bool, probe):
        from workloads import OpLog

        self.log = OpLog(probe=None if trace else probe)
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.layer_passes: list[dict] = []
        self.recorders: list = []


def measure(workload, seconds: float, trace: bool) -> Run:
    """Repeat passes until the time is up; traced and untraced alternate under trace."""
    import layers
    from tracing import Patches, Recorder, layer_self_times

    run = Run(trace, workload.probe)
    log = run.log
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        log.start_pass()
        started = time.perf_counter()
        if trace and len(run.walls) > len(run.traced_walls):
            rec = Recorder()
            log.recorder = rec
            bytes_before = log.bytes_out
            with Patches() as patches:
                layers.instrument(rec, patches)
                t0 = time.perf_counter()
                workload.run_pass(log)
                wall = time.perf_counter() - t0
            log.finish_pass()
            log.recorder = None
            run.traced_walls.append(wall)
            run.recorders.append(rec)
            covered = sum(layer_self_times(rec.spans).values())
            if covered > wall:
                log.trace_errors.append(f"layer self times {covered:.6f} s exceed the pass {wall:.6f} s")
            run.layer_passes.append(layers.pass_metrics(rec, log.bytes_out - bytes_before))
        else:
            first, probe_before = len(log.latencies), log.probe_s
            t0 = time.perf_counter()
            workload.run_pass(log)
            raw = time.perf_counter() - t0 - (log.probe_s - probe_before)
            log.finish_pass()
            ops = log.latencies[first:]
            scaled = sum(t * f for t, f in zip(ops, log.scale[first:]))
            run.raw_walls.append(raw)
            run.walls.append(raw * scaled / sum(ops) if sum(ops) > 0 else raw)
        # stop at the deadline, or before a pass that would end more than
        # half of --seconds past it, so that a run stays near --seconds
        now = time.perf_counter()
        if (now >= deadline or 2 * now - started > deadline + seconds / 2) and (
            not trace or run.traced_walls
        ):
            return run


def run_all(args, names: list[str]) -> int:
    """Every workload in its own process (peak RSS is per process); one summary line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "newtonosc", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import layers
    import reference
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    setup = [] if args.trace else setup_times()
    prov = provenance()
    workload = WORKLOADS[args.workload](args.seed, reference.load())
    warm_up()
    run = measure(workload, args.seconds, bool(args.trace))
    log = run.log

    if args.trace:
        metrics = layers.median_metrics(run.layer_passes)
        metrics["trace.overhead_frac"] = statistics.median(run.traced_walls) / statistics.median(run.walls) - 1
        units = layers.PER_LAYER
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        with open(trace_path, "w") as fh:
            for i, rec in enumerate(run.recorders):
                rec.write_jsonl(fh, passno=i)
        print(f"spans: {sum(len(r.spans) for r in run.recorders)} written to {trace_path}")
        for line in layers.sample_lines(run.recorders[-1]):
            print(line)
    else:
        ops = [t * f for t, f in zip(log.latencies, log.scale)]
        metrics = {
            "wall_s": statistics.median(run.walls),
            "setup_s": statistics.median(setup),
            "op_p50_ms": percentile(ops, 0.50) * 1e3,
            "op_p95_ms": percentile(ops, 0.95) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - log.failed / log.attempted,
        }
        units = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_p95_ms": "ms",
                 "peak_rss_mb": "MB", "ok_frac": "ratio"}
        if log.probe is not None:
            print(f"raw seconds (wall and op times below are on the reference clock, see speed.py): "
                  f"wall {statistics.median(run.raw_walls):.4f}, op p50 {percentile(log.latencies, 0.5) * 1e3:.4f} ms, "
                  f"op p95 {percentile(log.latencies, 0.95) * 1e3:.4f} ms")

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {len(run.walls)} untraced and {len(run.traced_walls)} traced "
          f"passes, {len(log.latencies)} ops timed, failed_frac={log.failed / log.attempted:.4f}")
    print("pass walls (s): " + " ".join(f"{w:.3f}" for w in run.walls)
          + (" | traced: " + " ".join(f"{w:.3f}" for w in run.traced_walls) if run.traced_walls else ""))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for what in log.failures + log.trace_errors:
        print(f"  failed: {what}")
    result = {
        "correct": log.failed == 0 and not log.trace_errors,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
