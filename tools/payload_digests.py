"""Print the corpus and CLI payload digests of the tree this script sits in.

    python tools/payload_digests.py

The corpus digest is the sha256 of exit code, stdout and stderr of the
3,000 `analyze --mixed` calls on the benchmark corpus (seeds 0-4, default
order and --order 50).  The CLI digest covers fixed selftest, norm, sweep,
blocks, dyadpol, analyze and error calls, JSON and CSV, with one short
digest per call.  Their bits depend on the host's LAPACK, BLAS and SIMD,
so compare two trees by running this script in each on one host.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from newtonosc import cli  # noqa: E402
from workloads import corpus, render  # noqa: E402

CALLS = [
    ["selftest"],
    ["norm", "--phase", "x*y", "--lambda", "64"],
    ["norm", "--phase", "x*y", "--lambda", "64", "--format", "json"],
    ["norm", "--phase", "x^2*y^2/4", "--rho", "0.9", "--lambda", "512", "--format", "json"],
    ["sweep", "--phase", "x*y", "--rho", "0.85", "--lambdas", "16,32,64,128"],
    ["sweep", "--phase", "x*y", "--rho", "0.85", "--lambdas", "16,32,64,128", "--format", "csv"],
    ["sweep", "--phase", "-(y-x)^4/12", "--lambdas", "16,32,64,128"],
    ["sweep", "--phase", "x*y", "--lambdas", "1e-9,2e-9,3e-9,4e-9"],
    ["blocks", "--phase", "x^2*y^2/4", "--lambda", "64", "--j-max", "2", "--format", "json"],
    ["blocks", "--phase", "x^2*y^2/4", "--lambda", "64", "--j-max", "2"],
    ["dyadpol", "--r", "0,6", "--C", "1", "--trials", "200"],
    ["dyadpol", "--r", "0,1,3,7", "--trials", "100", "--h-density", "16"],
    ["dyadpol", "--r", "20,22", "--C", "1"],
    ["dyadpol", "--r", "40,60,62", "--C", "1", "--trials", "100"],
    ["analyze", "--phase", "x^2*y^2/4"],
    ["analyze", "--phase", "(y-x)^2", "--mixed", "--order", "50"],
    ["analyze", "--mixed", "--phase", "(y-x)^3*(y-2*x)^2"],
    ["analyze", "--mixed", "--phase", "(y^2-2*x^2)^2 + x^5"],
    ["analyze", "--phase", "x*y +"],
    ["analyze", "--phase", "x + y"],
    ["norm", "--phase", "x*y", "--lambda", "abc"],
    ["sweep", "--phase", "x*y", "--lambdas", "16,abc"],
    ["dyadpol", "--r", "1100"],
    ["sweep", "--phase", "x*y", "--rho", "0.85", "--lambdas", "16,32,64,128,256", "--fit-window", "32,256"],
    ["blocks", "--phase", "x^3*y/3 + x*y^2", "--lambda", "-256", "--j-max", "4", "--format", "json"],
    ["analyze", "--phase", "x*y", "--order", "1/0"],
    ["analyze", "--mixed", "--phase", "y^2-x^3", "--order", "3/2"],
    ["sweep", "--phase", "x*y", "--fit-window", "16"],
    ["sweep", "--phase", "x*y", "--lambdas", "abc", "--fit-window", "16"],
    ["analyze", "--mixed", "--phase", "(y-x)^24"],
    ["analyze", "--mixed", "--phase", "(y-x)^2 + x^5", "--order", "2"],
    ["blocks", "--phase", "x^3*y/3 + x*y^2", "--lambda", "-256", "--j-max", "4"],
    ["blocks", "--phase", "x^100*y^100", "--lambda", "256", "--j-max", "6", "--format", "json"],
    ["blocks", "--phase", "x*y/100", "--lambda", "102400", "--format", "json"],
    ["blocks", "--phase", "10^307*x^2*y^9 - 6/3*x^9*y^6 + 9*x^0*y^3", "--lambda", "1e-9",
     "--j-max", "8", "--D", "1e-300", "--rho", "1", "--format", "json"],
]


def run(argv):
    """Exit code of one CLI call, and its code, stdout and stderr NUL-separated."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode()


def main():
    digest = hashlib.sha256()
    for seed in range(5):
        for F in corpus(seed):
            for extra in ([], ["--order", "50"]):
                digest.update(run(["analyze", "--phase", render(F), "--mixed", *extra])[1])
    print("corpus payload digest:", digest.hexdigest())

    total = hashlib.sha256()
    for argv in CALLS:
        code, record = run(argv)
        total.update(record)
        print(hashlib.sha256(record).hexdigest()[:16], code, " ".join(argv))
    print("CLI payload digest:", total.hexdigest())


if __name__ == "__main__":
    main()
