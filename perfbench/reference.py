"""Reference sweep results the benchmark checks its runs against.

    python3 perfbench/reference.py    # rewrites perfbench/reference.json

The values were produced at solver seed 0.  A run with another seed must
reproduce every verdict, predicted exponent, lambda and n exactly, and
every norm within oracles.norm_tolerance.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def report_dict(rep) -> dict:
    out = {
        "verdict": rep.verdict,
        "predicted": str(rep.predicted),
        "samples": [
            {"lambda": s.lam, "n": s.n, "norm": s.value, "conv_err": s.conv_err}
            for s in rep.samples
        ],
    }
    if rep.retry is not None:
        out["retry"] = report_dict(rep.retry)
    return out


def build() -> dict:
    from newtonosc import polycore, scaling
    from newtonosc.opnorm import PhaseSpec
    from newtonosc.scaling import SweepConfig

    import workloads

    ref = {}
    for cls in (workloads.SweepHyperbolic, workloads.SweepVertexDegenerate):
        ref[cls.name] = {}
        for label, text, rho, lams in cls.phases:
            p = PhaseSpec(polycore.parse_poly(text), rho=rho)
            rep = scaling.verify_theorem(p, SweepConfig(lambdas=lams or (), seed=0))
            ref[cls.name][label] = report_dict(rep)
    return ref


if __name__ == "__main__":
    sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
    with open(PATH, "w") as fh:
        json.dump(build(), fh, indent=1, sort_keys=True)
        fh.write("\n")
