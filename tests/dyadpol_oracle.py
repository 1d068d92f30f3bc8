"""Test oracle: dyadpol trials replayed one at a time.

verify_lower_bound reads one random() stream of default_rng(master_seed),
and trial t owns the draw_count positions from t * draw_count on.  These
helpers replay a trial alone from that recipe, one draw call per group
(signs, magnitudes, the points of each span), and evaluate P on its grid
with one matmul, so the batched arithmetic must match them bit for bit.
"""

import math

import numpy as np

from newtonosc import dyadpol


def draw_count(profile, lbset, h_density: int) -> int:
    """d, the random() draws of one trial: signs, magnitudes when C > 1, points."""
    n_mags = profile.N if profile.C > 1 else 0
    return profile.N + n_mags + h_density * (1 + len(lbset.intervals))


def trial_rng(profile, lbset, h_density, master_seed, t):
    """The stream of default_rng(master_seed) advanced to trial t's first draw."""
    rng = np.random.default_rng(master_seed)
    rng.bit_generator.advance(t * draw_count(profile, lbset, h_density))
    return rng


def sample_coefficients(profile, rng) -> np.ndarray:
    """One admissible coefficient vector: random signs, log-uniform sizes."""
    N = profile.N
    signs = np.where(rng.random(N) >= 0.5, 1.0, -1.0)
    if profile.C > 1:
        mags = 2.0 ** np.array(profile.r, dtype=float) * profile.C ** rng.uniform(
            -1.0, 1.0, size=N
        )
    else:
        mags = 2.0 ** np.array(profile.r, dtype=float)
    return signs * mags


def sample_points(lbset, h_density: int, rng) -> np.ndarray:
    """Log-uniform draws per interval of E, plus every interval endpoint."""
    spans = [(lbset.leading_beta - dyadpol._LEADING_OCTAVES, lbset.leading_beta)]
    spans.extend(lbset.intervals)
    values = [2.0 ** float(b) for _, b in spans]
    values.extend(2.0 ** float(a) for a, _ in lbset.intervals)
    for lo, hi in spans:
        if h_density > 0:
            exps = rng.uniform(float(lo), float(hi), size=h_density)
            values.extend(2.0**e for e in exps)
    return np.array(sorted(values))


def replay_trial(profile, lbset, h_density, master_seed, t, dot=np.matmul):
    """Trial t on its own: (min |P| over its grid, the h attaining it first).

    dot(table, coeffs) sums the terms a_i h^i of P; the default is the
    matmul verify_lower_bound uses.
    """
    rng = trial_rng(profile, lbset, h_density, master_seed, t)
    coeffs = sample_coefficients(profile, rng)
    hs = sample_points(lbset, h_density, rng)
    powers = np.arange(1, profile.N + 1)
    values = 1.0 + dot(hs[:, None] ** powers[None, :], coeffs)
    idx = int(np.argmin(np.abs(values)))
    return float(abs(values[idx])), float(hs[idx])


def replay_verify(profile, lbset, trials, h_density, master_seed, dot=np.matmul):
    """The per-trial loop: (min_observed, worst_trial, worst_h), earliest trial on ties."""
    min_observed, worst_trial, worst_h = math.inf, -1, math.nan
    for t in range(trials):
        trial_min, h = replay_trial(profile, lbset, h_density, master_seed, t, dot)
        if trial_min < min_observed:
            min_observed, worst_trial, worst_h = trial_min, t, h
    return min_observed, worst_trial, worst_h
