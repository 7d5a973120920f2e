"""Shared random-input generators for registry-wide test sweeps.

Parameter draws stay away from each row's singular points (alpha or
gamma near 1, lambda near 0) so relative-error comparisons against the
closed forms are meaningful, and within moderate ranges so exponential
generators do not amplify rounding into the tolerance band.
"""
from __future__ import annotations

import numpy as np

from inforcer import escort_weights, tilted_weights, utility_weights
from inforcer.core import WeightVector


def random_simplex(rng: np.random.Generator, n: int, floor: float = 0.1) -> np.ndarray:
    """Strictly positive point on the simplex; min entry >= floor/n."""
    return (1.0 - floor) * rng.dirichlet(np.ones(n)) + floor / n


def _away_from_one(rng, lo: float, hi: float, gap: float = 0.05) -> float:
    while True:
        x = float(rng.uniform(lo, hi))
        if abs(x - 1.0) >= gap:
            return x


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi)) * (1.0 if rng.random() < 0.5 else -1.0)


def draw_params(name: str, rng: np.random.Generator, n: int):
    """Valid random parameters for a catalog row.

    Returns (params, weights, utilities); the latter two are None when
    the row does not need them.
    """
    u = lambda a, b: float(rng.uniform(a, b))
    params: dict = {}
    weights = None
    utilities = None
    if name == "renyi":
        params = dict(alpha=_away_from_one(rng, 0.2, 3.0))
    elif name in ("varma_a", "varma_b"):
        mu = u(1.0, 3.0)
        params = dict(mu=mu, alpha=mu - u(0.1, 0.9))
    elif name in ("nath_a", "nath_b"):
        params = dict(alpha=_away_from_one(rng, 0.2, 2.5), mu=u(0.3, 2.0))
    elif name == "aczel_daroczy_a":
        params = dict(beta=u(-1.0, 2.5))
    elif name == "aczel_daroczy_b":
        beta = u(-1.0, 2.5)
        alpha = beta
        while abs(alpha - beta) < 0.1:
            alpha = u(-1.0, 2.5)
        params = dict(alpha=alpha, beta=beta)
    elif name == "kapur":
        params = dict(alpha=_away_from_one(rng, 0.2, 2.5), beta=u(0.1, 2.0))
    elif name == "rathie":
        params = dict(alpha=_away_from_one(rng, 0.2, 2.5), betas=rng.uniform(0.1, 2.0, n))
    elif name in ("khan_autar", "singh"):
        params = dict(alpha=_away_from_one(rng, 0.2, 2.5), beta=u(0.2, 2.0))
        utilities = rng.uniform(0.5, 2.0, n)
    elif name in ("havrda_charvat", "sharma_mittal_a", "tsallis",
                  "frank_daffertshofer_a", "arimoto", "boekee_van_der_lubbe"):
        params = dict(gamma=_away_from_one(rng, 0.2, 2.5))
    elif name in ("sharma_mittal_b", "frank_daffertshofer_b"):
        params = dict(alpha=_away_from_one(rng, 0.2, 2.5), gamma=_away_from_one(rng, 0.2, 2.5))
    elif name == "van_der_lubbe_a":
        params = dict(tau=u(-2.5, -0.2))
    elif name == "van_der_lubbe_b":
        params = dict(tau=u(-2.5, -0.2), lam=_signed(rng, 0.1, 1.5))
    elif name == "van_der_lubbe_c":
        c = _signed(rng, 0.2, 1.5)
        params = dict(tau=u(-2.5, -0.2), c=c, e=c * u(0.3, 2.0))
    elif name == "van_der_lubbe_d":
        c = _signed(rng, 0.2, 1.5)
        params = dict(tau=u(-2.5, -0.2), lam=_signed(rng, 0.1, 1.5), c=c, e=c * u(0.3, 2.0))
    elif name == "kerridge":
        weights = random_simplex(rng, n)
    elif name == "nath_inaccuracy_a":
        params = dict(gamma=_away_from_one(rng, 0.2, 2.5))
        weights = random_simplex(rng, n)
    elif name == "nath_inaccuracy_b":
        params = dict(alpha=_away_from_one(rng, 0.2, 2.5))
        weights = random_simplex(rng, n)
    elif name == "gupta_sharma_a":
        params = dict(gamma=_away_from_one(rng, 0.2, 2.5))
        weights = random_simplex(rng, n)
    elif name == "gupta_sharma_b":
        params = dict(alpha=_away_from_one(rng, 0.2, 2.5), gamma=_away_from_one(rng, 0.2, 2.5))
        weights = random_simplex(rng, n)
    elif name in ("teodorescu", "pardo_taneja"):
        params = dict(gamma=u(1.05, 3.0))
    elif name == "pardo":
        params = dict(gamma=u(1.05, 3.0))
        weights = random_simplex(rng, n)
    elif name == "tuteja":
        params = dict(beta=u(1.05, 3.0), gamma=u(1.05, 3.0))
        weights = random_simplex(rng, n)
    elif name == "van_der_lubbe_certainty_a":
        params = dict(tau=u(0.2, 2.5))
    elif name == "van_der_lubbe_certainty_b":
        params = dict(tau=u(0.2, 2.5), lam=_signed(rng, 0.1, 1.5))
    elif name == "bhatia_a":
        params = dict(beta=u(-0.5, 2.0), tau=u(0.2, 2.5))
    elif name == "bhatia_b":
        params = dict(beta=u(-0.5, 2.0), tau=u(0.2, 2.5), lam=_signed(rng, 0.1, 1.5))
    elif name != "shannon" and name != "onicescu":
        raise AssertionError(f"no sampler for row {name}")
    return params, weights, utilities


def composability_weights(spec, params: dict, p, q, rng: np.random.Generator):
    """Per-side weight vectors for a composability quadruple.

    Builds each side with the row's own rule; rows with per-component or
    external inputs get independent draws for the two sides.
    """
    rule = spec.weights
    n, m = len(p), len(q)
    if rule == "self":
        return WeightVector(p.values), WeightVector(q.values)
    kind = rule[0]
    if kind == "escort" and rule[1] == "betas":
        return (
            escort_weights(p, rng.uniform(0.1, 2.0, n)),
            escort_weights(q, rng.uniform(0.1, 2.0, m)),
        )
    if kind == "escort":
        beta = params["beta"]
        return escort_weights(p, beta), escort_weights(q, beta)
    if kind == "utility":
        beta = params["beta"]
        return (
            utility_weights(p, beta, rng.uniform(0.5, 2.0, n)),
            utility_weights(q, beta, rng.uniform(0.5, 2.0, m)),
        )
    if kind == "tilted":
        return (
            tilted_weights(p, random_simplex(rng, n)),
            tilted_weights(q, random_simplex(rng, m)),
        )
    # external U
    return WeightVector(random_simplex(rng, n)), WeightVector(random_simplex(rng, m))
