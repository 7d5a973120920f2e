"""Core evaluation engine.

Every measure in this package is h applied to a quasi-linear mean of
elementary exponents:

    X(U, P) = sum_k u_k * tau * log2(p_k)                    lambda = 0
    X(U, P) = (1/lambda) * log2( sum_k u_k * p_k^(tau*lambda) )   else

with tau < 0, weights U on the simplex, and the convention that a zero
weight annihilates its term no matter what p_k is. The lambda != 0 sum
runs in the log2 domain with a max shift, so exponents tau*lambda*log2(p)
of hundreds are exact to working precision instead of overflowing.

A family name and its (tau, lambda, c, e) resolve once, through
MeasureParams.of, to one (tau, lambda, h): information and inaccuracy
take (2^(c*x)-1)/e (e = 0 meaning the linear x itself), certainty takes
2^(-c*x)/e. The generator also fixes the composition law
(op_for_generator). inaccuracy(), certainty() and entropy() are thin
wrappers over inforcer_measure().
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backends
from .composition import GeneratorH, apply_h, compose, op_for_generator
from .core import (
    Distribution,
    WeightVector,
    as_distribution,
    as_weight_vector,
    direct_product,
    resolve_weight_rule,
    weight_product,
)
from .errors import ConstraintViolation, DegenerateWeights, DomainError, LengthMismatch


@dataclass(frozen=True)
class MeasureParams:
    """Exponent tau < 0, mean order lambda, and the outer generator."""

    tau: float
    lam: float
    generator: GeneratorH

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau) and self.tau < 0.0):
            raise ConstraintViolation(f"tau must be finite and < 0, got {self.tau!r}")
        if not math.isfinite(self.lam):
            raise ConstraintViolation(f"lambda must be finite, got {self.lam!r}")

    @classmethod
    def of(cls, family: str, params: PolyParams) -> "MeasureParams":
        """The measure a family names at params: certainty takes exp_cert;
        information and inaccuracy take the linear generator at e = 0 and
        exp_info otherwise."""
        if family == "certainty":
            h = GeneratorH.exp_cert(params.c, params.e)
        elif family in ("information", "inaccuracy"):
            h = GeneratorH.linear(1.0) if params.e == 0.0 else GeneratorH.exp_info(params.c, params.e)
        else:
            raise ConstraintViolation(f"unknown family {family!r}")
        return cls(params.tau, params.lam, h)


@dataclass(frozen=True)
class PolyParams:
    """(tau, lambda, c, e) bundle for the polynomially-composable families."""

    tau: float
    lam: float
    c: float = 1.0
    e: float = 0.0


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a numerical identity check."""

    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tolerance: float
    passed: bool

    @classmethod
    def from_comparison(cls, lhs: float, rhs: float, tolerance: float) -> "VerificationReport":
        abs_err = abs(lhs - rhs)
        if rhs != 0.0:
            rel_err = abs_err / abs(rhs)
        else:
            rel_err = 0.0 if abs_err == 0.0 else math.inf
        passed = rel_err <= tolerance or (abs(rhs) < 1.0 and abs_err <= tolerance)
        return cls(lhs, rhs, abs_err, rel_err, tolerance, passed)


def _support_terms(weights, dist) -> list:
    """[u, log2 p, log2 u] on the support of the weights.

    Weights with no zero entry keep every term, so nothing is masked or
    copied. Self weights share the distribution's array, and then log2 u
    is log2 p itself; otherwise it is None until a lambda != 0 mean
    computes it.
    """
    w = as_weight_vector(weights)
    d = as_distribution(dist)
    u, p = w.values, d.values
    if u.size != p.size:
        raise LengthMismatch(f"weights length {u.size} != distribution length {p.size}")
    if w._positive:
        if not d._positive:
            raise DomainError("zero probability carries nonzero weight")
        ua, pa = u, p
    else:
        active = u > 0.0
        if not np.any(active):
            raise DegenerateWeights("all weights are zero")
        ua = np.compress(active, u)
        pa = ua if u is p else np.compress(active, p)
        if not d._positive and np.any(pa <= 0.0):
            raise DomainError("zero probability carries nonzero weight")
    log2p = np.log2(pa)
    return [ua, log2p, log2p if ua is pa else None]


class SharedTerms:
    """The terms of X(U, P) that no (tau, lambda) changes, for every mean
    taken over the same (U, P): masking and log2 run once, at the first
    mean, so the checks a caller runs before asking for a mean still come
    first. A failed build is tried again at the next mean.
    """

    __slots__ = ("_inputs", "_terms")

    def __init__(self, weights, dist) -> None:
        self._inputs = (weights, dist)
        self._terms = None

    def terms(self) -> list:
        if self._terms is None:
            self._terms = _support_terms(*self._inputs)
        return self._terms


def quasi_mean_exponent(weights, dist, tau: float, lam: float) -> float:
    """The inner mean X(U, P) before the generator is applied; |lambda|
    <= 1e-8 takes the lambda = 0 form.

    weights may also be SharedTerms prepared for (weights, dist).
    """
    terms = weights.terms() if type(weights) is SharedTerms else _support_terms(weights, dist)
    ua, log2p, log2u = terms
    kern = backends.active_kernels()
    if abs(lam) <= 1e-8:
        return tau * kern.weighted_sum(ua, log2p)
    if log2u is None:
        log2u = terms[2] = np.log2(ua)
    return kern.weighted_log2_sumexp(log2u, log2p, tau * lam) / lam


def inforcer_content(p: float, params: MeasureParams) -> float:
    """Elementary content h(tau * log2 p) of a single probability."""
    p = float(p)
    if not (0.0 < p <= 1.0):
        raise DomainError(f"elementary content needs 0 < p <= 1, got {p!r}")
    return apply_h(params.generator, params.tau * math.log2(p))


def inforcer_measure(weights, dist, params: MeasureParams) -> float:
    """h applied to the quasi-linear mean of elementary exponents."""
    x = quasi_mean_exponent(weights, dist, params.tau, params.lam)
    return apply_h(params.generator, x)


def inaccuracy(weights, dist, tau: float, lam: float, c: float = 1.0, e: float = 0.0) -> float:
    """Information-family value; e = 0 gives the quasi-linear log form,
    e != 0 the pseudo-additive exponential form (requires c*e > 0)."""
    return inforcer_measure(weights, dist, MeasureParams.of("information", PolyParams(tau, lam, c, e)))


def certainty(weights, dist, tau: float, lam: float, c: float = 1.0, e: float = 1.0) -> float:
    """Certainty-family value 2^(-c*X)/e; strictly positive."""
    return inforcer_measure(weights, dist, MeasureParams.of("certainty", PolyParams(tau, lam, c, e)))


def entropy(
    dist,
    weight_rule="self",
    *,
    family: str = "information",
    tau: float = -1.0,
    lam: float = 0.0,
    c: float = 1.0,
    e: float = 0.0,
) -> float:
    """Measure of a single distribution under a named weight rule.

    weight_rule follows core.resolve_weight_rule: "self", ("escort", beta),
    ("utility", beta, V), ("external", U), ("tilted", U), or a built
    weight vector.
    """
    d = as_distribution(dist)
    w = resolve_weight_rule(d, weight_rule)
    return inforcer_measure(w, d, MeasureParams.of(family, PolyParams(tau, lam, c, e)))


def verify_composability(
    kind: str,
    params: PolyParams,
    first_weights,
    first_dist,
    second_weights,
    second_dist,
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Check M(U*V; P*Q) against M(U;P) composed with M(V;Q), where M is
    the measure family kind names at params and the law is its
    generator's: x + y + e*x*y for information and inaccuracy (plain
    addition at e = 0), the e-scaled product for certainty.
    """
    mp = MeasureParams.of(kind, params)
    op = op_for_generator(mp.generator)
    u = as_weight_vector(first_weights)
    v = as_weight_vector(second_weights)
    p = as_distribution(first_dist)
    q = as_distribution(second_dist)
    m1 = inforcer_measure(u, p, mp)
    m2 = inforcer_measure(v, q, mp)
    pq = direct_product(p, q)
    if u.values is p.values and v.values is q.values:
        uv = as_weight_vector(pq)  # self weights: the product of the weights is P*Q itself
    else:
        uv = weight_product(u, v)
    lhs = inforcer_measure(uv, pq, mp)
    rhs = compose(op, m1, m2)
    return VerificationReport.from_comparison(lhs, rhs, tolerance)
