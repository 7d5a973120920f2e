"""Simplex vectors and the weight-construction algebra.

Conventions. A distribution P = (p_1, ..., p_n) has n >= 2 nonnegative
entries summing to 1 within 1e-9. A weight vector U lives on the same
simplex and selects how much each elementary term contributes; it may
contain zeros even when the distribution may not. Utility vectors carry
strictly positive values with no sum constraint. Nothing here ever
renormalizes silently: renormalization is an explicit caller decision.

Escort and utility weights are built in the log2 domain with a max
shift, so exponents like p_k^beta stay representable for any beta that
is mathematically admissible.

Every validated vector owns a read-only array and records whether all
its entries are strictly positive, so the engine can skip masking and
domain scans. Arrays this module builds itself (weights, products) are
validated in place rather than copied first.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import backends
from .errors import (
    DegenerateWeights,
    LengthMismatch,
    NegativeMass,
    NotNormalized,
    Overflow,
    TooShort,
)

SUM_TOL = 1e-9


class _Built:
    """An array this module has just built and nothing else references:
    the vector constructors validate it in place instead of copying it."""

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray) -> None:
        self.arr = arr


def _freeze(obj, arr: np.ndarray, positive: bool) -> None:
    """Store a read-only validated array and its positivity on obj."""
    object.__setattr__(obj, "values", arr)
    object.__setattr__(obj, "_positive", positive)


def check_sum(total: float, what: str) -> None:
    """Raise NotNormalized unless total, the sum of a simplex vector, is
    1 within SUM_TOL."""
    if abs(total - 1.0) > SUM_TOL:
        raise NotNormalized(f"{what} sums to {total!r}, expected 1 within {SUM_TOL}")


def _validate(obj, values, what: str, strictly_positive: bool, simplex: bool) -> None:
    """Check values and freeze them into obj, in this order: one
    dimension, finite, nonnegative (or strictly positive), then for a
    simplex at least two entries summing to 1 within SUM_TOL. Records
    whether every entry is strictly positive."""
    if isinstance(values, _Built):
        arr = values.arr
    else:
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise TooShort(f"{what} must be a one-dimensional vector, got shape {arr.shape}")
    n = arr.size
    positive = True
    if n:
        # nan propagates through min and max, and +-inf lands in one of them
        lo, hi = float(np.minimum.reduce(arr)), float(np.maximum.reduce(arr))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NegativeMass(f"{what} entries must be finite")
        if strictly_positive:
            if lo <= 0.0:
                raise NegativeMass(f"{what} entries must be strictly positive")
        elif lo < 0.0:
            raise NegativeMass(f"{what} entries must be nonnegative")
        positive = lo > 0.0
    if simplex:
        if n < 2:
            raise TooShort(f"{what} needs at least two entries, got {n}")
        if hi > 1.0:
            # only entries above 1 can sum past the double range; the
            # check below rejects the inf without numpy's overflow warning
            with np.errstate(over="ignore"):
                total = float(np.add.reduce(arr))
        else:
            total = float(np.add.reduce(arr))
        check_sum(total, what)
    arr.setflags(write=False)
    _freeze(obj, arr, positive)


@dataclass(frozen=True)
class Distribution:
    """Finite probability distribution on n >= 2 outcomes."""

    values: np.ndarray

    def __post_init__(self) -> None:
        _validate(self, self.values, "distribution", strictly_positive=False, simplex=True)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class WeightVector:
    """Simplex weights: nonnegative, length >= 2, sum 1 within tolerance."""

    values: np.ndarray

    def __post_init__(self) -> None:
        _validate(self, self.values, "weights", strictly_positive=False, simplex=True)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class UtilityVector:
    """Strictly positive utilities; carries no sum constraint."""

    values: np.ndarray

    def __post_init__(self) -> None:
        _validate(self, self.values, "utilities", strictly_positive=True, simplex=False)

    def __len__(self) -> int:
        return self.values.size


def make_distribution(values) -> Distribution:
    """Validate values into a Distribution. Never renormalizes."""
    return Distribution(values)


def as_distribution(dist) -> Distribution:
    return dist if isinstance(dist, Distribution) else Distribution(dist)


def as_weight_vector(weights) -> WeightVector:
    if isinstance(weights, WeightVector):
        return weights
    if isinstance(weights, Distribution):
        # a validated distribution passes every weight check; share its array
        w = object.__new__(WeightVector)
        _freeze(w, weights.values, weights._positive)
        return w
    if type(weights) is Log2Weights:  # a rule resolve_log2_weights left unbuilt
        return weights.weights()
    return WeightVector(weights)


def as_utility_vector(utilities) -> UtilityVector:
    return utilities if isinstance(utilities, UtilityVector) else UtilityVector(utilities)


def direct_product(first: Distribution, second: Distribution) -> Distribution:
    """Row-major product distribution (p_1 q_1, ..., p_1 q_m, p_2 q_1, ...),
    built and validated as a whole. engine.verify_composability builds
    it only for products of one engine block and walks larger ones."""
    a = as_distribution(first)
    b = as_distribution(second)
    return Distribution(_Built(backends.active_kernels().outer_flatten(a.values, b.values)))


def weight_product(first, second) -> WeightVector:
    """Direct product of two weight vectors, same entry order as direct_product."""
    a = as_weight_vector(first)
    b = as_weight_vector(second)
    return WeightVector(_Built(backends.active_kernels().outer_flatten(a.values, b.values)))


def all_finite(arr: np.ndarray) -> bool:
    """Whether a nonempty array holds no nan or inf: nan propagates
    through min and max, and +-inf lands in one of them."""
    return math.isfinite(np.minimum.reduce(arr)) and math.isfinite(np.maximum.reduce(arr))


def check_length(x: np.ndarray, p: np.ndarray, what: str) -> None:
    """Raise LengthMismatch unless x pairs entry for entry with p."""
    if x.size != p.size:
        raise LengthMismatch(f"{what} length {x.size} != distribution length {p.size}")


_NO_GUARD = contextlib.nullcontext()


def _log2_guard(d: Distribution):
    # log2 0 = -inf is expected, and so is what arithmetic makes of it;
    # a distribution with no zero entry needs no errstate, which costs
    # more than the log2 of a short vector
    return _NO_GUARD if d._positive else np.errstate(divide="ignore", invalid="ignore")


# |log2 p| <= 1074 for every positive double, so b * log2(p) can overflow
# only once |b| nears DBL_MAX/1074 = 1.67e305
SAFE_EXPONENT = 1.6e305


def _exponent_guard(b_abs: float):
    # b * log2(p) with every |b| <= b_abs, or g - max g for a spread b_abs;
    # past SAFE_EXPONENT its +-inf is what _normalized_exp2 and _walk expect
    return _NO_GUARD if b_abs <= SAFE_EXPONENT else np.errstate(over="ignore")


def check_exponent_top(top: float, kind: str, b, b_abs: float) -> None:
    """Raise the error of weights 2^t whose largest exponent t_k is top,
    t_k = b_k*log2(p_k) (+ log2 v_k): -inf exponents are fine (they
    encode p_k^beta = 0); nan and +inf are not. nan propagates through
    max, so the max alone tells all three apart. A max of -inf needs
    every positive p_k, whose log2 is finite, to have had its
    beta*log2(p_k) overflow."""
    if math.isnan(top) or top == math.inf:
        raise DegenerateWeights(f"{kind} weights: exponent left the representable range")
    if top == -math.inf:
        what = f"beta = {b!r} is" if type(b) is float else f"betas up to {b_abs!r} are"
        raise Overflow(f"{what} too large: beta*log2(p) leaves the double range")


def _normalized_exp2(t: np.ndarray, rule: Log2Weights) -> WeightVector:
    # With a finite largest exponent the max-shifted weights are finite:
    # the largest term is 2^0 and the normalizer lies in [1, n].
    check_exponent_top(float(np.maximum.reduce(t)), rule.kind, rule.beta, rule.beta_abs)
    with _exponent_guard(rule.spread):
        total = backends.active_kernels().shifted_exp2_weights(t, t)[1]
    t /= total
    return WeightVector(_Built(t))


class Log2Weights:
    """An escort, utility or tilted weight rule whose inputs are validated
    and whose weights are not built yet, read as unnormalized log2
    weights g with x = log2 p:

        escort   g = beta * x           (beta a scalar or one per entry)
        utility  g = beta * x + log2 v
        tilted   g = log2 u + x

    weights() builds the normalized WeightVector that escort_weights,
    utility_weights and tilted_weights return, with all their checks.
    in_log2_domain() says whether the engine may read g instead.
    """

    __slots__ = ("kind", "dist", "beta", "beta_abs", "spread", "extra")

    def __init__(self, kind: str, dist: Distribution, beta, beta_abs: float, extra, spread=None) -> None:
        self.kind = kind
        self.dist = dist
        self.beta = beta          # float, 1-d array, or None (tilted)
        self.beta_abs = beta_abs  # largest |beta|
        # max - min of the betas and 0: g spans about spread * 1074 at most
        self.spread = beta_abs if spread is None else spread
        self.extra = extra        # the UtilityVector v, or the WeightVector u of a tilted rule

    def weights(self) -> WeightVector:
        d, b = self.dist, self.beta
        p = d.values
        if self.kind == "tilted":
            raw = self.extra.values * p
            raw /= float(np.add.reduce(raw))  # positive, as _tilted checked
            return WeightVector(_Built(raw))
        if self.kind == "utility":
            t = np.log2(self.extra.values)
            if b != 0.0:
                with _log2_guard(d), _exponent_guard(self.beta_abs):
                    log2p = np.log2(p)
                    log2p *= b
                t += log2p
        elif type(b) is float:
            if b == 0.0:
                t = np.zeros(p.size)  # p_k^0 = 1 for every term, zeros included
            else:
                with _log2_guard(d), _exponent_guard(self.beta_abs):
                    t = np.log2(p)
                    t *= b
        else:
            with _log2_guard(d), _exponent_guard(self.beta_abs):
                # 0 * log2(0) inside the masked branch would warn; the where()
                # replaces those slots with the exact limit 0
                t = np.where(b == 0.0, 0.0, b * np.log2(p))
        return _normalized_exp2(t, self)

    def in_log2_domain(self) -> bool:
        """Whether every g of an active entry is finite, because |beta| <=
        SAFE_EXPONENT, and every zero of p gets weight 0, because beta > 0
        there. Then building the weights raises nothing, and the engine
        can read g block by block, where no weight is normalized."""
        d, b = self.dist, self.beta
        if self.beta_abs > SAFE_EXPONENT:
            return False
        if d._positive or self.kind == "tilted":
            return True
        if type(b) is float:
            return b > 0.0
        return bool((b[d.values == 0.0] > 0.0).all())


def _escort(d: Distribution, beta) -> Log2Weights:
    b = np.asarray(beta, dtype=float)
    if b.ndim == 0:
        b = float(b)
        if not math.isfinite(b):
            raise DegenerateWeights("escort exponent must be finite")
        return Log2Weights("escort", d, b, abs(b), None)
    if b.ndim == 1:
        check_length(b, d.values, "escort exponent")
        lo, hi = float(np.minimum.reduce(b)), float(np.maximum.reduce(b))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DegenerateWeights("escort exponent must be finite")
        return Log2Weights("escort", d, b, max(-lo, hi), None, max(hi, 0.0) - min(lo, 0.0))
    raise DegenerateWeights(f"escort exponent must be scalar or vector, got shape {b.shape}")


def _utility(d: Distribution, beta, utilities) -> Log2Weights:
    v = as_utility_vector(utilities)
    check_length(v.values, d.values, "utilities")
    b = float(beta)
    if not math.isfinite(b):
        raise DegenerateWeights("utility exponent must be finite")
    return Log2Weights("utility", d, b, abs(b), v)


def _tilted(d: Distribution, weights) -> Log2Weights:
    """External weights u tilted by d. A float sum_k u_k p_k of 0 is
    DegenerateWeights, also when each u_k p_k underflows though some u_k
    and p_k are positive: every built weight would be 0 there."""
    u = as_weight_vector(weights)
    check_length(u.values, d.values, "weights")
    if np.dot(u.values, d.values) <= 0.0:
        raise DegenerateWeights("tilted weights: sum of u_k p_k is not positive")
    return Log2Weights("tilted", d, None, 0.0, u)


def escort_weights(dist, beta) -> WeightVector:
    """Weights proportional to p_k^beta.

    beta may be a scalar or a per-component vector (matched by length).
    Requires strictly positive p wherever beta < 0 or the corresponding
    term is undefined; beta = 0 terms count as 1 even at p = 0.
    """
    return _escort(as_distribution(dist), beta).weights()


def utility_weights(dist, beta: float, utilities) -> WeightVector:
    """Weights proportional to p_k^beta * v_k for strictly positive v."""
    return _utility(as_distribution(dist), beta, utilities).weights()


def tilted_weights(dist, weights) -> WeightVector:
    """External weights tilted by the probabilities: u_k p_k / sum_i u_i p_i."""
    return _tilted(as_distribution(dist), weights).weights()


def resolve_log2_weights(dist, rule) -> Distribution | WeightVector | Log2Weights:
    """The weights a rule names, in the form the engine reads: the
    distribution itself for self weights, the validated WeightVector of
    an external rule, and for an escort, utility or tilted rule its
    Log2Weights when they are in the log2 domain, else its built
    WeightVector.

    Accepts the forms resolve_weight_rule accepts and raises, here and
    in the same order, every error resolve_weight_rule raises, so
    nothing the engine does later can come before a weight error.
    """
    d = as_distribution(dist)
    if isinstance(rule, str):
        if rule == "self":
            return d
        raise ValueError(f"unknown weight rule {rule!r}")
    if isinstance(rule, tuple) and rule:
        kind = rule[0]
        if kind == "external" and len(rule) == 2:
            u = as_weight_vector(rule[1])
            check_length(u.values, d.values, "weights")
            return u
        if kind == "escort" and len(rule) == 2:
            w = _escort(d, rule[1])
        elif kind == "utility" and len(rule) == 3:
            w = _utility(d, rule[1], rule[2])
        elif kind == "tilted" and len(rule) == 2:
            w = _tilted(d, rule[1])
        else:
            raise ValueError(f"unknown weight rule {rule!r}")
        return w if w.in_log2_domain() else w.weights()
    raise ValueError(f"unknown weight rule {rule!r}")


def resolve_weight_rule(dist, rule) -> WeightVector:
    """Build the weight vector named by a rule.

    Accepted forms: "self"; ("escort", beta); ("utility", beta, V);
    ("external", U); ("tilted", U).
    """
    return as_weight_vector(resolve_log2_weights(dist, rule))
