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

import math
from dataclasses import dataclass

import numpy as np

from . import backends
from .errors import (
    DegenerateWeights,
    LengthMismatch,
    NegativeMass,
    NotNormalized,
    TooShort,
)

SUM_TOL = 1e-9

_MODES = ("nonneg", "strictly_positive")


class _Built:
    """An array this module has just built and nothing else references:
    the vector constructors validate it in place instead of copying it."""

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray) -> None:
        self.arr = arr


def _as_vector(values, what: str) -> np.ndarray:
    if isinstance(values, _Built):
        return values.arr
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise TooShort(f"{what} must be a one-dimensional vector, got shape {arr.shape}")
    return arr


def _check_mass(arr: np.ndarray, what: str, strictly_positive: bool) -> bool:
    """Reject non-finite and negative (or, if asked, zero) entries;
    returns whether every entry is strictly positive."""
    if arr.size == 0:
        return True
    # nan propagates through min and max, and +-inf lands in one of them
    lo, hi = float(arr.min()), float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NegativeMass(f"{what} entries must be finite")
    if strictly_positive:
        if lo <= 0.0:
            raise NegativeMass(f"{what} entries must be strictly positive")
    elif lo < 0.0:
        raise NegativeMass(f"{what} entries must be nonnegative")
    return lo > 0.0


def _check_simplex(arr: np.ndarray, what: str) -> None:
    if arr.size < 2:
        raise TooShort(f"{what} needs at least two entries, got {arr.size}")
    total = float(np.sum(arr))
    if abs(total - 1.0) > SUM_TOL:
        raise NotNormalized(f"{what} sums to {total!r}, expected 1 within {SUM_TOL}")


def _freeze(obj, arr: np.ndarray, positive: bool) -> None:
    arr.setflags(write=False)
    object.__setattr__(obj, "values", arr)
    object.__setattr__(obj, "_positive", positive)


@dataclass(frozen=True)
class Distribution:
    """Finite probability distribution on n >= 2 outcomes."""

    values: np.ndarray
    mode: str = "nonneg"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        arr = _as_vector(self.values, "distribution")
        positive = _check_mass(arr, "distribution", self.mode == "strictly_positive")
        _check_simplex(arr, "distribution")
        _freeze(self, arr, positive)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class WeightVector:
    """Simplex weights: nonnegative, length >= 2, sum 1 within tolerance."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_vector(self.values, "weights")
        positive = _check_mass(arr, "weights", strictly_positive=False)
        _check_simplex(arr, "weights")
        _freeze(self, arr, positive)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class UtilityVector:
    """Strictly positive utilities; carries no sum constraint."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_vector(self.values, "utilities")
        _freeze(self, arr, _check_mass(arr, "utilities", strictly_positive=True))

    def __len__(self) -> int:
        return self.values.size


def make_distribution(values, mode: str = "nonneg") -> Distribution:
    """Validate values into a Distribution. Never renormalizes."""
    return Distribution(values, mode)


def as_distribution(dist, mode: str = "nonneg") -> Distribution:
    return dist if isinstance(dist, Distribution) else Distribution(dist, mode)


def as_weight_vector(weights) -> WeightVector:
    if isinstance(weights, WeightVector):
        return weights
    if isinstance(weights, Distribution):
        # a validated distribution passes every weight check; share its array
        w = object.__new__(WeightVector)
        _freeze(w, weights.values, weights._positive)
        return w
    return WeightVector(weights)


def as_utility_vector(utilities) -> UtilityVector:
    return utilities if isinstance(utilities, UtilityVector) else UtilityVector(utilities)


def direct_product(first: Distribution, second: Distribution) -> Distribution:
    """Row-major product distribution (p_1 q_1, ..., p_1 q_m, p_2 q_1, ...)."""
    a = as_distribution(first)
    b = as_distribution(second)
    flat = backends.active_kernels().outer_flatten(a.values, b.values)
    mode = "strictly_positive" if (a.mode == b.mode == "strictly_positive") else "nonneg"
    return Distribution(_Built(flat), mode)


def weight_product(first, second) -> WeightVector:
    """Direct product of two weight vectors, same entry order as direct_product."""
    a = as_weight_vector(first)
    b = as_weight_vector(second)
    return WeightVector(_Built(backends.active_kernels().outer_flatten(a.values, b.values)))


def _normalized_exp2(t: np.ndarray, what: str) -> WeightVector:
    # -inf exponents are fine (they encode p_k^beta = 0); nan and +inf are
    # not. nan propagates through max, so the max alone tells all three
    # apart. With a finite max the max-shifted weights are finite: the
    # largest term is 2^0 and the normalizer lies in [1, n].
    top = float(np.max(t))
    if math.isnan(top) or top == math.inf:
        raise DegenerateWeights(f"{what}: exponent left the representable range")
    if top == -math.inf:
        raise DegenerateWeights(f"{what}: normalizer vanished")
    return WeightVector(_Built(backends.active_kernels().shifted_exp2_weights(t)))


def escort_weights(dist, beta) -> WeightVector:
    """Weights proportional to p_k^beta.

    beta may be a scalar or a per-component vector (matched by length).
    Requires strictly positive p wherever beta < 0 or the corresponding
    term is undefined; beta = 0 terms count as 1 even at p = 0.
    """
    p = as_distribution(dist).values
    b = np.asarray(beta, dtype=float)
    if b.ndim not in (0, 1):
        raise DegenerateWeights(f"escort exponent must be scalar or vector, got shape {b.shape}")
    if b.ndim == 1 and b.size != p.size:
        raise LengthMismatch(f"escort exponent length {b.size} != distribution length {p.size}")
    if not np.all(np.isfinite(b)):
        raise DegenerateWeights("escort exponent must be finite")
    if b.ndim == 0 and b == 0.0:
        t = np.zeros(p.size)  # p_k^0 = 1 for every term, zeros included
    elif b.ndim == 0:
        with np.errstate(divide="ignore"):
            t = np.log2(p)
        t *= b
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            # 0 * log2(0) inside the masked branch would warn; the where()
            # replaces those slots with the exact limit 0
            t = np.where(b == 0.0, 0.0, b * np.log2(p))
    return _normalized_exp2(t, "escort weights")


def utility_weights(dist, beta: float, utilities) -> WeightVector:
    """Weights proportional to p_k^beta * v_k for strictly positive v."""
    p = as_distribution(dist).values
    v = as_utility_vector(utilities).values
    if v.size != p.size:
        raise LengthMismatch(f"utilities length {v.size} != distribution length {p.size}")
    b = float(beta)
    if not np.isfinite(b):
        raise DegenerateWeights("utility exponent must be finite")
    t = np.log2(v)
    if b != 0.0:
        with np.errstate(divide="ignore"):
            log2p = np.log2(p)
        log2p *= b
        t += log2p
    return _normalized_exp2(t, "utility weights")


def tilted_weights(dist, weights) -> WeightVector:
    """External weights tilted by the probabilities: u_k p_k / sum_i u_i p_i."""
    p = as_distribution(dist).values
    u = as_weight_vector(weights).values
    if u.size != p.size:
        raise LengthMismatch(f"weights length {u.size} != distribution length {p.size}")
    raw = u * p
    total = float(np.sum(raw))
    if total <= 0.0 or not np.isfinite(total):
        raise DegenerateWeights("tilted weights: sum of u_k p_k is not positive")
    raw /= total
    return WeightVector(_Built(raw))


def resolve_weight_rule(dist, rule) -> WeightVector:
    """Build the weight vector named by a rule.

    Accepted forms: "self"; ("escort", beta); ("utility", beta, V);
    ("external", U); ("tilted", U); or an already-built weight vector.
    """
    d = as_distribution(dist)
    if isinstance(rule, str):
        if rule == "self":
            return as_weight_vector(d)
        raise ValueError(f"unknown weight rule {rule!r}")
    if isinstance(rule, (WeightVector, Distribution)):
        return as_weight_vector(rule)
    if isinstance(rule, tuple) and rule:
        kind = rule[0]
        if kind == "escort" and len(rule) == 2:
            return escort_weights(d, rule[1])
        if kind == "utility" and len(rule) == 3:
            return utility_weights(d, rule[1], rule[2])
        if kind == "external" and len(rule) == 2:
            u = as_weight_vector(rule[1])
            if len(u) != len(d):
                raise LengthMismatch(f"weights length {len(u)} != distribution length {len(d)}")
            return u
        if kind == "tilted" and len(rule) == 2:
            return tilted_weights(d, rule[1])
    raise ValueError(f"unknown weight rule {rule!r}")
