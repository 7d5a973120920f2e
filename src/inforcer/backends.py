"""Numeric kernels: a numba fast path and a pure-numpy fallback.

The active backend is chosen once at import from the INFORCER_BACKEND
environment variable: "numba" (require the jit path), "numpy" (force the
fallback), or "auto" / unset (numba when importable, numpy otherwise).
Tests and benchmarks can rebind with set_backend().

Kernels assume validated input: 1-d float64 arrays, no NaNs, weights
already restricted to their active (nonzero) support. Validation stays
in the calling layer so both backends run identical branch-free math.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

ENV_VAR = "INFORCER_BACKEND"


@dataclass(frozen=True)
class KernelSet:
    name: str
    weighted_log2_sumexp: Callable[[np.ndarray, np.ndarray, float], float]
    weighted_sum: Callable[[np.ndarray, np.ndarray], float]
    outer_flatten: Callable[[np.ndarray, np.ndarray], np.ndarray]
    shifted_exp2_weights: Callable[[np.ndarray], np.ndarray]


# -- numpy fallback ----------------------------------------------------

def _np_weighted_log2_sumexp(log2_w: np.ndarray, log2_p: np.ndarray, r: float) -> float:
    # log2( sum_k 2^(log2_w + r*log2_p) ), max-shifted so the largest
    # term is 2^0 and the sum never overflows. One temporary, updated in
    # place (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41, 2021).
    t = np.multiply(log2_p, r)
    t += log2_w
    m = float(np.max(t))
    t -= m
    np.exp2(t, out=t)
    return m + float(np.log2(np.sum(t)))


def _np_weighted_sum(w: np.ndarray, x: np.ndarray) -> float:
    # np.sum reduces pairwise, which is accurate enough to mirror the
    # compensated loop on the jit path.
    return float(np.sum(w * x))


def _np_outer_flatten(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.outer(a, b).ravel()


def _np_shifted_exp2_weights(t: np.ndarray) -> np.ndarray:
    w = t - np.max(t)
    np.exp2(w, out=w)
    w /= np.sum(w)
    return w


NUMPY_KERNELS = KernelSet(
    "numpy",
    _np_weighted_log2_sumexp,
    _np_weighted_sum,
    _np_outer_flatten,
    _np_shifted_exp2_weights,
)


# -- numba fast path ---------------------------------------------------

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

if HAS_NUMBA:

    @njit(cache=True)
    def _nb_weighted_log2_sumexp(log2_w, log2_p, r):
        n = log2_w.shape[0]
        m = -np.inf
        for k in range(n):
            t = log2_w[k] + r * log2_p[k]
            if t > m:
                m = t
        s = 0.0
        for k in range(n):
            s += 2.0 ** (log2_w[k] + r * log2_p[k] - m)
        return m + np.log2(s)

    @njit(cache=True)
    def _nb_weighted_sum(w, x):
        # Kahan-compensated dot product.
        s = 0.0
        comp = 0.0
        for k in range(w.shape[0]):
            y = w[k] * x[k] - comp
            t = s + y
            comp = (t - s) - y
            s = t
        return s

    @njit(cache=True)
    def _nb_outer_flatten(a, b):
        n = a.shape[0]
        m = b.shape[0]
        out = np.empty(n * m)
        for i in range(n):
            ai = a[i]
            base = i * m
            for j in range(m):
                out[base + j] = ai * b[j]
        return out

    @njit(cache=True)
    def _nb_shifted_exp2_weights(t):
        n = t.shape[0]
        m = -np.inf
        for k in range(n):
            if t[k] > m:
                m = t[k]
        out = np.empty(n)
        s = 0.0
        for k in range(n):
            v = 2.0 ** (t[k] - m)
            out[k] = v
            s += v
        for k in range(n):
            out[k] /= s
        return out

    NUMBA_KERNELS: KernelSet | None = KernelSet(
        "numba",
        _nb_weighted_log2_sumexp,
        _nb_weighted_sum,
        _nb_outer_flatten,
        _nb_shifted_exp2_weights,
    )
else:
    NUMBA_KERNELS = None


def available_backends() -> tuple[str, ...]:
    return ("numpy", "numba") if NUMBA_KERNELS is not None else ("numpy",)


def _select(name: str) -> KernelSet:
    name = name.strip().lower()
    if name in ("", "auto"):
        return NUMBA_KERNELS if NUMBA_KERNELS is not None else NUMPY_KERNELS
    if name == "numpy":
        return NUMPY_KERNELS
    if name == "numba":
        if NUMBA_KERNELS is None:
            raise RuntimeError(f"{ENV_VAR}=numba requested but numba is not importable")
        return NUMBA_KERNELS
    raise RuntimeError(f"unrecognized {ENV_VAR}={name!r}; use auto, numba or numpy")


_ACTIVE = _select(os.environ.get(ENV_VAR, "auto"))


def active_kernels() -> KernelSet:
    return _ACTIVE


def set_backend(name: str) -> KernelSet:
    """Rebind the active kernel set; returns the new one."""
    global _ACTIVE
    _ACTIVE = _select(name)
    return _ACTIVE
