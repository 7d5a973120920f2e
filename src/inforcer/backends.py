"""Numeric kernels: the four hot loops of the engine, in numpy.

Callers reach the kernels through active_kernels() rather than by
name. That one call is the seam a tracer swaps out to time each kernel
inside real operations, without touching the callers.

Kernels assume validated input: 1-d float64 arrays, no NaNs, weights
already restricted to their active (nonzero) support. Validation stays
in the calling layer so the kernels run branch-free math.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class KernelSet:
    weighted_log2_sumexp: Callable[[np.ndarray, np.ndarray, float], float]
    weighted_sum: Callable[[np.ndarray, np.ndarray], float]
    outer_flatten: Callable[[np.ndarray, np.ndarray], np.ndarray]
    shifted_exp2_weights: Callable[[np.ndarray], np.ndarray]


def _np_weighted_log2_sumexp(log2_w: np.ndarray, log2_p: np.ndarray, r: float) -> float:
    # log2( sum_k 2^(log2_w + r*log2_p) ), max-shifted so the largest
    # term is 2^0 and the sum never overflows. One temporary, updated in
    # place (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41, 2021).
    t = np.multiply(log2_p, r)
    t += log2_w
    m = float(np.maximum.reduce(t))
    t -= m
    np.exp2(t, out=t)
    return m + float(np.log2(np.add.reduce(t)))


def _np_weighted_sum(w: np.ndarray, x: np.ndarray) -> float:
    # np.add.reduce sums pairwise.
    return float(np.add.reduce(w * x))


def _np_outer_flatten(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.outer(a, b).ravel()


def _np_shifted_exp2_weights(t: np.ndarray) -> np.ndarray:
    w = t - np.maximum.reduce(t)
    np.exp2(w, out=w)
    w /= np.add.reduce(w)
    return w


_KERNELS = KernelSet(
    _np_weighted_log2_sumexp,
    _np_weighted_sum,
    _np_outer_flatten,
    _np_shifted_exp2_weights,
)


def active_kernels() -> KernelSet:
    return _KERNELS
