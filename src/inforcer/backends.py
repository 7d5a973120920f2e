"""Numeric kernels: the per-block steps of the engine's mean, in numpy.

The engine walks a vector in blocks of at most engine._BLOCK entries and
calls one kernel step per block; each step reduces its block to a
partial that the engine combines exactly (math.fsum, and a max shift
for the log-sum-exps), so a vector of one block gets the kernel's own
result. The block size is a fixed constant, not a setting.

A block's sum takes one of two compositions of these kernels, chosen
by engine._walk from the block's magnitudes:
- the log-sum-exp, weighted_log2_sumexp over log2 weights, for self
  weights at tau*lambda != 1, escort rules, and any block whose linear
  sum leaves [2^-969, 2^969];
- the linear sum sum_k w_k p_k^a over weights w as they are:
  weighted_sum(w, p) alone at a = 1, and else shifted_exp2_weights(a *
  log2 p) then weighted_sum(w, .), which needs no log2 of w.
shifted_exp2_weights also gives a rule's log-sum-exp denominator, and
weighted_sum the lambda = 0 mean.

Callers reach the kernels through active_kernels() rather than by
name. That one call is the seam a tracer swaps out to time each kernel
inside real operations, without touching the callers; every per-entry
exp2 the engine takes runs in a kernel here.

Kernels assume validated input: 1-d float64 arrays, no NaNs, weights
already restricted to their active (nonzero) support. Each writes its
temporaries into the caller's buffer out, as long as its inputs (None
lets numpy allocate them), and leaves its inputs alone unless out is
one of them. Validation stays in the calling layer so the kernels run
branch-free math.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class KernelSet:
    weighted_log2_sumexp: Callable[[np.ndarray, np.ndarray, float, np.ndarray], tuple[float, float]]
    weighted_sum: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    outer_flatten: Callable[..., np.ndarray]
    shifted_exp2_weights: Callable[[np.ndarray, np.ndarray], tuple[float, float]]


def _np_weighted_log2_sumexp(log2_w: np.ndarray, log2_p: np.ndarray, r: float, out: np.ndarray) -> tuple:
    # (m, s) with log2( sum_k 2^(log2_w + r*log2_p) ) = m + log2 s,
    # max-shifted so the largest term is 2^0 and s never overflows
    # (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41, 2021).
    t = np.multiply(log2_p, r, out=out)
    t += log2_w
    m = float(np.maximum.reduce(t))
    t -= m
    np.exp2(t, out=t)
    return m, float(np.add.reduce(t))


def _np_weighted_sum(w: np.ndarray, x: np.ndarray, out: np.ndarray) -> float:
    # np.add.reduce sums pairwise.
    return float(np.add.reduce(np.multiply(w, x, out=out)))


def _np_outer_flatten(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # the row-major products a_i * b_j, written into out when it is given
    if out is None:
        return np.outer(a, b).ravel()
    np.outer(a, b, out=out.reshape(a.size, b.size))
    return out


def _np_shifted_exp2_weights(t: np.ndarray, out: np.ndarray) -> tuple:
    # out = 2^(t - m) with m = max t, so log2 sum_k 2^t_k = m + log2 s
    # for the returned (m, s).
    m = float(np.maximum.reduce(t))
    np.subtract(t, m, out=out)
    np.exp2(out, out=out)
    return m, float(np.add.reduce(out))


_KERNELS = KernelSet(
    _np_weighted_log2_sumexp,
    _np_weighted_sum,
    _np_outer_flatten,
    _np_shifted_exp2_weights,
)


def active_kernels() -> KernelSet:
    return _KERNELS
