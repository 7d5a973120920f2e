"""Core evaluation engine.

Every measure in this package is h applied to a quasi-linear mean of
elementary exponents:

    X(U, P) = sum_k u_k * tau * log2(p_k)                    lambda = 0
    X(U, P) = (1/lambda) * log2( sum_k u_k * p_k^(tau*lambda) )   else

with tau < 0, weights U on the simplex, and the convention that a zero
weight annihilates its term no matter what p_k is. Every lambda != 0
sum is taken with a max shift, so exponents tau*lambda*log2(p) of
hundreds are exact to working precision instead of overflowing.

The mean is one pass over memory: _walk, the one place that produces
its blocks, goes over the support in blocks of _BLOCK entries and takes
only inner means, sum_k u_k log2 p_k or log2 sum_k u_k p_k^r. These
depend on a point only through r = tau*lambda, and not at all at lambda
= 0, so a walk takes each distinct r once with one kernel step per block
(backends), while the block is in cache; tau (or 1/lambda) and h act
after it, per point. The partials combine exactly, with math.fsum and,
for the log-sum-exps, a shift by the largest block maximum (Milakov &
Gimelshein, arXiv:1805.02867), so a vector of one block gets its
kernel's own result. Escort, utility and tilted rules come as
core.Log2Weights where core.resolve_log2_weights finds that their log2
weights g can stand for them. Their mean is a ratio of two sums over
2^g, so no weight is built, divided or lost to underflow. _BLOCK is a
constant, not a setting.
verify_composability walks a product P*Q (and U*V) of several blocks
the same way (_Product): each block is written once from the two
factors, as fl(p_i * q_j) in the built product's block partition, and
summed as it is written.

Which kernel a block's sum takes is chosen in _walk alone. At n = 10^6
the per-entry log2 and exp2 are the cost, not the passes over memory,
so where weights enter the sum as they are (external weights, the
utilities of a utility rule, the u of a tilted rule, and self weights
at tau*lambda = 1) the block's sum is linear, sum_k w_k p_k^a. Past
one block that takes one exp2 per entry and no log2 of w, and at a = 1
(a tilted rule's sum_k u_k p_k) neither; on a vector of one block only
self and external weights at tau*lambda = 1 take it (onicescu, renyi at
alpha = 2), where the walk then takes no log2 at all. It is kept where
it lies in [2^-969, 2^969], the range registry._Sums keeps a plain sum
in: no term overflows there, and terms that underflow cost under 2^-90
of it (the max-shift argument of Blanchard, Higham & Higham, IMA J.
Numer. Anal. 41, 2021). Any other block is redone as a log-sum-exp over
the log2 weights, which every other sum takes: self weights at any
other r and escort rules, whose linear form costs the same exp2, and
lambda = 0.

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
    SAFE_EXPONENT,
    Distribution,
    Log2Weights,
    _NO_GUARD,
    as_distribution,
    as_weight_vector,
    check_length,
    check_sum,
    direct_product,
    resolve_log2_weights,
    weight_product,
)
from .errors import ConstraintViolation, DegenerateWeights, DomainError, InforcerError, Overflow


_LINEAR = GeneratorH.linear(1.0)


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
            h = _LINEAR if params.e == 0.0 else GeneratorH.exp_info(params.c, params.e)
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


# Entries per block: three float64 buffers of this length (768 KiB) fit
# in a core's L2 cache.
_BLOCK = 2**15
# |lambda| up to which the mean is the lambda = 0 weighted sum
_LAM0 = 1e-8


def _span(a: np.ndarray, lo: int) -> np.ndarray:
    """Entries lo .. lo + _BLOCK - 1 of a: a itself when it is one block."""
    return a if a.size <= _BLOCK else a[lo:lo + _BLOCK]


def _head(buf: np.ndarray | None, k: int) -> np.ndarray | None:
    """The first k entries of a buffer: the buffer itself when k fills
    it, and None (numpy allocates the output) without buffers."""
    return buf if buf is None or k == buf.size else buf[:k]


def _take(a: np.ndarray, idx: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """a[idx] written into buf. A gather by index runs several times
    faster than np.compress on a scattered mask; mode="clip" spares the
    copy numpy makes of out under mode="raise", and idx is in range."""
    return np.take(a, idx, out=_head(buf, idx.size), mode="clip")


def _linear_block(w, d, lam0: bool, bufs: np.ndarray, lo: int):
    """[u, log2 p, log2 u] for the block of entries from lo, on the
    support of weights w that sum to 1 over all blocks together, written
    into bufs[0] and bufs[1]; None if no entry of the block is active.
    u is None at lambda != 0; log2 u is None at lambda = 0 and for self
    weights, whose log2 u is log2 p. w and d are validated vectors, or
    both _Product, whose block is written into its own buffer first.

    Zero weights are masked out, except at lambda = 0 over a strictly
    positive p, where 0 * log2 p is exactly 0.
    """
    if type(d) is _Product:
        same = w is d
        pb = d.block(lo)
        ub = pb if same else w.block(lo)
    else:
        u, p = w.values, d.values
        same = u is p
        ub, pb = (u, p) if p.size <= _BLOCK else (u[lo:lo + _BLOCK], p[lo:lo + _BLOCK])
    if not (d._positive and (lam0 or w._positive)):
        idx = np.flatnonzero(ub > 0.0)
        if not idx.size:
            return None
        ub = _take(ub, idx, bufs[0])
        pb = ub if same else _take(pb, idx, bufs[1])
        # self weights: the mask above left no zero of p
        if not (same or d._positive) and (pb <= 0.0).any():
            raise DomainError("zero probability carries nonzero weight")
    x = np.log2(pb, out=_head(bufs[1], pb.size))
    if lam0 or same:
        return ub if lam0 else None, x, None
    return None, x, np.log2(ub, out=_head(bufs[0], ub.size))


def _rule_block(w: Log2Weights, d: Distribution, lam0: bool, bufs: np.ndarray, lo: int):
    """[None, log2 p, g] for the block of entries from lo, g the
    unnormalized log2 weights of rule w over d (core.Log2Weights), in
    bufs[1] and bufs[0] with bufs[2] as scratch; None if no entry of the
    block has weight. Only exact zeros of weight are masked out, so no g
    is -inf: the zeros of p (beta is > 0 there, see
    Log2Weights.in_log2_domain), and those of a tilted rule's u.
    """
    ubuf, xbuf, tbuf = bufs
    beta, v = w.beta, w.extra  # v: the utilities, or a tilted rule's u
    pb = _span(d.values, lo)
    vb = None if v is None else _span(v.values, lo)
    if v is None or v._positive:
        keep = None if d._positive else pb
    else:
        keep = vb if d._positive else np.minimum(vb, pb, out=_head(tbuf, pb.size))
    idx = None
    if keep is not None:
        idx = np.flatnonzero(keep > 0.0)
        if not idx.size:
            return None
        pb = _take(pb, idx, xbuf)
    k = pb.size
    x = np.log2(pb, out=_head(xbuf, k))
    if beta is None:  # tilted: log2 u + log2 p, never log2(u * p), which underflows
        g = np.log2(vb if idx is None else _take(vb, idx, ubuf), out=_head(ubuf, k))
        g += x
        return None, x, g
    if type(beta) is not float:  # one exponent per entry
        beta = _span(beta, lo) if idx is None else _take(_span(beta, lo), idx, tbuf)
    g = np.multiply(x, beta, out=_head(ubuf, k))
    if v is not None:
        g += np.log2(vb if idx is None else _take(vb, idx, tbuf), out=_head(tbuf, k))
    return None, x, g


def _shifted_sum(parts) -> tuple:
    """(top, S) with sum_b 2^m_b * s_b = 2^top * S over block partials
    (m, s): shifted by the largest m and added with math.fsum."""
    if len(parts) == 1:
        return parts[0]
    top = max(m for m, _ in parts)
    return top, math.fsum(s * 2.0 ** (m - top) for m, s in parts)


class _Product:
    """The row-major direct product of two validated simplex vectors, in
    core.direct_product's order, walked and never built: block(lo)
    writes the entries lo .. lo + _BLOCK - 1, each the same fl(a_i *
    b_j), into a buffer of one block that the next call overwrites, and
    sums the block the first time it writes it.

    The product is strictly positive when fl(min a * min b) > 0: rounding
    is monotone, so that is its least entry, 0 where products underflow.
    """

    __slots__ = ("a", "b", "size", "_positive", "_buf", "_sums")

    def __init__(self, first, second) -> None:
        a, b = first.values, second.values
        self.a, self.b, self.size = a, b, a.size * b.size
        self._positive = float(np.minimum.reduce(a)) * float(np.minimum.reduce(b)) > 0.0
        self._buf = np.empty(_BLOCK)
        self._sums: list = []

    def block(self, lo: int) -> np.ndarray:
        a, b = self.a, self.b
        m, n = b.size, min(_BLOCK, self.size - lo)
        out = _head(self._buf, n)
        i, j = divmod(lo, m)
        k = 0
        if j:  # the rest of row i, or as much of it as the block holds
            k = min(m - j, n)
            np.multiply(b[j:j + k], a[i], out=out[:k])
            i += 1
        rows = (n - k) // m
        if rows:
            backends.active_kernels().outer_flatten(a[i:i + rows], b, out[k:k + rows * m])
            k, i = k + rows * m, i + rows
        if k < n:  # the head of the next row
            np.multiply(b[:n - k], a[i], out=out[k:])
        if lo == len(self._sums) * _BLOCK:
            self._sums.append(float(np.add.reduce(out)))
        return out

    def check_sum(self, what: str) -> None:
        """The sum check of the built product; writes the blocks no walk reached."""
        for lo in range(len(self._sums) * _BLOCK, self.size, _BLOCK):
            self.block(lo)
        check_sum(math.fsum(self._sums), what)


# A linear block sum is kept where it lies in [_TINY, _HUGE], as
# registry._Sums keeps a plain sum: no term then overflows, and up to
# 2^15 terms that underflow, each off by at most 2^-1074 (times the
# largest utility, which scales _TINY for a utility rule), cost under
# 2^-90 of it (the max-shift argument of Blanchard, Higham & Higham).
_TINY, _HUGE = 2.0**-969, 2.0**969


def _plain_block(w, d, key, bufs, lo):
    """(w, p) for the block of entries from lo: the weights a linear sum
    takes as they are (external weights, d itself, utilities, or a
    tilted rule's u; a _Product of d's shape for verify_composability)
    and p. With key None, the block itself: a zero weight adds an exact
    0 to the sum. Otherwise only the entries where key > 0 remain,
    written into bufs[0] and bufs[1], because log2 p is -inf at a zero
    of p: "u" keeps the nonzero weights and raises DomainError at a zero
    of p among them, "p" the nonzero p, "up" the entries where both are
    nonzero. None if no entry remains."""
    if type(d) is _Product:
        pb = d.block(lo)
        wb = pb if w is d else w.block(lo)
    else:
        pb, wb = _span(d.values, lo), _span(w.values, lo)
    if key is None:
        return wb, pb
    k = pb if key == "p" else wb if key == "u" else np.minimum(wb, pb, out=_head(bufs[1], pb.size))
    idx = np.flatnonzero(k > 0.0)
    if not idx.size:
        return None
    pb = _take(pb, idx, bufs[1])
    if key == "u" and (pb <= 0.0).any():
        raise DomainError("zero probability carries nonzero weight")
    return _take(wb, idx, bufs[0]), pb


def _linear_sum(kern, w, p, x, a: float, buf) -> tuple:
    """(m, s) with sum_k w_k p_k^a = 2^m * s over one block: the plain
    sum_k w_k p_k at a = 1, else sum_k w_k 2^(a x_k - m) with x = log2 p
    and m = max_k a x_k, taken by the kernels, which run every exp2."""
    t = _head(buf, p.size)
    if a == 1.0:
        return 0.0, kern.weighted_sum(w, p, t)
    t = np.multiply(x, a, out=t)
    m = kern.shifted_exp2_weights(t, t)[0]
    return m, kern.weighted_sum(w, t, t)


def _view_bufs(big: bool, scratch) -> tuple:
    """The three buffers of _linear_block and _rule_block, the last the
    walk's scratch."""
    return (np.empty(_BLOCK), np.empty(_BLOCK), scratch) if big else (None, None, None)


def _walk(weights, dist, rs) -> dict:
    """The inner mean over (weights, dist) at each exponent r = tau*lambda
    of rs: log2( sum_k u_k p_k^r ), or sum_k u_k log2 p_k for the key None
    (lambda = 0), which rs then holds alone. Per r, the float or the
    InforcerError its mean raised, as a walk at that r alone gives it; a
    check every r shares raises. Each block is produced once, through
    buffers of one block allocated per call (numpy's own outputs for a
    vector of one block), and every r's kernel step runs on it in turn.
    A rule's mean is a ratio over its log2 weights g: log2 sum 2^(g + r
    log2 p) - log2 sum 2^g, or sum 2^g log2 p / sum 2^g; per block, one
    denominator partial serves every r.

    Each block's sum takes one of two kernels, chosen per block and r
    from magnitudes and the vector's length, never from the other
    points of rs, so a sweep's point gets its own call's bits:
    - linear: sum_k w_k p_k^a over the block, with w the weights as they
      are (external weights, a utility rule's v, a tilted rule's u, or
      self weights at r = 1) and a = r, beta + r or 1 + r; a rule's
      denominator is the same sum at a = beta or 1. At a = 1 it is a
      product-sum, with no log2 or exp2; elsewhere _linear_sum takes it
      with one exp2 and no log2 of w. A vector of one block takes it
      only at r = 1 of self or external weights. The partial is kept
      where it lies in [_TINY, _HUGE] (_TINY times the largest utility);
      any other block is redone:
    - log-sum-exp over the log2 weights (_linear_block, _rule_block):
      self weights at r != 1, escort rules, lambda = 0, |r| or |beta|
      near SAFE_EXPONENT, utilities past 2^969, and each block that the
      linear sum refused.
    """
    lam0 = rs[0] is None
    rule = type(weights) is Log2Weights
    if type(dist) is _Product:
        d, n = dist, dist.size  # weights are a _Product of the same shape
        same = weights is d
    else:
        d = as_distribution(dist)
        n = d.values.size
        if not rule:
            # a Distribution carries values and _positive as a WeightVector does
            weights = weights if type(weights) is Distribution else as_weight_vector(weights)
            check_length(weights.values, d.values, "weights")
        same = not rule and weights.values is d.values
    if not rule and weights._positive and not d._positive:
        raise DomainError("zero probability carries nonzero weight")
    step = _rule_block if rule else _linear_block
    beta_abs = weights.beta_abs if rule else 0.0
    # a rule's kernel exponents (g - m) + r log2 p span (2|r| + 4|beta|) *
    # 1074 and a little more: past SAFE_EXPONENT a term may fall to 2^-inf
    wide = rule and not lam0 and 2.0 * max(map(abs, rs)) + 4.0 * beta_abs > SAFE_EXPONENT
    # g itself spans past SAFE_EXPONENT only for escort exponents of both
    # signs; g - max g then falls to -inf, whose 2^-inf = 0 is exact
    wide_g = rule and weights.spread > SAFE_EXPONENT
    big = n > _BLOCK
    # Per r, the exponent a = b + r of its linear sum sum_k w_k p_k^a, or
    # None for the log-sum-exp; w enters as it is. At a = 1 the sum is a
    # product-sum. Elsewhere it costs an exp2 and one pass more than the
    # log-sum-exp and saves the log2 of w, which pays only past one
    # block, and never for self weights, whose log2 is log2 p. So lambda
    # = 0 and escort rules take none, self weights take one only at r = 1,
    # and a vector of one block only at r = 1 of self or external weights,
    # where the walk then needs no log2 at all.
    routes = None
    if not (lam0 or (rule and weights.kind == "escort")) and (big and not same or not rule and 1.0 in rs):
        lin = weights.extra if rule else weights
        b = (1.0 if weights.beta is None else weights.beta) if rule else 0.0
        routes = [b + r if (b + r == 1.0 or (big and not same)) and 2.0 * abs(r) + 4.0 * beta_abs <= SAFE_EXPONENT
                  else None for r in rs]
        den_lin = rule
        floor = _TINY
        if not (den_lin or routes.count(None) < len(rs)):
            routes = None
        elif rule and weights.kind == "utility":
            # an exp2 that underflows is off by 2^-1074 times its utility
            floor *= max(1.0, float(np.maximum.reduce(lin.values)))
            if floor > 1.0:  # past 2^969 a block's sum could overflow
                routes = None
    key = None
    if routes is None:
        live = [(r, [], None) for r in rs]
        linear = den_lin = need_x = False
        view_first = True
    else:
        live = [(r, [], a) for r, a in zip(rs, routes)]
        linear, view_first = True, None in routes
        need_x = (den_lin and b != 1.0) or routes.count(None) + routes.count(1.0) < len(rs)
        if not (d._positive or same):  # log2 p = -inf at a zero of p
            key = "u" if not rule else "up" if weights.beta is None else "p"
    # One array per call holds every buffer of one block the walk uses: the
    # log-sum-exp's two, the scratch, and the linear sum's masked w and p
    # and its log2 p; allocated apart, they made a 10^6-entry verify walk
    # about 5 % slower. A vector of one block reuses nothing, so numpy
    # allocates its arrays.
    scratch = vbufs = None
    lbufs = (None,) * 3
    if big:
        k = 2 if view_first else 0
        bufs = np.empty((k + 1 + (3 if key else 1 if need_x else 0), _BLOCK))
        scratch, lbufs = bufs[k], bufs[k + 1:]
        if view_first:
            vbufs = bufs[0], bufs[1], scratch
    elif view_first:
        vbufs = lbufs
    kern = backends.active_kernels()
    out = {}
    dens = []  # a rule's denominator partials (m, s)
    for lo in range(0, n, _BLOCK):
        if not live:
            break
        view = tv = None  # the block's log2 view, and its kernels' output
        try:
            if linear:
                block = _plain_block(lin, d, key, lbufs, lo)
                if block is None:
                    continue
                ub, pb = block
                x = np.log2(pb, out=_head(lbufs[-1], pb.size)) if need_x else None
            if view_first:
                view = step(weights, d, lam0, vbufs, lo)
                if view is None:
                    continue
        except InforcerError as err:
            for r, _, _ in live:
                out[r] = err
            return out
        if rule:
            den = None
            if den_lin:
                den = _linear_sum(kern, ub, pb, x, b, scratch)
            if den is None or not floor <= den[1] <= _HUGE:
                if view is None:
                    vbufs = vbufs or _view_bufs(big, scratch)
                    view = step(weights, d, lam0, vbufs, lo)
                    if view is None:
                        continue
                g = view[2]
                tv = _head(scratch, g.size) if big else np.empty(g.size)
                with np.errstate(over="ignore") if wide_g else _NO_GUARD:
                    den = kern.shifted_exp2_weights(g, tv)
                    if not lam0:  # the numerator's g, shifted as the denominator
                        g -= den[0]
                if lam0:  # 2^(g - m): the weights of the lambda = 0 mean
                    view = tv, view[1], g
            elif view is not None:  # built for a log-sum-exp route
                g = view[2]
                g -= den[0]
            dens.append(den)
        for mean in tuple(live):
            r, parts, a = mean
            if a is not None:
                m, s = _linear_sum(kern, ub, pb, x, a, scratch)
                if floor <= s <= _HUGE:
                    parts.append((m - den[0], s) if rule else (m, s))
                    continue
                if view is None:  # redo the block as a log-sum-exp
                    vbufs = vbufs or _view_bufs(big, scratch)
                    view = step(weights, d, lam0, vbufs, lo)
                    if view is None:
                        continue
                    if rule:
                        g = view[2]
                        g -= den[0]
            u, xv, g = view
            if tv is None:  # a rule's block of one vector allocates once for every r
                tv = _head(scratch, xv.size) if big or not rule else np.empty(xv.size)
            t = tv
            if lam0:
                parts.append(kern.weighted_sum(u, xv, t))
            # r * log2 p can overflow only past SAFE_EXPONENT, and the
            # most negative log2 p gives the largest |r * log2 p|
            elif abs(r) > SAFE_EXPONENT and math.isinf(r * float(np.minimum.reduce(xv))):
                out[r] = Overflow(f"tau*lambda = {r!r} is too large: tau*lambda*log2(p) leaves the double range")
                live.remove(mean)
            elif not wide:
                parts.append(kern.weighted_log2_sumexp(xv if g is None else g, xv, r, t))
            else:
                with np.errstate(over="ignore"):
                    parts.append(kern.weighted_log2_sumexp(g, xv, r, t))
    # the denominator: a rule's total weight 2^top * total; other weights sum to 1
    top, total = _shifted_sum(dens) if dens else (0.0, 1.0)
    for r, parts, _ in live:
        if not parts:
            out[r] = DegenerateWeights("all weights are zero")
        elif lam0:
            if rule:  # each partial counts in units of its block's 2^m of weight
                parts = [a * 2.0 ** (m - top) for a, (m, _) in zip(parts, dens)]
            out[r] = math.fsum(parts) / total
        else:
            if rule:
                parts = [(a + (m - top), s) for (a, s), (m, _) in zip(parts, dens)]
            m, s = _shifted_sum(parts)
            out[r] = m + float(np.log2(s / total))
    return out


def quasi_mean_exponent(weights, dist, tau: float, lam: float) -> float:
    """The inner mean X(U, P) before the generator is applied:

        X = tau * sum_k u_k log2 p_k                 |lambda| <= 1e-8
        X = log2( sum_k u_k p_k^(tau*lambda) ) / lambda      otherwise

    weights may be a weight vector, or the Log2Weights of a rule over
    dist in the log2 domain (core.resolve_log2_weights chooses that
    form); verify_composability passes a _Product of several blocks as
    dist, with weights the same _Product or one of its shape. The mean
    is _walk at one exponent.
    """
    r = None if abs(lam) <= _LAM0 else tau * lam
    m = _walk(weights, dist, (r,))[r]
    if isinstance(m, InforcerError):
        raise m
    return tau * m if r is None else m / lam


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


def inforcer_measures(weights, dist, run: list, out: list) -> None:
    """out[i] = inforcer_measure(weights, dist, mp), or the InforcerError
    it raises with no traceback, for each (i, mp) of run. Each inner
    mean is taken once: the points at lambda = 0 share one sum_k u_k
    log2 p_k, and the others one walk that takes each distinct tau*lambda
    once; tau (or 1/lambda) and h then act per point."""
    keys = [None if abs(mp.lam) <= _LAM0 else mp.tau * mp.lam for _, mp in run]
    means: dict = {}
    for lam0 in (True, False):
        rs = tuple(dict.fromkeys(r for r in keys if (r is None) is lam0))
        if rs:
            try:
                means.update(_walk(weights, dist, rs))
            except InforcerError as err:  # a check every point shares
                means.update(dict.fromkeys(rs, err))
    for (i, mp), r in zip(run, keys):
        x = means[r]
        if not isinstance(x, InforcerError):
            try:
                x = apply_h(mp.generator, mp.tau * x if r is None else x / mp.lam)
            except InforcerError as err:
                x = err
        out[i] = x.with_traceback(None) if isinstance(x, InforcerError) else x


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
    ("utility", beta, V), ("external", U) or ("tilted", U).
    """
    d = as_distribution(dist)
    w = resolve_log2_weights(d, weight_rule)
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

    A product of one block is built (direct_product, weight_product). A
    larger one is walked and never built: its mean is the built
    product's, bit for bit, and it is checked as building it would check
    it, P*Q's sum, then U*V's (math.fsum of the block sums the walk
    took), then any error the mean raised.
    """
    mp = MeasureParams.of(kind, params)
    op = op_for_generator(mp.generator)
    u = as_weight_vector(first_weights)
    v = as_weight_vector(second_weights)
    p = as_distribution(first_dist)
    q = as_distribution(second_dist)
    m1 = inforcer_measure(u, p, mp)
    m2 = inforcer_measure(v, q, mp)
    # self weights: the product of the weights is P*Q itself
    same = u.values is p.values and v.values is q.values
    if p.values.size * q.values.size <= _BLOCK:
        pq = direct_product(p, q)
        uv = as_weight_vector(pq) if same else weight_product(u, v)
        lhs = inforcer_measure(uv, pq, mp)
    else:
        pq = _Product(p, q)
        uv = pq if same else _Product(u, v)
        try:
            lhs = inforcer_measure(uv, pq, mp)
        except InforcerError as err:
            lhs = err  # held until the sums are checked
        pq.check_sum("distribution")
        if uv is not pq:
            uv.check_sum("weights")
        if isinstance(lhs, InforcerError):
            raise lhs
    rhs = compose(op, m1, m2)
    return VerificationReport.from_comparison(lhs, rhs, tolerance)
