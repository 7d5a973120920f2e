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

Every weight rule is one pair (beta, w), with weights u_k ~ w_k p_k^beta:
self weights are (0, p), external weights (0, u), an escort rule (beta,
1), a utility rule (beta, v) and a tilted rule (1, u). One function,
_block, produces a block of any pair: it masks and gathers the block
once, by a key _walk fixes per route, and gives the linear sum's (w, p)
or the log2 view x = log2 p with the log2 weights g = beta x + log2 w.
A log2 view masks the zeros of its weights, those of w ("w") and, where
beta > 0, those of p ("p", or "wp" for both), but reads a strictly
positive p whole at lambda = 0, where a zero weight's 0 * log2 p is an
exact 0. A linear sum reads its block whole (a zero weight adds an
exact 0), except over a p with zeros where w is not p itself: there it
takes its view's key. The entries a pairwise sum adds fix its bits, so
each route keeps these keys.
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

A walk at one exponent over several blocks (not a sweep's, nor a
_Product's) runs on two workers where this process may use two CPUs:
the calling thread takes the blocks before the block boundary nearest
n / 2, and one daemon thread, started by the first such walk, the rest
(a walk of under two blocks stays on one thread); numpy releases the
GIL inside each step. Every block's partial is the one a single worker
takes, and the halves join in block order before the exact combination
above, so every value is the same bit for bit. A share that meets an
error, or raises, makes the walk run again on one worker, which gives
the first error in block order. Both workers' rows of one block lie in
the one array a walk allocates, and a route splits only where a worker
needs at most two blocks, its rows and a masked block's gather index
counted together: a split walk holds four blocks at most, the budget of
a walk on one worker. There is no setting.

A family name and its (tau, lambda, c, e) resolve once, through
MeasureParams.of, to one (tau, lambda, h): information and inaccuracy
take (2^(c*x)-1)/e (e = 0 meaning the linear x itself), certainty takes
2^(-c*x)/e. The generator also fixes the composition law
(op_for_generator). inaccuracy(), certainty() and entropy() are thin
wrappers over inforcer_measure().
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
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


def _support(a: np.ndarray, buf) -> np.ndarray:
    """The indices of a's nonzero entries, its mask written over buf's
    bytes when buf is given."""
    return np.flatnonzero(np.greater(a, 0.0, out=None if buf is None else buf.view(np.bool_)[:a.size]))


def _spare(idx: np.ndarray):
    """A gather's index, dead once gathered, as a float64 buffer of its
    length; None where an index is not 8 bytes."""
    return idx.view(np.float64) if idx.itemsize == 8 else None


def _take(a: np.ndarray, idx: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """a[idx] written into buf. A gather by index runs several times
    faster than np.compress on a scattered mask; mode="clip" spares the
    copy numpy makes of out under mode="raise", and idx is in range."""
    return np.take(a, idx, out=_head(buf, idx.size), mode="clip")


def _block(w, d, key, bufs, lo: int, beta=None, view: bool = False):
    """The block of entries from lo of the pair (beta, w) over d, or None
    if the key leaves no entry. w is d for self weights and None for an
    escort rule's 1; w and d are validated vectors, or both _Product,
    which writes its block into its own buffer.

    Key None reads the block as it is; "w", "p" or "wp" keep only the
    entries where w, p or both are nonzero, gathered into bufs[0] and
    bufs[1] over the mask's bytes. Key "w" over a p with zeros raises
    DomainError at a zero of p that w weighs.

    Without view: (w, p), for a linear sum. With view: (u, x, g, spare)
    with x = log2 p in bufs[1]; for beta None u = w (lambda = 0) and g
    None, else g = beta x + log2 w in bufs[0]: x itself for self weights,
    no multiply where w is given and beta is 0 or 1, else beta x plus a
    log2 w taken in bufs[2] (a tilted rule's g is log2 u + log2 p, never
    log2(u p), which underflows). A masked block's gather index, dead
    once gathered, serves as the first of the rows x and g that is None,
    and is otherwise returned as spare (None if there is none).
    """
    same = w is d
    if type(d) is _Product:
        pb = d.block(lo)
        wb = pb if same else w.block(lo)
    else:
        pb = _span(d.values, lo)
        wb = pb if same else w if w is None else _span(w.values, lo)
    # g takes beta x: escort rules, and any other beta but 0 and 1
    scaled = view and beta is not None and (wb is None or type(beta) is not float or beta not in (0.0, 1.0))
    spare = None
    if key is not None:
        k = wb if key == "w" else pb if key == "p" else np.minimum(wb, pb, out=_head(bufs[1], pb.size))
        idx = _support(k, bufs[1] if bufs[0] is None else bufs[0])
        if not idx.size:
            return None
        pb = _take(pb, idx, bufs[0] if same else bufs[1])
        if same:
            wb = pb
        elif key == "w" and not d._positive and (pb <= 0.0).any():
            raise DomainError("zero probability carries nonzero weight")
        elif wb is not None:
            wb = _take(wb, idx, bufs[2] if scaled else bufs[0])
        spare = _spare(idx)
    if scaled and type(beta) is not float:  # one exponent per entry, multiplied in place
        beta = _span(beta, lo) if key is None else _take(_span(beta, lo), idx, bufs[0])
    if not view:
        return wb, pb
    k = pb.size
    out = _head(bufs[1], k)
    if spare is not None and out is None:
        out, spare = spare, None
    x = np.log2(pb, out=out)
    if beta is None:
        return wb, x, None, spare
    if not scaled:
        g = x if same else np.log2(wb, out=_head(bufs[0], k))
        if beta:
            g += x
        return None, x, g, spare
    out = _head(bufs[0], k)
    if spare is not None and out is None:
        out, spare = spare, None
    g = np.multiply(x, beta, out=out)
    if wb is not None:
        g += np.log2(wb, out=_head(bufs[2], k))
    return None, x, g, spare


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


def _redo_rows(vbufs, st, big: bool) -> tuple:
    """(vbufs, st) for the log2 view of a block the linear sum refused:
    three rows of the worker's own where the walk allocated the view none
    (numpy allocates for a vector of one block)."""
    if not big or vbufs[1] is not None:
        return vbufs, st
    rows = tuple(np.empty((3, _BLOCK)))
    return rows, rows[2]


def _rows(names, workers: int) -> list:
    """Per worker, a row of one block for each role's name, or None for
    None: roles of one name share a row, and one array per call holds
    every worker's rows. Allocated apart, the rows made a 10^6-entry
    verify walk about 5 % slower; allocated per thread, they overlap in
    time or not, so a walk's peak memory would vary from call to call."""
    distinct = list(dict.fromkeys(filter(None, names)))
    return [tuple(None if name is None else rows[distinct.index(name)] for name in names)
            for rows in np.empty((workers, len(distinct), _BLOCK))]


# Workers of a walk: 2 where this process may run on 2 CPUs. The second
# is one daemon thread, started by the first walk that splits.
_WORKERS = 2 if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2 else 1


class _Worker:
    """A daemon thread that runs one share of a walk at a time: hand()
    gives it a function to run under the caller's context (np.errstate
    lives there), wait() returns the function's result, or None if it
    raised; the caller then walks again on one worker, which raises the
    error itself. A worker that is dropped ends after its job. Starting
    a thread per walk instead cost about 130 us a walk on a 2-vCPU VM,
    as much as the whole of a walk of two blocks."""

    def __init__(self) -> None:
        self._todo, self._done = threading.Lock(), threading.Lock()
        self._todo.acquire()
        self._done.acquire()
        self._job = self._result = None
        self.dropped = False
        self.thread = threading.Thread(target=self._serve, name="inforcer-walk", daemon=True)
        self.thread.start()

    def hand(self, fn, *args) -> None:
        self._job = contextvars.copy_context(), fn, args
        self._todo.release()

    def wait(self):
        self._done.acquire()
        result, self._result = self._result, None
        return result

    def _serve(self) -> None:
        while not self.dropped:
            self._todo.acquire()
            ctx, fn, args = self._job
            self._job = None
            try:
                self._result = ctx.run(fn, *args)
            except Exception:  # reported as None; the walk on one worker raises it
                self._result = None
            finally:
                self._done.release()


_worker = None  # the idle worker; None before the first split and while a walk holds it
_worker_lock = threading.Lock()  # held by the walk that uses _worker


def _forget_worker() -> None:
    """After a fork, in the child, which has no worker thread."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _split(plan, n: int, rows):
    """_share's (out, live, dens) of plan over the blocks of n >= 2 *
    _BLOCK entries: the blocks before the block boundary nearest n / 2 on
    this thread and the rest on the worker at once, joined in block
    order. None if another walk holds the
    worker, or if either share raised or met an error: the caller then
    walks again on one worker. A walk that is interrupted drops the
    worker, which would otherwise leave its result for the next walk to
    read as its own; the next walk starts another."""
    global _worker
    if not _worker_lock.acquire(blocking=False):
        return None
    try:
        mid = round(n / (2 * _BLOCK)) * _BLOCK
        worker, _worker = _worker or _Worker(), None
        try:
            worker.hand(_share, plan, range(mid, n, _BLOCK), rows[1])
            try:
                first = _share(plan, range(0, mid, _BLOCK), rows[0])
            except Exception:
                first = None
            second = worker.wait()
        except BaseException:
            worker.dropped = True
            raise
        _worker = worker
    finally:
        _worker_lock.release()
    if first is None or second is None or first[0] or second[0]:
        return None
    (_, live, dens), (_, rest, more) = first, second
    return {}, [(r, parts + later, a) for (r, parts, a), (_, later, _) in zip(live, rest)], dens + more


def _share(plan, los, bufs) -> tuple:
    """(out, live, dens) of a walk's plan (_walk) over the blocks from each
    lo of los, through bufs, a worker's rows: the errors so far, each
    live r's partials, and a rule's denominator partials (m, s)."""
    w, d, beta, rs, lam0, rule, kern, big, wide, wide_g, routes, floor, key, vkey, view_first, need_x, t_is_x = plan
    vu, vx, vt, st, lw, lp, lx, ls, lt = bufs
    vbufs = vu, vx, vt
    linear = routes is not None
    live = [(r, [], a) for r, a in zip(rs, routes)] if linear else [(r, [], None) for r in rs]
    out, dens = {}, []
    for lo in los:
        if not live:
            break
        # the block's log2 view and its kernels' output; dropping the
        # last block's frees a gather's index before the next is taken
        view = tv = u = xv = g = spare = None
        try:
            if linear:
                block = _block(w, d, key, (lw, lp), lo)
                if block is None:
                    continue
                ub, pb = block
                x = np.log2(pb, out=_head(lx, pb.size)) if need_x else None
            if view_first:
                view = _block(w, d, vkey, vbufs, lo, beta, True)
                if view is None:
                    continue
        except InforcerError as err:
            for r, _, _ in live:
                out[r] = err
            return out, [], dens
        if rule:
            den = _linear_sum(kern, ub, pb, x, beta, ls) if linear else None
            if den is None or not floor <= den[1] <= _HUGE:
                if view is None:
                    vbufs, st = _redo_rows(vbufs, st, big)
                    view = _block(w, d, vkey, vbufs, lo, beta, True)
                    if view is None:
                        continue
                g = view[2]
                with np.errstate(over="ignore") if wide_g else _NO_GUARD:
                    if lam0:  # g becomes 2^(g - m), the weights of the lambda = 0 mean
                        den = kern.shifted_exp2_weights(g, g)
                        view = g, view[1], g, None
                    elif big:  # g - m now, and sum 2^(g - m) over g after the numerators: no row
                        den = float(np.maximum.reduce(g)), None
                        g -= den[0]
                    else:
                        tv = np.empty(g.size)  # one vector's block allocates once for every r
                        den = kern.shifted_exp2_weights(g, tv)
                        g -= den[0]
            elif view is not None:  # built for a log-sum-exp route
                g = view[2]
                g -= den[0]
            dens.append(den)
        for mean in tuple(live):
            r, parts, a = mean
            if a is not None:
                m, s = _linear_sum(kern, ub, pb, x, a, lt)
                if floor <= s <= _HUGE:
                    parts.append((m - den[0], s) if rule else (m, s))
                    continue
                if view is None:  # redo the block as a log-sum-exp
                    vbufs, st = _redo_rows(vbufs, st, big)
                    view = _block(w, d, vkey, vbufs, lo, beta, True)
                    if view is None:
                        continue
                    if rule:
                        g = view[2]
                        g -= den[0]
            u, xv, g, spare = view
            if tv is None:
                tv = xv if t_is_x else spare if spare is not None else _head(st, xv.size)
            if lam0:
                parts.append(kern.weighted_sum(u, xv, tv))
            # r * log2 p can overflow only past SAFE_EXPONENT, and the
            # most negative log2 p gives the largest |r * log2 p|
            elif abs(r) > SAFE_EXPONENT and math.isinf(r * float(np.minimum.reduce(xv))):
                out[r] = Overflow(f"tau*lambda = {r!r} is too large: tau*lambda*log2(p) leaves the double range")
                live.remove(mean)
            elif not wide:
                parts.append(kern.weighted_log2_sumexp(g, xv, r, tv))
            else:
                with np.errstate(over="ignore"):
                    parts.append(kern.weighted_log2_sumexp(g, xv, r, tv))
        if rule and den[1] is None:  # g - m is left intact by the numerators
            dens[-1] = den[0], kern.shifted_exp2_weights(g, g)[1]
    return out, live, dens


def _walk(weights, dist, rs) -> dict:
    """The inner mean over (weights, dist) at each exponent r = tau*lambda
    of rs: log2( sum_k u_k p_k^r ), or sum_k u_k log2 p_k for r None
    (lambda = 0), which rs then holds alone. Per r, the float or the
    InforcerError its mean raised, as a walk at that r alone gives it; a
    check every r shares raises. Each block is produced once, through
    rows of one block allocated per call (numpy's own outputs for a
    vector of one block), and every r's kernel step runs on it in turn.
    A rule's mean is a ratio over its log2 weights g: log2 sum 2^(g + r
    log2 p) - log2 sum 2^g, or sum 2^g log2 p / sum 2^g; per block, one
    denominator partial serves every r.

    Each block's sum takes one of two kernels, chosen per block and r
    from magnitudes and the vector's length, never from the other
    points of rs, so a sweep's point gets its own call's bits:
    - linear: sum_k w_k p_k^a over the block, with w the weights as they
      are (external weights, a utility rule's v, a tilted rule's u, or
      self weights at r = 1) and a = beta + r; a rule's denominator is
      the same sum at a = beta. At a = 1 it is a
      product-sum, with no log2 or exp2; elsewhere _linear_sum takes it
      with one exp2 and no log2 of w. A vector of one block takes it
      only at r = 1 of self or external weights. The partial is kept
      where it lies in [_TINY, _HUGE] (_TINY times the largest utility);
      any other block is redone, through rows of its own:
    - log-sum-exp over the log2 weights g = beta log2 p + log2 w: self
      weights at r != 1, escort rules, lambda = 0, |r| or |beta| near
      SAFE_EXPONENT, utilities past 2^969, and each block that the linear
      sum refused.

    Both take their blocks from _block, masked by one key per route:
    vkey for the log2 view, the zeros of the weights (of w, and of p
    where beta > 0) unless p is strictly positive at lambda = 0; key for
    the linear sum, None but over a p with zeros where w is not p
    itself, where it is vkey.

    The blocks run in _share. A walk at one r of two blocks or more,
    other than a _Product's, runs on _WORKERS workers where each needs at
    most two blocks, its rows and a gather's index (_split); its partials
    are the same, joined in the same order.
    """
    lam0 = rs[0] is None
    rule = type(weights) is Log2Weights
    if type(dist) is _Product:
        d, n = dist, dist.size  # weights are a _Product of the same shape
        same = weights is d
    else:
        d = as_distribution(dist)
        n = d.values.size
        if not (rule or weights is d):
            # a Distribution carries values and _positive as a WeightVector does
            weights = weights if type(weights) is Distribution else as_weight_vector(weights)
            check_length(weights.values, d.values, "weights")
        same = not rule and weights.values is d.values
    if not rule and weights._positive and not d._positive:
        raise DomainError("zero probability carries nonzero weight")
    # The pair (beta, w); at lambda = 0 self and external weights enter
    # the mean as they are (beta None)
    if rule:
        w, beta, beta_abs = weights.extra, 1.0 if weights.beta is None else weights.beta, weights.beta_abs
        wz = w is not None and not w._positive
        # a zero of weight is masked out: one of w, and one of p, where beta > 0
        vkey = ("wp" if wz else "p") if not d._positive else "w" if wz else None
    else:
        # self weights are d itself, which _block reads as one array
        w, beta, beta_abs = d if same else weights, None if lam0 else 0.0, 0.0
        # at lambda = 0 over a strictly positive p, 0 * log2 p is an exact 0
        vkey = None if d._positive and (lam0 or weights._positive) else "w"
    # a rule's kernel exponents (g - m) + r log2 p span (2|r| + 4|beta|) *
    # 1074 and a little more: past SAFE_EXPONENT a term may fall to 2^-inf
    single = len(rs) == 1
    wide = rule and not lam0 and 2.0 * (abs(rs[0]) if single else max(map(abs, rs))) + 4.0 * beta_abs > SAFE_EXPONENT
    # g itself spans past SAFE_EXPONENT only for escort exponents of both
    # signs; g - max g then falls to -inf, whose 2^-inf = 0 is exact
    wide_g = rule and weights.spread > SAFE_EXPONENT
    big = n > _BLOCK
    # Per r, the exponent a = beta + r of its linear sum sum_k w_k p_k^a,
    # or None for the log-sum-exp; w enters as it is. At a = 1 the sum is
    # a product-sum. Elsewhere it costs an exp2 and one pass more than the
    # log-sum-exp and saves the log2 of w, which pays only past one
    # block, and never for self weights, whose log2 is log2 p. So lambda
    # = 0 and escort rules take none, self weights take one only at r = 1,
    # and a vector of one block only at r = 1 of self or external weights,
    # where the walk then needs no log2 at all.
    routes = floor = None
    if not (lam0 or w is None) and (big and not same or not rule and 1.0 in rs):
        routes = [beta + r if (beta + r == 1.0 or (big and not same)) and 2.0 * abs(r) + 4.0 * beta_abs
                  <= SAFE_EXPONENT else None for r in rs]
        floor = _TINY
        if not (rule or routes.count(None) < len(rs)):
            routes = None
        elif rule and weights.kind == "utility":
            # an exp2 that underflows is off by 2^-1074 times its utility
            floor *= max(1.0, float(np.maximum.reduce(w.values)))
            if floor > 1.0:  # past 2^969 a block's sum could overflow
                routes = None
    linear = routes is not None
    view_first = not linear or None in routes
    # a rule's denominator is the linear sum at a = beta
    need_x = linear and ((rule and beta != 1.0) or routes.count(None) + routes.count(1.0) < len(rs))
    # a zero weight adds an exact 0 to a linear sum, but log2 p is -inf at
    # a zero of p
    key = None if not linear or d._positive or same else vkey
    # The log-sum-exp's kernel writes over log2 p at lambda = 0 (a product)
    # and for one r with log2 weights apart from log2 p; else into a row
    # of its own.
    t_is_x = lam0 or (single and not same)
    # Each worker's rows, by role: the log2 view's w (or g), log2 p and
    # scratch (the log2 w added to beta log2 p), the log-sum-exp's output,
    # and the linear sum's w, p, log2 p and the outputs of its denominator
    # and numerators. Roles of one name share a row, written in place
    # where the bits are the same: log2 p over the gathered p, a lone
    # linear sum's terms over log2 p (or over p at a = 1). A masked view
    # also holds its gather's index, a block at most, which then serves as
    # the row a name of None leaves out (_block).
    workers, rows = 1, [(None,) * 9]  # a vector of one block: numpy allocates
    if big:
        names = [None] * 9
        masked = view_first and vkey is not None
        if view_first:
            if rule:
                escort1 = w is None and type(beta) is float
                names[:3] = None if masked and escort1 else "vu", "vx", "vt" if weights.kind == "utility" else None
            elif lam0:
                names[:2] = "vu" if masked else "vx", None if masked and same else "vx"
            else:
                names[:2] = "vx" if same else "vu", "vx"
            names[3] = None if t_is_x or (masked and same) else "s"
        if linear:
            if key:
                names[4:6] = "w", "p"
            if need_x:  # p itself is kept where a sum at a = 1 reads it
                names[6] = "p" if key and not ((rule and beta == 1.0) or 1.0 in routes) else "x"
            if rule:
                names[7] = "s"
            lone = not rule and single
            names[8] = names[6] if lone and routes[0] != 1.0 else "p" if lone and key else "s"
        # a split walk holds at most four blocks: two per worker, a masked
        # block's gather index counted as one
        gathers = bool(key) or masked
        if single and n >= 2 * _BLOCK and type(d) is not _Product and len(set(names) - {None}) + gathers <= 2:
            workers = _WORKERS
        rows = _rows(names, workers)
    plan = (w, d, beta, rs, lam0, rule, backends.active_kernels(), big, wide, wide_g, routes, floor, key, vkey,
            view_first, need_x, t_is_x)
    out, live, dens = (workers > 1 and _split(plan, n, rows)) or _share(plan, range(0, n, _BLOCK), rows[0])
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
    """Certainty-family value 2^(-c*X)/e: positive, and 0.0 where it
    underflows, below 2^-1074."""
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
