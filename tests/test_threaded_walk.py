"""A walk at one exponent over several blocks runs on two workers: the
calling thread takes the first half of the blocks and the engine's
worker thread the rest. Both give the partials one worker gives, joined
in block order, so every value is the one worker's bit for bit, and
every error is the one worker's, since a share that errs makes the walk
run again on one worker.
"""
import dataclasses
import os
import select
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from inforcer import (
    DegenerateWeights,
    DomainError,
    Overflow,
    PolyParams,
    UtilityVector,
    WeightVector,
    backends,
    engine,
    entropy,
    evaluate_named,
    make_distribution,
    verify_composability,
)
from inforcer.core import resolve_log2_weights
from _samplers import random_simplex

B = engine._BLOCK
# tau = -1 throughout: lambda 0, 0.7 and -1 give r = tau*lambda = None, -0.7 and 1
LAMS = [0.0, 0.7, -1.0]


@pytest.fixture()
def two(monkeypatch):
    """Walks split over two workers, on any machine."""
    monkeypatch.setattr(engine, "_WORKERS", 2)


@pytest.fixture()
def one(monkeypatch):
    """Run the body on one worker."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(engine, "_WORKERS", 1)
            return fn(*args, **kwargs)
    return run


@pytest.fixture()
def handoffs(monkeypatch):
    """The block ranges handed to the worker from now on."""
    ranges = []
    real = engine._Worker.hand

    def hand(self, fn, plan, los, bufs):
        ranges.append(los)
        return real(self, fn, plan, los, bufs)

    monkeypatch.setattr(engine._Worker, "hand", hand)
    return ranges


def _vectors(blocks: int, zeros: bool, seed: int = 21):
    """(P, U, V) of (blocks - 1) * B + 17 entries, the last block ragged.
    With zeros, P and U are zero together on a few entries of the
    worker's share only (the blocks from the middle on)."""
    rng = np.random.default_rng(seed)
    n = (blocks - 1) * B + 17
    p, u = random_simplex(rng, n), random_simplex(rng, n)
    if zeros:
        mid = (blocks + 1) // 2 * B
        at = mid + rng.choice(n - mid, 5, replace=False)
        p[at] = u[at] = 0.0
        p, u = p / p.sum(), u / u.sum()
    return make_distribution(p), WeightVector(u), UtilityVector(rng.uniform(0.5, 2.0, n))


def _rules(u, v):
    return {
        "self": "self",
        "escort": ("escort", 1.5),
        "utility": ("utility", 0.5, v),
        "external": ("external", u),
        "tilted": ("tilted", u),
    }


@pytest.mark.parametrize("blocks", [2, 3, 31])
@pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zeros-in-worker-share"])
@pytest.mark.parametrize("rule", ["self", "escort", "utility", "external", "tilted"])
def test_two_workers_give_one_workers_bits(rule, zeros, blocks, two, one, handoffs):
    p, u, v = _vectors(blocks, zeros)
    w = _rules(u, v)[rule]
    for lam in LAMS:
        assert entropy(p, w, lam=lam) == one(entropy, p, w, lam=lam), lam


def test_the_routes_that_fit_two_rows_split(two, handoffs):
    # every route of stream_large but a tilted rule over a masked support
    p, u, v = _vectors(3, zeros=False)
    z, _, _ = _vectors(3, zeros=True)
    for d, w, lam in [(p, "self", 0.0), (z, "self", 0.7), (z, ("escort", 1.5), 0.7),
                      (p, ("utility", 0.5, v), 0.7), (p, ("external", u), 0.0),
                      (p, ("external", u), 0.7), (p, ("tilted", u), 0.7), (z, "self", -1.0)]:
        handoffs.clear()
        entropy(d, w, lam=lam)
        assert handoffs == [range(2 * B, 2 * B + 17, B)], (w, lam)


def test_catalog_rows_on_two_workers(two, one):
    p, u, v = _vectors(3, zeros=True, seed=22)
    cases = [("shannon", {}), ("renyi", {"alpha": 3.0}), ("tsallis", {"gamma": 1.5}), ("onicescu", {}),
             ("kapur", {"alpha": 2.0, "beta": 1.5}), ("aczel_daroczy_a", {"beta": 1.5}),
             ("khan_autar", {"utilities": v, "alpha": 2.0, "beta": 1.5}), ("kerridge", {"weights": u}),
             ("nath_inaccuracy_b", {"weights": u, "alpha": 2.5}), ("pardo", {"weights": u, "gamma": 2.0})]
    for name, kwargs in cases:
        assert evaluate_named(name, p, **kwargs) == one(evaluate_named, name, p, **kwargs), name


def test_a_sweep_and_a_product_stay_on_one_worker(two, handoffs):
    p, u, _ = _vectors(3, zeros=False)
    evaluate_named("renyi", p, sweep=("alpha", [0.5, 2.0, 3.0]))
    q = make_distribution(random_simplex(np.random.default_rng(1), 300))
    verify_composability("information", PolyParams(-1.0, -0.7, 0.4, 0.3), q, q, q, q)
    assert handoffs == []


def test_one_block_never_hands_work_over(two, handoffs):
    rng = np.random.default_rng(5)
    for n in (4, 1000, B):
        p = make_distribution(random_simplex(rng, n))
        u = WeightVector(random_simplex(rng, n))
        for w in _rules(u, UtilityVector(rng.uniform(0.5, 2.0, n))).values():
            for lam in LAMS:
                entropy(p, w, lam=lam)
    assert handoffs == []


def _error(fn, *args, **kwargs):
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def test_a_domain_error_in_the_worker_share_only(two, one, handoffs):
    # external weights over p with zeros gather both vectors beside the
    # index, past two rows, so they keep one worker; a share that raises
    # is the next test's
    p, u, _ = _vectors(3, zeros=True)
    bad = u.values.copy()
    bad[np.flatnonzero(p.values == 0.0)[-1]] = 1e-3  # weight on a zero of p, in the last block
    bad = WeightVector(bad / bad.sum())
    for name, kwargs in [("kerridge", {}), ("nath_inaccuracy_b", {"alpha": 2.5})]:
        want = one(_error, evaluate_named, name, p, weights=bad, **kwargs)
        assert want == (DomainError, "zero probability carries nonzero weight")
        assert _error(evaluate_named, name, p, weights=bad, **kwargs) == want
    assert handoffs == []


@pytest.mark.parametrize("where", [0, -3], ids=["caller-share", "worker-share"])
def test_overflow_per_r(where, two, one, handoffs):
    p = random_simplex(np.random.default_rng(6), 2 * B + 17)
    p[where] = 1e-300  # log2 p = -996.6, and tau*lambda*log2 p overflows
    p = make_distribution(p / p.sum())
    call = (evaluate_named, "van_der_lubbe_b", p)
    want = one(_error, *call, tau=-1e306, lam=1.0)
    assert want == (Overflow, "tau*lambda = -1e+306 is too large: tau*lambda*log2(p) leaves the double range")
    assert _error(*call, tau=-1e306, lam=1.0) == want
    assert len(handoffs) == 1


def _unchecked_weights(values) -> WeightVector:
    """A WeightVector of values that validation would refuse."""
    w = object.__new__(WeightVector)
    object.__setattr__(w, "values", values)
    object.__setattr__(w, "_positive", False)
    return w


def test_all_weights_zero(two, one, handoffs):
    p, _, _ = _vectors(3, zeros=False)
    w = _unchecked_weights(np.zeros(p.values.size))
    want = one(engine._walk, w, p, (-0.7,))
    got = engine._walk(w, p, (-0.7,))
    assert [(type(e), str(e)) for e in got.values()] == [(type(e), str(e)) for e in want.values()] == [
        (DegenerateWeights, "all weights are zero")]
    assert len(handoffs) == 1


@pytest.mark.parametrize("thread", ["inforcer-walk", "MainThread"])
@pytest.mark.parametrize("error", [DomainError("zero probability carries nonzero weight"), RuntimeError("boom")],
                         ids=["inforcer-error", "other-error"])
def test_a_share_that_raises_is_walked_again_on_one_worker(thread, error, two, one, handoffs, monkeypatch):
    # the block step raises on one thread only: the walk on one worker,
    # which runs on the calling thread, gives the value
    p, _, _ = _vectors(3, zeros=False)
    want = one(entropy, p, lam=0.7)
    real = engine._linear_block

    def step(*args):
        if threading.current_thread().name == thread:
            raise error
        return real(*args)

    if thread == "MainThread":
        # the rerun runs on the calling thread too: raise there only once
        raised = []

        def step(*args):  # noqa: F811
            if threading.current_thread().name == thread and not raised:
                raised.append(1)
                raise error
            return real(*args)

    monkeypatch.setattr(engine, "_linear_block", step)
    assert entropy(p, lam=0.7) == want
    assert len(handoffs) == 1


def test_the_worker_runs_under_the_callers_context(two, monkeypatch):
    # numpy's error state is a context variable: the worker's kernel steps
    # see the caller's np.errstate
    seen = []
    real = backends.active_kernels()

    def lse(*args):
        seen.append((threading.current_thread().name, np.geterr()["under"]))
        return real.weighted_log2_sumexp(*args)

    kernels = dataclasses.replace(real, weighted_log2_sumexp=lse)
    monkeypatch.setattr(backends, "active_kernels", lambda: kernels)
    p, _, _ = _vectors(3, zeros=False)
    with np.errstate(under="raise"):
        entropy(p, lam=0.7)
    assert {name for name, _ in seen} == {"MainThread", "inforcer-walk"}
    assert {state for _, state in seen} == {"raise"}


def test_stress_from_more_threads_than_cores(two, one):
    # three calling threads contend for the one worker, 200 walks in all,
    # with a short switch interval; each value is the one worker's
    p, u, v = _vectors(3, zeros=True, seed=23)
    cases = [(w, lam) for w in _rules(u, v).values() for lam in LAMS]
    want = [one(entropy, p, w, lam=lam) for w, lam in cases]
    got, errors = [], []

    def run(k):
        try:
            for i in range(k, 200, 3):
                j = i % len(cases)
                got.append(entropy(p, cases[j][0], lam=cases[j][1]) == want[j])
        except Exception as err:  # reported below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 200 and all(got)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker(two):
    p, _, _ = _vectors(3, zeros=False)
    want = entropy(p, lam=0.7)  # the parent's worker is running now
    assert engine._worker is not None
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: one walk of three blocks, its value to the pipe
        try:
            os.write(write, repr(entropy(p, lam=0.7)).encode())
        finally:
            os._exit(0)
    os.close(write)
    try:
        ready, _, _ = select.select([read], [], [], 60)
        if not ready:
            os.kill(pid, 9)
        out = os.read(read, 100).decode() if ready else ""
    finally:
        os.close(read)
        os.waitpid(pid, 0)
    assert ready, "the child hung"
    assert float(out) == want


@pytest.mark.parametrize("where", ["share", "wait"])
def test_an_interrupted_walk_leaves_nothing_for_the_next(where, two, one, monkeypatch):
    # Ctrl-C lands in the calling thread's share, or while it waits for
    # the worker, which is still running: the next walks, over another
    # vector, get their own value, never the interrupted walk's second
    # half, and the dropped worker ends after its job
    p, _, _ = _vectors(3, zeros=False, seed=24)
    q, _, _ = _vectors(3, zeros=False, seed=25)
    want = one(entropy, q, lam=0.7)
    real_step, real_wait = engine._linear_block, engine._Worker.wait
    dropped = []

    def step(*args):
        if threading.current_thread().name == "inforcer-walk":
            time.sleep(0.3)
        elif where == "share":
            raise KeyboardInterrupt
        return real_step(*args)

    def wait(self):
        raise KeyboardInterrupt

    def hand(self, *args):
        dropped.append(self)
        return real_hand(self, *args)

    real_hand = engine._Worker.hand
    with monkeypatch.context() as m:
        m.setattr(engine, "_linear_block", step)
        m.setattr(engine._Worker, "hand", hand)
        if where == "wait":
            m.setattr(engine._Worker, "wait", wait)
        with pytest.raises(KeyboardInterrupt):
            entropy(p, lam=0.7)
    (worker,) = dropped
    assert worker.thread.is_alive() and engine._worker is None
    assert entropy(q, lam=0.7) == want
    worker.thread.join(timeout=10)
    assert not worker.thread.is_alive()
    assert entropy(q, lam=0.7) == want
    assert engine._worker is not worker


def _peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zeros"])
def test_memory_of_every_two_worker_route(zeros, two, handoffs):
    # both workers' rows are one array the caller allocates: 2 rows of
    # one block each at most, or one row beside a gather's index of one
    # block at most. Over positive p the peak is the same on every
    # repeat; over p with zeros it also holds one or two indices, as
    # the two threads' blocks overlap in time.
    p, u, v = _vectors(9, zeros)
    for w in _rules(u, v).values():
        for lam in LAMS:
            handoffs.clear()
            entropy(p, w, lam=lam)
            if not handoffs:
                continue
            peaks = [_peak(entropy, p, w, lam=lam) for _ in range(5)]
            assert max(peaks) < 4 * 8 * B + 2**16, (w, lam)
            if not zeros:
                assert max(peaks) - min(peaks) < 2**14, (w, lam)


@pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zeros"])
@pytest.mark.parametrize("rule", ["self", "escort", "utility", "external", "tilted"])
def test_a_walk_allocates_its_rows_and_nothing_else(rule, zeros, one, monkeypatch):
    # _walk names the rows each route uses, and the block steps fall back
    # on numpy's own outputs where a row is None: a walk's peak is its
    # rows, a gather's index of one block where it masks, and a mask's
    # bytes, so a step that needs a row its table left out shows here
    p, u, v = _vectors(5, zeros)
    w = resolve_log2_weights(p, _rules(u, v)[rule])
    planned = []
    real = engine._rows

    def rows(names, workers):
        planned.append(len(set(names) - {None}) * workers * 8 * B)
        return real(names, workers)

    monkeypatch.setattr(engine, "_rows", rows)
    for rs in [(None,), (-0.7,), (1.0,), (-0.7, 1.0, -2.0)]:
        one(engine._walk, w, p, rs)
        planned.clear()
        peak = one(_peak, engine._walk, w, p, rs)
        assert peak < planned[0] + (8 * B if zeros else 0) + B + 2**14, rs


def test_refused_blocks_are_redone_in_their_own_share(two, one, handoffs, monkeypatch):
    # u_k = 1e-300 carries the largest p_k^r of each block, so each
    # block's linear sum is under 2^-969 and is redone as a log-sum-exp,
    # by the share that holds it: each block makes its two steps once
    n = 2 * B + 17
    tiny = np.arange(0, n, B)
    p, u = np.full(n, (1 - 3 * 2.0**-1000) / (n - 3)), np.full(n, (1 - 3e-300) / (n - 3))
    p[tiny], u[tiny] = 2.0**-1000, 1e-300
    p, u = make_distribution(p), WeightVector(u)
    want = one(engine.quasi_mean_exponent, u, p, -1.3, 1.0)
    steps = []
    real = backends.active_kernels()

    def counted(name):
        def step(*args):
            steps.append(name)
            return getattr(real, name)(*args)
        return step

    kernels = dataclasses.replace(real, **{name: counted(name) for name in ("weighted_log2_sumexp",
                                                                            "shifted_exp2_weights")})
    monkeypatch.setattr(backends, "active_kernels", lambda: kernels)
    assert engine.quasi_mean_exponent(u, p, -1.3, 1.0) == want
    assert sorted(steps) == sorted(["shifted_exp2_weights", "weighted_log2_sumexp"] * 3)
    assert len(handoffs) == 1
