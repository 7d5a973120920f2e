"""The linear block sums against the 60-digit oracle, at each edge of the
magnitude test that keeps them.

On a vector of more than one block, external, utility and tilted
weights enter a block's sum as they are, sum_k w_k p_k^a, and self
weights do at r = 1 on any vector. A block keeps that sum
where it lies in [2^-969, 2^969] (the lower end times the largest utility,
for a utility rule) and is otherwise redone with the log-sum-exp. Each
input holds 2 * _BLOCK + 17 entries, built from a few levels so the
oracle stays cheap, with the edge case in the ragged last block; the
step counts show which side of the edge each case is on. Each value
holds within 1e-12 of perfbench/oracle.py, and within 1e-13 of the same
input taken as one block.
"""
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from inforcer import (
    DegenerateWeights,
    Overflow,
    UtilityVector,
    WeightVector,
    backends,
    engine,
    entropy,
    evaluate_named,
    make_distribution,
    reference_evaluate,
)

_SPEC = importlib.util.spec_from_file_location(
    "_oracle", Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle)

BULK = 2 * engine._BLOCK
FLOOR = 2.0**-969
TOL, ONE_BLOCK_TOL = 1e-12, 1e-13


def _inputs(levels):
    """(p, u, v, oracle terms) from levels (count, p, u, v): the first
    level fills the first two blocks, the others the ragged last one."""
    counts, p, u, v = (list(col) for col in zip(*levels))
    assert counts[0] == BULK and sum(counts[1:]) == 17
    col = lambda xs: None if xs[0] is None else np.repeat(np.array(xs, dtype=float), counts)
    return col(p), col(u), col(v), oracle.terms(p, u if u[0] is not None else None,
                                                 v if v[0] is not None else None, count=counts)


def _count_steps(monkeypatch) -> dict:
    """Kernel name -> steps the engine makes from now on."""
    steps = dict.fromkeys(("weighted_sum", "weighted_log2_sumexp", "shifted_exp2_weights"), 0)
    real = backends.active_kernels()

    def counted(name):
        kernel = getattr(real, name)

        def step(*args):
            steps[name] += 1
            return kernel(*args)
        return step

    kernels = dataclasses.replace(real, **{name: counted(name) for name in steps})
    monkeypatch.setattr(backends, "active_kernels", lambda: kernels)
    return steps


def _one_block(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(engine, "_BLOCK", 2**20)
        return fn()


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# The tail p = 2^-1000 with r = -1 puts 2^1000 u_k on each tail term, so
# 17 weights c of about 2^-969 / 17 carry most of the sum; the tail's
# linear sum is 17 c, relative to its largest term.
def _external_edge(side):
    c = FLOOR / 17 * (1.0 + side * 2.0**-10)
    return [(BULK, 2.0**-16, (1 - 17 * c) / BULK, None), (17, 2.0**-1000, c, None)]


# Utilities c of about 2^-969 / 17 on p = 2^-1000: at beta = 0.5 and
# r = -2 the tail's numerator terms are 2^1500 c and dominate it, and
# both its sums are 17 c relative to their largest term.
def _utility_edge(side):
    c = FLOOR / 17 * (1.0 + side * 2.0**-10)
    return [(BULK, 2.0**-16, None, 1.0), (17, 2.0**-1000, None, c)]


# The utility 2^900 sits on p = 2^-1.5, whose term in the tail's
# numerator, 2^(-log2 p - m), falls 1066.5 binades below the largest (at
# p = 2^-1068), where an exp2 keeps 8 bits: the tail's sum, about
# 2^-166.5, is over 2^-969, but not over 2^-969 times the largest utility.
_BIG_UTILITY = [(BULK, (1 - 2.0**-1.5) / BULK, None, 1.0), (16, 2.0**-1068, None, 2.0**-600),
                (1, 2.0**-1.5, None, 2.0**900)]

# Utilities near the top of the double range: a block's linear sum could
# overflow, so every block takes the log-sum-exp.
_HUGE_UTILITIES = [(BULK, 2.0**-16, None, 1.0), (16, 2.0**-1000, None, 1e308), (1, 0.0, None, 1.5e308)]


# (id, levels, entropy's rule and (tau, lambda), the oracle's row and
# params, LSE steps, exp2 steps): r = tau*lambda throughout
EDGE_CASES = [
    # nath_inaccuracy_b at alpha = 0: log2(sum u p^-1)
    ("external-under", _external_edge(-1), "external", -1.0, 1.0, "nath_inaccuracy_b", {"alpha": 0.0}, 1, 3),
    ("external-over", _external_edge(+1), "external", -1.0, 1.0, "nath_inaccuracy_b", {"alpha": 0.0}, 0, 3),
    # khan_autar at alpha = -1, beta = 0.5: log2(sum v p^-1.5 / sum v p^0.5) / 2
    ("utility-under", _utility_edge(-1), ("utility", 0.5), -1.0, 2.0, "khan_autar", {"alpha": -1.0, "beta": 0.5}, 1, 7),
    ("utility-over", _utility_edge(+1), ("utility", 0.5), -1.0, 2.0, "khan_autar", {"alpha": -1.0, "beta": 0.5}, 0, 6),
    ("utility-scaled-floor", _BIG_UTILITY, ("utility", 0.0), -1.0, 1.0, "khan_autar", {"alpha": 0.0, "beta": 0.0}, 1, 6),
    ("utility-overflow", _HUGE_UTILITIES, ("utility", 0.5), -1.0, 2.0, "khan_autar", {"alpha": -1.0, "beta": 0.5}, 3, 3),
    # zeros of p under zero weights: the tail is masked before its sums
    ("external-zeros", [(BULK, 2.0**-16, 2.0**-16, None), (9, 0.0, 0.0, None), (8, 2.0**-40, 2.0**-40, None)],
     "external", -1.0, -1.5, "nath_inaccuracy_b", {"alpha": 2.5}, 0, 3),
    ("tilted-zeros", [(BULK, 2.0**-16, 2.0**-16, None), (9, 0.0, 0.0, None), (8, 2.0**-40, 2.0**-40, None)],
     "tilted", -1.0, -1.5, "pardo", {"gamma": 2.5}, 0, 3),
    ("utility-zeros", [(BULK, 2.0**-16, None, 2.0), (9, 0.0, None, 3.0), (8, 2.0**-40, None, 0.5)],
     ("utility", 0.5), -1.0, -1.5, "khan_autar", {"alpha": 2.5, "beta": 0.5}, 0, 6),
]


def _rule(rule, u, v):
    if rule == "external":
        return ("external", WeightVector(u))
    if rule == "tilted":
        return ("tilted", WeightVector(u))
    return (*rule, UtilityVector(v))


def _want(row, terms, ps):
    return oracle.dual_value(row, terms, ps) if row == "pardo" else oracle.row_value(row, terms, ps)


@pytest.mark.parametrize("case", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
def test_edge_of_the_linear_range_holds_the_oracle_value(case, monkeypatch):
    _, levels, rule, tau, lam, row, ps, lse_steps, exp2_steps = case
    p, u, v, terms = _inputs(levels)
    d = make_distribution(p)
    w = _rule(rule, u, v)
    steps = _count_steps(monkeypatch)
    got = entropy(d, w, tau=tau, lam=lam)
    assert (steps["weighted_log2_sumexp"], steps["shifted_exp2_weights"]) == (lse_steps, exp2_steps)
    assert _rel(got, _want(row, terms, ps)) <= TOL
    assert _rel(got, _one_block(monkeypatch, lambda: entropy(d, w, tau=tau, lam=lam))) <= ONE_BLOCK_TOL


def test_the_scaled_floor_is_needed():
    # the tail's numerator as the linear kernel takes it, sum_k v_k
    # 2^(-log2 p_k - m), is over 2^-969 yet off by far more than 1e-12:
    # the utility 2^900 scales an exp2 of a few bits
    p, _, v, _ = _inputs(_BIG_UTILITY)
    x = np.log2(p[BULK:])
    m = float(np.max(-x))
    s = float(np.sum(v[BULK:] * np.exp2(-x - m)))
    exact = oracle._sv(oracle.terms(p[BULK:], v=v[BULK:]), -1) / oracle.mpf(2) ** m
    assert FLOOR < s < FLOOR * 2.0**900
    assert abs(s - exact) > 1e-6 * exact


# Sums of p^2 over p with zeros: self weights take the plain sum of p_k p_k
# over the block as it is; the tail's sum, 17 * 2^-1000, is under 2^-969,
# so its block is redone
_SELF_LEVELS = [(BULK, (1 - 7 * 2.0**-500) / BULK, None, None), (10, 0.0, None, None), (7, 2.0**-500, None, None)]


@pytest.mark.parametrize("name, ps", [("onicescu", {}), ("renyi", {"alpha": 2.0})], ids=["onicescu", "renyi"])
@pytest.mark.parametrize("tail", ["zeros", "tiny"])
def test_self_weights_at_r_one_over_zeros(name, ps, tail, monkeypatch):
    levels = _SELF_LEVELS if tail == "tiny" else [(BULK, 2.0**-16, None, None), (17, 0.0, None, None)]
    p, _, _, terms = _inputs(levels)
    d = make_distribution(p)
    steps = _count_steps(monkeypatch)
    got = evaluate_named(name, d, **ps)
    assert steps == {"weighted_sum": 3, "weighted_log2_sumexp": int(tail == "tiny"), "shifted_exp2_weights": 0}
    assert _rel(got, oracle.row_value(name, terms, ps)) <= TOL
    assert _rel(got, _one_block(monkeypatch, lambda: evaluate_named(name, d, **ps))) <= ONE_BLOCK_TOL


@pytest.mark.parametrize("name, ps, weights, utilities, exp2_steps", [
    ("onicescu", {}, False, False, 0),
    ("renyi", {"alpha": 2.0}, False, False, 0),
    ("nath_inaccuracy_b", {"alpha": 2.5}, True, False, 3),
    ("nath_inaccuracy_b", {"alpha": 2.0}, True, False, 0),
    ("pardo", {"gamma": 2.5}, True, False, 3),          # the numerator's; sum u p is a product-sum
    ("khan_autar", {"alpha": 0.7, "beta": 1.5}, False, True, 6),
], ids=["onicescu", "renyi", "nath_inaccuracy_b", "nath_inaccuracy_b-r1", "pardo", "khan_autar"])
def test_linear_rows_make_no_log_sum_exp_step(name, ps, weights, utilities, exp2_steps, monkeypatch):
    rng = np.random.default_rng(21)
    n = 2 * engine._BLOCK + 17
    p = make_distribution(rng.dirichlet(np.ones(n)))
    u = WeightVector(rng.dirichlet(np.ones(n))) if weights else None
    v = UtilityVector(rng.uniform(0.5, 5.0, n)) if utilities else None
    want = reference_evaluate(name, p, weights=u, utilities=v, **ps)
    steps = _count_steps(monkeypatch)
    got = evaluate_named(name, p, weights=u, utilities=v, **ps)
    assert steps["weighted_log2_sumexp"] == 0
    assert steps["shifted_exp2_weights"] == exp2_steps
    assert _rel(got, want) <= 1e-12


@pytest.mark.parametrize("p, betas, error", [
    # beta*log2 p = 1e309 overflows to +inf
    ([2.0**-1000, 1 - 2.0**-1000], [-1e306, 1.0], DegenerateWeights),
    # every beta*log2 p = -2e308 overflows to -inf
    ([0.25] * 4, [1e308] * 4, Overflow),
])
def test_closed_form_raises_the_engines_error_past_the_double_range(p, betas, error):
    errors = []
    for route in (evaluate_named, reference_evaluate):
        with pytest.raises(error) as info:
            route("rathie", p, alpha=2.0, betas=betas)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
