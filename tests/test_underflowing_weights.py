"""Escort, utility and tilted rules on inputs whose weights underflow.

A term's size is u_k p_k^r, not u_k: a weight below 2^-1074 can carry
most of the mean when p_k^r is large next to the other terms. Each case
holds within 1e-12 (relative) of the 60-digit evaluation of the row's
textbook formula in perfbench/oracle.py, which converts the float
inputs exactly.
"""
import importlib.util
from pathlib import Path

import pytest

from inforcer import (
    DegenerateWeights,
    entropy,
    escort_weights,
    evaluate_named,
    make_distribution,
    reference_evaluate,
)

_SPEC = importlib.util.spec_from_file_location(
    "_oracle", Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle)

TOL = 1e-12
TWO = [1e-300, 1 - 1e-300]
THREE = [1e-200, 0.5, 0.5 - 1e-200]
U2, U3 = [1e-30, 1 - 1e-30], [0.5, 1e-30, 0.5 - 1e-30]
V2, V3 = [3.0, 0.5], [2.0, 1.0, 0.25]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TOL * abs(want)


# (row, p, params, external weights, utilities); rathie's betas ride in
# the oracle's terms
CASES = [
    # the inputs where the engine dropped the dominant term
    ("aczel_daroczy_b", TWO, {"alpha": -1.0, "beta": 2.0}, None, None),
    ("aczel_daroczy_b", THREE, {"alpha": -0.5, "beta": 2.0}, None, None),
    ("aczel_daroczy_b", TWO, {"alpha": 0.5, "beta": -2.0}, None, None),
    ("bhatia_b", TWO, {"beta": 2.0, "tau": 1.0, "lam": -3.0}, None, None),
    # every other escort, utility and tilted row
    ("aczel_daroczy_a", TWO, {"beta": -1.0}, None, None),
    ("aczel_daroczy_a", THREE, {"beta": 2.0}, None, None),
    ("bhatia_a", TWO, {"beta": -1.0, "tau": 1.0}, None, None),
    ("bhatia_a", THREE, {"beta": 2.0, "tau": 0.5}, None, None),
    ("kapur", TWO, {"alpha": 0.5, "beta": 2.0}, None, None),
    ("kapur", THREE, {"alpha": 3.0, "beta": 0.5}, None, None),
    ("rathie", TWO, {"alpha": 0.5, "betas": [2.0, -1.0]}, None, None),
    ("rathie", THREE, {"alpha": 2.0, "betas": [-2.0, 1.0, 3.0]}, None, None),
    ("khan_autar", TWO, {"alpha": 0.5, "beta": 2.0}, None, V2),
    ("khan_autar", THREE, {"alpha": 3.0, "beta": 0.5}, None, V3),
    ("singh", TWO, {"alpha": 0.5, "beta": 2.0}, None, V2),
    ("singh", THREE, {"alpha": 3.0, "beta": 0.5}, None, V3),
    ("pardo", TWO, {"gamma": 2.0}, U2, None),
    ("pardo", THREE, {"gamma": 3.0}, U3, None),
    ("tuteja", TWO, {"beta": 2.0, "gamma": 3.0}, U2, None),
    ("tuteja", THREE, {"beta": 3.0, "gamma": 2.0}, U3, None),
    # beta*log2 p and tau*lambda*log2 p are each finite, their sum 2.6e308 is not
    ("aczel_daroczy_b", [2.0**-1000, 1 - 2.0**-1000], {"alpha": -2.6e305, "beta": -1.6e305}, None, None),
    # sum_k p_k^-2 log2 p_k and sum_k p_k^-2 are each past the double range
    ("aczel_daroczy_a", TWO, {"beta": -2.0}, None, None),
    ("bhatia_a", TWO, {"beta": -2.0, "tau": 1.0}, None, None),
]


_IDS = [f"{c[0]}-n{len(c[1])}-{i}" for i, c in enumerate(CASES)]


@pytest.mark.parametrize("name, p, ps, u, v", CASES, ids=_IDS)
def test_row_holds_the_oracle_value(name, p, ps, u, v):
    got = evaluate_named(name, make_distribution(p), weights=u, utilities=v, **ps)
    want = oracle.row_value(name, oracle.terms(p, u, v, ps.get("betas")), ps)
    assert _close(got, want), (got, want)


@pytest.mark.parametrize("name, p, ps, u, v", CASES, ids=_IDS)
def test_closed_form_holds_the_oracle_value(name, p, ps, u, v):
    # sums such as sum_k p_k^-2 = 1e600 leave the double range unless
    # scaled; their ratios do not
    got = reference_evaluate(name, make_distribution(p), weights=u, utilities=v, **ps)
    want = oracle.row_value(name, oracle.terms(p, u, v, ps.get("betas")), ps)
    assert _close(got, want), (got, want)


@pytest.mark.parametrize("b", [1.6e305, 1e305])
def test_escort_exponents_of_both_signs_that_span_past_the_double_range(b):
    # g = beta_k log2 p_k = (-1000 b, 1000 b, ~0): g - max g overflows to
    # -inf, the exact limit 2^-inf = 0. The beta = -b entry dominates
    # both sums, so the value is log2(p_2^(alpha - 1)) / (1 - alpha) =
    # 1000. Judged by hand: at 60 digits the oracle's 2^(+-1.6e308)
    # lose their exponent and it gives 0. The closed form keeps alpha - 1
    # apart from beta_k, to which alpha + beta_k - 1 would round.
    p, betas = [2.0**-1000, 2.0**-1000, 1 - 2.0**-999], [b, -b, 1.0]
    assert evaluate_named("rathie", p, alpha=2.0, betas=betas) == 1000.0
    assert reference_evaluate("rathie", p, alpha=2.0, betas=betas) == 1000.0
    assert escort_weights(p, betas).values.tolist() == [0.0, 1.0, 0.0]


def test_tilted_weight_whose_product_underflows_keeps_its_term():
    # u_1 * p_1 = 1e-330 underflows, but u_1 p_1^-1 = 1e270 is most of
    # log2( sum u_k p_k^-1 / sum u_k p_k ) / 2: pardo's counterpart at gamma = -1
    got = entropy(TWO, ("tilted", U2), tau=-1.0, lam=2.0)
    want = oracle.dual_value("pardo", oracle.terms(TWO, U2), {"gamma": -1.0})
    assert _close(got, want), (got, want)
    assert _close(got, 448.46029280979394)


def test_tilted_weights_whose_sum_underflows_are_degenerate():
    # sum_k u_k p_k is 5e-324 exactly, but each product is 2^-1075 and
    # rounds to 0, so the float sum, and every built weight, is 0
    p, u = [5e-324, 5e-324, 1.0], [0.5, 0.5, 0.0]
    with pytest.raises(DegenerateWeights, match="sum of u_k p_k is not positive"):
        entropy(p, ("tilted", u))
    with pytest.raises(DegenerateWeights, match="sum of u_k p_k is not positive"):
        evaluate_named("pardo", p, weights=u, gamma=2.0)

