import numpy as np
import pytest

from inforcer import (
    ConstraintViolation,
    GeneratorH,
    PolyParams,
    WeightVector,
    apply_h,
    dual_check,
    dual_verify,
    evaluate_named,
    invert_h,
    make_distribution,
)
from _samplers import draw_params, random_simplex

CERTAINTY_ROWS = [
    "onicescu", "teodorescu", "pardo_taneja", "pardo", "tuteja",
    "van_der_lubbe_certainty_a", "van_der_lubbe_certainty_b",
    "bhatia_a", "bhatia_b",
]


def certainty_to_information(h_c, h_i, y):
    """The duality map y -> h_I(h_C^-1(y)) that dual_check applies."""
    return apply_h(h_i, invert_h(h_c, y))


class TestDualityMap:
    def test_log_map(self):
        assert certainty_to_information(GeneratorH.exp_cert(1.0, 1.0), GeneratorH.linear(1.0), 0.25) == 2.0

    def test_exp_map(self):
        got = certainty_to_information(GeneratorH.exp_cert(1.0, 1.0), GeneratorH.exp_info(1.0, 1.0), 0.25)
        assert got == pytest.approx(3.0, rel=1e-15)

    def test_transform_is_decreasing(self):
        for h_i in (GeneratorH.linear(1.0), GeneratorH.exp_info(0.7, 2.0)):
            ys = np.linspace(0.05, 0.6, 30)
            vals = [certainty_to_information(GeneratorH.exp_cert(0.8, 1.5), h_i, y) for y in ys]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDualCheck:
    def test_requires_matching_inner_mean(self):
        u = WeightVector([0.5, 0.5])
        p = make_distribution([0.5, 0.5])
        with pytest.raises(ConstraintViolation):
            dual_check(PolyParams(-1.0, -1.0, 1.0, 1.0), PolyParams(-1.0, 0.0), u, p)
        with pytest.raises(ConstraintViolation):
            dual_check(PolyParams(-1.0, -1.0, 1.0, 1.0), PolyParams(-2.0, -1.0), u, p)

    def test_collision_pair_on_coin(self):
        u = WeightVector([0.5, 0.5])
        p = make_distribution([0.5, 0.5])
        rep = dual_check(PolyParams(-1.0, -1.0, 1.0, 1.0), PolyParams(-1.0, -1.0), u, p)
        assert rep.passed
        assert rep.lhs == pytest.approx(1.0, abs=1e-14)


class TestRegisteredPairs:
    def test_onicescu_renyi_explicit(self):
        p = make_distribution([0.2, 0.8])
        c_val = evaluate_named("onicescu", p)
        assert c_val == pytest.approx(0.68, rel=1e-15)
        report, info_name = dual_verify("onicescu", p)
        assert info_name == "renyi"
        assert report.passed
        assert report.lhs == pytest.approx(0.5563933485243852, rel=1e-13)
        assert report.rhs == pytest.approx(
            evaluate_named("renyi", p, alpha=2.0), rel=1e-13
        )

    @pytest.mark.parametrize("name", CERTAINTY_ROWS)
    def test_pair_holds_on_random_inputs(self, name, rng):
        for _ in range(15):
            n = int(rng.integers(2, 9))
            p = make_distribution(random_simplex(rng, n))
            params, weights, _ = draw_params(name, rng, n)
            report, _ = dual_verify(name, p, weights=weights, **params)
            assert report.passed, f"{name}: {report}"

    def test_information_row_has_no_dual(self):
        with pytest.raises(ConstraintViolation):
            dual_verify("shannon", make_distribution([0.5, 0.5]))
