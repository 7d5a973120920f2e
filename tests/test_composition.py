import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inforcer import (
    CompositionOp,
    ConstraintViolation,
    GeneratorH,
    OutOfRange,
    Overflow,
    ZeroScale,
    apply_h,
    compose,
    invert_h,
    op_for_generator,
)

GENERATORS = [
    GeneratorH.linear(1.0),
    GeneratorH.linear(2.5),
    GeneratorH.exp_info(1.0, 1.0),
    GeneratorH.exp_info(-0.7, -2.0),
    GeneratorH.exp_cert(1.0, 1.0),
    GeneratorH.exp_cert(0.4, 3.0),
]


class TestGeneratorValidation:
    def test_linear_needs_positive_slope(self):
        with pytest.raises(ConstraintViolation):
            GeneratorH.linear(0.0)
        with pytest.raises(ConstraintViolation):
            GeneratorH.linear(-1.0)

    def test_exp_info_sign_pairing(self):
        GeneratorH.exp_info(2.0, 0.5)
        GeneratorH.exp_info(-2.0, -0.5)
        with pytest.raises(ConstraintViolation):
            GeneratorH.exp_info(1.0, -1.0)
        with pytest.raises(ConstraintViolation):
            GeneratorH.exp_info(1.0, 0.0)

    def test_exp_cert_needs_positive_pair(self):
        with pytest.raises(ConstraintViolation):
            GeneratorH.exp_cert(-1.0, 1.0)
        with pytest.raises(ConstraintViolation):
            GeneratorH.exp_cert(1.0, -1.0)

    def test_unknown_kind(self):
        with pytest.raises(ConstraintViolation):
            GeneratorH("affine")


class TestApplyInvert:
    def test_linear(self):
        h = GeneratorH.linear(2.0)
        assert apply_h(h, 3.0) == 6.0
        assert invert_h(h, 6.0) == 3.0

    def test_exp_info_unit(self):
        h = GeneratorH.exp_info(1.0, 1.0)
        assert apply_h(h, 2.0) == 3.0
        assert invert_h(h, 3.0) == 2.0
        assert apply_h(h, 0.0) == 0.0

    def test_exp_cert_unit(self):
        h = GeneratorH.exp_cert(1.0, 1.0)
        assert apply_h(h, 2.0) == 0.25
        assert invert_h(h, 0.25) == 2.0
        assert apply_h(h, 0.0) == 1.0

    def test_invert_exp_info_out_of_range(self):
        h = GeneratorH.exp_info(1.0, 1.0)
        with pytest.raises(OutOfRange):
            invert_h(h, -1.5)

    def test_invert_exp_cert_out_of_range(self):
        h = GeneratorH.exp_cert(1.0, 1.0)
        with pytest.raises(OutOfRange):
            invert_h(h, 0.0)
        with pytest.raises(OutOfRange):
            invert_h(h, -0.1)

    def test_non_finite_rejected(self):
        h = GeneratorH.linear(1.0)
        with pytest.raises(OutOfRange):
            apply_h(h, math.inf)
        with pytest.raises(OutOfRange):
            invert_h(h, math.nan)

    def test_overflow_raises_not_inf(self):
        with pytest.raises(Overflow):
            apply_h(GeneratorH.exp_info(1.0, 1.0), 1100.0)
        with pytest.raises(Overflow):
            apply_h(GeneratorH.exp_cert(1.0, 1.0), -1100.0)

    def test_underflow_is_allowed(self):
        assert apply_h(GeneratorH.exp_cert(1.0, 1.0), 1.0e4) == 0.0

    @pytest.mark.parametrize("h", GENERATORS, ids=lambda h: f"{h.kind}-c{h.c}-e{h.e}")
    def test_round_trip_on_grid(self, h):
        # exp_info with c < 0 saturates toward 1/|e|; restrict to the
        # well-conditioned part of its range (the saturating side loses
        # one bit of x per unit of |c*x|, tested separately below).
        for i in range(61):
            x = i * 1.0
            if h.kind != "linear":
                cx = h.c * x
                if cx > 50.0 or cx < -12.0:
                    continue
            y = apply_h(h, x)
            if x == 0.0 and h.kind != "exp_cert":
                assert invert_h(h, y) == 0.0
            else:
                back = invert_h(h, y)
                assert back == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_saturating_inverse_conditioning(self):
        # near the asymptote the inverse is ill-conditioned by exactly the
        # factor 2^|c*x|; the implementation must not do worse than that
        h = GeneratorH.exp_info(-0.7, -2.0)
        eps = 2.2e-16
        for x in (15.0, 27.0, 40.0, 55.0):
            back = invert_h(h, apply_h(h, x))
            bound = 2.0 ** (abs(h.c) * x + 2) * eps / abs(h.c)
            assert abs(back - x) <= max(bound, 1e-12)


def pseudo_add(x, y, e):
    return compose(CompositionOp.pseudo_additive(e), x, y)


def mult_compose(x, y, e):
    return compose(CompositionOp.multiplicative(e), x, y)


class TestLaws:
    def test_pseudo_add_example(self):
        assert pseudo_add(2.0, 3.0, 1.0) == 11.0
        assert pseudo_add(2.0, 3.0, 0.0) == 5.0

    def test_mult_compose_example(self):
        assert mult_compose(0.5, 0.5, 2.0) == 0.5

    def test_mult_identity_element(self):
        for e in (0.5, 1.0, 4.0):
            assert mult_compose(0.7, 1.0 / e, e) == pytest.approx(0.7, rel=1e-15)

    def test_zero_scale_rejected(self):
        with pytest.raises(ZeroScale):
            mult_compose(1.0, 1.0, 0.0)
        with pytest.raises(ZeroScale):
            CompositionOp("multiplicative", e=0.0)

    @given(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
        st.floats(min_value=-2, max_value=2),
    )
    @settings(max_examples=80, deadline=None)
    @example(-4.5, -4.9375, 0.0, 0.43840129449817633)  # the products differ by 1.8e-15 here
    def test_pseudo_add_associative_and_commutative(self, x, y, z, e):
        # x + y is exact both ways round, so the two sides differ by the
        # roundings of (e*x)*y and (e*y)*x, within 2 eps |exy|, and of the
        # last sum, within eps (|x| + |y| + |exy|)
        bound = 4.0 * sys.float_info.epsilon * (abs(x) + abs(y) + abs(e * x * y))
        assert abs(pseudo_add(x, y, e) - pseudo_add(y, x, e)) <= bound
        left = pseudo_add(pseudo_add(x, y, e), z, e)
        right = pseudo_add(x, pseudo_add(y, z, e), e)
        assert left == pytest.approx(right, rel=1e-10, abs=1e-10)


def _conjugated(h, x, y):
    """The paper's defining law: addition conjugated through h."""
    return apply_h(h, invert_h(h, x) + invert_h(h, y))


class TestCompose:
    def test_additive(self):
        assert compose(CompositionOp.additive(), 1.5, 2.5) == 4.0

    def test_conjugated_addition_matches_examples(self):
        cert = GeneratorH.exp_cert(1.0, 2.0)
        assert _conjugated(cert, 0.5, 0.5) == pytest.approx(0.5, rel=1e-15)
        assert compose(op_for_generator(cert), 0.5, 0.5) == pytest.approx(0.5, rel=1e-15)
        info = GeneratorH.exp_info(1.0, 1.0)
        assert _conjugated(info, 1.0, 1.0) == pytest.approx(3.0, rel=1e-15)
        assert compose(op_for_generator(info), 1.0, 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_op_for_generator_kinds(self):
        assert op_for_generator(GeneratorH.linear(3.0)).kind == "additive"
        op = op_for_generator(GeneratorH.exp_info(1.0, 0.5))
        assert op.kind == "pseudo_additive" and op.e == 0.5
        op = op_for_generator(GeneratorH.exp_cert(1.0, 2.0))
        assert op.kind == "multiplicative" and op.e == 2.0

    @pytest.mark.parametrize("h", GENERATORS, ids=lambda h: f"{h.kind}-c{h.c}-e{h.e}")
    def test_closed_form_equals_conjugated_addition(self, h):
        # The named law must agree with h(h^-1(x) + h^-1(y)) on the range of h.
        closed = op_for_generator(h)
        for xa in (0.3, 1.0, 2.7, 6.0):
            for xb in (0.4, 1.5, 5.0):
                if h.kind != "linear" and abs(h.c) * (xa + xb) > 30.0:
                    continue
                x, y = apply_h(h, xa), apply_h(h, xb)
                got = compose(closed, x, y)
                want = _conjugated(h, x, y)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
                # and both equal h applied to the summed preimages
                assert got == pytest.approx(apply_h(h, xa + xb), rel=1e-10, abs=1e-12)
