import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inforcer import (
    DegenerateWeights,
    Distribution,
    LengthMismatch,
    NegativeMass,
    NotNormalized,
    Overflow,
    TooShort,
    UtilityVector,
    WeightVector,
    direct_product,
    escort_weights,
    make_distribution,
    resolve_weight_rule,
    tilted_weights,
    utility_weights,
    weight_product,
)


def simplexes(min_size=2, max_size=8, floor=1e-3):
    """Strategy producing strictly positive normalized vectors."""
    return st.lists(
        st.floats(min_value=floor, max_value=1.0), min_size=min_size, max_size=max_size
    ).map(lambda xs: np.asarray(xs) / np.sum(xs))


class TestDistribution:
    def test_accepts_valid(self):
        d = make_distribution([0.2, 0.3, 0.5])
        assert len(d) == 3
        assert d.values.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(NotNormalized):
            make_distribution([0.5, 0.6])

    def test_records_whether_every_entry_is_positive(self):
        # the engine reads _positive to skip masking
        assert make_distribution([0.2, 0.8])._positive
        assert not make_distribution([0.2, 0.0, 0.8])._positive

    def test_rejects_single_entry(self):
        with pytest.raises(TooShort):
            make_distribution([1.0])

    def test_rejects_negative(self):
        with pytest.raises(NegativeMass):
            make_distribution([-0.1, 1.1])

    def test_rejects_non_finite(self):
        with pytest.raises(NegativeMass):
            make_distribution([np.nan, 1.0])
        with pytest.raises(NegativeMass):
            make_distribution([np.inf, -np.inf])

    def test_rejects_matrix(self):
        with pytest.raises(TooShort):
            make_distribution([[0.5, 0.5]])

    def test_sum_tolerance_band(self):
        make_distribution([0.5, 0.5 + 5e-10])
        with pytest.raises(NotNormalized):
            make_distribution([0.5, 0.5 + 5e-9])

    def test_no_silent_renormalization(self):
        with pytest.raises(NotNormalized):
            make_distribution([0.25, 0.25, 0.25, 0.2500001])

    def test_values_are_read_only(self):
        d = make_distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            d.values[0] = 0.9

    def test_input_not_aliased(self):
        src = np.array([0.5, 0.5])
        d = make_distribution(src)
        src[0] = 0.7
        assert d.values[0] == 0.5

    def test_zero_allowed_by_default(self):
        d = make_distribution([0.0, 1.0])
        assert d.values[0] == 0.0 and not d._positive


class TestWeightAndUtilityVectors:
    def test_weights_allow_zero(self):
        w = WeightVector([0.0, 1.0])
        assert len(w) == 2

    def test_weights_must_normalize(self):
        with pytest.raises(NotNormalized):
            WeightVector([0.3, 0.3])

    def test_utilities_strictly_positive(self):
        UtilityVector([0.5, 2.0, 7.0])
        with pytest.raises(NegativeMass):
            UtilityVector([1.0, 0.0])

    def test_utilities_unconstrained_sum(self):
        v = UtilityVector([10.0, 20.0])
        assert v.values.sum() == 30.0


def _product_oracle(p, q):
    out = []
    for pi in p:
        for qj in q:
            out.append(pi * qj)
    return np.array(out)


class TestDirectProduct:
    def test_two_by_two(self):
        r = direct_product(make_distribution([0.2, 0.8]), make_distribution([0.5, 0.5]))
        assert np.array_equal(r.values, [0.1, 0.1, 0.4, 0.4])

    def test_row_major_order(self):
        p = make_distribution([0.3, 0.7])
        q = make_distribution([1 / 3, 1 / 3, 1 / 3])
        r = direct_product(p, q)
        assert np.array_equal(r.values, _product_oracle(p.values, q.values))

    def test_marginals_recovered(self):
        p = make_distribution([0.1, 0.2, 0.3, 0.4])
        q = make_distribution([0.25, 0.75])
        r = np.reshape(direct_product(p, q).values, (4, 2))
        assert np.allclose(r.sum(axis=1), p.values, atol=1e-12)
        assert np.allclose(r.sum(axis=0), q.values, atol=1e-12)

    def test_positivity_propagation(self):
        strict = make_distribution([0.5, 0.5])
        loose = make_distribution([0.0, 1.0])
        assert direct_product(strict, strict)._positive
        assert not direct_product(strict, loose)._positive

    def test_weight_product_matches(self):
        w = weight_product(WeightVector([0.2, 0.8]), WeightVector([0.5, 0.5]))
        assert np.array_equal(w.values, [0.1, 0.1, 0.4, 0.4])

    @given(simplexes(max_size=5), simplexes(max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_double_loop(self, p, q):
        r = direct_product(Distribution(p), Distribution(q))
        assert np.array_equal(r.values, _product_oracle(p, q))
        assert abs(r.values.sum() - 1.0) < 1e-9


class TestEscortWeights:
    def test_square_law_example(self):
        w = escort_weights(make_distribution([0.2, 0.8]), 2.0)
        assert w.values[0] == pytest.approx(0.058823529411764705, rel=1e-15)
        assert w.values[1] == pytest.approx(0.9411764705882353, rel=1e-15)

    def test_beta_one_is_identity(self):
        p = make_distribution([0.1, 0.2, 0.3, 0.4])
        w = escort_weights(p, 1.0)
        assert np.allclose(w.values, p.values, atol=1e-15)

    def test_beta_zero_is_uniform(self):
        w = escort_weights(make_distribution([0.0, 0.3, 0.7]), 0.0)
        assert np.array_equal(w.values, [1 / 3, 1 / 3, 1 / 3])

    def test_uniform_is_fixed_point(self):
        p = make_distribution(np.full(5, 0.2))
        for beta in (-2.0, 0.5, 3.0):
            assert np.allclose(escort_weights(p, beta).values, 0.2, atol=1e-15)

    def test_zero_prob_with_negative_beta_rejected(self):
        with pytest.raises(DegenerateWeights):
            escort_weights(make_distribution([0.0, 1.0]), -1.0)

    def test_zero_prob_with_positive_beta_gets_zero_weight(self):
        w = escort_weights(make_distribution([0.0, 0.4, 0.6]), 2.0)
        assert w.values[0] == 0.0
        assert w.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_per_component_exponents(self):
        p = make_distribution([0.2, 0.8])
        w = escort_weights(p, np.array([1.0, 1.0]))
        assert np.allclose(w.values, p.values, atol=1e-15)
        mixed = escort_weights(p, np.array([0.0, 2.0]))
        assert mixed.values[0] == pytest.approx(1.0 / 1.64, rel=1e-14)

    def test_exponent_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            escort_weights(make_distribution([0.5, 0.5]), np.array([1.0, 2.0, 3.0]))

    def test_extreme_beta_stays_finite(self):
        w = escort_weights(make_distribution([0.3, 0.7]), 900.0)
        assert np.all(np.isfinite(w.values))
        assert w.values[1] == pytest.approx(1.0, abs=1e-12)

    @given(simplexes(), st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=80, deadline=None)
    def test_always_on_simplex(self, p, beta):
        w = escort_weights(Distribution(p), beta)
        assert np.all(w.values >= 0.0)
        assert abs(w.values.sum() - 1.0) < 1e-9


class TestUtilityWeights:
    def test_hand_example(self):
        # p^1 * v with p = (0.5, 0.5), v = (1, 3): raw (0.5, 1.5) -> (0.25, 0.75)
        w = utility_weights(make_distribution([0.5, 0.5]), 1.0, [1.0, 3.0])
        assert np.allclose(w.values, [0.25, 0.75], atol=1e-15)

    def test_beta_zero_uses_utilities_alone(self):
        w = utility_weights(make_distribution([0.9, 0.1]), 0.0, [1.0, 3.0])
        assert np.allclose(w.values, [0.25, 0.75], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            utility_weights(make_distribution([0.5, 0.5]), 1.0, [1.0, 2.0, 3.0])

    def test_rejects_nonpositive_utilities(self):
        with pytest.raises(NegativeMass):
            utility_weights(make_distribution([0.5, 0.5]), 1.0, [1.0, -2.0])


class TestExponentOverflow:
    """b * log2(p) past the double range is read as the +-inf it rounds
    to, without numpy's overflow warning (an error under the pytest settings)."""

    BUILDS = {
        "escort": lambda d, b: escort_weights(d, b),
        "betas": lambda d, b: escort_weights(d, np.full(len(d), b)),
        "utility": lambda d, b: utility_weights(d, b, np.ones(len(d))),
    }

    @pytest.mark.parametrize("route", BUILDS)
    def test_every_term_vanishes(self, route):
        what = r"betas up to 1e\+308 are" if route == "betas" else r"beta = 1e\+308 is"
        with pytest.raises(Overflow, match=rf"^{what} too large: beta\*log2\(p\) leaves the double range$"):
            self.BUILDS[route](make_distribution([0.25] * 4), 1e308)

    @pytest.mark.parametrize("route", BUILDS)
    def test_negative_exponent_leaves_the_range(self, route):
        with pytest.raises(DegenerateWeights, match=r"weights: exponent left the representable range$"):
            self.BUILDS[route](make_distribution([0.25] * 4), -1e308)

    @pytest.mark.parametrize("route", BUILDS)
    def test_the_largest_probability_takes_all_weight(self, route):
        w = self.BUILDS[route](make_distribution([0.25, 0.75]), 1e308)
        assert w.values.tolist() == [0.0, 1.0]


class TestTiltedWeights:
    def test_direct_arithmetic(self):
        w = tilted_weights(make_distribution([0.2, 0.8]), WeightVector([0.5, 0.5]))
        assert np.allclose(w.values, [0.2, 0.8], atol=1e-15)

    def test_reweights_toward_heavy_overlap(self):
        w = tilted_weights(make_distribution([0.5, 0.5]), WeightVector([0.9, 0.1]))
        assert np.allclose(w.values, [0.9, 0.1], atol=1e-15)

    def test_zero_overlap_rejected(self):
        with pytest.raises(DegenerateWeights):
            tilted_weights(make_distribution([0.0, 1.0]), WeightVector([1.0, 0.0]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            tilted_weights(make_distribution([0.5, 0.5]), WeightVector([0.4, 0.3, 0.3]))


class TestResolveWeightRule:
    def test_self_rule(self):
        d = make_distribution([0.3, 0.7])
        assert np.array_equal(resolve_weight_rule(d, "self").values, d.values)

    def test_tuple_rules(self):
        d = make_distribution([0.2, 0.8])
        assert np.allclose(
            resolve_weight_rule(d, ("escort", 2.0)).values,
            escort_weights(d, 2.0).values,
            atol=0,
        )
        assert np.allclose(
            resolve_weight_rule(d, ("utility", 1.0, [1.0, 3.0])).values,
            utility_weights(d, 1.0, [1.0, 3.0]).values,
            atol=0,
        )
        assert np.array_equal(
            resolve_weight_rule(d, ("external", [0.4, 0.6])).values, [0.4, 0.6]
        )
        assert np.allclose(
            resolve_weight_rule(d, ("tilted", [0.5, 0.5])).values, d.values, atol=1e-15
        )

    def test_passthrough(self):
        d = make_distribution([0.2, 0.8])
        w = WeightVector([0.1, 0.9])
        assert resolve_weight_rule(d, ("external", w)) is w

    def test_external_length_checked(self):
        with pytest.raises(LengthMismatch):
            resolve_weight_rule(make_distribution([0.5, 0.5]), ("external", [0.2, 0.3, 0.5]))

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            resolve_weight_rule(make_distribution([0.5, 0.5]), "entropy")
        with pytest.raises(ValueError):
            resolve_weight_rule(make_distribution([0.5, 0.5]), ("laplace", 1.0))


_FINITE = ("NegativeMass", "{} entries must be finite")
_NONNEG = ("NegativeMass", "{} entries must be nonnegative")
_POSITIVE = ("NegativeMass", "{} entries must be strictly positive")
_SHORT = ("TooShort", "{} needs at least two entries, got {}")
_SUM = ("NotNormalized", "{} sums to {}, expected 1 within 1e-09")
_SHAPE = ("TooShort", "{} must be a one-dimensional vector, got shape {}")

# bad input -> expected (type, message) for Distribution, WeightVector
# and UtilityVector; None means accepted.
# Several inputs break two rules at once, so the table pins which check
# runs first. The messages are the validated vector's own name, then
# the format arguments.
_CONTRACT = [
    ([np.nan], (_FINITE,), (_FINITE,), (_FINITE,)),
    ([-1.0], (_NONNEG,), (_NONNEG,), (_POSITIVE,)),
    ([], (_SHORT, 0), (_SHORT, 0), None),
    ([np.inf, -np.inf], (_FINITE,), (_FINITE,), (_FINITE,)),
    ([np.inf, 0.5], (_FINITE,), (_FINITE,), (_FINITE,)),
    ([-1.0, np.nan], (_FINITE,), (_FINITE,), (_FINITE,)),
    ([0.0, 0.9], (_SUM, "0.9"), (_SUM, "0.9"), (_POSITIVE,)),
    ([0.0, 1.0], None, None, (_POSITIVE,)),
    ([-1.0, 2.0], (_NONNEG,), (_NONNEG,), (_POSITIVE,)),
    ([-0.5, 0.2], (_NONNEG,), (_NONNEG,), (_POSITIVE,)),
    ([0.0], (_SHORT, 1), (_SHORT, 1), (_POSITIVE,)),
    ([1.0], (_SHORT, 1), (_SHORT, 1), None),
    ([[0.5, 0.5]], (_SHAPE, (1, 2)), (_SHAPE, (1, 2)), (_SHAPE, (1, 2))),
    (1.0, (_SHAPE, ()), (_SHAPE, ()), (_SHAPE, ())),
    ([0.5, 0.5 + 2e-9], (_SUM, "1.0000000020000002"), (_SUM, "1.0000000020000002"), None),
    ([0.25, 0.25, 0.25, 0.25 + 5e-10], None, None, None),
]

_CONSTRUCTORS = [
    ("distribution", Distribution),
    ("weights", WeightVector),
    ("utilities", UtilityVector),
]


class TestValidationContract:
    @pytest.mark.parametrize("row", _CONTRACT, ids=lambda row: repr(row[0]))
    def test_type_and_message(self, row):
        values, *expected = row
        for (what, make), want in zip(_CONSTRUCTORS, expected):
            if want is None:
                make(values)
                continue
            (kind, template), *args = want
            with pytest.raises(Exception) as info:
                make(values)
            assert (type(info.value).__name__, str(info.value)) == (kind, template.format(what, *args))

    def test_overflowing_sum_is_not_normalized_without_a_warning(self):
        # tier-1 turns numpy's RuntimeWarning into an error
        for make in (make_distribution, WeightVector):
            with pytest.raises(NotNormalized, match=r"sums to inf, expected 1 within 1e-09$"):
                make([1e308, 1e308])
