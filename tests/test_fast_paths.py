"""The engine's pass-lean paths: shared self weights, unmasked positive
weights, one inner mean per duality check and in-place kernels. Each
fast path must give the same values and raise the same errors as the
general path it shortcuts."""
import numpy as np
import pytest

from inforcer import (
    DegenerateWeights,
    DomainError,
    PolyParams,
    UtilityVector,
    WeightVector,
    backends,
    dual_check,
    engine,
    escort_weights,
    evaluate_named,
    inaccuracy,
    make_distribution,
    reference_evaluate,
    resolve_weight_rule,
    tilted_weights,
    utility_weights,
    verify_composability,
)
from inforcer.core import as_weight_vector, direct_product
from inforcer.registry import lookup

WITH_ZERO = [0.5, 0.3, 0.0, 0.2]


class TestSelfWeights:
    def test_share_memory_with_the_distribution(self):
        d = make_distribution([0.2, 0.3, 0.5])
        for w in (
            as_weight_vector(d),
            resolve_weight_rule(d, "self"),
            lookup("shannon").build_weights(d, {}),
        ):
            assert np.shares_memory(w.values, d.values)
            assert not w.values.flags.writeable

    def test_explicit_weight_vector_still_copies(self):
        src = np.array([0.5, 0.5])
        w = WeightVector(src)
        assert not np.shares_memory(w.values, src)

    @pytest.mark.parametrize("lam", [0.0, -1.0, 0.7])
    def test_same_value_as_an_unshared_copy(self, lam):
        d = make_distribution([0.1, 0.2, 0.0, 0.3, 0.4])
        shared = inaccuracy(as_weight_vector(d), d, -1.0, lam)
        copied = inaccuracy(WeightVector(d.values.copy()), d, -1.0, lam)
        assert shared == copied

    def test_composability_on_shared_weights_matches_copies(self):
        p = make_distribution([0.25, 0.75])
        q = make_distribution([0.1, 0.0, 0.9])
        params = PolyParams(-1.0, -1.0)
        shared = verify_composability("information", params, as_weight_vector(p), p, as_weight_vector(q), q)
        copied = verify_composability(
            "information", params, WeightVector(p.values.copy()), p, WeightVector(q.values.copy()), q
        )
        assert shared == copied
        assert shared.passed


class TestSupport:
    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_positive_weights_over_a_zero_probability(self, lam):
        d = make_distribution(WITH_ZERO)
        w = WeightVector([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(DomainError):
            inaccuracy(w, d, -1.0, lam)

    @pytest.mark.parametrize("name,params", [("kerridge", {}), ("nath_inaccuracy_b", {"alpha": 2.0})])
    def test_zero_weights_over_zero_probabilities(self, name, params):
        d = make_distribution(WITH_ZERO)
        u = [0.4, 0.4, 0.0, 0.2]
        got = evaluate_named(name, d, weights=u, **params)
        assert got == pytest.approx(reference_evaluate(name, d, weights=u, **params), rel=1e-15)

    @pytest.mark.parametrize("name,params", [("shannon", {}), ("renyi", {"alpha": 2.0})])
    def test_self_weights_over_zero_probabilities(self, name, params):
        d = make_distribution(WITH_ZERO)
        got = evaluate_named(name, d, **params)
        assert got == pytest.approx(reference_evaluate(name, d, **params), rel=1e-15)

    def test_escort_negative_beta_over_a_zero_probability(self):
        d = make_distribution(WITH_ZERO)
        with pytest.raises(DegenerateWeights):
            escort_weights(d, -0.5)
        with pytest.raises(DegenerateWeights):
            evaluate_named("aczel_daroczy_a", d, beta=-0.5)

    def test_escort_zero_beta_counts_zero_probabilities(self):
        w = escort_weights(make_distribution(WITH_ZERO), 0.0)
        assert np.array_equal(w.values, np.full(4, 0.25))


class TestNoMutation:
    def test_validated_inputs_unchanged_after_evaluation(self):
        d = make_distribution(WITH_ZERO)
        u = WeightVector([0.4, 0.4, 0.0, 0.2])
        v = UtilityVector([1.0, 2.0, 3.0, 4.0])
        before = [x.values.copy() for x in (d, u, v)]
        evaluate_named("renyi", d, alpha=2.0)
        evaluate_named("kapur", d, alpha=2.0, beta=0.5)
        evaluate_named("khan_autar", d, utilities=v, alpha=2.0, beta=0.5)
        evaluate_named("kerridge", d, weights=u)
        evaluate_named("pardo", d, weights=u, gamma=2.0)
        verify_composability("information", PolyParams(-1.0, -1.0), d, d, u, d)
        for vec, old in zip((d, u, v), before):
            assert np.array_equal(vec.values, old)

    def test_built_weights_are_read_only(self):
        d = make_distribution([0.2, 0.3, 0.5])
        built = [
            escort_weights(d, 2.0),
            utility_weights(d, 1.0, [1.0, 2.0, 3.0]),
            tilted_weights(d, [0.2, 0.3, 0.5]),
            direct_product(d, d),
        ]
        for vec in built:
            assert not vec.values.flags.writeable

    def test_numpy_kernels_leave_their_inputs_alone(self):
        kern = backends.active_kernels()
        log2_w = np.log2(np.array([0.25, 0.25, 0.5]))
        log2_p = np.log2(np.array([0.1, 0.3, 0.6]))
        t = np.array([-1.0, 0.5, -np.inf])
        saved = [a.copy() for a in (log2_w, log2_p, t)]
        kern.weighted_log2_sumexp(log2_w, log2_p, -0.5, np.empty(3))
        kern.weighted_sum(log2_w, log2_p, np.empty(3))
        kern.shifted_exp2_weights(t, np.empty(3))
        for a, old in zip((log2_w, log2_p, t), saved):
            assert np.array_equal(a, old)


class TestDualCheck:
    def test_one_inner_mean_per_check(self, monkeypatch):
        calls = []
        original = engine.quasi_mean_exponent

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "quasi_mean_exponent", counted)
        d = make_distribution([0.2, 0.8])
        report = dual_check(PolyParams(-1.0, -1.0, 1.0, 1.0), PolyParams(-1.0, -1.0), d, d)
        assert len(calls) == 1
        assert report.passed
