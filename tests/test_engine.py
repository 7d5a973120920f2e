import dataclasses
import math
import threading

import numpy as np
import pytest

from inforcer import (
    ConstraintViolation,
    DomainError,
    GeneratorH,
    LengthMismatch,
    MeasureParams,
    PolyParams,
    VerificationReport,
    WeightVector,
    ZeroScale,
    certainty,
    entropy,
    escort_weights,
    evaluate_named,
    inaccuracy,
    inforcer_content,
    inforcer_measure,
    make_distribution,
    op_for_generator,
    quasi_mean_exponent,
    verify_composability,
)
from inforcer import backends, engine

FAIR = make_distribution([0.5, 0.5])
FAIR_W = WeightVector([0.5, 0.5])


class TestLambdaSwitch:
    P = make_distribution([0.1, 0.2, 0.3, 0.4])
    U = WeightVector([0.4, 0.3, 0.2, 0.1])

    def test_within_switch_equals_zero(self):
        for lam in (1e-8, -1e-8):
            assert quasi_mean_exponent(self.U, self.P, -1.3, lam) == quasi_mean_exponent(self.U, self.P, -1.3, 0.0)
            assert inaccuracy(self.U, self.P, -1.3, lam, 0.7, 0.5) == inaccuracy(self.U, self.P, -1.3, 0.0, 0.7, 0.5)
            assert certainty(self.U, self.P, -1.3, lam, 0.7, 2.0) == certainty(self.U, self.P, -1.3, 0.0, 0.7, 2.0)

    def test_above_switch_uses_log_sum_exp(self, monkeypatch):
        kernels = backends.active_kernels()
        calls = []

        def spy(log2u, log2p, r, out):
            calls.append(r)
            return kernels.weighted_log2_sumexp(log2u, log2p, r, out)

        monkeypatch.setattr(backends, "active_kernels",
                            lambda: dataclasses.replace(kernels, weighted_log2_sumexp=spy))
        lam = 1.1e-8
        m, s = kernels.weighted_log2_sumexp(np.log2(self.U.values), np.log2(self.P.values), -1.3 * lam, np.empty(4))
        want = (m + float(np.log2(s))) / lam
        assert quasi_mean_exponent(self.U, self.P, -1.3, lam) == want
        assert calls == [-1.3 * lam]

    @staticmethod
    def _spy(monkeypatch, threads=None) -> list:
        """(kernel name, r or None) of each log-sum-exp and exp2 step from
        now on; each thread's own steps also go to threads, by its name."""
        kernels = backends.active_kernels()
        calls = []

        def record(step):
            calls.append(step)
            if threads is not None:
                threads.setdefault(threading.current_thread().name, []).append(step)

        def log2_sumexp(log2u, log2p, r, out):
            record(("weighted_log2_sumexp", r))
            return kernels.weighted_log2_sumexp(log2u, log2p, r, out)

        def exp2_weights(t, out):
            record(("shifted_exp2_weights", None))
            return kernels.shifted_exp2_weights(t, out)

        monkeypatch.setattr(backends, "active_kernels", lambda: dataclasses.replace(
            kernels, weighted_log2_sumexp=log2_sumexp, shifted_exp2_weights=exp2_weights))
        return calls

    @staticmethod
    def _blocks(p, u):
        """A vector of three blocks, the last ragged, and its blocks."""
        b = engine._BLOCK
        return [(p[lo:lo + b], u[lo:lo + b]) for lo in range(0, p.size, b)]

    def test_above_switch_past_one_block_takes_the_linear_sum(self, monkeypatch):
        # past one block, lambda = 1.1e-8 takes each block's linear sum
        # sum_k u_k 2^(r log2 p_k - m) at r = -1.3 * lambda, m = max r log2 p
        n = 2 * engine._BLOCK + 17
        p, u = (np.resize(w.values, n) / math.fsum(np.resize(w.values, n)) for w in (self.P, self.U))
        kernels = backends.active_kernels()
        lam = 1.1e-8
        parts = []
        for pb, ub in self._blocks(p, u):
            t = np.log2(pb) * (-1.3 * lam)
            m = kernels.shifted_exp2_weights(t, t)[0]
            parts.append((m, kernels.weighted_sum(ub, t, t)))
        m, s = engine._shifted_sum(parts)
        calls = self._spy(monkeypatch)
        assert quasi_mean_exponent(WeightVector(u), make_distribution(p), -1.3, lam) == (m + float(np.log2(s))) / lam
        assert calls == [("shifted_exp2_weights", None)] * 3

    def test_magnitudes_past_the_linear_range_use_log_sum_exp(self, monkeypatch):
        # in each block u_k = 1e-300 carries the largest p_k^r = 2^1300, and
        # every other term underflows: each block's linear sum is about
        # 1e-300, under 2^-969, and the block is redone
        n = 2 * engine._BLOCK + 17
        tiny = np.arange(0, n, engine._BLOCK)
        p, u = np.full(n, (1 - 3 * 2.0**-1000) / (n - 3)), np.full(n, (1 - 3e-300) / (n - 3))
        p[tiny], u[tiny] = 2.0**-1000, 1e-300
        kernels = backends.active_kernels()
        m, s = engine._shifted_sum([kernels.weighted_log2_sumexp(np.log2(ub), np.log2(pb), -1.3, None)
                                    for pb, ub in self._blocks(p, u)])
        threads = {}
        calls = self._spy(monkeypatch, threads)
        assert quasi_mean_exponent(WeightVector(u), make_distribution(p), -1.3, 1.0) == m + float(np.log2(s))
        # each worker's blocks in order, which two workers interleave
        steps = [("shifted_exp2_weights", None), ("weighted_log2_sumexp", -1.3)]
        assert all(own == steps * (len(own) // 2) for own in threads.values())
        assert len(calls) == 6

    def test_non_finite_lambda_rejected(self):
        # lambda = (gamma - 1) / gamma overflows to -inf for arimoto at gamma = 1e-320
        for lam in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConstraintViolation, match="lambda must be finite"):
                MeasureParams(-1.0, lam, GeneratorH.linear(1.0))
            with pytest.raises(ConstraintViolation, match="lambda must be finite"):
                inaccuracy(FAIR_W, FAIR, -1.0, lam)
            with pytest.raises(ConstraintViolation, match="lambda must be finite"):
                entropy(FAIR, family="certainty", lam=lam, e=1.0)
        with pytest.raises(ConstraintViolation, match="lambda must be finite, got -inf"):
            evaluate_named("arimoto", make_distribution([0.3, 0.7]), gamma=1e-320)


class TestParams:
    def test_tau_must_be_negative(self):
        with pytest.raises(ConstraintViolation):
            MeasureParams(0.0, 0.0, GeneratorH.linear(1.0))
        with pytest.raises(ConstraintViolation):
            MeasureParams(1.0, 0.0, GeneratorH.linear(1.0))

    @pytest.mark.parametrize("family,e,kind,law", [
        ("information", 0.0, "linear", "additive"),
        ("information", 0.5, "exp_info", "pseudo_additive"),
        ("inaccuracy", 0.0, "linear", "additive"),
        ("inaccuracy", 0.5, "exp_info", "pseudo_additive"),
        ("certainty", 0.5, "exp_cert", "multiplicative"),
    ])
    def test_of_picks_generator_and_law(self, family, e, kind, law):
        mp = MeasureParams.of(family, PolyParams(-1.5, 0.25, 2.0, e))
        assert (mp.tau, mp.lam, mp.generator.kind) == (-1.5, 0.25, kind)
        op = op_for_generator(mp.generator)
        assert op.kind == law
        if kind != "linear":
            assert (mp.generator.c, mp.generator.e, op.e) == (2.0, e, e)

    def test_of_unknown_family(self):
        with pytest.raises(ConstraintViolation, match="unknown family"):
            MeasureParams.of("free_energy", PolyParams(-1.0, 0.0))


class TestContent:
    def test_log_content(self):
        params = MeasureParams(-1.0, 0.0, GeneratorH.linear(1.0))
        assert inforcer_content(0.25, params) == 2.0
        assert inforcer_content(1.0, params) == 0.0

    def test_certainty_content(self):
        params = MeasureParams(-1.0, 0.0, GeneratorH.exp_cert(1.0, 1.0))
        assert inforcer_content(0.25, params) == 0.25
        assert inforcer_content(1.0, params) == 1.0

    def test_exp_info_content_vanishes_at_one(self):
        params = MeasureParams(-1.0, 0.0, GeneratorH.exp_info(1.0, 1.0))
        assert inforcer_content(1.0, params) == 0.0

    def test_domain(self):
        params = MeasureParams(-1.0, 0.0, GeneratorH.linear(1.0))
        for bad in (0.0, -0.1, 1.2, math.nan):
            with pytest.raises(DomainError):
                inforcer_content(bad, params)

    def test_monotone_in_p(self):
        grid = np.linspace(0.05, 1.0, 40)
        info = MeasureParams(-1.0, 0.0, GeneratorH.linear(1.0))
        cert = MeasureParams(-1.0, 0.0, GeneratorH.exp_cert(1.0, 1.0))
        iv = [inforcer_content(p, info) for p in grid]
        cv = [inforcer_content(p, cert) for p in grid]
        assert all(a > b for a, b in zip(iv, iv[1:]))
        assert all(a < b for a, b in zip(cv, cv[1:]))


class TestQuasiMean:
    def test_zero_branch_is_weighted_log_sum(self):
        p = make_distribution([0.2, 0.3, 0.5])
        u = WeightVector([0.1, 0.4, 0.5])
        want = -1.0 * float(np.sum(u.values * np.log2(p.values)))
        assert quasi_mean_exponent(u, p, -1.0, 0.0) == pytest.approx(want, rel=1e-15)

    def test_gauge_invariance(self, rng):
        # Scaling (tau, lambda) -> (tau/s, lambda*s) leaves the lambda != 0
        # branch invariant.
        for _ in range(25):
            n = int(rng.integers(2, 9))
            p = make_distribution((0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n))
            u = WeightVector(0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n)
            tau = float(rng.uniform(-2.0, -0.2))
            lam = float(rng.uniform(0.1, 1.5)) * (1 if rng.random() < 0.5 else -1)
            s = float(rng.uniform(0.2, 4.0))
            a = quasi_mean_exponent(u, p, tau, lam)
            b = quasi_mean_exponent(u, p, tau / s, lam * s)
            assert b == pytest.approx(a / s, rel=1e-11, abs=1e-12)

    def test_extreme_exponents_stay_finite(self):
        p = make_distribution([1e-12, 0.3, 0.7 - 1e-12])
        u = WeightVector([1 / 3, 1 / 3, 1 / 3])
        for lam in (-30.0, -5.0, 5.0, 30.0):
            x = quasi_mean_exponent(u, p, -1.0, lam)
            assert math.isfinite(x)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            quasi_mean_exponent(WeightVector([0.5, 0.5]), make_distribution([0.2, 0.3, 0.5]), -1.0, 0.0)


class TestMeasureAndFamilies:
    def test_uniform_four(self):
        p = make_distribution([0.25] * 4)
        params = MeasureParams(-1.0, -1.0, GeneratorH.linear(1.0))
        assert inforcer_measure(WeightVector([0.25] * 4), p, params) == pytest.approx(2.0, abs=1e-12)

    def test_fair_coin_log_branch(self):
        params = MeasureParams(-1.0, 0.0, GeneratorH.linear(1.0))
        assert inforcer_measure(FAIR_W, FAIR, params) == pytest.approx(1.0, abs=1e-15)

    def test_inaccuracy_tsallis_form(self):
        assert inaccuracy(FAIR_W, FAIR, -1.0, -1.0, c=-1.0, e=-1.0) == pytest.approx(0.5, abs=1e-15)

    def test_inaccuracy_kerridge_form(self):
        u = WeightVector([0.3, 0.7])
        assert inaccuracy(u, FAIR, -1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_inaccuracy_rejects_bad_tau(self):
        with pytest.raises(ConstraintViolation):
            inaccuracy(FAIR_W, FAIR, 1.0, 0.0)

    def test_inaccuracy_rejects_bad_generator_pair(self):
        with pytest.raises(ConstraintViolation):
            inaccuracy(FAIR_W, FAIR, -1.0, 0.0, c=1.0, e=-1.0)

    def test_certainty_collision_form(self):
        assert certainty(FAIR_W, FAIR, -1.0, -1.0, c=1.0, e=1.0) == pytest.approx(0.5, abs=1e-15)

    def test_certainty_two_to_minus_entropy(self):
        assert certainty(FAIR_W, FAIR, -1.0, 0.0, c=1.0, e=1.0) == pytest.approx(0.5, abs=1e-15)

    def test_certainty_rejects_nonpositive_scale(self):
        with pytest.raises(ConstraintViolation):
            certainty(FAIR_W, FAIR, -1.0, 0.0, c=1.0, e=0.0)
        with pytest.raises(ConstraintViolation):
            certainty(FAIR_W, FAIR, -1.0, 0.0, c=-1.0, e=1.0)

    def test_certainty_positive(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = make_distribution(0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n)
            val = certainty(
                WeightVector(p.values), p,
                float(rng.uniform(-2.0, -0.2)),
                float(rng.uniform(-1.5, 1.5)),
                c=float(rng.uniform(0.2, 1.5)),
                e=float(rng.uniform(0.2, 3.0)),
            )
            assert val > 0.0

    def test_zero_weight_annihilates(self):
        u = WeightVector([0.0, 1.0])
        # the zero-probability outcome carries zero weight, so it drops out
        p = make_distribution([0.0, 1.0])
        assert inaccuracy(u, p, -1.0, 0.0) == 0.0
        assert inaccuracy(u, FAIR, -1.0, 0.0) == 1.0

    def test_zero_probability_with_weight_is_domain_error(self):
        with pytest.raises(DomainError):
            inaccuracy(FAIR_W, make_distribution([0.0, 1.0]), -1.0, 0.0)
        with pytest.raises(DomainError):
            inaccuracy(FAIR_W, make_distribution([0.0, 1.0]), -1.0, -1.0)


class TestBranchContinuity:
    def test_below_switch_is_exact(self):
        at_zero = inaccuracy(FAIR_W, FAIR, -1.0, 0.0)
        assert inaccuracy(FAIR_W, FAIR, -1.0, 1e-9) == at_zero
        assert inaccuracy(FAIR_W, FAIR, -1.0, -1e-9) == at_zero

    def test_near_switch_is_close(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            p = make_distribution(0.85 * rng.dirichlet(np.ones(n)) + 0.15 / n)
            u = WeightVector(p.values)
            tau = float(rng.uniform(-1.2, -0.3))
            base = inaccuracy(u, p, tau, 0.0)
            for lam in (1e-6, -1e-6):
                assert abs(inaccuracy(u, p, tau, lam) - base) <= 1e-4


class TestEntropy:
    def test_default_is_self_weighted_log(self):
        p = make_distribution([0.2, 0.3, 0.5])
        assert entropy(p) == pytest.approx(1.4854752972273344, rel=1e-15)

    def test_escort_rule_matches_explicit_weights(self):
        # the rule's log2 route takes a ratio of sums and the built
        # weights a normalized sum: each holds the exact value of
        # -log2(sum p^3 / sum p^2) on the float inputs (mpmath, 60 digits)
        exact = 1.2479275134435855003795114126578980665351112892647814471192
        p = make_distribution([0.2, 0.3, 0.5])
        via_rule = entropy(p, ("escort", 2.0), lam=-1.0)
        explicit = inaccuracy(escort_weights(p, 2.0), p, -1.0, -1.0)
        for got in (via_rule, explicit):
            assert abs(got - exact) <= 1e-15 * exact

    def test_external_rule(self):
        val = entropy(FAIR, ("external", [0.3, 0.7]))
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_certainty_family(self):
        assert entropy(FAIR, family="certainty", lam=-1.0, e=1.0) == pytest.approx(0.5, abs=1e-15)

    def test_unknown_family(self):
        with pytest.raises(ConstraintViolation):
            entropy(FAIR, family="free_energy")


class TestVerifyComposability:
    def test_additive_hand_case(self):
        rep = verify_composability("information", PolyParams(-1.0, 0.0), FAIR_W, FAIR, FAIR_W, FAIR)
        assert rep.passed
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)

    def test_pseudo_additive_hand_case(self):
        rep = verify_composability(
            "information", PolyParams(-1.0, -1.0, -1.0, -1.0), FAIR_W, FAIR, FAIR_W, FAIR
        )
        assert rep.passed
        assert rep.lhs == pytest.approx(0.75, abs=1e-12)
        assert rep.rhs == pytest.approx(0.75, abs=1e-12)

    def test_multiplicative_hand_case(self):
        rep = verify_composability(
            "certainty", PolyParams(-1.0, -1.0, 1.0, 1.0), FAIR_W, FAIR, FAIR_W, FAIR
        )
        assert rep.passed
        assert rep.lhs == pytest.approx(0.25, abs=1e-12)

    def test_certainty_needs_nonzero_scale(self):
        with pytest.raises((ZeroScale, ConstraintViolation)):
            verify_composability("certainty", PolyParams(-1.0, -1.0, 1.0, 0.0), FAIR_W, FAIR, FAIR_W, FAIR)

    def test_unknown_kind(self):
        with pytest.raises(ConstraintViolation):
            verify_composability("both", PolyParams(-1.0, 0.0), FAIR_W, FAIR, FAIR_W, FAIR)

    def test_mixed_sizes(self, rng):
        p = make_distribution(0.9 * rng.dirichlet(np.ones(3)) + 0.1 / 3)
        q = make_distribution(0.9 * rng.dirichlet(np.ones(5)) + 0.1 / 5)
        rep = verify_composability(
            "information", PolyParams(-1.0, -0.7, 0.5, 0.25),
            WeightVector(p.values), p, WeightVector(q.values), q,
        )
        assert rep.passed


class TestVerificationReport:
    def test_exact_match(self):
        rep = VerificationReport.from_comparison(2.0, 2.0, 1e-9)
        assert rep.passed and rep.rel_err == 0.0 and rep.abs_err == 0.0

    def test_zero_rhs_small_abs_passes(self):
        rep = VerificationReport.from_comparison(1e-12, 0.0, 1e-9)
        assert rep.passed
        assert math.isinf(rep.rel_err)

    def test_zero_rhs_large_abs_fails(self):
        assert not VerificationReport.from_comparison(1e-3, 0.0, 1e-9).passed

    def test_small_rhs_uses_absolute_fallback(self):
        rep = VerificationReport.from_comparison(0.5 + 5e-10, 0.5, 1e-9)
        assert rep.passed

    def test_large_rhs_needs_relative(self):
        rep = VerificationReport.from_comparison(2.0 + 3e-9, 2.0, 1e-9)
        assert not rep.passed
