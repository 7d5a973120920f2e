import math

import numpy as np
import pytest

from inforcer import (
    ConstraintViolation,
    LengthMismatch,
    PolyParams,
    UnknownMeasure,
    WeightVector,
    dual_verify,
    entropy,
    evaluate_named,
    list_measures,
    lookup,
    make_distribution,
    reference_evaluate,
    resolve_weight_rule,
)
from inforcer import cli
from inforcer.registry import MeasureSpec
from _samplers import draw_params, random_simplex

ALL_NAMES = [
    "shannon", "renyi", "varma_a", "varma_b", "nath_a", "nath_b",
    "aczel_daroczy_a", "aczel_daroczy_b", "kapur", "rathie", "khan_autar",
    "singh", "havrda_charvat", "sharma_mittal_a", "sharma_mittal_b",
    "tsallis", "frank_daffertshofer_a", "frank_daffertshofer_b", "arimoto",
    "boekee_van_der_lubbe", "van_der_lubbe_a", "van_der_lubbe_b",
    "van_der_lubbe_c", "van_der_lubbe_d", "kerridge", "nath_inaccuracy_a",
    "nath_inaccuracy_b", "gupta_sharma_a", "gupta_sharma_b", "onicescu",
    "teodorescu", "pardo_taneja", "pardo", "tuteja",
    "van_der_lubbe_certainty_a", "van_der_lubbe_certainty_b",
    "bhatia_a", "bhatia_b",
]

CERTAINTY_ROWS = [
    "onicescu", "teodorescu", "pardo_taneja", "pardo", "tuteja",
    "van_der_lubbe_certainty_a", "van_der_lubbe_certainty_b",
    "bhatia_a", "bhatia_b",
]


class TestCatalog:
    def test_row_names_and_order(self):
        assert [s.name for s in list_measures()] == ALL_NAMES
        assert len(ALL_NAMES) >= 25

    def test_families(self):
        fams = {s.name: s.family for s in list_measures()}
        assert fams["shannon"] == "information"
        assert fams["kerridge"] == "inaccuracy"
        assert all(fams[n] == "certainty" for n in CERTAINTY_ROWS)

    def test_lookup_suggests_near_match(self):
        with pytest.raises(UnknownMeasure, match="renyi"):
            lookup("renyii")

    def test_lookup_unknown(self):
        with pytest.raises(UnknownMeasure):
            lookup("free_energy")

    def test_every_row_has_formula_and_constraints(self):
        for s in list_measures():
            assert s.formula
            assert isinstance(s.constraints, str)


class TestParamChecking:
    def test_missing_param(self):
        with pytest.raises(ConstraintViolation):
            evaluate_named("renyi", make_distribution([0.5, 0.5]))

    def test_unknown_param(self):
        with pytest.raises(ConstraintViolation):
            evaluate_named("shannon", make_distribution([0.5, 0.5]), alpha=2.0)

    def test_constraint_violations(self):
        p = make_distribution([0.5, 0.5])
        with pytest.raises(ConstraintViolation):
            evaluate_named("renyi", p, alpha=1.0)
        with pytest.raises(ConstraintViolation):
            evaluate_named("renyi", p, alpha=-0.5)
        with pytest.raises(ConstraintViolation):
            evaluate_named("tsallis", p, gamma=0.0)
        with pytest.raises(ConstraintViolation):
            evaluate_named("teodorescu", p, gamma=0.9)
        with pytest.raises(ConstraintViolation):
            evaluate_named("van_der_lubbe_a", p, tau=0.5)
        with pytest.raises(ConstraintViolation):
            evaluate_named("van_der_lubbe_certainty_a", p, tau=-0.5)
        # varma rows tie alpha to a window around mu
        with pytest.raises(ConstraintViolation):
            evaluate_named("varma_a", p, mu=1.5, alpha=1.6)
        with pytest.raises(ConstraintViolation):
            evaluate_named("varma_a", p, mu=1.5, alpha=0.4)

    def test_missing_weights(self):
        with pytest.raises(ConstraintViolation):
            evaluate_named("kerridge", make_distribution([0.5, 0.5]))

    def test_missing_utilities(self):
        with pytest.raises(ConstraintViolation):
            evaluate_named("khan_autar", make_distribution([0.5, 0.5]), alpha=2.0, beta=1.0)

    def test_unread_inputs_rejected(self):
        p = make_distribution([0.5, 0.5])
        with pytest.raises(ConstraintViolation, match="shannon: takes no external weight vector"):
            evaluate_named("shannon", p, weights=[0.9, 0.1])
        with pytest.raises(ConstraintViolation, match="renyi: takes no utility vector"):
            reference_evaluate("renyi", p, utilities=[1.0, 2.0], alpha=2.0)

    def test_utilities_length_checked_on_both_routes(self):
        p = make_distribution([0.5, 0.5])
        for route in (evaluate_named, reference_evaluate):
            with pytest.raises(LengthMismatch, match="utilities length 3 != distribution length 2"):
                route("singh", p, utilities=[1.0, 2.0, 3.0], alpha=2.0, beta=1.0)

    @pytest.mark.parametrize("name, rule", [("kerridge", "external"), ("pardo", "tilted"), ("rathie", "escort")])
    def test_weights_length_same_error_on_every_route(self, name, rule):
        p = make_distribution([0.5, 0.5])
        u = [0.2, 0.3, 0.5]
        inputs, what = ({}, "escort exponent") if rule == "escort" else ({"weights": u}, "weights")
        params = {"kerridge": {}, "pardo": {"gamma": 2.0}, "rathie": {"alpha": 2.0, "betas": u}}[name]
        routes = [
            lambda: evaluate_named(name, p, **inputs, **params),
            lambda: reference_evaluate(name, p, **inputs, **params),
            lambda: entropy(p, (rule, u)),
            lambda: resolve_weight_rule(p, (rule, u)),
        ]
        for route in routes:
            with pytest.raises(LengthMismatch, match=rf"^{what} length 3 != distribution length 2$"):
                route()

    def test_betas_length_checked(self):
        with pytest.raises(LengthMismatch):
            evaluate_named("rathie", make_distribution([0.5, 0.5]), alpha=2.0, betas=[1.0, 2.0, 3.0])


# A valid parameter set per row is drawn by _samplers.draw_params; each
# entry here breaks the rule it names when applied on top of one.
_BREAKS = {
    "alpha > 0": lambda ps: {"alpha": 0.0},
    "alpha != 1": lambda ps: {"alpha": 1.0},
    "alpha < mu": lambda ps: {"alpha": ps["mu"]},
    "alpha > mu-1": lambda ps: {"alpha": ps["mu"] - 1.0},
    "alpha != beta": lambda ps: {"alpha": ps["beta"]},
    "mu >= 1": lambda ps: {"mu": 0.5, "alpha": 0.25},
    "mu > 0": lambda ps: {"mu": 0.0},
    "beta > 0": lambda ps: {"beta": 0.0},
    "beta > 1": lambda ps: {"beta": 1.0},
    "gamma > 0": lambda ps: {"gamma": 0.0},
    "gamma != 1": lambda ps: {"gamma": 1.0},
    "gamma > 1": lambda ps: {"gamma": 1.0},
    "tau < 0": lambda ps: {"tau": 0.0},
    "tau > 0": lambda ps: {"tau": 0.0},
    "lam != 0": lambda ps: {"lam": 0.0},
    "c*e > 0": lambda ps: {"e": -ps["e"]},
}


class TestEachRuleEnforced:
    """Every printed constraint is enforced as printed: a parameter set
    that breaks that rule alone, judged by reading the printed text as a
    Python expression, is refused with exactly that text."""

    @staticmethod
    def _broken(spec, ps) -> list:
        texts = [] if spec.constraints == "none" else spec.constraints.split(", ")
        return [t for t in texts if not eval(t, {}, dict(ps))]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_breaking_one_rule_names_it(self, name, rng):
        spec = lookup(name)
        valid, _, _ = draw_params(name, rng, 3)
        assert self._broken(spec, valid) == []
        spec.check_params(valid)
        for lhs, op, rhs in spec.rules:
            text = f"{lhs} {op} {rhs}"
            ps = {**valid, **_BREAKS[text](valid)}
            assert self._broken(spec, ps) == [text]
            with pytest.raises(ConstraintViolation) as info:
                spec.check_params(ps)
            assert str(info.value) == f"{name}: constraint violated: {text}"

    def test_every_rule_is_broken_somewhere(self):
        texts = {f"{lhs} {op} {rhs}" for s in list_measures() for lhs, op, rhs in s.rules}
        assert texts == set(_BREAKS)

    def test_rule_naming_no_parameter_fails_when_built(self):
        # a misspelt name would otherwise surface only at the first check, as a NameError
        with pytest.raises(ValueError, match=r"^typo_row: rule 'alhpa > mu-1' names alhpa, not a parameter$"):
            MeasureSpec(
                "typo_row", "information", "self", ("alpha", "mu"), (("alhpa", ">", "mu-1"),),
                "log2(sum p_k^alpha) / (1 - alpha)", lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
            )


class TestKnownValues:
    def test_shannon_fair_coin(self):
        assert evaluate_named("shannon", make_distribution([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)

    def test_renyi_two_on_skewed(self):
        p = make_distribution([0.2, 0.3, 0.5])
        val = evaluate_named("renyi", p, alpha=2.0)
        assert val == pytest.approx(1.3959286763311392, rel=1e-15)
        assert val == pytest.approx(-math.log2(0.38), rel=1e-15)

    def test_tsallis_fair_coin(self):
        assert evaluate_named("tsallis", make_distribution([0.5, 0.5]), gamma=2.0) == pytest.approx(0.5, abs=1e-15)

    def test_havrda_charvat_fair_coin(self):
        assert evaluate_named("havrda_charvat", make_distribution([0.5, 0.5]), gamma=2.0) == pytest.approx(1.0, abs=1e-14)

    def test_kerridge_fair_coin(self):
        val = evaluate_named(
            "kerridge", make_distribution([0.5, 0.5]), weights=WeightVector([0.3, 0.7])
        )
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_onicescu_energy(self):
        p = make_distribution([0.5, 0.3, 0.2])
        assert evaluate_named("onicescu", p) == pytest.approx(0.38, rel=1e-14)

    def test_shannon_three_outcomes(self):
        p = make_distribution([0.2, 0.3, 0.5])
        assert evaluate_named("shannon", p) == pytest.approx(1.4854752972273344, rel=1e-15)


class TestUniformIdentities:
    """At the uniform distribution most rows collapse to log2 n exactly."""

    LOG_N_ROWS = [
        ("shannon", {}),
        ("renyi", dict(alpha=2.0)),
        ("renyi", dict(alpha=0.3)),
        ("varma_a", dict(mu=2.0, alpha=1.5)),
        ("varma_b", dict(mu=2.0, alpha=1.5)),
        ("aczel_daroczy_a", dict(beta=2.0)),
        ("aczel_daroczy_b", dict(alpha=2.0, beta=0.5)),
        ("kapur", dict(alpha=2.0, beta=1.5)),
        ("van_der_lubbe_a", dict(tau=-1.0)),
        ("van_der_lubbe_b", dict(tau=-1.0, lam=0.7)),
    ]

    @pytest.mark.parametrize("name,params", LOG_N_ROWS, ids=lambda x: str(x))
    def test_log_n(self, name, params):
        for n in (2, 3, 5, 8):
            p = make_distribution(np.full(n, 1.0 / n))
            assert evaluate_named(name, p, **params) == pytest.approx(math.log2(n), rel=1e-12)

    def test_rathie_constant_exponent(self):
        n = 4
        p = make_distribution(np.full(n, 0.25))
        val = evaluate_named("rathie", p, alpha=2.0, betas=np.full(n, 1.3))
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_scaled_rows(self, rng):
        # nath_a carries a mu multiplier; singh a beta multiplier that is
        # independent of the utilities.
        for n in (2, 5):
            p = make_distribution(np.full(n, 1.0 / n))
            assert evaluate_named("nath_a", p, alpha=2.0, mu=1.7) == pytest.approx(
                1.7 * math.log2(n), rel=1e-12
            )
            v = rng.uniform(0.5, 2.0, n)
            assert evaluate_named("singh", p, alpha=2.0, beta=1.3, utilities=v) == pytest.approx(
                1.3 * math.log2(n), rel=1e-12
            )

    def test_onicescu_uniform(self):
        for n in (2, 3, 7):
            p = make_distribution(np.full(n, 1.0 / n))
            assert evaluate_named("onicescu", p) == pytest.approx(1.0 / n, rel=1e-13)


class TestSpecialCases:
    def test_kapur_beta_one_is_renyi(self, rng):
        p = make_distribution(random_simplex(rng, 5))
        a = evaluate_named("kapur", p, alpha=2.3, beta=1.0)
        b = evaluate_named("renyi", p, alpha=2.3)
        assert a == pytest.approx(b, rel=1e-13)

    def test_aczel_daroczy_beta_one_is_shannon(self, rng):
        p = make_distribution(random_simplex(rng, 4))
        a = evaluate_named("aczel_daroczy_a", p, beta=1.0)
        b = evaluate_named("shannon", p)
        assert a == pytest.approx(b, rel=1e-13)

    def test_sharma_mittal_b_interpolates(self, rng):
        # alpha = gamma collapses the two-parameter row onto the
        # one-parameter power-mean row with the same normalizer
        p = make_distribution(random_simplex(rng, 4))
        a = evaluate_named("sharma_mittal_b", p, alpha=1.7, gamma=1.7)
        b = evaluate_named("havrda_charvat", p, gamma=1.7)
        assert a == pytest.approx(b, rel=1e-12)

    def test_gupta_sharma_normalization(self):
        # with the exponent fixed at -1, the two-point uniform input is the
        # calibration point of the family
        p = make_distribution([0.5, 0.5])
        u = WeightVector([0.5, 0.5])
        for c in (0.5, 0.9, -0.7, -2.0):
            gamma = 1.0 - c
            val = evaluate_named("gupta_sharma_a", p, weights=u, gamma=gamma)
            assert val == pytest.approx(1.0, rel=1e-12)

    def test_tsallis_matches_havrda_charvat_shape(self, rng):
        # same gamma, different normalizer; ratio is fixed by gamma alone
        p = make_distribution(random_simplex(rng, 4))
        g = 1.8
        ts = evaluate_named("tsallis", p, gamma=g)
        hc = evaluate_named("havrda_charvat", p, gamma=g)
        ratio = (1.0 - g) / (2.0 ** (1.0 - g) - 1.0)
        assert hc == pytest.approx(ts * ratio, rel=1e-12)


class TestEngineMatchesReference:
    """The unified engine must reproduce each row's literal closed form."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_agreement_on_random_inputs(self, name, rng):
        for _ in range(10):
            n = int(rng.integers(2, 17))
            p = make_distribution(random_simplex(rng, n))
            params, weights, utilities = draw_params(name, rng, n)
            kwargs = dict(params)
            got = evaluate_named(name, p, weights=weights, utilities=utilities, **kwargs)
            want = reference_evaluate(name, p, weights=weights, utilities=utilities, **kwargs)
            assert math.isfinite(got)
            err = abs(got - want) / max(1e-300, abs(want))
            assert err <= 1e-10, f"{name}: engine {got!r} vs reference {want!r}"

    def test_reference_checks_requirements(self):
        with pytest.raises(ConstraintViolation):
            reference_evaluate("kerridge", make_distribution([0.5, 0.5]))


class TestDeclaredWeightRules:
    """Each row's weight rule is spelled as entropy accepts it: filled in
    with the row's inputs, it gives entropy the row's exact value."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_entropy_of_declared_rule(self, name, rng):
        spec = lookup(name)
        for _ in range(5):
            n = int(rng.integers(2, 17))
            p = make_distribution(random_simplex(rng, n))
            params, weights, utilities = draw_params(name, rng, n)
            rule = spec.weights
            if rule != "self":
                given = {**params, "U": weights, "V": utilities}
                rule = (rule[0], *(given[a] for a in rule[1:]))
            pp = spec.engine_params(spec.check_params(params))
            got = entropy(p, rule, family=spec.family, tau=pp.tau, lam=pp.lam, c=pp.c, e=pp.e)
            assert got == evaluate_named(name, p, weights=weights, utilities=utilities, **params)


class TestDualRegistrations:
    def test_counterpart_names(self):
        p, u = make_distribution([0.3, 0.7]), [0.5, 0.5]
        assert dual_verify("onicescu", p)[1] == "renyi"
        assert dual_verify("teodorescu", p, gamma=2.0)[1] == "havrda_charvat"
        assert dual_verify("pardo_taneja", p, gamma=2.0)[1] == "renyi"
        assert dual_verify("pardo", p, weights=u, gamma=2.0)[1] == "renyi"
        assert dual_verify("tuteja", p, weights=u, beta=2.0, gamma=2.0)[1] == "van_der_lubbe_d"
        assert dual_verify("bhatia_a", p, beta=1.0, tau=0.5)[1] == "van_der_lubbe_a"

    def test_onicescu_maps_to_collision_order(self):
        spec = lookup("onicescu")
        name, params = spec.dual(spec.check_params({}))
        assert name == "renyi" and params["alpha"] == 2.0

    def test_counterpart_params_are_valid(self, rng):
        for name in CERTAINTY_ROWS:
            params, _, _ = draw_params(name, rng, 3)
            spec = lookup(name)
            info_name, info_params = spec.dual(spec.check_params(params))
            lookup(info_name).check_params(info_params)

    def test_information_rows_have_no_counterpart(self):
        assert lookup("shannon").dual is None
        with pytest.raises(ConstraintViolation):
            dual_verify("shannon", make_distribution([0.5, 0.5]))

    @pytest.mark.parametrize("name, given", [
        ("kerridge", {}),                         # would lack its weights
        ("kerridge", {"weights": [0.5, 0.5]}),
        ("renyi", {}),                            # would lack alpha
        ("renyi", {"alpha": 2.0}),
    ])
    def test_dual_verify_rejects_row_without_counterpart_first(self, name, given):
        with pytest.raises(ConstraintViolation, match=rf"^{name}: no information counterpart registered$"):
            dual_verify(name, make_distribution([0.5, 0.5]), **given)


class TestOneResolver:
    """MeasureSpec.build_weights resolves a row's weights on every route:
    once per evaluation, and in a sweep once, or once per point where
    the rule reads the swept parameter."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        real = MeasureSpec.build_weights

        def counted(spec, *args, **kwargs):
            made.append(spec.name)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(MeasureSpec, "build_weights", counted)
        return made

    P = "0.1,0.2,0.3,0.4"

    @pytest.mark.parametrize("route, want", [
        (lambda p: evaluate_named("kapur", p, alpha=2.0, beta=0.5), 1),
        (lambda p: dual_verify("bhatia_a", p, beta=0.5, tau=1.0), 1),
        (lambda p: evaluate_named("kapur", p, beta=0.5, sweep=("alpha", [0.5, 2.0, 3.0])), 1),
        (lambda p: evaluate_named("kapur", p, alpha=2.0, sweep=("beta", [0.5, 2.0, 3.0])), 3),
    ], ids=["evaluate", "dual", "sweep-unread", "sweep-read"])
    def test_library(self, calls, route, want):
        route(make_distribution([0.1, 0.2, 0.3, 0.4]))
        assert len(calls) == want

    @pytest.mark.parametrize("argv, want", [
        (["compute", "--measure", "kapur", "--alpha", "2", "--beta", "0.5", "--p", P], 1),
        (["dual", "--measure", "bhatia_a", "--beta", "0.5", "--tau", "1", "--p", P], 1),
        (["verify", "--measure", "kapur", "--alpha", "2", "--beta", "0.5", "--p", P, "--q", "0.5,0.5"], 2),
        (["sweep", "--measure", "kapur", "--beta", "0.5", "--param", "alpha", "--grid", "0.5,2,3", "--p", P], 1),
        (["sweep", "--measure", "kapur", "--alpha", "2", "--param", "beta", "--grid", "0.5,2,3", "--p", P], 3),
    ], ids=["compute", "dual", "verify", "sweep-unread", "sweep-read"])
    def test_cli(self, calls, capsys, argv, want):
        assert cli.run(argv) == 0
        capsys.readouterr()
        assert calls == ["kapur" if "kapur" in argv else "bhatia_a"] * want
