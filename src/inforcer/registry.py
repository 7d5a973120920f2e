"""Named measure catalog.

Every row maps user-facing parameters onto the engine bundle
(tau, lambda, c, e) plus a weight rule. reference_evaluate takes a row
a second way, apart from the engine: its textbook formula, one entry of
_CLOSED_FORMS, over the sums it reads, sum_k w_k p_k^a and sum_k w_k
p_k^a log2 p_k (_Sums). The sums settle which terms and weights the
rule selects and keep any power of two past the double range apart, so
each formula is only its formula. Tests hold the two routes to 1e-10.

A row declares its weight rule once, in the spelling entropy and
core.resolve_weight_rule accept, with names where the values go:
"self", ("escort", "beta"), ("escort", "betas"), ("utility", "beta",
"V"), ("external", "U") or ("tilted", "U"). "U" and "V" stand for the
given weight and utility vectors, other names for checked parameters.
The inputs a row takes, which points of a sweep share one walk and the
listed weights all follow from the rule. MeasureSpec.build_weights, the
one resolver of a row's weights, fills it in for resolve_log2_weights.

Constraint rules are triples (lhs, op, rhs) over parameter names and
numbers, such as ("alpha", ">", "mu-1"). A row compiles each rule's
printed text "lhs op rhs" once, when it is registered, where a name
that is not a parameter fails, and check_params evaluates that text
over the checked parameters: what `inforcer list` prints is enforced.
"""
from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .core import (
    all_finite,
    as_distribution,
    as_utility_vector,
    as_weight_vector,
    check_exponent_top,
    check_length,
    resolve_log2_weights,
)
from .duality import dual_check
from .engine import (
    MeasureParams,
    PolyParams,
    VerificationReport,
    inforcer_measure,
    inforcer_measures,
)
from .errors import ConstraintViolation, InforcerError, Overflow, UnknownMeasure

Rule = tuple

# a rule's text reads only the checked parameters
_NO_BUILTINS = {"__builtins__": {}}

# The weights column of `inforcer list`, per declared weight rule.
_RULE_TEXT: dict = {
    "self": "self",
    ("escort", "beta"): "escort(beta)",
    ("escort", "betas"): "escort(betas), componentwise",
    ("utility", "beta", "V"): "utility(beta, V)",
    ("external", "U"): "external U",
    ("tilted", "U"): "external U tilted by p",
}


@dataclass(frozen=True)
class MeasureSpec:
    """One catalog row: identity, parameter contract, and evaluators."""

    name: str
    family: str                      # information | inaccuracy | certainty
    weights: str | tuple             # weight rule, with names for its inputs
    params: tuple[str, ...]
    rules: tuple[Rule, ...]
    formula: str
    engine: Callable[[dict], PolyParams] = field(repr=False, default=None)
    dual: Callable[[dict], tuple[str, dict]] | None = field(repr=False, default=None)

    def __post_init__(self) -> None:
        # each rule's printed text is compiled once; check_params only evaluates it
        texts = [f"{lhs} {op} {rhs}" for lhs, op, rhs in self.rules]
        object.__setattr__(self, "_checks", tuple((compile(t, self.name, "eval"), t) for t in texts))
        for code, text in self._checks:
            if stray := [a for a in code.co_names if a not in self.params]:
                raise ValueError(f"{self.name}: rule {text!r} names {', '.join(stray)}, not a parameter")

    @property
    def constraints(self) -> str:
        return ", ".join(text for _, text in self._checks) or "none"

    @property
    def weight_rule(self) -> str:
        return _RULE_TEXT[self.weights]

    @cached_property
    def _reads(self) -> tuple:
        """The names the weight rule fills in: parameters, "U", "V"."""
        return () if self.weights == "self" else self.weights[1:]

    @property
    def needs_weights(self) -> bool:
        return "U" in self._reads

    @property
    def needs_utilities(self) -> bool:
        return "V" in self._reads

    def check_params(self, given: dict) -> dict:
        """Validate names and ranges; returns a normalized float dict."""
        missing = [k for k in self.params if k not in given]
        if missing:
            raise ConstraintViolation(f"{self.name}: missing parameter(s) {', '.join(missing)}")
        unknown = [k for k in given if k not in self.params]
        if unknown:
            raise ConstraintViolation(
                f"{self.name}: unexpected parameter(s) {', '.join(sorted(unknown))}; takes "
                + (", ".join(self.params) if self.params else "none")
            )
        ps: dict = {}
        for k in self.params:
            v = given[k]
            if k == "betas":
                arr = np.asarray(v, dtype=float)
                if arr.ndim != 1 or arr.size == 0 or not all_finite(arr):
                    raise ConstraintViolation(f"{self.name}: betas must be a finite vector")
                ps[k] = arr
            else:
                ps[k] = x = float(v)
                if not math.isfinite(x):
                    raise ConstraintViolation(f"{self.name}: {k} must be finite")
        for code, text in self._checks:
            if not eval(code, _NO_BUILTINS, ps):
                raise ConstraintViolation(f"{self.name}: constraint violated: {text}")
        return ps

    def engine_params(self, ps: dict) -> PolyParams:
        try:
            return self.engine(ps)
        except OverflowError:  # a float power such as alpha**mu left the double range
            raise Overflow(f"{self.name}: engine parameters exceed double range") from None

    def _inputs(self, dist, weights, utilities) -> tuple:
        """(distribution, external weights or None, utilities or None),
        validated, with exactly the inputs this row's weight rule reads.
        Their lengths are left to the rule's builder in
        resolve_log2_weights, which checks each once."""
        d = as_distribution(dist)
        u = as_weight_vector(weights) if weights is not None else None
        v = as_utility_vector(utilities) if utilities is not None else None
        reads = self._reads
        if u is None and "U" in reads:
            raise ConstraintViolation(f"{self.name}: requires an external weight vector")
        if v is None and "V" in reads:
            raise ConstraintViolation(f"{self.name}: requires a utility vector")
        if u is not None and "U" not in reads:
            raise ConstraintViolation(f"{self.name}: takes no external weight vector")
        if v is not None and "V" not in reads:
            raise ConstraintViolation(f"{self.name}: takes no utility vector")
        return d, u, v

    def build_weights(self, dist, ps: dict, weights=None, utilities=None):
        """The declared weight rule, its names filled in from ps and the
        given U and V, in the form resolve_log2_weights gives it: dist
        itself, a WeightVector or an unbuilt Log2Weights, which
        core.as_weight_vector builds."""
        d, u, v = self._inputs(dist, weights, utilities)
        rule = self.weights
        if rule != "self":
            rule = (rule[0], *[u if a == "U" else v if a == "V" else ps[a] for a in rule[1:]])
        return resolve_log2_weights(d, rule)

    def evaluate(self, ps: dict, dist, weights=None, utilities=None) -> float:
        """Evaluate this row through the engine on parameters that
        check_params already returned."""
        d = as_distribution(dist)
        w = self.build_weights(d, ps, weights, utilities)
        return inforcer_measure(w, d, MeasureParams.of(self.family, self.engine_params(ps)))

    def sweep(self, params: dict, param: str, values, dist, weights=None, utilities=None) -> list:
        """check_params and evaluate at params with param set to each of
        values in turn: per value, the float or the InforcerError raised.

        Every point runs the checks of one evaluation in the same order.
        The weights are resolved once, or at every point where the weight
        rule reads param, and each run of points over one set of weights
        shares one walk per kind (engine.inforcer_measures), which takes
        each distinct inner mean once, so a sweep holds one block's
        buffers at any n and each value is what a call per point gives.
        """
        reread = param in self._reads
        out: list = []
        run: list = []   # (index into out, MeasureParams) of the points that wait for w's walk
        w = d = None     # the weights and distribution of the run
        for value in values:
            try:
                ps = self.check_params({**params, param: value})
                if w is None or reread:
                    inforcer_measures(w, d, run, out)
                    run, w = [], None   # drop the previous weights before resolving
                    d = as_distribution(dist)
                    w = self.build_weights(d, ps, weights, utilities)
                run.append((len(out), MeasureParams.of(self.family, self.engine_params(ps))))
                out.append(None)
            except InforcerError as err:
                out.append(err.with_traceback(None))
        inforcer_measures(w, d, run, out)
        return out


_SPECS: dict[str, MeasureSpec] = {}


def _row(*fields, **optional) -> None:
    spec = MeasureSpec(*fields, **optional)
    _SPECS[spec.name] = spec


# -- catalog -----------------------------------------------------------

_row(
    "shannon", "information", "self", (), (),
    "-sum p_k log2 p_k",
    lambda ps: PolyParams(-1.0, 0.0),
)
_row(
    "renyi", "information", "self", ("alpha",),
    (("alpha", ">", 0), ("alpha", "!=", 1)),
    "log2(sum p_k^alpha) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
)
_row(
    "varma_a", "information", "self", ("alpha", "mu"),
    (("mu", ">=", 1), ("alpha", "<", "mu"), ("alpha", ">", "mu-1")),
    "log2(sum p_k^(alpha - mu + 1)) / (mu - alpha)",
    lambda ps: PolyParams(-1.0, ps["mu"] - ps["alpha"]),
)
_row(
    "varma_b", "information", "self", ("alpha", "mu"),
    (("mu", ">=", 1), ("alpha", "<", "mu"), ("alpha", ">", "mu-1")),
    "(mu / (mu - alpha)) log2(sum p_k^(alpha / mu))",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"] / ps["mu"]),
)
_row(
    "nath_a", "information", "self", ("alpha", "mu"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("mu", ">", 0)),
    "log2(sum p_k^(mu (alpha - 1) + 1)) / (1 - alpha)",
    lambda ps: PolyParams(-ps["mu"], 1.0 - ps["alpha"]),
)
_row(
    "nath_b", "information", "self", ("alpha", "mu"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("mu", ">", 0)),
    "log2(sum p_k^(alpha^mu)) / (1 - alpha)",
    lambda ps: PolyParams((ps["alpha"] ** ps["mu"] - 1.0) / (1.0 - ps["alpha"]), 1.0 - ps["alpha"]),
)
_row(
    "aczel_daroczy_a", "information", ("escort", "beta"), ("beta",), (),
    "-sum p_k^beta log2 p_k / sum p_k^beta",
    lambda ps: PolyParams(-1.0, 0.0),
)
_row(
    "aczel_daroczy_b", "information", ("escort", "beta"), ("alpha", "beta"),
    (("alpha", "!=", "beta"),),
    "log2(sum p_k^alpha / sum p_k^beta) / (beta - alpha)",
    lambda ps: PolyParams(-1.0, ps["beta"] - ps["alpha"]),
)
_row(
    "kapur", "information", ("escort", "beta"), ("alpha", "beta"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("beta", ">", 0)),
    "log2(sum p_k^(alpha + beta - 1) / sum p_k^beta) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
)
_row(
    "rathie", "information", ("escort", "betas"), ("alpha", "betas"),
    (("alpha", ">", 0), ("alpha", "!=", 1)),
    "log2(sum p_k^(alpha + beta_k - 1) / sum p_k^beta_k) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
)
_row(
    "khan_autar", "information", ("utility", "beta", "V"), ("alpha", "beta"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("beta", ">", 0)),
    "log2(sum v_k p_k^(alpha + beta - 1) / sum v_k p_k^beta) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
)
_row(
    "singh", "information", ("utility", "beta", "V"), ("alpha", "beta"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("beta", ">", 0)),
    "log2(sum v_k p_k^(alpha beta) / sum v_k p_k^beta) / (1 - alpha)",
    lambda ps: PolyParams(-ps["beta"], 1.0 - ps["alpha"]),
)
_row(
    "havrda_charvat", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(sum p_k^gamma - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
)
_row(
    "sharma_mittal_a", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(2^((gamma - 1) sum p_k log2 p_k) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 0.0, 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
)
_row(
    "sharma_mittal_b", "information", "self", ("alpha", "gamma"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum p_k^alpha)^((1 - gamma)/(1 - alpha)) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
)
_row(
    "tsallis", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(sum p_k^gamma - 1) / (1 - gamma)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"], 1.0 - ps["gamma"]),
)
_row(
    "frank_daffertshofer_a", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(2^((gamma - 1) sum p_k log2 p_k) - 1) / (1 - gamma)",
    lambda ps: PolyParams(-1.0, 0.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"]),
)
_row(
    "frank_daffertshofer_b", "information", "self", ("alpha", "gamma"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum p_k^alpha)^((1 - gamma)/(1 - alpha)) - 1) / (1 - gamma)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"], 1.0 - ps["gamma"], 1.0 - ps["gamma"]),
)
_row(
    "arimoto", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum p_k^(1/gamma))^gamma - 1) / (gamma - 1)",
    lambda ps: PolyParams(-1.0, (ps["gamma"] - 1.0) / ps["gamma"], ps["gamma"] - 1.0, ps["gamma"] - 1.0),
)
_row(
    "boekee_van_der_lubbe", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(gamma / (1 - gamma)) ((sum p_k^gamma)^(1/gamma) - 1)",
    lambda ps: PolyParams(
        -1.0, 1.0 - ps["gamma"], (1.0 - ps["gamma"]) / ps["gamma"], (1.0 - ps["gamma"]) / ps["gamma"]
    ),
)
_row(
    "van_der_lubbe_a", "information", "self", ("tau",),
    (("tau", "<", 0),),
    "tau sum p_k log2 p_k",
    lambda ps: PolyParams(ps["tau"], 0.0),
)
_row(
    "van_der_lubbe_b", "information", "self", ("tau", "lam"),
    (("tau", "<", 0), ("lam", "!=", 0)),
    "log2(sum p_k^(1 + tau lam)) / lam",
    lambda ps: PolyParams(ps["tau"], ps["lam"]),
)
_row(
    "van_der_lubbe_c", "information", "self", ("tau", "c", "e"),
    (("tau", "<", 0), ("c*e", ">", 0)),
    "(2^(tau c sum p_k log2 p_k) - 1) / e",
    lambda ps: PolyParams(ps["tau"], 0.0, ps["c"], ps["e"]),
)
_row(
    "van_der_lubbe_d", "information", "self", ("tau", "lam", "c", "e"),
    (("tau", "<", 0), ("lam", "!=", 0), ("c*e", ">", 0)),
    "((sum p_k^(1 + tau lam))^(c/lam) - 1) / e",
    lambda ps: PolyParams(ps["tau"], ps["lam"], ps["c"], ps["e"]),
)
_row(
    "kerridge", "inaccuracy", ("external", "U"), (), (),
    "-sum u_k log2 p_k",
    lambda ps: PolyParams(-1.0, 0.0),
)
_row(
    "nath_inaccuracy_a", "inaccuracy", ("external", "U"), ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(sum u_k p_k^(gamma - 1) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
)
_row(
    "nath_inaccuracy_b", "inaccuracy", ("external", "U"), ("alpha",),
    (("alpha", ">", 0), ("alpha", "!=", 1)),
    "log2(sum u_k p_k^(alpha - 1)) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
)
_row(
    "gupta_sharma_a", "inaccuracy", ("external", "U"), ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(2^((gamma - 1) sum u_k log2 p_k) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 0.0, 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
)
_row(
    "gupta_sharma_b", "inaccuracy", ("external", "U"), ("alpha", "gamma"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum u_k p_k^(alpha - 1))^((1 - gamma)/(1 - alpha)) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
)
_row(
    "onicescu", "certainty", "self", (), (),
    "sum p_k^2",
    lambda ps: PolyParams(-1.0, -1.0, 1.0, 1.0),
    dual=lambda ps: ("renyi", {"alpha": 2.0}),
)
_row(
    "teodorescu", "certainty", "self", ("gamma",),
    (("gamma", ">", 1),),
    "sum p_k^gamma / (gamma - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], ps["gamma"] - 1.0, ps["gamma"] - 1.0),
    dual=lambda ps: ("havrda_charvat", {"gamma": ps["gamma"]}),
)
_row(
    "pardo_taneja", "certainty", "self", ("gamma",),
    (("gamma", ">", 1),),
    "sum p_k^gamma",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], ps["gamma"] - 1.0, 1.0),
    dual=lambda ps: ("renyi", {"alpha": ps["gamma"]}),
)
_row(
    "pardo", "certainty", ("tilted", "U"), ("gamma",),
    (("gamma", ">", 1),),
    "(sum u_k p_k^gamma / sum u_k p_k) / (gamma - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], ps["gamma"] - 1.0, ps["gamma"] - 1.0),
    dual=lambda ps: ("renyi", {"alpha": ps["gamma"]}),
)
_row(
    "tuteja", "certainty", ("tilted", "U"), ("beta", "gamma"),
    (("beta", ">", 1), ("gamma", ">", 1)),
    "(sum u_k p_k^gamma / sum u_k p_k)^((gamma - 1)/(beta - 1)) / (gamma - 1)",
    lambda ps: PolyParams(
        (ps["gamma"] - 1.0) / (1.0 - ps["beta"]), 1.0 - ps["beta"], ps["gamma"] - 1.0, ps["gamma"] - 1.0
    ),
    dual=lambda ps: (
        "van_der_lubbe_d",
        {
            "tau": (ps["gamma"] - 1.0) / (1.0 - ps["beta"]),
            "lam": 1.0 - ps["beta"],
            "c": 1.0 - ps["gamma"],
            "e": 2.0 ** (1.0 - ps["gamma"]) - 1.0,
        },
    ),
)
_row(
    "van_der_lubbe_certainty_a", "certainty", "self", ("tau",),
    (("tau", ">", 0),),
    "2^(tau sum p_k log2 p_k)",
    lambda ps: PolyParams(-ps["tau"], 0.0, 1.0, 1.0),
    dual=lambda ps: ("van_der_lubbe_a", {"tau": -ps["tau"]}),
)
_row(
    "van_der_lubbe_certainty_b", "certainty", "self", ("tau", "lam"),
    (("tau", ">", 0), ("lam", "!=", 0)),
    "(sum p_k^(1 + tau lam))^(1/lam)",
    lambda ps: PolyParams(-ps["tau"], -ps["lam"], 1.0, 1.0),
    dual=lambda ps: ("van_der_lubbe_b", {"tau": -ps["tau"], "lam": -ps["lam"]}),
)
_row(
    "bhatia_a", "certainty", ("escort", "beta"), ("beta", "tau"),
    (("tau", ">", 0),),
    "2^(tau sum p_k^beta log2 p_k / sum p_k^beta)",
    lambda ps: PolyParams(-ps["tau"], 0.0, 1.0, 1.0),
    dual=lambda ps: ("van_der_lubbe_a", {"tau": -ps["tau"]}),
)
_row(
    "bhatia_b", "certainty", ("escort", "beta"), ("beta", "tau", "lam"),
    (("tau", ">", 0), ("lam", "!=", 0)),
    "(sum p_k^(beta + tau lam) / sum p_k^beta)^(1/lam)",
    lambda ps: PolyParams(-ps["tau"], -ps["lam"], 1.0, 1.0),
    dual=lambda ps: ("van_der_lubbe_b", {"tau": -ps["tau"], "lam": -ps["lam"]}),
)


# -- closed forms ------------------------------------------------------
# Each row's textbook formula over the sums S of _Sums and the checked
# parameters q; nothing here reads engine_params, PolyParams or kernels.

class _Scaled:
    """s * 2^k with k an exact Fraction: a sum whose power-of-two factor
    is kept apart, so sums, their ratios and their powers stay finite
    where the float would leave the double range. Mixed with a plain
    number it is that float."""

    __slots__ = ("s", "k")

    def __init__(self, s, k) -> None:
        self.s, self.k = s, k

    def __truediv__(self, other):
        if type(other) is _Scaled:
            return _Scaled(self.s / other.s, self.k - other.k)
        return float(self) / other

    def __pow__(self, y: float) -> _Scaled:
        from fractions import Fraction
        return _Scaled(self.s ** y, self.k * Fraction(y))

    def __neg__(self) -> _Scaled:
        return _Scaled(-self.s, self.k)

    def __sub__(self, x: float) -> float:
        return float(self) - x

    def __rmul__(self, x: float) -> float:
        return x * float(self)

    def __float__(self) -> float:
        n = math.floor(self.k)
        try:
            return math.ldexp(float(self.s) * 2.0 ** float(self.k - n), n)
        except OverflowError:
            return math.copysign(math.inf, self.s)


def _log2(x: _Scaled) -> float:
    return float(x.k) + float(np.log2(x.s))


def _two_m1(g: float) -> float:
    return 2.0 ** (1.0 - g) - 1.0


class _Sums:
    """The sums a closed form reads: S(a) = sum_k w_k p_k^a and S.log(a) =
    sum_k w_k p_k^a log2 p_k, over the support of u for external and
    tilted rules and of p for the others, with w_k = u_k, v_k or 1.
    S.beta is an escort or utility rule's exponent, per term for betas,
    which S(a, b) = sum_k w_k p_k^(b_k + a) keeps apart from a power a.

    A sum whose largest p_k^a lies in [2^-969, 2^969] is the plain
    np.power sum: up to 2^54 such terms keep every bit and stay finite.
    Otherwise each term is taken relative to the largest, 2^(a log2 p_k
    - top), and the largest's log2, top, is kept apart in a _Scaled."""

    def __init__(self, spec: MeasureSpec, ps: dict, d, u, v) -> None:
        w, p = (u if u is not None else v), d.values
        if w is not None:
            check_length(w.values, p, "weights" if u is not None else "utilities")
        keep = (p if u is None else u.values) > 0.0
        self.p, self.w = p[keep], 1.0 if w is None else w.values[keep]
        self.beta = next((ps[a] for a in spec._reads if a in ps), None)
        if type(self.beta) is np.ndarray:
            check_length(self.beta, p, "escort exponent")
            self.beta_abs = float(np.maximum.reduce(np.abs(self.beta)))
            self.beta = self.beta[keep]

    def log(self, a) -> _Scaled:
        return self(a, f=np.log2(self.p))

    def __call__(self, a, b=None, f=1.0) -> _Scaled:
        # imported here: its decimal import would slow every CLI start
        from fractions import Fraction
        # log2 0 = -inf at a tilted rule's zeros of p, and a term past the
        # double range falls to 2^-inf: each the exact limit
        with np.errstate(over="ignore", divide="ignore"):
            x = np.log2(self.p)
            if b is None:  # the largest term is at max p for a >= 0, at min p for a < 0
                x0 = float(np.maximum.reduce(x) if a >= 0.0 else np.minimum.reduce(x))
                if x0 == -math.inf:  # a zero of p bounds the sum: the plain sum gives it
                    x0 = 0.0
                top, g = Fraction(a) * Fraction(x0), a * (x - x0)
            else:  # b_k log2 p_k is shifted by its largest before a log2 p_k joins it
                g = b * x
                # past the double range, the error the engine's escort weights raise
                check_exponent_top(gb := float(np.maximum.reduce(g)), "escort", b, self.beta_abs)
                g -= gb
                g += a * x
                g -= (ga := float(np.maximum.reduce(g)))
                top, a = Fraction(gb) + Fraction(ga), b + a
        if abs(top) <= 969:
            t, top = np.power(self.p, a), 0
        else:
            t = np.exp2(g)
        return _Scaled(np.add.reduce(t * self.w * f), top)


_ESCORT_RATIO = lambda S, q: _log2(S(q.alpha + S.beta - 1.0) / S(S.beta)) / (1.0 - q.alpha)

_CLOSED_FORMS: dict[str, Callable] = {
    "shannon": lambda S, q: -S.log(1.0),
    "renyi": lambda S, q: _log2(S(q.alpha)) / (1.0 - q.alpha),
    "varma_a": lambda S, q: _log2(S(q.alpha - q.mu + 1.0)) / (q.mu - q.alpha),
    "varma_b": lambda S, q: q.mu / (q.mu - q.alpha) * _log2(S(q.alpha / q.mu)),
    "nath_a": lambda S, q: _log2(S(q.mu * (q.alpha - 1.0) + 1.0)) / (1.0 - q.alpha),
    "nath_b": lambda S, q: _log2(S(q.alpha ** q.mu)) / (1.0 - q.alpha),
    "aczel_daroczy_a": lambda S, q: -S.log(S.beta) / S(S.beta),
    "aczel_daroczy_b": lambda S, q: _log2(S(q.alpha) / S(S.beta)) / (S.beta - q.alpha),
    "kapur": _ESCORT_RATIO,
    "rathie": lambda S, q: _log2(S(q.alpha - 1.0, S.beta) / S(0.0, S.beta)) / (1.0 - q.alpha),
    "khan_autar": _ESCORT_RATIO,
    "singh": lambda S, q: _log2(S(q.alpha * S.beta) / S(S.beta)) / (1.0 - q.alpha),
    "havrda_charvat": lambda S, q: (S(q.gamma) - 1.0) / _two_m1(q.gamma),
    "sharma_mittal_a": lambda S, q: (2.0 ** ((q.gamma - 1.0) * S.log(1.0)) - 1.0) / _two_m1(q.gamma),
    "sharma_mittal_b": lambda S, q: (S(q.alpha) ** ((1.0 - q.gamma) / (1.0 - q.alpha)) - 1.0) / _two_m1(q.gamma),
    "tsallis": lambda S, q: (S(q.gamma) - 1.0) / (1.0 - q.gamma),
    "frank_daffertshofer_a": lambda S, q: (2.0 ** ((q.gamma - 1.0) * S.log(1.0)) - 1.0) / (1.0 - q.gamma),
    "frank_daffertshofer_b": lambda S, q: (S(q.alpha) ** ((1.0 - q.gamma) / (1.0 - q.alpha)) - 1.0) / (1.0 - q.gamma),
    "arimoto": lambda S, q: (S(1.0 / q.gamma) ** q.gamma - 1.0) / (q.gamma - 1.0),
    "boekee_van_der_lubbe": lambda S, q: q.gamma / (1.0 - q.gamma) * (S(q.gamma) ** (1.0 / q.gamma) - 1.0),
    "van_der_lubbe_a": lambda S, q: q.tau * S.log(1.0),
    "van_der_lubbe_b": lambda S, q: _log2(S(1.0 + q.tau * q.lam)) / q.lam,
    "van_der_lubbe_c": lambda S, q: (2.0 ** (q.tau * q.c * S.log(1.0)) - 1.0) / q.e,
    "van_der_lubbe_d": lambda S, q: (S(1.0 + q.tau * q.lam) ** (q.c / q.lam) - 1.0) / q.e,
    "kerridge": lambda S, q: -S.log(0.0),
    "nath_inaccuracy_a": lambda S, q: (S(q.gamma - 1.0) - 1.0) / _two_m1(q.gamma),
    "nath_inaccuracy_b": lambda S, q: _log2(S(q.alpha - 1.0)) / (1.0 - q.alpha),
    "gupta_sharma_a": lambda S, q: (2.0 ** ((q.gamma - 1.0) * S.log(0.0)) - 1.0) / _two_m1(q.gamma),
    "gupta_sharma_b": lambda S, q: (S(q.alpha - 1.0) ** ((1.0 - q.gamma) / (1.0 - q.alpha)) - 1.0) / _two_m1(q.gamma),
    "onicescu": lambda S, q: S(2.0),
    "teodorescu": lambda S, q: S(q.gamma) / (q.gamma - 1.0),
    "pardo_taneja": lambda S, q: S(q.gamma),
    "pardo": lambda S, q: S(q.gamma) / S(1.0) / (q.gamma - 1.0),
    "tuteja": lambda S, q: (S(q.gamma) / S(1.0)) ** ((q.gamma - 1.0) / (q.beta - 1.0)) / (q.gamma - 1.0),
    "van_der_lubbe_certainty_a": lambda S, q: 2.0 ** (q.tau * S.log(1.0)),
    "van_der_lubbe_certainty_b": lambda S, q: S(1.0 + q.tau * q.lam) ** (1.0 / q.lam),
    "bhatia_a": lambda S, q: 2.0 ** (q.tau * (S.log(S.beta) / S(S.beta))),
    "bhatia_b": lambda S, q: (S(S.beta + q.tau * q.lam) / S(S.beta)) ** (1.0 / q.lam),
}


# -- public api --------------------------------------------------------

def list_measures() -> list[MeasureSpec]:
    """Catalog rows in registration order."""
    return list(_SPECS.values())


def lookup(name: str) -> MeasureSpec:
    try:
        return _SPECS[name]
    except KeyError:
        near = difflib.get_close_matches(name, _SPECS.keys(), n=3, cutoff=0.5)
        hint = f"; close matches: {', '.join(near)}" if near else ""
        raise UnknownMeasure(f"unknown measure {name!r}{hint}") from None


def evaluate_named(
    name: str,
    dist,
    *,
    weights=None,
    utilities=None,
    sweep: tuple[str, Sequence[float]] | None = None,
    **params,
) -> float | list:
    """Evaluate a catalog row through the engine.

    With sweep=(param, values), evaluate it at each value of one
    parameter, the others held at params: returns one entry per value,
    the float or the InforcerError that point raised, equal to what a
    call per point returns. Points that share an inner mean share its
    kernel steps (see MeasureSpec.sweep).
    """
    spec = lookup(name)
    if sweep is not None:
        return spec.sweep(params, *sweep, dist, weights, utilities)
    return spec.evaluate(spec.check_params(params), dist, weights, utilities)


def reference_evaluate(
    name: str,
    dist,
    *,
    weights=None,
    utilities=None,
    **params,
) -> float:
    """Evaluate a catalog row through its textbook closed form, apart
    from the engine (see _Sums)."""
    spec = lookup(name)
    ps = spec.check_params(params)
    sums = _Sums(spec, ps, *spec._inputs(dist, weights, utilities))
    return float(_CLOSED_FORMS[name](sums, SimpleNamespace(**ps)))


def dual_verify(
    name: str,
    dist,
    *,
    weights=None,
    utilities=None,
    tolerance: float = 1e-9,
    **params,
) -> tuple[VerificationReport, str]:
    """Check a certainty row, on inputs given as to evaluate_named,
    against its information counterpart: (report, counterpart name).

    Both sides are evaluated with the certainty row's weight vector, as
    the transform identity requires a shared inner mean.
    """
    spec = lookup(name)
    if spec.family != "certainty" or spec.dual is None:
        raise ConstraintViolation(f"{name}: no information counterpart registered")
    ps = spec.check_params(params)
    d = as_distribution(dist)
    w = spec.build_weights(d, ps, weights, utilities)
    info_name, info_params = spec.dual(ps)
    info_spec = lookup(info_name)
    info_pp = info_spec.engine_params(info_spec.check_params(info_params))
    return dual_check(spec.engine_params(ps), info_pp, w, d, tolerance), info_name
