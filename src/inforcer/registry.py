"""Named measure catalog.

Every row maps user-facing parameters onto the engine bundle
(tau, lambda, c, e) plus a weight rule, and carries an independent
closed-form evaluator (reference_evaluate) written straight from the
measure's textbook formula. The two routes must agree; tests hold them
to 1e-10 relative on valid inputs.

A row declares its weight rule once, in the spelling entropy and
core.resolve_weight_rule accept, with names where the values go:
"self", ("escort", "beta"), ("escort", "betas"), ("utility", "beta",
"V"), ("external", "U") or ("tilted", "U"). "U" and "V" stand for the
given weight and utility vectors, other names for checked parameters.
The inputs a row takes, which points of a sweep share one walk and the
listed weights all follow from the rule.

Constraint rules are declarative triples (lhs, op, rhs) where each side
is a parameter name or a number; each row compiles its triples once,
when it is registered, and the printed constraints string is derived
from the same triples so documentation cannot drift from enforcement.
"""
from __future__ import annotations

import difflib
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import (
    WeightVector,
    all_finite,
    as_distribution,
    as_utility_vector,
    as_weight_vector,
    check_length,
    resolve_log2_weights,
    resolve_weight_rule,
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

_RELATIONS: dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "!=": operator.ne,
}

Rule = tuple

# The weights column of `inforcer list`, per declared weight rule.
_RULE_TEXT: dict = {
    "self": "self",
    ("escort", "beta"): "escort(beta)",
    ("escort", "betas"): "escort(betas), componentwise",
    ("utility", "beta", "V"): "utility(beta, V)",
    ("external", "U"): "external U",
    ("tilted", "U"): "external U tilted by p",
}


def _operand(token, names: tuple) -> Callable[[dict], float]:
    """Compile a rule operand into a reader of checked parameters: a
    number, a parameter name, or the two compound forms "a*b" and "a-1"
    used by a handful of rows."""
    if isinstance(token, str):
        if token in names:
            return operator.itemgetter(token)
        if "*" in token:
            left, right = (_operand(t, names) for t in token.split("*", 1))
            return lambda ps: left(ps) * right(ps)
        if "-" in token and not token.lstrip("-").isalpha():
            left, right = token.rsplit("-", 1)
            minuend, subtrahend = _operand(left, names), float(right)
            return lambda ps: minuend(ps) - subtrahend
    value = float(token)
    return lambda ps: value


def _rule_text(rule: Rule) -> str:
    lhs, op, rhs = rule
    return f"{lhs} {op} {rhs}"


def _compile_rule(rule: Rule, names: tuple) -> tuple:
    """(relation, lhs reader, rhs reader, text) for one rule triple."""
    lhs, op, rhs = rule
    return _RELATIONS[op], _operand(lhs, names), _operand(rhs, names), _rule_text(rule)


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
    reference: Callable = field(repr=False, default=None)
    dual: Callable[[dict], tuple[str, dict]] | None = field(repr=False, default=None)

    def __post_init__(self) -> None:
        # the rules are compiled once; check_params only reads them
        object.__setattr__(self, "_checks", tuple(_compile_rule(r, self.params) for r in self.rules))

    @property
    def constraints(self) -> str:
        return ", ".join(_rule_text(r) for r in self.rules) if self.rules else "none"

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
        for relation, lhs, rhs, text in self._checks:
            if not relation(lhs(ps), rhs(ps)):
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
        resolve_weight_rule, which checks each once."""
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

    def _rule(self, dist, ps: dict, weights, utilities) -> tuple:
        """(distribution, the declared weight rule with its names filled
        in from ps and the given U and V)."""
        d, u, v = self._inputs(dist, weights, utilities)
        rule = self.weights
        if rule != "self":
            rule = (rule[0], *[u if a == "U" else v if a == "V" else ps[a] for a in rule[1:]])
        return d, rule

    def build_weights(self, dist, ps: dict, weights=None, utilities=None) -> WeightVector:
        """The declared weight rule, its names filled in from ps and the
        given U and V, built by resolve_weight_rule."""
        return resolve_weight_rule(*self._rule(dist, ps, weights, utilities))

    def evaluate(self, ps: dict, dist, weights=None, utilities=None) -> float:
        """Evaluate this row through the engine on parameters that
        check_params already returned, over the weights in the form
        resolve_log2_weights gives them."""
        d, rule = self._rule(dist, ps, weights, utilities)
        w = resolve_log2_weights(d, rule)
        return inforcer_measure(w, d, MeasureParams.of(self.family, self.engine_params(ps)))

    def sweep(self, params: dict, param: str, values, dist, weights=None, utilities=None) -> list:
        """check_params and evaluate at params with param set to each of
        values in turn: per value, the float or the InforcerError raised.

        Every point runs the checks of one evaluation in the same order.
        Each run of points whose weight-rule inputs agree then shares one
        walk per kind (engine.inforcer_measures), which takes each distinct
        inner mean once, so a sweep holds one block's buffers at any n and
        each value is what a call per point gives.
        """
        reads = [a for a in self._reads if a in self.params]
        out: list = []
        run: list = []         # (index into out, MeasureParams) of the points that wait for w's walk
        key = w = d = None     # weight-rule inputs, and the weights and distribution for them
        for value in values:
            try:
                ps = self.check_params({**params, param: value})
                k = tuple(ps[r].tobytes() if r == "betas" else ps[r] for r in reads)
                if w is None or k != key:
                    inforcer_measures(w, d, run, out)
                    run, key, w = [], k, None   # drop the previous weights before resolving
                    d, rule = self._rule(dist, ps, weights, utilities)
                    w = resolve_log2_weights(d, rule)
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


# -- reference formulas (independent closed forms) ---------------------
# Each masks away annihilated terms: zero self-weight, zero external
# weight, or zero escort numerator. All logs base 2.

def _supp(p: np.ndarray) -> np.ndarray:
    return p[p > 0.0]


def _supp2(p: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keep = w > 0.0
    return p[keep], w[keep]


def _ref_shannon(d, ps, u, v):
    p = _supp(d.values)
    return -float(np.sum(p * np.log2(p)))


def _ref_renyi(d, ps, u, v):
    p, a = _supp(d.values), ps["alpha"]
    return float(np.log2(np.sum(p ** a)) / (1.0 - a))


def _ref_varma_a(d, ps, u, v):
    p, a, m = _supp(d.values), ps["alpha"], ps["mu"]
    return float(np.log2(np.sum(p ** (a - m + 1.0))) / (m - a))


def _ref_varma_b(d, ps, u, v):
    p, a, m = _supp(d.values), ps["alpha"], ps["mu"]
    return float(m / (m - a) * np.log2(np.sum(p ** (a / m))))


def _ref_nath_a(d, ps, u, v):
    p, a, m = _supp(d.values), ps["alpha"], ps["mu"]
    return float(np.log2(np.sum(p ** (m * (a - 1.0) + 1.0))) / (1.0 - a))


def _ref_nath_b(d, ps, u, v):
    p, a, m = _supp(d.values), ps["alpha"], ps["mu"]
    return float(np.log2(np.sum(p ** (a ** m))) / (1.0 - a))


def _ref_aczel_daroczy_a(d, ps, u, v):
    p, b = _supp(d.values), ps["beta"]
    return -float(np.sum(p ** b * np.log2(p)) / np.sum(p ** b))


def _ref_aczel_daroczy_b(d, ps, u, v):
    p, a, b = _supp(d.values), ps["alpha"], ps["beta"]
    return float(np.log2(np.sum(p ** a) / np.sum(p ** b)) / (b - a))


def _ref_kapur(d, ps, u, v):
    p, a, b = _supp(d.values), ps["alpha"], ps["beta"]
    return float(np.log2(np.sum(p ** (a + b - 1.0)) / np.sum(p ** b)) / (1.0 - a))


def _ref_rathie(d, ps, u, v):
    check_length(ps["betas"], d.values, "escort exponent")
    keep = d.values > 0.0
    p, b, a = d.values[keep], ps["betas"][keep], ps["alpha"]
    return float(np.log2(np.sum(p ** (a + b - 1.0)) / np.sum(p ** b)) / (1.0 - a))


def _ref_khan_autar(d, ps, u, v):
    keep = d.values > 0.0
    p, w, a, b = d.values[keep], v.values[keep], ps["alpha"], ps["beta"]
    return float(np.log2(np.sum(w * p ** (a + b - 1.0)) / np.sum(w * p ** b)) / (1.0 - a))


def _ref_singh(d, ps, u, v):
    keep = d.values > 0.0
    p, w, a, b = d.values[keep], v.values[keep], ps["alpha"], ps["beta"]
    return float(np.log2(np.sum(w * p ** (a * b)) / np.sum(w * p ** b)) / (1.0 - a))


def _ref_havrda_charvat(d, ps, u, v):
    p, g = _supp(d.values), ps["gamma"]
    return float((np.sum(p ** g) - 1.0) / (2.0 ** (1.0 - g) - 1.0))


def _ref_sharma_mittal_a(d, ps, u, v):
    p, g = _supp(d.values), ps["gamma"]
    return float((2.0 ** ((g - 1.0) * np.sum(p * np.log2(p))) - 1.0) / (2.0 ** (1.0 - g) - 1.0))


def _ref_sharma_mittal_b(d, ps, u, v):
    p, a, g = _supp(d.values), ps["alpha"], ps["gamma"]
    return float((np.sum(p ** a) ** ((1.0 - g) / (1.0 - a)) - 1.0) / (2.0 ** (1.0 - g) - 1.0))


def _ref_tsallis(d, ps, u, v):
    p, g = _supp(d.values), ps["gamma"]
    return float((np.sum(p ** g) - 1.0) / (1.0 - g))


def _ref_frank_daffertshofer_a(d, ps, u, v):
    p, g = _supp(d.values), ps["gamma"]
    return float((2.0 ** ((g - 1.0) * np.sum(p * np.log2(p))) - 1.0) / (1.0 - g))


def _ref_frank_daffertshofer_b(d, ps, u, v):
    p, a, g = _supp(d.values), ps["alpha"], ps["gamma"]
    return float((np.sum(p ** a) ** ((1.0 - g) / (1.0 - a)) - 1.0) / (1.0 - g))


def _ref_arimoto(d, ps, u, v):
    p, g = _supp(d.values), ps["gamma"]
    return float((np.sum(p ** (1.0 / g)) ** g - 1.0) / (g - 1.0))


def _ref_boekee_van_der_lubbe(d, ps, u, v):
    p, g = _supp(d.values), ps["gamma"]
    return float(g / (1.0 - g) * (np.sum(p ** g) ** (1.0 / g) - 1.0))


def _ref_van_der_lubbe_a(d, ps, u, v):
    p = _supp(d.values)
    return float(ps["tau"] * np.sum(p * np.log2(p)))


def _ref_van_der_lubbe_b(d, ps, u, v):
    p, t, l = _supp(d.values), ps["tau"], ps["lam"]
    return float(np.log2(np.sum(p ** (1.0 + t * l))) / l)


def _ref_van_der_lubbe_c(d, ps, u, v):
    p, t, c, e = _supp(d.values), ps["tau"], ps["c"], ps["e"]
    return float((2.0 ** (t * c * np.sum(p * np.log2(p))) - 1.0) / e)


def _ref_van_der_lubbe_d(d, ps, u, v):
    p, t, l, c, e = _supp(d.values), ps["tau"], ps["lam"], ps["c"], ps["e"]
    return float((np.sum(p ** (1.0 + t * l)) ** (c / l) - 1.0) / e)


def _ref_kerridge(d, ps, u, v):
    p, w = _supp2(d.values, u.values)
    return -float(np.sum(w * np.log2(p)))


def _ref_nath_inaccuracy_a(d, ps, u, v):
    p, w = _supp2(d.values, u.values)
    g = ps["gamma"]
    return float((np.sum(w * p ** (g - 1.0)) - 1.0) / (2.0 ** (1.0 - g) - 1.0))


def _ref_nath_inaccuracy_b(d, ps, u, v):
    p, w = _supp2(d.values, u.values)
    a = ps["alpha"]
    return float(np.log2(np.sum(w * p ** (a - 1.0))) / (1.0 - a))


def _ref_gupta_sharma_a(d, ps, u, v):
    p, w = _supp2(d.values, u.values)
    g = ps["gamma"]
    return float((2.0 ** ((g - 1.0) * np.sum(w * np.log2(p))) - 1.0) / (2.0 ** (1.0 - g) - 1.0))


def _ref_gupta_sharma_b(d, ps, u, v):
    p, w = _supp2(d.values, u.values)
    a, g = ps["alpha"], ps["gamma"]
    return float((np.sum(w * p ** (a - 1.0)) ** ((1.0 - g) / (1.0 - a)) - 1.0) / (2.0 ** (1.0 - g) - 1.0))


def _ref_onicescu(d, ps, u, v):
    return float(np.sum(d.values ** 2))


def _ref_teodorescu(d, ps, u, v):
    p, g = _supp(d.values), ps["gamma"]
    return float(np.sum(p ** g) / (g - 1.0))


def _ref_pardo_taneja(d, ps, u, v):
    p, g = _supp(d.values), ps["gamma"]
    return float(np.sum(p ** g))


def _ref_pardo(d, ps, u, v):
    p, w = _supp2(d.values, u.values)
    g = ps["gamma"]
    return float(np.sum(w * p ** g) / np.sum(w * p) / (g - 1.0))


def _ref_tuteja(d, ps, u, v):
    p, w = _supp2(d.values, u.values)
    b, g = ps["beta"], ps["gamma"]
    return float((np.sum(w * p ** g) / np.sum(w * p)) ** ((g - 1.0) / (b - 1.0)) / (g - 1.0))


def _ref_van_der_lubbe_certainty_a(d, ps, u, v):
    p = _supp(d.values)
    return float(2.0 ** (ps["tau"] * np.sum(p * np.log2(p))))


def _ref_van_der_lubbe_certainty_b(d, ps, u, v):
    p, t, l = _supp(d.values), ps["tau"], ps["lam"]
    return float(np.sum(p ** (1.0 + t * l)) ** (1.0 / l))


def _ref_bhatia_a(d, ps, u, v):
    p, b, t = _supp(d.values), ps["beta"], ps["tau"]
    return float(2.0 ** (t * np.sum(p ** b * np.log2(p)) / np.sum(p ** b)))


def _ref_bhatia_b(d, ps, u, v):
    p, b, t, l = _supp(d.values), ps["beta"], ps["tau"], ps["lam"]
    return float((np.sum(p ** (b + t * l)) / np.sum(p ** b)) ** (1.0 / l))


# -- catalog -----------------------------------------------------------

_row(
    "shannon", "information", "self", (), (),
    "-sum p_k log2 p_k",
    lambda ps: PolyParams(-1.0, 0.0),
    _ref_shannon,
)
_row(
    "renyi", "information", "self", ("alpha",),
    (("alpha", ">", 0), ("alpha", "!=", 1)),
    "log2(sum p_k^alpha) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
    _ref_renyi,
)
_row(
    "varma_a", "information", "self", ("alpha", "mu"),
    (("mu", ">=", 1), ("alpha", "<", "mu"), ("alpha", ">", "mu-1")),
    "log2(sum p_k^(alpha - mu + 1)) / (mu - alpha)",
    lambda ps: PolyParams(-1.0, ps["mu"] - ps["alpha"]),
    _ref_varma_a,
)
_row(
    "varma_b", "information", "self", ("alpha", "mu"),
    (("mu", ">=", 1), ("alpha", "<", "mu"), ("alpha", ">", "mu-1")),
    "(mu / (mu - alpha)) log2(sum p_k^(alpha / mu))",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"] / ps["mu"]),
    _ref_varma_b,
)
_row(
    "nath_a", "information", "self", ("alpha", "mu"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("mu", ">", 0)),
    "log2(sum p_k^(mu (alpha - 1) + 1)) / (1 - alpha)",
    lambda ps: PolyParams(-ps["mu"], 1.0 - ps["alpha"]),
    _ref_nath_a,
)
_row(
    "nath_b", "information", "self", ("alpha", "mu"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("mu", ">", 0)),
    "log2(sum p_k^(alpha^mu)) / (1 - alpha)",
    lambda ps: PolyParams((ps["alpha"] ** ps["mu"] - 1.0) / (1.0 - ps["alpha"]), 1.0 - ps["alpha"]),
    _ref_nath_b,
)
_row(
    "aczel_daroczy_a", "information", ("escort", "beta"), ("beta",), (),
    "-sum p_k^beta log2 p_k / sum p_k^beta",
    lambda ps: PolyParams(-1.0, 0.0),
    _ref_aczel_daroczy_a,
)
_row(
    "aczel_daroczy_b", "information", ("escort", "beta"), ("alpha", "beta"),
    (("alpha", "!=", "beta"),),
    "log2(sum p_k^alpha / sum p_k^beta) / (beta - alpha)",
    lambda ps: PolyParams(-1.0, ps["beta"] - ps["alpha"]),
    _ref_aczel_daroczy_b,
)
_row(
    "kapur", "information", ("escort", "beta"), ("alpha", "beta"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("beta", ">", 0)),
    "log2(sum p_k^(alpha + beta - 1) / sum p_k^beta) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
    _ref_kapur,
)
_row(
    "rathie", "information", ("escort", "betas"), ("alpha", "betas"),
    (("alpha", ">", 0), ("alpha", "!=", 1)),
    "log2(sum p_k^(alpha + beta_k - 1) / sum p_k^beta_k) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
    _ref_rathie,
)
_row(
    "khan_autar", "information", ("utility", "beta", "V"), ("alpha", "beta"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("beta", ">", 0)),
    "log2(sum v_k p_k^(alpha + beta - 1) / sum v_k p_k^beta) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
    _ref_khan_autar,
)
_row(
    "singh", "information", ("utility", "beta", "V"), ("alpha", "beta"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("beta", ">", 0)),
    "log2(sum v_k p_k^(alpha beta) / sum v_k p_k^beta) / (1 - alpha)",
    lambda ps: PolyParams(-ps["beta"], 1.0 - ps["alpha"]),
    _ref_singh,
)
_row(
    "havrda_charvat", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(sum p_k^gamma - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _ref_havrda_charvat,
)
_row(
    "sharma_mittal_a", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(2^((gamma - 1) sum p_k log2 p_k) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 0.0, 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _ref_sharma_mittal_a,
)
_row(
    "sharma_mittal_b", "information", "self", ("alpha", "gamma"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum p_k^alpha)^((1 - gamma)/(1 - alpha)) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _ref_sharma_mittal_b,
)
_row(
    "tsallis", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(sum p_k^gamma - 1) / (1 - gamma)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"], 1.0 - ps["gamma"]),
    _ref_tsallis,
)
_row(
    "frank_daffertshofer_a", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(2^((gamma - 1) sum p_k log2 p_k) - 1) / (1 - gamma)",
    lambda ps: PolyParams(-1.0, 0.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"]),
    _ref_frank_daffertshofer_a,
)
_row(
    "frank_daffertshofer_b", "information", "self", ("alpha", "gamma"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum p_k^alpha)^((1 - gamma)/(1 - alpha)) - 1) / (1 - gamma)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"], 1.0 - ps["gamma"], 1.0 - ps["gamma"]),
    _ref_frank_daffertshofer_b,
)
_row(
    "arimoto", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum p_k^(1/gamma))^gamma - 1) / (gamma - 1)",
    lambda ps: PolyParams(-1.0, (ps["gamma"] - 1.0) / ps["gamma"], ps["gamma"] - 1.0, ps["gamma"] - 1.0),
    _ref_arimoto,
)
_row(
    "boekee_van_der_lubbe", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(gamma / (1 - gamma)) ((sum p_k^gamma)^(1/gamma) - 1)",
    lambda ps: PolyParams(
        -1.0, 1.0 - ps["gamma"], (1.0 - ps["gamma"]) / ps["gamma"], (1.0 - ps["gamma"]) / ps["gamma"]
    ),
    _ref_boekee_van_der_lubbe,
)
_row(
    "van_der_lubbe_a", "information", "self", ("tau",),
    (("tau", "<", 0),),
    "tau sum p_k log2 p_k",
    lambda ps: PolyParams(ps["tau"], 0.0),
    _ref_van_der_lubbe_a,
)
_row(
    "van_der_lubbe_b", "information", "self", ("tau", "lam"),
    (("tau", "<", 0), ("lam", "!=", 0)),
    "log2(sum p_k^(1 + tau lam)) / lam",
    lambda ps: PolyParams(ps["tau"], ps["lam"]),
    _ref_van_der_lubbe_b,
)
_row(
    "van_der_lubbe_c", "information", "self", ("tau", "c", "e"),
    (("tau", "<", 0), ("c*e", ">", 0)),
    "(2^(tau c sum p_k log2 p_k) - 1) / e",
    lambda ps: PolyParams(ps["tau"], 0.0, ps["c"], ps["e"]),
    _ref_van_der_lubbe_c,
)
_row(
    "van_der_lubbe_d", "information", "self", ("tau", "lam", "c", "e"),
    (("tau", "<", 0), ("lam", "!=", 0), ("c*e", ">", 0)),
    "((sum p_k^(1 + tau lam))^(c/lam) - 1) / e",
    lambda ps: PolyParams(ps["tau"], ps["lam"], ps["c"], ps["e"]),
    _ref_van_der_lubbe_d,
)
_row(
    "kerridge", "inaccuracy", ("external", "U"), (), (),
    "-sum u_k log2 p_k",
    lambda ps: PolyParams(-1.0, 0.0),
    _ref_kerridge,
)
_row(
    "nath_inaccuracy_a", "inaccuracy", ("external", "U"), ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(sum u_k p_k^(gamma - 1) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _ref_nath_inaccuracy_a,
)
_row(
    "nath_inaccuracy_b", "inaccuracy", ("external", "U"), ("alpha",),
    (("alpha", ">", 0), ("alpha", "!=", 1)),
    "log2(sum u_k p_k^(alpha - 1)) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
    _ref_nath_inaccuracy_b,
)
_row(
    "gupta_sharma_a", "inaccuracy", ("external", "U"), ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(2^((gamma - 1) sum u_k log2 p_k) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 0.0, 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _ref_gupta_sharma_a,
)
_row(
    "gupta_sharma_b", "inaccuracy", ("external", "U"), ("alpha", "gamma"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum u_k p_k^(alpha - 1))^((1 - gamma)/(1 - alpha)) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _ref_gupta_sharma_b,
)
_row(
    "onicescu", "certainty", "self", (), (),
    "sum p_k^2",
    lambda ps: PolyParams(-1.0, -1.0, 1.0, 1.0),
    _ref_onicescu,
    dual=lambda ps: ("renyi", {"alpha": 2.0}),
)
_row(
    "teodorescu", "certainty", "self", ("gamma",),
    (("gamma", ">", 1),),
    "sum p_k^gamma / (gamma - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], ps["gamma"] - 1.0, ps["gamma"] - 1.0),
    _ref_teodorescu,
    dual=lambda ps: ("havrda_charvat", {"gamma": ps["gamma"]}),
)
_row(
    "pardo_taneja", "certainty", "self", ("gamma",),
    (("gamma", ">", 1),),
    "sum p_k^gamma",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], ps["gamma"] - 1.0, 1.0),
    _ref_pardo_taneja,
    dual=lambda ps: ("renyi", {"alpha": ps["gamma"]}),
)
_row(
    "pardo", "certainty", ("tilted", "U"), ("gamma",),
    (("gamma", ">", 1),),
    "(sum u_k p_k^gamma / sum u_k p_k) / (gamma - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], ps["gamma"] - 1.0, ps["gamma"] - 1.0),
    _ref_pardo,
    dual=lambda ps: ("renyi", {"alpha": ps["gamma"]}),
)
_row(
    "tuteja", "certainty", ("tilted", "U"), ("beta", "gamma"),
    (("beta", ">", 1), ("gamma", ">", 1)),
    "(sum u_k p_k^gamma / sum u_k p_k)^((gamma - 1)/(beta - 1)) / (gamma - 1)",
    lambda ps: PolyParams(
        (ps["gamma"] - 1.0) / (1.0 - ps["beta"]), 1.0 - ps["beta"], ps["gamma"] - 1.0, ps["gamma"] - 1.0
    ),
    _ref_tuteja,
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
    _ref_van_der_lubbe_certainty_a,
    dual=lambda ps: ("van_der_lubbe_a", {"tau": -ps["tau"]}),
)
_row(
    "van_der_lubbe_certainty_b", "certainty", "self", ("tau", "lam"),
    (("tau", ">", 0), ("lam", "!=", 0)),
    "(sum p_k^(1 + tau lam))^(1/lam)",
    lambda ps: PolyParams(-ps["tau"], -ps["lam"], 1.0, 1.0),
    _ref_van_der_lubbe_certainty_b,
    dual=lambda ps: ("van_der_lubbe_b", {"tau": -ps["tau"], "lam": -ps["lam"]}),
)
_row(
    "bhatia_a", "certainty", ("escort", "beta"), ("beta", "tau"),
    (("tau", ">", 0),),
    "2^(tau sum p_k^beta log2 p_k / sum p_k^beta)",
    lambda ps: PolyParams(-ps["tau"], 0.0, 1.0, 1.0),
    _ref_bhatia_a,
    dual=lambda ps: ("van_der_lubbe_a", {"tau": -ps["tau"]}),
)
_row(
    "bhatia_b", "certainty", ("escort", "beta"), ("beta", "tau", "lam"),
    (("tau", ">", 0), ("lam", "!=", 0)),
    "(sum p_k^(beta + tau lam) / sum p_k^beta)^(1/lam)",
    lambda ps: PolyParams(-ps["tau"], -ps["lam"], 1.0, 1.0),
    _ref_bhatia_b,
    dual=lambda ps: ("van_der_lubbe_b", {"tau": -ps["tau"], "lam": -ps["lam"]}),
)


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
    """Evaluate a catalog row through its literal closed form."""
    spec = lookup(name)
    ps = spec.check_params(params)
    d, u, v = spec._inputs(dist, weights, utilities)
    for x, what in ((u, "weights"), (v, "utilities")):
        if x is not None:
            check_length(x.values, d.values, what)
    return spec.reference(d, ps, u, v)


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
    d, rule = spec._rule(dist, ps, weights, utilities)
    w = resolve_log2_weights(d, rule)
    info_name, info_params = spec.dual(ps)
    info_spec = lookup(info_name)
    info_pp = info_spec.engine_params(info_spec.check_params(info_params))
    return dual_check(spec.engine_params(ps), info_pp, w, d, tolerance), info_name
