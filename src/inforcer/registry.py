"""Named measure catalog.

Every row maps user-facing parameters onto the engine bundle
(tau, lambda, c, e) plus a weight rule, and carries an independent
closed-form evaluator (reference_evaluate) written straight from the
measure's textbook formula. The two routes must agree; tests hold them
to 1e-10 relative on valid inputs.

Constraint rules are declarative triples (lhs, op, rhs) where each side
is a parameter name or a number; the printed constraints string is
derived from the same triples so documentation cannot drift from
enforcement.
"""
from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    Distribution,
    UtilityVector,
    WeightVector,
    as_distribution,
    as_utility_vector,
    as_weight_vector,
    escort_weights,
    tilted_weights,
    utility_weights,
)
from .duality import dual_check
from .engine import MeasureParams, PolyParams, SharedTerms, VerificationReport, inforcer_measure
from .errors import ConstraintViolation, InforcerError, LengthMismatch, Overflow, UnknownMeasure

_RELATIONS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    "!=": lambda a, b: a != b,
}

Rule = tuple


def _operand(params: dict, token) -> float:
    """Resolve a rule operand: a number, a parameter name, or the two
    compound forms "a*b" and "a-1" used by a handful of rows."""
    if not isinstance(token, str):
        return float(token)
    if token in params:
        return float(params[token])
    if "*" in token:
        left, right = token.split("*", 1)
        return _operand(params, left) * _operand(params, right)
    if "-" in token and not token.lstrip("-").isalpha():
        left, right = token.rsplit("-", 1)
        return _operand(params, left) - float(right)
    return float(token)


def _rule_text(rule: Rule) -> str:
    lhs, op, rhs = rule
    return f"{lhs} {op} {rhs}"


@dataclass(frozen=True)
class MeasureSpec:
    """One catalog row: identity, parameter contract, and evaluators."""

    name: str
    family: str                      # information | inaccuracy | certainty
    weight_rule: str                 # human-readable weight construction
    params: tuple[str, ...]
    rules: tuple[Rule, ...]
    formula: str
    needs_weights: bool = False
    needs_utilities: bool = False
    engine: Callable[[dict], PolyParams] = field(repr=False, default=None)
    weights: Callable = field(repr=False, default=None)
    reference: Callable = field(repr=False, default=None)
    dual: Callable[[dict], tuple[str, dict]] | None = field(repr=False, default=None)

    @property
    def constraints(self) -> str:
        return ", ".join(_rule_text(r) for r in self.rules) if self.rules else "none"

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
                if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
                    raise ConstraintViolation(f"{self.name}: betas must be a finite vector")
                ps[k] = arr
            else:
                ps[k] = float(v)
                if not np.isfinite(ps[k]):
                    raise ConstraintViolation(f"{self.name}: {k} must be finite")
        for rule in self.rules:
            lhs, op, rhs = rule
            if not _RELATIONS[op](_operand(ps, lhs), _operand(ps, rhs)):
                raise ConstraintViolation(f"{self.name}: constraint violated: {_rule_text(rule)}")
        return ps

    def engine_params(self, ps: dict) -> PolyParams:
        try:
            return self.engine(ps)
        except OverflowError:  # a float power such as alpha**mu left the double range
            raise Overflow(f"{self.name}: engine parameters exceed double range") from None

    def _inputs(self, dist, weights, utilities) -> tuple:
        """(distribution, external weights or None, utilities or None),
        validated, with the inputs this row needs present and the
        weights as long as the distribution."""
        d = as_distribution(dist)
        u = as_weight_vector(weights) if weights is not None else None
        v = as_utility_vector(utilities) if utilities is not None else None
        if self.needs_weights and u is None:
            raise ConstraintViolation(f"{self.name}: requires an external weight vector")
        if self.needs_utilities and v is None:
            raise ConstraintViolation(f"{self.name}: requires a utility vector")
        if u is not None and len(u) != len(d):
            raise LengthMismatch(f"weights length {len(u)} != distribution length {len(d)}")
        return d, u, v

    def build_weights(self, dist, ps: dict, weights=None, utilities=None) -> WeightVector:
        d, u, v = self._inputs(dist, weights, utilities)
        return self.weights(d, ps, u, v)

    def evaluate(self, ps: dict, dist, weights=None, utilities=None) -> float:
        """Evaluate this row through the engine on parameters that
        check_params already returned."""
        d = as_distribution(dist)
        return self._finish(ps, self.build_weights(d, ps, weights, utilities), d)

    def _finish(self, ps: dict, w, d: Distribution) -> float:
        """The row's measure over weights w: a WeightVector, or
        SharedTerms prepared for (w, d)."""
        return inforcer_measure(w, d, MeasureParams.of(self.family, self.engine_params(ps)))

    def sweep(self, params: dict, param: str, values, dist, weights=None, utilities=None) -> list:
        """check_params and evaluate at params with param set to each of
        values in turn: per value, the float or the InforcerError raised.

        Every point runs the checks and the arithmetic of one evaluation,
        in the same order. The weights, masking and log2 are kept from the
        previous point while the parameters the weight rule reads are
        unchanged, and rebuilt when they change, so one point's arrays are
        alive at a time. A failed build is tried again at the next point.
        """
        reads = _WEIGHT_READS[self.weights]
        key = shared = None   # weight-rule inputs, and (Distribution, SharedTerms) built for them
        out: list = []
        for value in values:
            try:
                ps = self.check_params({**params, param: value})
                k = tuple(ps[r].tobytes() if r == "betas" else ps[r] for r in reads)
                if shared is None or k != key:
                    key, shared = k, None   # drop the previous arrays before building
                    d = as_distribution(dist)
                    shared = (d, SharedTerms(self.build_weights(d, ps, weights, utilities), d))
                out.append(self._finish(ps, shared[1], shared[0]))
            except InforcerError as err:
                out.append(err.with_traceback(None))
        return out


_SPECS: dict[str, MeasureSpec] = {}


def _row(
    name: str,
    family: str,
    weight_rule: str,
    params: Sequence[str],
    rules: Sequence[Rule],
    formula: str,
    engine: Callable[[dict], PolyParams],
    weights: Callable,
    reference: Callable,
    dual: Callable | None = None,
    needs_weights: bool = False,
    needs_utilities: bool = False,
) -> None:
    _SPECS[name] = MeasureSpec(
        name=name,
        family=family,
        weight_rule=weight_rule,
        params=tuple(params),
        rules=tuple(rules),
        formula=formula,
        needs_weights=needs_weights,
        needs_utilities=needs_utilities,
        engine=engine,
        weights=weights,
        reference=reference,
        dual=dual,
    )


# -- weight builders ---------------------------------------------------

def _w_self(d: Distribution, ps, u, v) -> WeightVector:
    return as_weight_vector(d)


def _w_escort(d: Distribution, ps, u, v) -> WeightVector:
    return escort_weights(d, ps["beta"])


def _w_escort_vec(d: Distribution, ps, u, v) -> WeightVector:
    return escort_weights(d, ps["betas"])


def _w_utility(d: Distribution, ps, u, v) -> WeightVector:
    return utility_weights(d, ps["beta"], v)


def _w_external(d: Distribution, ps, u, v) -> WeightVector:
    return u


def _w_tilted(d: Distribution, ps, u, v) -> WeightVector:
    return tilted_weights(d, u)


# The parameters each weight builder reads. A sweep keeps the weights
# while these are unchanged, so a builder must list every parameter it
# reads.
_WEIGHT_READS: dict[Callable, tuple[str, ...]] = {
    _w_self: (), _w_escort: ("beta",), _w_escort_vec: ("betas",),
    _w_utility: ("beta",), _w_external: (), _w_tilted: (),
}


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
    betas = np.asarray(ps["betas"])
    if betas.size != d.values.size:
        raise LengthMismatch(f"betas length {betas.size} != distribution length {d.values.size}")
    keep = d.values > 0.0
    p, b, a = d.values[keep], betas[keep], ps["alpha"]
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
    _w_self, _ref_shannon,
)
_row(
    "renyi", "information", "self", ("alpha",),
    (("alpha", ">", 0), ("alpha", "!=", 1)),
    "log2(sum p_k^alpha) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
    _w_self, _ref_renyi,
)
_row(
    "varma_a", "information", "self", ("alpha", "mu"),
    (("mu", ">=", 1), ("alpha", "<", "mu"), ("alpha", ">", "mu-1")),
    "log2(sum p_k^(alpha - mu + 1)) / (mu - alpha)",
    lambda ps: PolyParams(-1.0, ps["mu"] - ps["alpha"]),
    _w_self, _ref_varma_a,
)
_row(
    "varma_b", "information", "self", ("alpha", "mu"),
    (("mu", ">=", 1), ("alpha", "<", "mu"), ("alpha", ">", "mu-1")),
    "(mu / (mu - alpha)) log2(sum p_k^(alpha / mu))",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"] / ps["mu"]),
    _w_self, _ref_varma_b,
)
_row(
    "nath_a", "information", "self", ("alpha", "mu"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("mu", ">", 0)),
    "log2(sum p_k^(mu (alpha - 1) + 1)) / (1 - alpha)",
    lambda ps: PolyParams(-ps["mu"], 1.0 - ps["alpha"]),
    _w_self, _ref_nath_a,
)
_row(
    "nath_b", "information", "self", ("alpha", "mu"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("mu", ">", 0)),
    "log2(sum p_k^(alpha^mu)) / (1 - alpha)",
    lambda ps: PolyParams((ps["alpha"] ** ps["mu"] - 1.0) / (1.0 - ps["alpha"]), 1.0 - ps["alpha"]),
    _w_self, _ref_nath_b,
)
_row(
    "aczel_daroczy_a", "information", "escort(beta)", ("beta",), (),
    "-sum p_k^beta log2 p_k / sum p_k^beta",
    lambda ps: PolyParams(-1.0, 0.0),
    _w_escort, _ref_aczel_daroczy_a,
)
_row(
    "aczel_daroczy_b", "information", "escort(beta)", ("alpha", "beta"),
    (("alpha", "!=", "beta"),),
    "log2(sum p_k^alpha / sum p_k^beta) / (beta - alpha)",
    lambda ps: PolyParams(-1.0, ps["beta"] - ps["alpha"]),
    _w_escort, _ref_aczel_daroczy_b,
)
_row(
    "kapur", "information", "escort(beta)", ("alpha", "beta"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("beta", ">", 0)),
    "log2(sum p_k^(alpha + beta - 1) / sum p_k^beta) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
    _w_escort, _ref_kapur,
)
_row(
    "rathie", "information", "escort(betas), componentwise", ("alpha", "betas"),
    (("alpha", ">", 0), ("alpha", "!=", 1)),
    "log2(sum p_k^(alpha + beta_k - 1) / sum p_k^beta_k) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
    _w_escort_vec, _ref_rathie,
)
_row(
    "khan_autar", "information", "utility(beta, V)", ("alpha", "beta"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("beta", ">", 0)),
    "log2(sum v_k p_k^(alpha + beta - 1) / sum v_k p_k^beta) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
    _w_utility, _ref_khan_autar,
    needs_utilities=True,
)
_row(
    "singh", "information", "utility(beta, V)", ("alpha", "beta"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("beta", ">", 0)),
    "log2(sum v_k p_k^(alpha beta) / sum v_k p_k^beta) / (1 - alpha)",
    lambda ps: PolyParams(-ps["beta"], 1.0 - ps["alpha"]),
    _w_utility, _ref_singh,
    needs_utilities=True,
)
_row(
    "havrda_charvat", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(sum p_k^gamma - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _w_self, _ref_havrda_charvat,
)
_row(
    "sharma_mittal_a", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(2^((gamma - 1) sum p_k log2 p_k) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 0.0, 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _w_self, _ref_sharma_mittal_a,
)
_row(
    "sharma_mittal_b", "information", "self", ("alpha", "gamma"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum p_k^alpha)^((1 - gamma)/(1 - alpha)) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _w_self, _ref_sharma_mittal_b,
)
_row(
    "tsallis", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(sum p_k^gamma - 1) / (1 - gamma)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"], 1.0 - ps["gamma"]),
    _w_self, _ref_tsallis,
)
_row(
    "frank_daffertshofer_a", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(2^((gamma - 1) sum p_k log2 p_k) - 1) / (1 - gamma)",
    lambda ps: PolyParams(-1.0, 0.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"]),
    _w_self, _ref_frank_daffertshofer_a,
)
_row(
    "frank_daffertshofer_b", "information", "self", ("alpha", "gamma"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum p_k^alpha)^((1 - gamma)/(1 - alpha)) - 1) / (1 - gamma)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"], 1.0 - ps["gamma"], 1.0 - ps["gamma"]),
    _w_self, _ref_frank_daffertshofer_b,
)
_row(
    "arimoto", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum p_k^(1/gamma))^gamma - 1) / (gamma - 1)",
    lambda ps: PolyParams(-1.0, (ps["gamma"] - 1.0) / ps["gamma"], ps["gamma"] - 1.0, ps["gamma"] - 1.0),
    _w_self, _ref_arimoto,
)
_row(
    "boekee_van_der_lubbe", "information", "self", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(gamma / (1 - gamma)) ((sum p_k^gamma)^(1/gamma) - 1)",
    lambda ps: PolyParams(
        -1.0, 1.0 - ps["gamma"], (1.0 - ps["gamma"]) / ps["gamma"], (1.0 - ps["gamma"]) / ps["gamma"]
    ),
    _w_self, _ref_boekee_van_der_lubbe,
)
_row(
    "van_der_lubbe_a", "information", "self", ("tau",),
    (("tau", "<", 0),),
    "tau sum p_k log2 p_k",
    lambda ps: PolyParams(ps["tau"], 0.0),
    _w_self, _ref_van_der_lubbe_a,
)
_row(
    "van_der_lubbe_b", "information", "self", ("tau", "lam"),
    (("tau", "<", 0), ("lam", "!=", 0)),
    "log2(sum p_k^(1 + tau lam)) / lam",
    lambda ps: PolyParams(ps["tau"], ps["lam"]),
    _w_self, _ref_van_der_lubbe_b,
)
_row(
    "van_der_lubbe_c", "information", "self", ("tau", "c", "e"),
    (("tau", "<", 0), ("c*e", ">", 0)),
    "(2^(tau c sum p_k log2 p_k) - 1) / e",
    lambda ps: PolyParams(ps["tau"], 0.0, ps["c"], ps["e"]),
    _w_self, _ref_van_der_lubbe_c,
)
_row(
    "van_der_lubbe_d", "information", "self", ("tau", "lam", "c", "e"),
    (("tau", "<", 0), ("lam", "!=", 0), ("c*e", ">", 0)),
    "((sum p_k^(1 + tau lam))^(c/lam) - 1) / e",
    lambda ps: PolyParams(ps["tau"], ps["lam"], ps["c"], ps["e"]),
    _w_self, _ref_van_der_lubbe_d,
)
_row(
    "kerridge", "inaccuracy", "external U", (), (),
    "-sum u_k log2 p_k",
    lambda ps: PolyParams(-1.0, 0.0),
    _w_external, _ref_kerridge,
    needs_weights=True,
)
_row(
    "nath_inaccuracy_a", "inaccuracy", "external U", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(sum u_k p_k^(gamma - 1) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _w_external, _ref_nath_inaccuracy_a,
    needs_weights=True,
)
_row(
    "nath_inaccuracy_b", "inaccuracy", "external U", ("alpha",),
    (("alpha", ">", 0), ("alpha", "!=", 1)),
    "log2(sum u_k p_k^(alpha - 1)) / (1 - alpha)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"]),
    _w_external, _ref_nath_inaccuracy_b,
    needs_weights=True,
)
_row(
    "gupta_sharma_a", "inaccuracy", "external U", ("gamma",),
    (("gamma", ">", 0), ("gamma", "!=", 1)),
    "(2^((gamma - 1) sum u_k log2 p_k) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 0.0, 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _w_external, _ref_gupta_sharma_a,
    needs_weights=True,
)
_row(
    "gupta_sharma_b", "inaccuracy", "external U", ("alpha", "gamma"),
    (("alpha", ">", 0), ("alpha", "!=", 1), ("gamma", ">", 0), ("gamma", "!=", 1)),
    "((sum u_k p_k^(alpha - 1))^((1 - gamma)/(1 - alpha)) - 1) / (2^(1 - gamma) - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["alpha"], 1.0 - ps["gamma"], 2.0 ** (1.0 - ps["gamma"]) - 1.0),
    _w_external, _ref_gupta_sharma_b,
    needs_weights=True,
)
_row(
    "onicescu", "certainty", "self", (), (),
    "sum p_k^2",
    lambda ps: PolyParams(-1.0, -1.0, 1.0, 1.0),
    _w_self, _ref_onicescu,
    dual=lambda ps: ("renyi", {"alpha": 2.0}),
)
_row(
    "teodorescu", "certainty", "self", ("gamma",),
    (("gamma", ">", 1),),
    "sum p_k^gamma / (gamma - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], ps["gamma"] - 1.0, ps["gamma"] - 1.0),
    _w_self, _ref_teodorescu,
    dual=lambda ps: ("havrda_charvat", {"gamma": ps["gamma"]}),
)
_row(
    "pardo_taneja", "certainty", "self", ("gamma",),
    (("gamma", ">", 1),),
    "sum p_k^gamma",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], ps["gamma"] - 1.0, 1.0),
    _w_self, _ref_pardo_taneja,
    dual=lambda ps: ("renyi", {"alpha": ps["gamma"]}),
)
_row(
    "pardo", "certainty", "external U tilted by p", ("gamma",),
    (("gamma", ">", 1),),
    "(sum u_k p_k^gamma / sum u_k p_k) / (gamma - 1)",
    lambda ps: PolyParams(-1.0, 1.0 - ps["gamma"], ps["gamma"] - 1.0, ps["gamma"] - 1.0),
    _w_tilted, _ref_pardo,
    dual=lambda ps: ("renyi", {"alpha": ps["gamma"]}),
    needs_weights=True,
)
_row(
    "tuteja", "certainty", "external U tilted by p", ("beta", "gamma"),
    (("beta", ">", 1), ("gamma", ">", 1)),
    "(sum u_k p_k^gamma / sum u_k p_k)^((gamma - 1)/(beta - 1)) / (gamma - 1)",
    lambda ps: PolyParams(
        (ps["gamma"] - 1.0) / (1.0 - ps["beta"]), 1.0 - ps["beta"], ps["gamma"] - 1.0, ps["gamma"] - 1.0
    ),
    _w_tilted, _ref_tuteja,
    dual=lambda ps: (
        "van_der_lubbe_d",
        {
            "tau": (ps["gamma"] - 1.0) / (1.0 - ps["beta"]),
            "lam": 1.0 - ps["beta"],
            "c": 1.0 - ps["gamma"],
            "e": 2.0 ** (1.0 - ps["gamma"]) - 1.0,
        },
    ),
    needs_weights=True,
)
_row(
    "van_der_lubbe_certainty_a", "certainty", "self", ("tau",),
    (("tau", ">", 0),),
    "2^(tau sum p_k log2 p_k)",
    lambda ps: PolyParams(-ps["tau"], 0.0, 1.0, 1.0),
    _w_self, _ref_van_der_lubbe_certainty_a,
    dual=lambda ps: ("van_der_lubbe_a", {"tau": -ps["tau"]}),
)
_row(
    "van_der_lubbe_certainty_b", "certainty", "self", ("tau", "lam"),
    (("tau", ">", 0), ("lam", "!=", 0)),
    "(sum p_k^(1 + tau lam))^(1/lam)",
    lambda ps: PolyParams(-ps["tau"], -ps["lam"], 1.0, 1.0),
    _w_self, _ref_van_der_lubbe_certainty_b,
    dual=lambda ps: ("van_der_lubbe_b", {"tau": -ps["tau"], "lam": -ps["lam"]}),
)
_row(
    "bhatia_a", "certainty", "escort(beta)", ("beta", "tau"),
    (("tau", ">", 0),),
    "2^(tau sum p_k^beta log2 p_k / sum p_k^beta)",
    lambda ps: PolyParams(-ps["tau"], 0.0, 1.0, 1.0),
    _w_escort, _ref_bhatia_a,
    dual=lambda ps: ("van_der_lubbe_a", {"tau": -ps["tau"]}),
)
_row(
    "bhatia_b", "certainty", "escort(beta)", ("beta", "tau", "lam"),
    (("tau", ">", 0), ("lam", "!=", 0)),
    "(sum p_k^(beta + tau lam) / sum p_k^beta)^(1/lam)",
    lambda ps: PolyParams(-ps["tau"], -ps["lam"], 1.0, 1.0),
    _w_escort, _ref_bhatia_b,
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
    the float or the InforcerError that point raised (see
    MeasureSpec.sweep). Each value equals what a call per point returns.
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
    if v is not None and len(v) != len(d):
        raise LengthMismatch(f"utilities length {len(v)} != distribution length {len(d)}")
    return spec.reference(d, ps, u, v)


def dual_counterpart(name: str, **params) -> tuple[str, dict]:
    """Information row paired with a certainty row, with its parameters."""
    spec = lookup(name)
    if spec.family != "certainty" or spec.dual is None:
        raise ConstraintViolation(f"{name}: no information counterpart registered")
    return spec.dual(spec.check_params(params))


def dual_verify(
    name: str,
    dist,
    *,
    weights=None,
    tolerance: float = 1e-9,
    **params,
) -> tuple[VerificationReport, str]:
    """Check a certainty row against its information counterpart.

    Both sides are evaluated with the certainty row's weight vector, as
    the transform identity requires a shared inner mean.
    """
    spec = lookup(name)
    ps = spec.check_params(params)
    d = as_distribution(dist)
    w = spec.build_weights(d, ps, weights)
    if spec.family != "certainty" or spec.dual is None:
        raise ConstraintViolation(f"{name}: no information counterpart registered")
    info_name, info_params = spec.dual(ps)
    info_spec = lookup(info_name)
    info_pp = info_spec.engine_params(info_spec.check_params(info_params))
    report = dual_check(spec.engine_params(ps), info_pp, w, d, tolerance)
    return report, info_name
