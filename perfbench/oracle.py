"""60-digit mpmath evaluations of every catalog row's textbook formula.

These are written from the published formulas, not from the library's
engine parameters, so the benchmark can check the library's outputs
against a computation made apart from it.

Inputs are lists of terms ``(count, p, u, v, b)``: ``count`` equal
entries with probability ``p``, external weight ``u``, utility ``v`` and
per-component escort exponent ``b`` (``None`` where unused). A small
input is one term per entry with count 1; a 10^6-entry input with a few
distinct levels is a few terms, which keeps its exact value cheap.
Floats are converted exactly, so a reference is the exact value of the
formula on the float input the library received. All logs are base 2.
"""
from __future__ import annotations

from mpmath import mp, mpf

mp.dps = 60

REL_TOL = 1e-10


def terms(p, u=None, v=None, b=None, count=None):
    """Zip per-entry (or per-level) columns into mpf terms."""
    n = len(p)
    col = lambda xs: [None] * n if xs is None else [mpf(float(x)) for x in xs]
    counts = [1] * n if count is None else [int(c) for c in count]
    return list(zip(counts, col(p), col(u), col(v), col(b)))


def product_terms(first, second):
    """Terms of the direct product, with entries rounded as float products."""
    out = []
    for c1, p1, u1, _, _ in first:
        for c2, p2, u2, _, _ in second:
            u = None if u1 is None else mpf(float(u1) * float(u2))
            out.append((c1 * c2, mpf(float(p1) * float(p2)), u, None, None))
    return out


def _log2(x):
    return mp.log(x, 2)


def _s(t, x):
    """sum p^x over the support."""
    return mp.fsum(c * p ** x for c, p, _, _, _ in t if p > 0)


def _lp(t):
    """sum p log2 p over the support."""
    return mp.fsum(c * p * _log2(p) for c, p, _, _, _ in t if p > 0)


def _su(t, x):
    """sum u p^x over nonzero weights."""
    return mp.fsum(c * u * p ** x for c, p, u, _, _ in t if u > 0)


def _lu(t):
    """sum u log2 p over nonzero weights."""
    return mp.fsum(c * u * _log2(p) for c, p, u, _, _ in t if u > 0)


def _sv(t, x):
    """sum v p^x over the support."""
    return mp.fsum(c * v * p ** x for c, p, _, v, _ in t if p > 0)


def _sb(t, x):
    """sum p^(x + b_k) over the support, b_k per component."""
    return mp.fsum(c * p ** (x + b) for c, p, _, _, b in t if p > 0)


def _escort_log(t, beta):
    """sum p^beta log2 p / sum p^beta."""
    return mp.fsum(c * p ** beta * _log2(p) for c, p, _, _, _ in t if p > 0) / _s(t, beta)


def _two_m1(g):
    """2^(1 - gamma) - 1."""
    return mpf(2) ** (1 - g) - 1


def _m(ps):
    return {k: mpf(float(v)) for k, v in ps.items() if k != "betas"}


# name -> f(terms, params); params are mpf, rathie's betas ride in the terms.
ROWS = {
    "shannon": lambda t, q: -_lp(t),
    "renyi": lambda t, q: _log2(_s(t, q["alpha"])) / (1 - q["alpha"]),
    "varma_a": lambda t, q: _log2(_s(t, q["alpha"] - q["mu"] + 1)) / (q["mu"] - q["alpha"]),
    "varma_b": lambda t, q: q["mu"] / (q["mu"] - q["alpha"]) * _log2(_s(t, q["alpha"] / q["mu"])),
    "nath_a": lambda t, q: _log2(_s(t, q["mu"] * (q["alpha"] - 1) + 1)) / (1 - q["alpha"]),
    "nath_b": lambda t, q: _log2(_s(t, q["alpha"] ** q["mu"])) / (1 - q["alpha"]),
    "aczel_daroczy_a": lambda t, q: -_escort_log(t, q["beta"]),
    "aczel_daroczy_b": lambda t, q: _log2(_s(t, q["alpha"]) / _s(t, q["beta"])) / (q["beta"] - q["alpha"]),
    "kapur": lambda t, q: _log2(_s(t, q["alpha"] + q["beta"] - 1) / _s(t, q["beta"])) / (1 - q["alpha"]),
    "rathie": lambda t, q: _log2(_sb(t, q["alpha"] - 1) / _sb(t, 0)) / (1 - q["alpha"]),
    "khan_autar": lambda t, q: _log2(_sv(t, q["alpha"] + q["beta"] - 1) / _sv(t, q["beta"])) / (1 - q["alpha"]),
    "singh": lambda t, q: _log2(_sv(t, q["alpha"] * q["beta"]) / _sv(t, q["beta"])) / (1 - q["alpha"]),
    "havrda_charvat": lambda t, q: (_s(t, q["gamma"]) - 1) / _two_m1(q["gamma"]),
    "sharma_mittal_a": lambda t, q: (mpf(2) ** ((q["gamma"] - 1) * _lp(t)) - 1) / _two_m1(q["gamma"]),
    "sharma_mittal_b": lambda t, q: (
        (_s(t, q["alpha"]) ** ((1 - q["gamma"]) / (1 - q["alpha"])) - 1) / _two_m1(q["gamma"])
    ),
    "tsallis": lambda t, q: (_s(t, q["gamma"]) - 1) / (1 - q["gamma"]),
    "frank_daffertshofer_a": lambda t, q: (mpf(2) ** ((q["gamma"] - 1) * _lp(t)) - 1) / (1 - q["gamma"]),
    "frank_daffertshofer_b": lambda t, q: (
        (_s(t, q["alpha"]) ** ((1 - q["gamma"]) / (1 - q["alpha"])) - 1) / (1 - q["gamma"])
    ),
    "arimoto": lambda t, q: (_s(t, 1 / q["gamma"]) ** q["gamma"] - 1) / (q["gamma"] - 1),
    "boekee_van_der_lubbe": lambda t, q: (
        q["gamma"] / (1 - q["gamma"]) * (_s(t, q["gamma"]) ** (1 / q["gamma"]) - 1)
    ),
    "van_der_lubbe_a": lambda t, q: q["tau"] * _lp(t),
    "van_der_lubbe_b": lambda t, q: _log2(_s(t, 1 + q["tau"] * q["lam"])) / q["lam"],
    "van_der_lubbe_c": lambda t, q: (mpf(2) ** (q["tau"] * q["c"] * _lp(t)) - 1) / q["e"],
    "van_der_lubbe_d": lambda t, q: (_s(t, 1 + q["tau"] * q["lam"]) ** (q["c"] / q["lam"]) - 1) / q["e"],
    "kerridge": lambda t, q: -_lu(t),
    "nath_inaccuracy_a": lambda t, q: (_su(t, q["gamma"] - 1) - 1) / _two_m1(q["gamma"]),
    "nath_inaccuracy_b": lambda t, q: _log2(_su(t, q["alpha"] - 1)) / (1 - q["alpha"]),
    "gupta_sharma_a": lambda t, q: (mpf(2) ** ((q["gamma"] - 1) * _lu(t)) - 1) / _two_m1(q["gamma"]),
    "gupta_sharma_b": lambda t, q: (
        (_su(t, q["alpha"] - 1) ** ((1 - q["gamma"]) / (1 - q["alpha"])) - 1) / _two_m1(q["gamma"])
    ),
    "onicescu": lambda t, q: _s(t, 2),
    "teodorescu": lambda t, q: _s(t, q["gamma"]) / (q["gamma"] - 1),
    "pardo_taneja": lambda t, q: _s(t, q["gamma"]),
    "pardo": lambda t, q: _su(t, q["gamma"]) / _su(t, 1) / (q["gamma"] - 1),
    "tuteja": lambda t, q: (_su(t, q["gamma"]) / _su(t, 1)) ** ((q["gamma"] - 1) / (q["beta"] - 1)) / (q["gamma"] - 1),
    "van_der_lubbe_certainty_a": lambda t, q: mpf(2) ** (q["tau"] * _lp(t)),
    "van_der_lubbe_certainty_b": lambda t, q: _s(t, 1 + q["tau"] * q["lam"]) ** (1 / q["lam"]),
    "bhatia_a": lambda t, q: mpf(2) ** (q["tau"] * _escort_log(t, q["beta"])),
    "bhatia_b": lambda t, q: (_s(t, q["beta"] + q["tau"] * q["lam"]) / _s(t, q["beta"])) ** (1 / q["lam"]),
}

# Certainty row -> its information counterpart, evaluated under the
# certainty row's own weights (self, escort or tilted), as the duality
# identity requires.
DUALS = {
    "onicescu": lambda t, q: -_log2(_s(t, 2)),
    "teodorescu": lambda t, q: (_s(t, q["gamma"]) - 1) / _two_m1(q["gamma"]),
    "pardo_taneja": lambda t, q: _log2(_s(t, q["gamma"])) / (1 - q["gamma"]),
    "pardo": lambda t, q: _log2(_su(t, q["gamma"]) / _su(t, 1)) / (1 - q["gamma"]),
    "tuteja": lambda t, q: (
        ((_su(t, q["gamma"]) / _su(t, 1)) ** ((1 - q["gamma"]) / (1 - q["beta"])) - 1) / _two_m1(q["gamma"])
    ),
    "van_der_lubbe_certainty_a": lambda t, q: -q["tau"] * _lp(t),
    "van_der_lubbe_certainty_b": lambda t, q: -_log2(_s(t, 1 + q["tau"] * q["lam"])) / q["lam"],
    "bhatia_a": lambda t, q: -q["tau"] * _escort_log(t, q["beta"]),
    "bhatia_b": lambda t, q: -_log2(_s(t, q["beta"] + q["tau"] * q["lam"]) / _s(t, q["beta"])) / q["lam"],
}


def row_value(name: str, t, ps: dict) -> float:
    return float(ROWS[name](t, _m(ps)))


def dual_value(name: str, t, ps: dict) -> float:
    return float(DUALS[name](t, _m(ps)))


def close(got: float, want: float, tol: float = REL_TOL) -> bool:
    """Relative agreement; an exact zero reference needs an exact zero."""
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= tol * abs(want)
