"""Acceptance gate: eight behavioral criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines on stdout. Every criterion states its own tolerance; none of them
may be loosened to make a red bar green.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from inforcer import (
    CompositionOp,
    GeneratorH,
    MeasureParams,
    Overflow,
    PolyParams,
    VerificationReport,
    WeightVector,
    certainty,
    compose,
    dual_verify,
    evaluate_named,
    inaccuracy,
    inforcer_content,
    inforcer_measure,
    list_measures,
    make_distribution,
    op_for_generator,
    reference_evaluate,
    verify_composability,
)
from _samplers import composability_weights, draw_params, random_simplex

CERTAINTY_ROWS = [
    "onicescu", "teodorescu", "pardo_taneja", "pardo", "tuteja",
    "van_der_lubbe_certainty_a", "van_der_lubbe_certainty_b",
    "bhatia_a", "bhatia_b",
]


def _report(num: int, ok: bool, desc: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line


def _rel(got: float, want: float) -> float:
    if want == 0.0:
        return 0.0 if got == 0.0 else math.inf
    return abs(got - want) / abs(want)


def test_criterion_1_registry_equivalence():
    """Engine and literal closed form agree to 1e-10 relative on every
    catalog row, 100 strictly positive random inputs each, n in 2..16,
    inside a 10 second budget."""
    rng = np.random.default_rng(101)
    rows = list_measures()
    assert len(rows) >= 25
    # warm the kernels outside the timed region
    evaluate_named("renyi", make_distribution([0.2, 0.8]), alpha=2.0)
    evaluate_named("shannon", make_distribution([0.2, 0.8]))
    worst = 0.0
    worst_row = ""
    start = time.perf_counter()
    for spec in rows:
        for _ in range(100):
            n = int(rng.integers(2, 17))
            p = make_distribution(random_simplex(rng, n))
            params, weights, utilities = draw_params(spec.name, rng, n)
            got = evaluate_named(spec.name, p, weights=weights, utilities=utilities, **params)
            want = reference_evaluate(spec.name, p, weights=weights, utilities=utilities, **params)
            err = _rel(got, want)
            if err > worst:
                worst, worst_row = err, spec.name
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"{len(rows)} rows x 100 inputs, worst rel err {worst:.3e} "
                   f"({worst_row or 'n/a'}), {elapsed:.2f}s")


def test_criterion_2_composability():
    """Every row satisfies its composition law on direct products to
    1e-9 relative, 100 random quadruples per row, plus the three
    hand-checkable cases."""
    rng = np.random.default_rng(202)
    fair = make_distribution([0.5, 0.5])
    fair_w = WeightVector([0.5, 0.5])
    hand = []
    rep = verify_composability("information", PolyParams(-1.0, 0.0), fair_w, fair, fair_w, fair)
    hand.append(rep.passed and abs(rep.lhs - 2.0) < 1e-12 and abs(rep.rhs - 2.0) < 1e-12)
    rep = verify_composability("information", PolyParams(-1.0, -1.0, -1.0, -1.0), fair_w, fair, fair_w, fair)
    hand.append(rep.passed and abs(rep.lhs - 0.75) < 1e-12)
    rep = verify_composability("certainty", PolyParams(-1.0, -1.0, 1.0, 1.0), fair_w, fair, fair_w, fair)
    hand.append(rep.passed and abs(rep.lhs - 0.25) < 1e-12)

    failures = 0
    checked = 0
    for spec in list_measures():
        kind = "certainty" if spec.family == "certainty" else "information"
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            p = make_distribution(random_simplex(rng, n))
            q = make_distribution(random_simplex(rng, m))
            params, _, _ = draw_params(spec.name, rng, n)
            ps = spec.check_params(params)
            w1, w2 = composability_weights(spec, ps, p, q, rng)
            report = verify_composability(kind, spec.engine_params(ps), w1, p, w2, q, tolerance=1e-9)
            checked += 1
            if not report.passed:
                failures += 1
    ok = all(hand) and failures == 0
    _report(2, ok, f"{checked} quadruples across {len(list_measures())} rows, "
                   f"{failures} failures; hand cases 2.0/0.75/0.25 {'ok' if all(hand) else 'BAD'}")


def test_criterion_3_limit_continuity():
    """Each lambda-parameterized row approaches its lambda = 0 partner:
    |value(lambda = +-1e-6) - value(lambda = 0)| <= 1e-4 over 50 draws
    per family pair."""
    rng = np.random.default_rng(303)

    def draw_dist():
        n = int(rng.integers(2, 5))
        return make_distribution(0.4 * rng.dirichlet(np.ones(n)) + 0.6 / n)

    def gamma_draw():
        while True:
            g = float(rng.uniform(0.4, 2.2))
            if abs(g - 1.0) >= 0.05:
                return g

    eps = 1e-6
    worst = 0.0
    worst_pair = ""
    pairs_checked = 0

    def check(pair_name, near_plus, near_minus, at_zero):
        nonlocal worst, worst_pair
        for v in (near_plus, near_minus):
            gap = abs(v - at_zero)
            if gap > worst:
                worst, worst_pair = gap, pair_name

    for _ in range(50):
        p = draw_dist()

        check("renyi->shannon",
              evaluate_named("renyi", p, alpha=1.0 - eps),
              evaluate_named("renyi", p, alpha=1.0 + eps),
              evaluate_named("shannon", p))

        g = gamma_draw()
        check("sharma_mittal_b->a",
              evaluate_named("sharma_mittal_b", p, alpha=1.0 - eps, gamma=g),
              evaluate_named("sharma_mittal_b", p, alpha=1.0 + eps, gamma=g),
              evaluate_named("sharma_mittal_a", p, gamma=g))

        g = gamma_draw()
        check("frank_daffertshofer_b->a",
              evaluate_named("frank_daffertshofer_b", p, alpha=1.0 - eps, gamma=g),
              evaluate_named("frank_daffertshofer_b", p, alpha=1.0 + eps, gamma=g),
              evaluate_named("frank_daffertshofer_a", p, gamma=g))

        t = float(rng.uniform(-1.0, -0.3))
        check("van_der_lubbe_b->a",
              evaluate_named("van_der_lubbe_b", p, tau=t, lam=eps),
              evaluate_named("van_der_lubbe_b", p, tau=t, lam=-eps),
              evaluate_named("van_der_lubbe_a", p, tau=t))

        c = float(rng.uniform(0.2, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        e = c * float(rng.uniform(0.5, 2.0))
        check("van_der_lubbe_d->c",
              evaluate_named("van_der_lubbe_d", p, tau=t, lam=eps, c=c, e=e),
              evaluate_named("van_der_lubbe_d", p, tau=t, lam=-eps, c=c, e=e),
              evaluate_named("van_der_lubbe_c", p, tau=t, c=c, e=e))

        tc = float(rng.uniform(0.3, 1.0))
        check("van_der_lubbe_certainty_b->a",
              evaluate_named("van_der_lubbe_certainty_b", p, tau=tc, lam=eps),
              evaluate_named("van_der_lubbe_certainty_b", p, tau=tc, lam=-eps),
              evaluate_named("van_der_lubbe_certainty_a", p, tau=tc))

        b = float(rng.uniform(-0.5, 2.0))
        check("bhatia_b->a",
              evaluate_named("bhatia_b", p, beta=b, tau=tc, lam=eps),
              evaluate_named("bhatia_b", p, beta=b, tau=tc, lam=-eps),
              evaluate_named("bhatia_a", p, beta=b, tau=tc))
        pairs_checked += 7

    ok = worst <= 1e-4
    _report(3, ok, f"{pairs_checked} limit pairs, worst |gap| {worst:.3e} ({worst_pair})")


def test_criterion_4_anchors():
    """Fixed-point anchors: fair-coin log measure 1, uniform collision
    certainty 1/n, uniform order-alpha value log2 n, and the two-point
    normalization identity for arbitrary weights and mean orders."""
    rng = np.random.default_rng(404)
    bad = []

    v = evaluate_named("shannon", make_distribution([0.5, 0.5]))
    if abs(v - 1.0) > 1e-12:
        bad.append(f"shannon coin {v!r}")

    for n in range(2, 17):
        u = make_distribution(np.full(n, 1.0 / n))
        for alpha in (0.3, 0.5, 2.0, 5.0):
            r = evaluate_named("renyi", u, alpha=alpha)
            if abs(r - math.log2(n)) > 1e-10:
                bad.append(f"renyi n={n} alpha={alpha} {r!r}")
        o = evaluate_named("onicescu", u)
        if abs(o - 1.0 / n) > 1e-12:
            bad.append(f"onicescu n={n} {o!r}")

    coin = make_distribution([0.5, 0.5])
    gen = GeneratorH.linear(1.0)
    for _ in range(20):
        w = rng.dirichlet(np.ones(2))
        u = WeightVector(w)
        for lam in (0.0, 0.5, -0.5, 2.0, -2.0):
            val = inforcer_measure(u, coin, MeasureParams(-1.0, lam, gen))
            if abs(val - 1.0) > 1e-12:
                bad.append(f"normalization U={w} lam={lam} {val!r}")

    _report(4, not bad, "fair coin, uniform log2 n / 1/n, and 100 normalization "
                        f"identities; {len(bad)} violations" + (f" e.g. {bad[0]}" if bad else ""))


def test_criterion_5_duality():
    """Every certainty row maps onto its registered information
    counterpart through the generator bridge, 1e-9 relative over 100
    random inputs per pair, with the collision/order-2 pair checked
    explicitly on P = (0.2, 0.8)."""
    rng = np.random.default_rng(505)
    p = make_distribution([0.2, 0.8])
    c_val = evaluate_named("onicescu", p)
    report, info_name = dual_verify("onicescu", p)
    explicit = (
        abs(c_val - 0.68) < 1e-14
        and info_name == "renyi"
        and report.passed
        and abs(report.lhs - (-math.log2(0.68))) < 1e-12
        and _rel(report.lhs, evaluate_named("renyi", p, alpha=2.0)) < 1e-12
    )

    failures = 0
    checked = 0
    for name in CERTAINTY_ROWS:
        for _ in range(100):
            n = int(rng.integers(2, 9))
            dist = make_distribution(random_simplex(rng, n))
            params, weights, _ = draw_params(name, rng, n)
            rep, _ = dual_verify(name, dist, weights=weights, tolerance=1e-9, **params)
            checked += 1
            if not rep.passed:
                failures += 1
    ok = explicit and failures == 0
    _report(5, ok, f"{checked} transforms across {len(CERTAINTY_ROWS)} pairs, "
                   f"{failures} failures; explicit 0.68 -> {-math.log2(0.68):.6f} "
                   f"{'ok' if explicit else 'BAD'}")


def test_criterion_6_content_axiom():
    """Elementary content is multiplicative-to-composable on a 20x20
    probability grid for all three generator shapes, 1e-10 relative,
    and strictly monotone along the grid."""
    grid = np.linspace(0.05, 1.0, 20)
    cases = [
        ("linear", GeneratorH.linear(1.0), "decreasing"),
        ("exp_info", GeneratorH.exp_info(1.0, 1.0), "decreasing"),
        ("exp_cert", GeneratorH.exp_cert(1.0, 1.0), "increasing"),
    ]
    worst = 0.0
    monotone_ok = True
    for _, gen, direction in cases:
        params = MeasureParams(-1.0, 0.0, gen)
        op = op_for_generator(gen)
        ec = [inforcer_content(p, params) for p in grid]
        steps = list(zip(ec, ec[1:]))
        if direction == "decreasing":
            monotone_ok &= all(a > b for a, b in steps)
        else:
            monotone_ok &= all(a < b for a, b in steps)
        for i, p in enumerate(grid):
            for j, q in enumerate(grid):
                got = inforcer_content(p * q, params)
                want = compose(op, ec[i], ec[j])
                err = _rel(got, want)
                if err > worst:
                    worst = err
    ok = worst <= 1e-10 and monotone_ok
    _report(6, ok, f"3 generators x 400 grid points, worst rel err {worst:.3e}, "
                   f"monotone {'ok' if monotone_ok else 'BAD'}")


def _mp_value(u, p, tau, lam, kind, c, e):
    from mpmath import mp, mpf

    with mp.workdps(60):
        U = [mpf(x) for x in u]
        P = [mpf(x) for x in p]
        if lam == 0.0:
            x = mpf(tau) * sum(ui * mp.log(pi, 2) for ui, pi in zip(U, P))
        else:
            s = sum(ui * pi ** (mpf(tau) * mpf(lam)) for ui, pi in zip(U, P))
            x = mp.log(s, 2) / mpf(lam)
        if kind == "linear":
            out = x
        elif kind == "exp_info":
            out = (mpf(2) ** (mpf(c) * x) - 1) / mpf(e)
        else:
            out = mpf(2) ** (-mpf(c) * x) / mpf(e)
        return float(out)


def test_criterion_7_robustness():
    """Values stay within 1e-8 of a 60-digit oracle (relative, or
    absolute when the oracle value is below 1, matching the package-wide
    report convention) with probabilities down to 1e-12 and
    |tau*lambda| up to 30, and extreme inputs either give finite values
    or raise, never inf or nan."""
    p_a = np.array([1e-12, 0.4, 0.6 - 1e-12])
    p_b = np.array([1e-12, 1e-12, 1.0 - 2e-12])
    u_unif = np.full(3, 1.0 / 3.0)
    u_ext = np.array([0.25, 0.35, 0.4])
    dists = [p_a, p_b]
    weights = [u_unif, u_ext, None]  # None means self-weighted
    tl = [(-1.0, 0.0), (-2.5, 0.0), (-1.0, 30.0), (-1.0, -30.0), (-3.0, 10.0),
          (-3.0, -10.0), (-0.5, 60.0), (-0.5, -60.0), (-6.0, 5.0), (-6.0, -5.0),
          (-1.0, 1e-7)]
    generators = [("linear", 1.0, 0.0), ("exp_info", 1.0, 1.0), ("exp_info", -0.8, -0.9),
                  ("exp_cert", 1.0, 1.0), ("exp_cert", 0.3, 2.0)]
    worst = 0.0
    failures = 0
    checked = 0
    for p in dists:
        dist = make_distribution(p)
        for u in weights:
            uu = p if u is None else u
            w = WeightVector(uu)
            for tau, lam in tl:
                for kind, c, e in generators:
                    if kind == "exp_cert":
                        got = certainty(w, dist, tau, lam, c, e)
                    elif e == 0.0:
                        got = inaccuracy(w, dist, tau, lam)
                    else:
                        got = inaccuracy(w, dist, tau, lam, c, e)
                    assert math.isfinite(got)
                    want = _mp_value(uu, p, tau, lam, kind, c, e)
                    report = VerificationReport.from_comparison(got, want, 1e-8)
                    checked += 1
                    if not report.passed:
                        failures += 1
                    err = report.rel_err if abs(want) >= 1.0 else report.abs_err
                    if err > worst:
                        worst = err

    overflow_raised = False
    try:
        inaccuracy(WeightVector(u_unif), make_distribution(p_b), -26.0, 0.0, c=30.0, e=1.0)
    except Overflow:
        overflow_raised = True

    ok = failures == 0 and worst <= 1e-8 and overflow_raised
    _report(7, ok, f"{checked} oracle comparisons, {failures} outside 1e-8, "
                   f"worst err {worst:.3e}; "
                   f"overflow {'raises' if overflow_raised else 'RETURNS INF'}")


def test_criterion_8_cli_contract():
    """The three documented invocations print byte-identical output and
    exit 0; malformed invocations exit 1 (usage) and 2 (domain)."""
    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "inforcer.cli", *argv],
            capture_output=True, text=True,
        )

    checks = []

    r = cli("compute", "--measure", "shannon", "--p", "0.5,0.5")
    checks.append(r.returncode == 0 and r.stdout == "1.0\n")

    r = cli("compute", "--measure", "tsallis", "--gamma", "2", "--p", "0.5,0.5",
            "--format", "json")
    expected = (
        '{"measure": "tsallis", "value": 0.5, "params": {"gamma": 2.0}, '
        '"engine": {"tau": -1.0, "lambda": -1.0, "c": -1.0, "e": -1.0}, '
        '"n": 2, "unit": "bits"}\n'
    )
    checks.append(r.returncode == 0 and r.stdout == expected)

    r = cli("verify", "--measure", "renyi", "--alpha", "2", "--p", "0.5,0.5",
            "--q", "0.5,0.5")
    expected = (
        "check: composability\nmeasure: renyi\nlhs: 2.0\nrhs: 2.0\n"
        "abs_err: 0.0\nrel_err: 0.0\ntolerance: 1e-09\nstatus: PASS\n"
    )
    checks.append(r.returncode == 0 and r.stdout == expected)

    r = cli("compute", "--measure", "shannon")  # missing --p
    checks.append(r.returncode == 1)

    r = cli("compute", "--measure", "tsallis", "--gamma", "1", "--p", "0.5,0.5")
    checks.append(r.returncode == 2)

    r = cli("compute", "--measure", "shannon", "--p", "0.5,0.6")
    checks.append(r.returncode == 2)

    ok = all(checks)
    detail = "".join("P" if c else "F" for c in checks)
    _report(8, ok, f"3 byte-exact invocations + exit codes 1/2 [{detail}]")
