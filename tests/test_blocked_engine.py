"""The blocked engine: a vector of several blocks gives the value, the
report and the error of the same vector taken as one block.

The inputs hold 2 * _BLOCK + 17 entries, so the last block is ragged,
and every zero and every offending entry sits in that last block.
"""
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from inforcer import (
    ConstraintViolation,
    DegenerateWeights,
    DomainError,
    LengthMismatch,
    NotNormalized,
    Overflow,
    PolyParams,
    UtilityVector,
    WeightVector,
    direct_product,
    dual_verify,
    entropy,
    evaluate_named,
    list_measures,
    make_distribution,
    reference_evaluate,
    verify_composability,
    weight_product,
)
from inforcer import engine
from inforcer.engine import MeasureParams, inforcer_measure
from _samplers import draw_params, random_simplex

N = 2 * engine._BLOCK + 17
TAIL = slice(2 * engine._BLOCK, N)       # the ragged last block
ESCORT_ROWS = {"aczel_daroczy_a", "aczel_daroczy_b", "kapur", "bhatia_a", "bhatia_b"}
CERTAINTY_ROWS = [s.name for s in list_measures() if s.family == "certainty"]


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _with_zeros(rng, n: int, zeros) -> np.ndarray:
    """A random simplex point that is zero exactly at the given indices."""
    x = random_simplex(rng, n)
    x[zeros] = 0.0
    return x / math.fsum(x)


@pytest.fixture()
def one_block(monkeypatch):
    """Run the body with every input as a single block."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(engine, "_BLOCK", 2**20)
            return fn(*args, **kwargs)
    return run


def _inputs(name, rng):
    """(p, params, weights, utilities) for a row: p has zeros in the last
    block, and external weights have zeros there too, wherever p does and
    on some entries of their own."""
    params, weights, utilities = draw_params(name, rng, N)
    zeros = 2 * engine._BLOCK + np.array([1, 4, 9, 16])
    p = make_distribution(_with_zeros(rng, N, zeros))
    if weights is not None:
        weights = WeightVector(_with_zeros(rng, N, np.concatenate([zeros, zeros[:2] + 1])))
    if name in ESCORT_ROWS:
        params["beta"] = abs(params["beta"]) + 0.1  # p_k^beta with beta > 0 annihilates a zero p_k
    return p, params, weights, utilities


@pytest.mark.parametrize("name", [s.name for s in list_measures()])
def test_every_row_matches_its_closed_form_and_one_block(name, rng, one_block):
    p, params, weights, utilities = _inputs(name, rng)
    got = evaluate_named(name, p, weights=weights, utilities=utilities, **params)
    want = reference_evaluate(name, p, weights=weights, utilities=utilities, **params)
    single = one_block(evaluate_named, name, p, weights=weights, utilities=utilities, **params)
    assert _rel(got, want) <= 1e-10
    assert _rel(got, single) <= 1e-13


@pytest.mark.parametrize("name", CERTAINTY_ROWS)
def test_dual_reports_match_one_block(name, rng, one_block):
    p, params, weights, _ = _inputs(name, rng)
    report, counterpart = dual_verify(name, p, weights=weights, **params)
    single, same = one_block(dual_verify, name, p, weights=weights, **params)
    assert report.passed and counterpart == same
    assert _rel(report.lhs, single.lhs) <= 1e-13
    assert _rel(report.rhs, single.rhs) <= 1e-13


@pytest.mark.parametrize("kind, params, external", [
    ("information", PolyParams(-1.0, 0.0), False),
    ("information", PolyParams(-1.0, -0.7, 0.4, 0.3), False),
    ("inaccuracy", PolyParams(-1.3, 0.5), True),
    ("certainty", PolyParams(-1.0, -1.0, 1.0, 1.0), True),
])
def test_composability_on_a_product_of_several_blocks(kind, params, external, rng, one_block):
    # 300 * 300 = 90 000 entries: two full blocks and a ragged third
    p = make_distribution(random_simplex(rng, 300))
    q = make_distribution(random_simplex(rng, 300))
    u, v = (WeightVector(random_simplex(rng, 300)), WeightVector(random_simplex(rng, 300))) if external else (p, q)
    report = verify_composability(kind, params, u, p, v, q, tolerance=1e-12)
    single = one_block(verify_composability, kind, params, u, p, v, q, tolerance=1e-12)
    assert report.passed
    assert _rel(report.lhs, single.lhs) <= 1e-13


PRODUCT_PARAMS = [
    ("information", PolyParams(-1.0, 0.0)),
    ("information", PolyParams(-1.0, -0.7, 0.4, 0.3)),
    ("inaccuracy", PolyParams(-1.3, 0.5)),
    ("certainty", PolyParams(-1.0, -1.0, 1.0, 1.0)),
]


def _built_lhs(kind, params, u, p, v, q) -> float:
    """M(U*V; P*Q) over the built product, as a product of one block
    gets it."""
    pq = direct_product(p, q)
    uv = pq if u is p and v is q else weight_product(u, v)
    return inforcer_measure(uv, pq, MeasureParams.of(kind, params))


@pytest.mark.parametrize("shape", [(300, 300), (2, engine._BLOCK + 17), (engine._BLOCK + 17, 2), (1000, 70)],
                         ids=["square", "wide", "tall", "ragged"])
@pytest.mark.parametrize("external", [False, True], ids=["self", "external"])
@pytest.mark.parametrize("kind, params", PRODUCT_PARAMS)
def test_walked_product_gives_the_built_products_value(kind, params, external, shape, rng):
    # wide: every row is longer than a block; tall: every block ends on
    # a row; ragged: blocks start and end inside rows of 70
    p, q = (make_distribution(random_simplex(rng, n)) for n in shape)
    u, v = (WeightVector(random_simplex(rng, n)) for n in shape) if external else (p, q)
    report = verify_composability(kind, params, u, p, v, q)
    assert report.lhs == _built_lhs(kind, params, u, p, v, q)
    assert report.passed


@pytest.mark.parametrize("external", [False, True], ids=["self", "external"])
def test_walked_product_where_entries_underflow(external, rng):
    # 1e-200 * 1e-200 underflows to 0 in the last block, in P*Q and in
    # U*V alike; no log2 of those zeros may run, since the test settings
    # make numpy's RuntimeWarning an error
    def tiny(n):
        x = random_simplex(rng, n)
        x[-3:] = 1e-200
        return x / math.fsum(x)
    p, q = make_distribution(tiny(300)), make_distribution(tiny(300))
    u, v = (WeightVector(tiny(300)), WeightVector(tiny(300))) if external else (p, q)
    assert not direct_product(p, q)._positive
    for kind, params in PRODUCT_PARAMS:
        report = verify_composability(kind, params, u, p, v, q)
        assert report.lhs == _built_lhs(kind, params, u, p, v, q)
        assert report.passed


@pytest.mark.parametrize("external", [False, True], ids=["self", "external"])
def test_verify_writes_each_block_of_the_product_once(external, rng, monkeypatch):
    # 300 * 300 = 90 000 entries, three blocks: the walk that takes the
    # mean also sums each block, so no block of P*Q (or U*V) is written
    # a second time
    written = []
    real = engine._Product.block

    def counted(self, lo):
        written.append((id(self), lo))
        return real(self, lo)

    monkeypatch.setattr(engine._Product, "block", counted)
    p, q = (make_distribution(random_simplex(rng, 300)) for _ in range(2))
    u, v = (WeightVector(random_simplex(rng, 300)) for _ in range(2)) if external else (p, q)
    assert verify_composability("information", PolyParams(-1.0, -0.7, 0.4, 0.3), u, p, v, q).passed
    assert len(written) == len(set(written)) == (6 if external else 3)


def test_product_sum_comes_before_an_error_the_mean_holds(rng):
    # P*Q's first entry, 1e-200 * 1e-200, underflows to 0 where U*V
    # weighs it, so the mean raises DomainError in its first block (U has
    # a zero, so no check before the walk sees it). With each factor
    # 9e-10 over 1, P*Q sums to 1 + 1.8e-9, and that error comes first.
    def side(excess):
        x = random_simplex(rng, 300)
        x[0] = 1e-200
        x /= math.fsum(x)
        x[1] += excess
        return make_distribution(x)
    u = WeightVector(np.r_[random_simplex(rng, 299), 0.0])
    v = WeightVector(random_simplex(rng, 300))
    law = PolyParams(-1.0, 0.0)
    assert _error(verify_composability, "information", law, u, side(0.0), v, side(0.0)) == (
        DomainError, "zero probability carries nonzero weight")
    kind, message = _error(verify_composability, "information", law, u, side(9e-10), v, side(9e-10))
    assert kind is NotNormalized and message.startswith("distribution sums to 1.0000000018")


def _error(fn, *args, **kwargs):
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def _tail_zero(rng, k: int = 5) -> np.ndarray:
    return _with_zeros(rng, N, 2 * engine._BLOCK + k)


def _error_cases(rng):
    """(label, callable, expected type, expected message) with the
    offending entry in the last block."""
    z = make_distribution(_tail_zero(rng))
    u = WeightVector(random_simplex(rng, N))                 # weight on the zero of z
    tiny = random_simplex(rng, N)
    tiny[N - 3] = 1e-300                                     # log2 p = -996.6
    tiny = make_distribution(tiny / math.fsum(tiny))
    head = np.zeros(N)
    head[: 2 * engine._BLOCK] = random_simplex(rng, 2 * engine._BLOCK)
    tail = np.zeros(N)
    tail[TAIL] = random_simplex(rng, N - 2 * engine._BLOCK)
    betas = rng.uniform(0.5, 1.5, N)
    betas_zero, betas_negative = betas.copy(), betas.copy()
    betas_zero[2 * engine._BLOCK + 5] = 0.0
    betas_negative[2 * engine._BLOCK + 5] = -0.5
    v = UtilityVector(rng.uniform(0.5, 2.0, N))
    # P*P over 300 * 300 entries, three blocks: its last entry p_299^2
    # underflows to 0, and U*V is 0 only in its first row
    under = random_simplex(rng, 300)
    under[-1] = 1e-200
    under = make_distribution(under / math.fsum(under))
    first_row_zero = WeightVector(np.r_[0.0, random_simplex(rng, 299)])
    spread = WeightVector(random_simplex(rng, 300))
    # dyadic factors: every product and partial sum of P*Q and U*V is
    # exact but for one 2^-60 term, which rounding drops, so every order
    # of summation gives the same digits
    def dyadic(excess):
        x = np.full(512, 2.0**-9)
        x[::2] += 2.0**-12
        x[1::2] -= 2.0**-12
        x[7] += excess
        return x
    exact, over = make_distribution(dyadic(0.0)), make_distribution(dyadic(2.0**-30))
    over_weights = WeightVector(over.values)
    law = PolyParams(-1.0, 0.0)
    nonzero = "zero probability carries nonzero weight"
    return [
        ("external weight on a zero", lambda: evaluate_named("kerridge", z, weights=u),
         DomainError, nonzero),
        ("external, lambda != 0", lambda: evaluate_named("nath_inaccuracy_b", z, weights=u, alpha=2.0),
         DomainError, nonzero),
        ("escort beta = 0 on a zero", lambda: evaluate_named("aczel_daroczy_a", z, beta=0.0),
         DomainError, nonzero),
        ("per-entry beta = 0 on a zero", lambda: evaluate_named("rathie", z, alpha=2.0, betas=betas_zero),
         DomainError, nonzero),
        ("escort beta < 0 on a zero", lambda: evaluate_named("aczel_daroczy_b", z, alpha=2.0, beta=-1.0),
         DegenerateWeights, "escort weights: exponent left the representable range"),
        ("per-entry beta < 0 on a zero", lambda: evaluate_named("rathie", z, alpha=2.0, betas=betas_negative),
         DegenerateWeights, "escort weights: exponent left the representable range"),
        ("utility beta < 0 on a zero", lambda: entropy(z, ("utility", -1.0, v), lam=-1.0),
         DegenerateWeights, "utility weights: exponent left the representable range"),
        ("escort exponent past the double range", lambda: evaluate_named("aczel_daroczy_b", z, alpha=2.0, beta=1.7e308),
         Overflow, "beta = 1.7e+308 is too large: beta*log2(p) leaves the double range"),
        ("tilted weights on disjoint supports",
         lambda: evaluate_named("pardo", make_distribution(head), weights=WeightVector(tail), gamma=2.0),
         DegenerateWeights, "tilted weights: sum of u_k p_k is not positive"),
        ("dual over tilted weights on disjoint supports",
         lambda: dual_verify("pardo", make_distribution(head), weights=WeightVector(tail), gamma=2.0),
         DegenerateWeights, "tilted weights: sum of u_k p_k is not positive"),
        ("tau*lambda * log2 p overflows", lambda: evaluate_named("van_der_lubbe_b", tiny, tau=-1e306, lam=1.0),
         Overflow, "tau*lambda = -1e+306 is too large: tau*lambda*log2(p) leaves the double range"),
        ("weights of the wrong length", lambda: evaluate_named("kerridge", z, weights=random_simplex(rng, N - 1)),
         LengthMismatch, f"weights length {N - 1} != distribution length {N}"),
        ("weight on a product entry that underflows",
         lambda: verify_composability("information", law, first_row_zero, under, spread, under),
         DomainError, nonzero),
        ("product out of tolerance, weights too",
         lambda: verify_composability("information", law, over_weights, over, over_weights, over),
         NotNormalized, "distribution sums to 1.0000000018626451, expected 1 within 1e-09"),
        ("weight product out of tolerance",
         lambda: verify_composability("information", law, over_weights, exact, over_weights, exact),
         NotNormalized, "weights sums to 1.0000000018626451, expected 1 within 1e-09"),
        ("utilities of the wrong length",
         lambda: evaluate_named("khan_autar", z, utilities=np.ones(N + 1), alpha=2.0, beta=1.0),
         LengthMismatch, f"utilities length {N + 1} != distribution length {N}"),
    ]


def test_every_check_fires_in_the_last_block(rng, one_block):
    for label, call, kind, message in _error_cases(rng):
        assert _error(call) == (kind, message), label
        assert one_block(_error, call) == (kind, message), label


def test_errors_come_in_the_order_building_the_weights_gives():
    # a lambda that overflows to -inf is checked after the weights: the
    # escort error of beta < 0 on a zero probability still comes first
    z = make_distribution([0.5, 0.5, 0.0])
    assert _error(evaluate_named, "aczel_daroczy_b", z, alpha=1.7e308, beta=-1.7e308) == (
        DegenerateWeights, "escort weights: exponent left the representable range")
    # tilted weights with no mass come before a tau that is not < 0, or
    # one that overflows to -inf (tuteja's (gamma - 1)/(1 - beta))
    p, u = make_distribution([0.5, 0.5, 0.0, 0.0]), WeightVector([0.0, 0.0, 0.5, 0.5])
    no_mass = (DegenerateWeights, "tilted weights: sum of u_k p_k is not positive")
    assert _error(entropy, p, ("tilted", u), tau=1.0) == no_mass
    for fn in (evaluate_named, dual_verify):
        assert _error(fn, "tuteja", p, weights=u, beta=1 + 2**-52, gamma=1e300) == no_mass
    # escort weights that build (beta = 0 weighs the zero of p) leave the
    # tau error first; the zero probability is the engine's to reject
    assert _error(entropy, [0.5, 0.5, 0.0], ("escort", 0.0), tau=1.0) == (
        ConstraintViolation, "tau must be finite and < 0, got 1.0")
    # an exponent past SAFE_EXPONENT whose weights still build is evaluated
    assert evaluate_named("kapur", [0.25, 0.75], alpha=2.0, beta=1e308) == 0.4150374992788438


def _zero_block(rng, first: bool) -> np.ndarray:
    """_BLOCK + 10 entries: a full block of zeros then 10 positive
    entries, or a full positive block then a ragged block of 10 zeros."""
    n = engine._BLOCK + 10
    live = slice(engine._BLOCK, n) if first else slice(0, engine._BLOCK)
    p = np.zeros(n)
    p[live] = random_simplex(rng, live.stop - live.start)
    return p


@pytest.mark.parametrize("first", [True, False], ids=["zero-block-first", "zero-block-last"])
@pytest.mark.parametrize("name, params", [("renyi", {}), ("kapur", {"beta": 1.5})], ids=["renyi", "kapur"])
def test_sweep_over_a_block_with_no_active_entry(name, params, first, rng):
    # the sweep keeps the blocks of its first mean, a block with no
    # active entry among them
    p = _zero_block(rng, first)
    grid = [2.0, 3.0]
    points = [evaluate_named(name, p, alpha=a, **params) for a in grid]
    assert evaluate_named(name, p, sweep=("alpha", grid), **params) == points


def test_sweep_over_tilted_weights_with_no_mass():
    # every block of a tilted rule on disjoint supports holds no weight;
    # each point reports the weight error, as a call per point raises it
    p, u = make_distribution([0.5, 0.5, 0.0, 0.0]), WeightVector([0.0, 0.0, 0.5, 0.5])
    points = evaluate_named("pardo", p, weights=u, sweep=("gamma", [2.0, 3.0]))
    assert [(type(e), str(e)) for e in points] == [
        (DegenerateWeights, "tilted weights: sum of u_k p_k is not positive")] * 2


def test_cli_sweep_over_a_block_with_no_active_entry(rng, tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("".join(f"{x!r}\n" for x in _zero_block(rng, first=True).tolist()))
    proc = subprocess.run([sys.executable, "-m", "inforcer.cli", "sweep", "--measure", "renyi",
                           "--param", "alpha", "--grid", "2,3", "--p", str(f)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("alpha,value\n2.0,")


def _peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["kapur", "khan_autar", "pardo"])
def test_memory_stays_flat_as_the_input_grows(name):
    # the mean runs through buffers of one block, so its peak is the same
    # at 2^17 and 2^19 entries
    rng = np.random.default_rng(11)
    peaks = []
    for n in (2**17, 2**19):
        p = make_distribution(random_simplex(rng, n))
        kwargs = {"alpha": 2.0, "beta": 1.5} if name != "pardo" else {"gamma": 2.0, "weights": WeightVector(p.values)}
        if name == "khan_autar":
            kwargs["utilities"] = UtilityVector(rng.uniform(0.5, 2.0, n))
        peaks.append(_peak(evaluate_named, name, p, **kwargs))
    small, large = peaks
    assert large <= 1.1 * small
    assert small < 4 * 8 * engine._BLOCK + 2**16


@pytest.mark.parametrize("external", [False, True], ids=["self", "external"])
@pytest.mark.parametrize("shapes", [((2**8, 2**9), (2**9, 2**10)), ((2, 2**16), (2, 2**18))], ids=["square", "2xn"])
def test_verify_memory_stays_flat_as_the_product_grows(shapes, external):
    # a product of several blocks is walked through buffers of one block,
    # so the peak is the same at 2^17 and 2^19 entries (as square as
    # powers of two allow, and two rows)
    rng = np.random.default_rng(12)
    peaks = []
    for shape in shapes:
        p, q = (make_distribution(random_simplex(rng, n)) for n in shape)
        u, v = (WeightVector(random_simplex(rng, n)) for n in shape) if external else (p, q)
        peaks.append(_peak(verify_composability, "information", PolyParams(-1.0, -0.7, 0.4, 0.3), u, p, v, q))
    small, large = peaks
    assert large <= 1.1 * small
    assert large < 8 * 8 * engine._BLOCK
