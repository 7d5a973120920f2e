"""The grid path: evaluate_named(..., sweep=(param, values)) against a
loop of one evaluate_named call per point, and the CSV reader's bulk
conversion against the per-entry loop it replaces."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from _samplers import draw_params, random_simplex
from inforcer import backends, core, engine, registry
from inforcer.cli import _parse_csv_file
from inforcer.core import make_distribution
from inforcer.errors import DomainError, InforcerError, Overflow, ParseError

# Points that pass every check, that fail check_params (<= 0, == 1,
# wrong sign for tau), and that fail later: escort weights that leave
# the double range, generators that overflow. Repeats reuse shared work.
GRID = [-1e300, -2.0, -1.0, -1e-3, 0.0, 1e-300, 0.5, 1.0, 1.0 + 1e-12, 2.0, 2.0, 3.0, 700.0, 1e300]


def _per_point(name, dist, weights, utilities, params, param, values):
    out = []
    for value in values:
        try:
            out.append(registry.evaluate_named(
                name, dist, weights=weights, utilities=utilities, **{**params, param: value}))
        except InforcerError as err:
            out.append(err)
    return out


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, InforcerError):
            assert type(g) is type(w) and str(g) == str(w)
        else:
            assert not isinstance(g, InforcerError), g
            assert g == w


def _row_cases():
    for spec in registry.list_measures():
        for param in spec.params or ("alpha",):
            yield spec.name, param


@pytest.mark.parametrize("zero", [False, True], ids=["positive", "with_zero"])
@pytest.mark.parametrize("name,param", list(_row_cases()))
def test_sweep_matches_per_point_loop(name, param, zero):
    rng = np.random.default_rng([7, len(name), len(param), zero])
    n = 6
    params, weights, utilities = draw_params(name, rng, n)
    p = random_simplex(rng, n)
    if zero:
        # zero probabilities: escort weights with beta < 0 blow up, and a
        # nonzero external weight there is a domain error at every point
        p[0] = 0.0
        p /= p.sum()
    dist = p if zero else make_distribution(p)
    got = registry.evaluate_named(
        name, dist, weights=weights, utilities=utilities, sweep=(param, GRID), **params)
    _assert_same(got, _per_point(name, dist, weights, utilities, params, param, GRID))


def test_grid_holds_values_and_both_kinds_of_error():
    p = make_distribution([0.1, 0.2, 0.3, 0.4])
    got = registry.evaluate_named("van_der_lubbe_c", p, tau=-1.0, e=1.0, sweep=("c", [1.0, 0.0, 1000.0]))
    assert got[0] == registry.evaluate_named("van_der_lubbe_c", p, tau=-1.0, e=1.0, c=1.0)
    assert "constraint violated" in str(got[1])
    assert isinstance(got[2], Overflow)  # from the generator, after every check passed


def test_shared_error_is_raised_again_at_every_point():
    p = make_distribution([0.0, 0.5, 0.5])
    u = [0.2, 0.4, 0.4]
    got = registry.evaluate_named(
        "nath_inaccuracy_b", p, weights=u, sweep=("alpha", [0.5, 1.0, 2.0, 3.0]))
    assert [type(x) for x in got] == [DomainError, type(got[1]), DomainError, DomainError]
    assert "constraint violated" in str(got[1])
    assert str(got[0]) == str(got[2]) == str(got[3])
    assert all(x.__traceback__ is None for x in got)  # keeps no frame, and no array, alive


def test_escort_weights_built_once_per_distinct_beta(monkeypatch):
    # the engine reads an escort rule as log2 weights: core._escort
    # resolves it, once per weight vector the sweep would build
    calls = []
    real = core._escort

    def counted(dist, beta):
        calls.append(beta)
        return real(dist, beta)

    monkeypatch.setattr(core, "_escort", counted)
    p = make_distribution([0.1, 0.2, 0.3, 0.4])
    alphas = [0.5, 0.8, 1.5, 2.0, 3.0]
    registry.evaluate_named("kapur", p, beta=0.7, sweep=("alpha", alphas))
    assert calls == [0.7]
    calls.clear()
    registry.evaluate_named("kapur", p, alpha=0.7, sweep=("beta", alphas))
    assert calls == alphas


def test_masking_and_log2_once_per_weight_vector(monkeypatch):
    # masking and log2 run in the block producer; a 4-entry input is one block
    calls = []
    real = engine._block

    def counted(w, d, key, bufs, lo, beta=None, view=False):
        if view:  # a linear sum's (w, p) takes no log2
            calls.append(1)
        return real(w, d, key, bufs, lo, beta, view)

    monkeypatch.setattr(engine, "_block", counted)
    p = make_distribution([0.1, 0.2, 0.3, 0.4])
    registry.evaluate_named("renyi", p, sweep=("alpha", [0.5, 0.8, 1.5, 2.0]))
    assert len(calls) == 1
    calls.clear()
    registry.evaluate_named("kapur", p, alpha=0.7, sweep=("beta", [0.5, 0.8, 1.5, 2.0]))
    assert len(calls) == 4


def _beta_sweep_peak(p, points):
    tracemalloc.start()
    try:
        registry.evaluate_named("kapur", p, alpha=0.7, sweep=("beta", np.linspace(0.5, 2.0, points)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_beta_sweep_memory_stays_flat_as_the_grid_grows():
    # every beta is a new weight vector: one point's arrays at a time
    # keeps the peak at a few vectors of n, however long the grid
    n = 50_000
    p = make_distribution(random_simplex(np.random.default_rng(3), n))
    short, long = _beta_sweep_peak(p, 4), _beta_sweep_peak(p, 40)
    assert long < short + 2 * 8 * n
    assert long < 10 * 8 * n


def _peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, params", [("renyi", {}), ("kapur", {"beta": 1.5})], ids=["renyi", "kapur"])
def test_alpha_sweep_memory_stays_flat_as_the_input_grows(name, params):
    # the points of a sweep share one walk through buffers of one block,
    # and no copy of the input's blocks is kept between them
    rng = np.random.default_rng(13)
    peaks = []
    for n in (2**17, 2**19):
        p = make_distribution(random_simplex(rng, n))
        peaks.append(_peak(registry.evaluate_named, name, p, sweep=("alpha", [0.5, 0.8, 2.0, 3.0]), **params))
    small, large = peaks
    assert large <= 1.1 * small


def test_points_on_both_sides_of_lambda_zero_walk_each_block_once_per_kind(monkeypatch):
    # alpha = 1 + 1e-12 is a lambda = 0 point, the others are not: each of
    # the two blocks is masked and logged once for each kind
    calls = []
    real = engine._block

    def counted(w, d, key, bufs, lo, beta=None, view=False):
        if view:  # self weights read w itself only at lambda = 0
            calls.append((beta is None, lo))
        return real(w, d, key, bufs, lo, beta, view)

    p = random_simplex(np.random.default_rng(15), engine._BLOCK + 9)
    p[[3, -2]] = 0.0
    p = make_distribution(p / p.sum())
    grid = [0.5, 1.0 + 1e-12, 2.0, 3.0]
    want = _per_point("renyi", p, None, None, {}, "alpha", grid)
    monkeypatch.setattr(engine, "_block", counted)
    _assert_same(registry.evaluate_named("renyi", p, sweep=("alpha", grid)), want)
    assert sorted(calls) == [(False, 0), (False, engine._BLOCK), (True, 0), (True, engine._BLOCK)]


def test_each_point_stops_where_its_own_call_stops():
    # alpha = 1e306 overflows tau*lambda*log2(p) in the first block; the
    # zero of p that u weighs sits in the last block. Each point reports
    # the error its own call raises first.
    n = 2 * engine._BLOCK + 17
    rng = np.random.default_rng(14)
    p, u = rng.random(n), rng.random(n)
    p[3], p[-2], u[-5] = 1e-300, 0.0, 0.0
    p, u = make_distribution(p / p.sum()), u / u.sum()
    grid = [2.0, 1e306]
    got = registry.evaluate_named("nath_inaccuracy_b", p, weights=u, sweep=("alpha", grid))
    _assert_same(got, _per_point("nath_inaccuracy_b", p, u, None, {}, "alpha", grid))
    assert [type(x) for x in got] == [DomainError, Overflow]


def _count_steps(monkeypatch) -> list:
    """The names of the kernel steps the engine's means make from now on,
    counted through a patched backends.active_kernels."""
    steps = []
    real = backends.active_kernels()

    def counted(name):
        kernel = getattr(real, name)

        def step(*args):
            steps.append(name)
            return kernel(*args)
        return step

    kernels = dataclasses.replace(
        real, weighted_sum=counted("weighted_sum"), weighted_log2_sumexp=counted("weighted_log2_sumexp"))
    monkeypatch.setattr(backends, "active_kernels", lambda: kernels)
    return steps


@pytest.mark.parametrize("name, param, params, grid", [
    ("sharma_mittal_b", "gamma", {"alpha": 2.0}, [0.5, 0.8, 1.5, 2.0, 3.0]),
    ("van_der_lubbe_d", "c", {"tau": -1.0, "lam": 0.5, "e": 1.0}, [0.25, 0.5, 1.0, 2.0]),
    ("van_der_lubbe_a", "tau", {}, [-2.0, -1.0, -0.5, -0.25]),
], ids=["gamma", "c", "tau"])
def test_points_that_share_their_inner_mean_make_one_kernel_step_per_block(monkeypatch, name, param, params, grid):
    # gamma and c act only through h, and tau at lambda = 0 only after
    # the mean: every point of each grid shares one inner mean
    p = make_distribution(random_simplex(np.random.default_rng(16), 2 * engine._BLOCK + 9))
    want = _per_point(name, p, None, None, params, param, grid)
    steps = _count_steps(monkeypatch)
    _assert_same(registry.evaluate_named(name, p, sweep=(param, grid), **params), want)
    assert len(steps) == 3


@pytest.mark.parametrize("name, param, params, grid, errors", [
    # lambda = +-1e-9 are lambda = 0 points, 0.5 repeats its tau*lambda,
    # and tau*lambda = -1e306 overflows against p = 1e-300
    ("van_der_lubbe_b", "lam", {"tau": -1.0}, [-1e-9, 0.5, 1e-9, 0.5, 2.0, 1e306, -0.5], {Overflow}),
    # one tau*lambda; c = 1000 overflows the generator
    ("van_der_lubbe_d", "c", {"tau": -1.0, "lam": 0.5, "e": 1.0}, [1.0, 1000.0, 2.0, 1.0], {Overflow}),
    ("van_der_lubbe_c", "c", {"tau": -1.0, "e": 1.0}, [1.0, 1000.0, 0.5, 1.0], {Overflow}),
    # tau*lambda = gamma - 1 at every beta, from a different tau and lambda
    ("tuteja", "beta", {"gamma": 2.0}, [1.5, 2.0, 3.0, 1.5, 1e300], set()),
], ids=["lambda", "c_shared_r", "c_lambda_zero", "tuteja_beta"])
def test_grids_that_share_inner_means_match_one_call_per_point(name, param, params, grid, errors):
    rng = np.random.default_rng(17)
    n = 2 * engine._BLOCK + 9
    p, u = rng.random(n), None
    p[3], p[[7, -2]] = 1e-300, 0.0
    p = make_distribution(p / p.sum())
    if name == "tuteja":
        u = random_simplex(rng, n)
    want = _per_point(name, p, u, None, params, param, grid)
    assert {type(x) for x in want if isinstance(x, InforcerError)} == errors
    _assert_same(registry.evaluate_named(name, p, weights=u, sweep=(param, grid), **params), want)


def test_unknown_measure_raises_at_once():
    with pytest.raises(InforcerError, match="unknown measure"):
        registry.evaluate_named("renyl", [0.5, 0.5], sweep=("alpha", [2.0]))


# -- CSV files ---------------------------------------------------------

def _loop_reference(path, what):
    """The per-entry loop, as every file was read before the bulk path."""
    lines = [ln.strip() for ln in path.read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ParseError(f"{what}: {path} is empty")
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        lines = lines[1:]
        if not lines:
            raise ParseError(f"{what}: {path} holds only a header") from None
    values = []
    for ln in lines:
        for piece in ln.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                values.append(float(piece))
            except ValueError:
                raise ParseError(f"{what}: bad number {piece!r} in {path}") from None
    return np.array(values, dtype=float)


CSV_TEXTS = {
    "header": "p\n0.25\n0.75\n",
    "comma_header": "p,q\n0.25\n0.75\n",
    "blank_lines": "\n0.25\n\n\n0.75\n\n",
    "whitespace": "  0.25  \n\t0.75 \r\n",
    "comma_rows": "0.1,0.2\n0.3, 0.4,\n",
    "underscore": "1_0\n2\n",
    "repr_floats": "0.1\n0.30000000000000004\n1e-300\n-0.0\ninf\nnan\n",
    "float_spellings": "1_000\n 1.5 \nnan\n-inf\nInfinity\n1e400\n4.9e-324\n\u0661\u0662\n",
    "float_spellings_in_rows": "1_000, 1.5 ,nan\n-inf,Infinity\n1e400,4.9e-324,\u0661\u0662\n",
    "bad_entry": "p\n0.5\n0.x5\n0.5\n",
    "bad_entry_after_comma_rows": "p,q\n0.5,0.5\n0x10\n",
    "bad_entry_in_comma_row": "0.5,0.x5\n",
    "only_header": "p\n",
    "empty": "\n \n",
}


@pytest.mark.parametrize("label", list(CSV_TEXTS))
def test_csv_reader_matches_the_loop(label, tmp_path):
    path = tmp_path / f"{label}.csv"
    path.write_text(CSV_TEXTS[label])
    try:
        want = _loop_reference(path, "p")
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            _parse_csv_file(path, "p")
        assert str(got.value) == str(err)
        return
    got = _parse_csv_file(path, "p")
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
