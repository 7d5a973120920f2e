"""The benchmark's four workloads.

Each workload makes its inputs from a seed, builds the validated inputs
it reuses (timed as part of set-up), and hands out rounds of operations.
An operation is a timed call plus a check of its output against the
60-digit references in ``oracle``; the check runs outside the timed
call. Every round of a workload holds the same operations, so a run of
whole rounds always fails the same share of them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from inforcer import cli, core, engine, registry

import oracle


@dataclass
class Op:
    label: str
    fn: Callable[..., object]
    check: Callable[[object], str | None]   # None when the output is right
    args: Callable[[], tuple] = field(default=lambda: ())   # fresh inputs, made untimed


class OpFailed(Exception):
    """The operation ended in an error instead of a result."""


# -- parameters drawn from each row's admissible range -----------------
# Draws keep away from alpha, gamma = 1 and lambda = 0, where the library
# has known accuracy faults that these workloads do not measure.

def _away(rng, lo, hi, gap=0.05):
    while True:
        x = float(rng.uniform(lo, hi))
        if abs(x - 1.0) >= gap:
            return x


def _signed(rng, lo, hi):
    return float(rng.uniform(lo, hi)) * (1.0 if rng.random() < 0.5 else -1.0)


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _varma(r):
    mu = _u(r, 1.0, 3.0)
    return {"mu": mu, "alpha": mu - _u(r, 0.1, 0.9)}


def _vdl_c(r, lam=False):
    c = _signed(r, 0.2, 1.5)
    ps = {"tau": _u(r, -2.5, -0.2), "c": c, "e": c * _u(r, 0.3, 2.0)}
    if lam:
        ps["lam"] = _signed(r, 0.1, 1.5)
    return ps


def _ad_b(r):
    beta = _u(r, -1.0, 2.5)
    alpha = beta
    while abs(alpha - beta) < 0.1:
        alpha = _u(r, -1.0, 2.5)
    return {"alpha": alpha, "beta": beta}


_GAMMA = lambda r: {"gamma": _away(r, 0.2, 2.5)}
_ALPHA = lambda r: {"alpha": _away(r, 0.2, 2.5)}
_ALPHA_GAMMA = lambda r: {"alpha": _away(r, 0.2, 2.5), "gamma": _away(r, 0.2, 2.5)}
_ALPHA_BETA = lambda r: {"alpha": _away(r, 0.2, 2.5), "beta": _u(r, 0.2, 2.0)}
_GAMMA_ABOVE_1 = lambda r: {"gamma": _u(r, 1.05, 3.0)}

PARAMS: dict[str, Callable] = {
    "shannon": lambda r: {},
    "renyi": _ALPHA,
    "varma_a": _varma,
    "varma_b": _varma,
    "nath_a": lambda r: {"alpha": _away(r, 0.2, 2.5), "mu": _u(r, 0.3, 2.0)},
    "nath_b": lambda r: {"alpha": _away(r, 0.2, 2.5), "mu": _u(r, 0.3, 2.0)},
    "aczel_daroczy_a": lambda r: {"beta": _u(r, -1.0, 2.5)},
    "aczel_daroczy_b": _ad_b,
    "kapur": _ALPHA_BETA,
    "rathie": _ALPHA,                      # betas are drawn per component
    "khan_autar": _ALPHA_BETA,
    "singh": _ALPHA_BETA,
    "havrda_charvat": _GAMMA,
    "sharma_mittal_a": _GAMMA,
    "sharma_mittal_b": _ALPHA_GAMMA,
    "tsallis": _GAMMA,
    "frank_daffertshofer_a": _GAMMA,
    "frank_daffertshofer_b": _ALPHA_GAMMA,
    "arimoto": _GAMMA,
    "boekee_van_der_lubbe": _GAMMA,
    "van_der_lubbe_a": lambda r: {"tau": _u(r, -2.5, -0.2)},
    "van_der_lubbe_b": lambda r: {"tau": _u(r, -2.5, -0.2), "lam": _signed(r, 0.1, 1.5)},
    "van_der_lubbe_c": _vdl_c,
    "van_der_lubbe_d": lambda r: _vdl_c(r, lam=True),
    "kerridge": lambda r: {},
    "nath_inaccuracy_a": _GAMMA,
    "nath_inaccuracy_b": _ALPHA,
    "gupta_sharma_a": _GAMMA,
    "gupta_sharma_b": _ALPHA_GAMMA,
    "onicescu": lambda r: {},
    "teodorescu": _GAMMA_ABOVE_1,
    "pardo_taneja": _GAMMA_ABOVE_1,
    "pardo": _GAMMA_ABOVE_1,
    "tuteja": lambda r: {"beta": _u(r, 1.05, 3.0), "gamma": _u(r, 1.05, 3.0)},
    "van_der_lubbe_certainty_a": lambda r: {"tau": _u(r, 0.2, 2.5)},
    "van_der_lubbe_certainty_b": lambda r: {"tau": _u(r, 0.2, 2.5), "lam": _signed(r, 0.1, 1.5)},
    "bhatia_a": lambda r: {"beta": _u(r, -0.5, 2.0), "tau": _u(r, 0.2, 2.5)},
    "bhatia_b": lambda r: {"beta": _u(r, -0.5, 2.0), "tau": _u(r, 0.2, 2.5), "lam": _signed(r, 0.1, 1.5)},
}
NEEDS_U = {"kerridge", "nath_inaccuracy_a", "nath_inaccuracy_b", "gupta_sharma_a", "gupta_sharma_b",
           "pardo", "tuteja"}
NEEDS_V = {"khan_autar", "singh"}
CERTAINTY = ["onicescu", "teodorescu", "pardo_taneja", "pardo", "tuteja",
             "van_der_lubbe_certainty_a", "van_der_lubbe_certainty_b", "bhatia_a", "bhatia_b"]


def _simplex(rng, n):
    """Strictly positive point on the simplex, smallest entry >= 0.2/n."""
    return 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n


def _levels(rng, n: int, k: int, n_zero: int = 0):
    """Class index per entry and class counts for a shuffled n-entry
    input with k distinct levels; class 0 holds n_zero entries if given."""
    share = 0.8 * rng.dirichlet(np.ones(k - (1 if n_zero else 0))) + 0.2 / k
    counts = np.floor(share / share.sum() * (n - n_zero)).astype(np.int64)
    counts[-1] += n - n_zero - counts.sum()
    if n_zero:
        counts = np.concatenate([[n_zero], counts])
    return np.repeat(np.arange(k), counts)[rng.permutation(n)], counts


def _column(rng, counts, zero_first: bool = False):
    """Level values on the simplex for the given class counts."""
    w = rng.integers(1, 40, counts.size).astype(float)
    if zero_first:
        w[0] = 0.0
    return w / float(np.dot(counts, w))


def _check_value(want: float, label: str):
    def check(got) -> str | None:
        return None if oracle.close(float(got), want) else f"{label}: got {got!r}, want {want!r}"
    return check


def _check_report(want: float, label: str):
    def check(report) -> str | None:
        if isinstance(report, tuple):          # dual_verify returns (report, counterpart)
            report = report[0]
        if not report.passed:
            return f"{label}: identity check failed: {report}"
        for side in ("lhs", "rhs"):
            if not oracle.close(getattr(report, side), want):
                return f"{label}: {side} {getattr(report, side)!r}, want {want!r}"
        return None
    return check


class Workload:
    name = ""
    imports_cli = False
    tail_pct = 99.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def build(self) -> None:
        """Build the validated inputs the workload reuses (timed as set-up)."""

    def prepare(self) -> None:
        """Write files, compute references and lay out the rounds."""

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError

    def trace_round(self, i: int) -> list[Op]:
        return self.round(i)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Close what prepare() opened."""


# -- catalog_small -----------------------------------------------------

class CatalogSmall(Workload):
    """Every catalog row, plus composability and duality checks, at
    n = 4..16 on fresh raw arrays, so each call validates anew."""

    name = "catalog_small"
    tail_pct = 99.0
    variants = 8
    verify_rows = ("shannon", "renyi", "tsallis", "havrda_charvat", "onicescu", "kerridge")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 1])
        self.cases = []     # per variant: list of (name, p, u, v, params)
        self.products = []  # per variant: list of (name, p, u1, q, u2, params)
        # sizes follow a fixed pattern, so every seed does the same work
        for j in range(self.variants):
            rows = []
            for r, name in enumerate(PARAMS):
                n = 4 + (r + 5 * j) % 13
                ps = PARAMS[name](rng)
                if name == "rathie":
                    ps["betas"] = rng.uniform(0.1, 2.0, n)
                u = _simplex(rng, n) if name in NEEDS_U else None
                v = rng.uniform(0.5, 2.0, n) if name in NEEDS_V else None
                rows.append((name, _simplex(rng, n), u, v, ps))
            self.cases.append(rows)
            prods = []
            for r, name in enumerate(self.verify_rows):
                n1, n2 = 2 + (r + j) % 3, 2 + (r + 2 * j) % 3
                ps = PARAMS[name](rng)
                u1, u2 = (_simplex(rng, n1), _simplex(rng, n2)) if name in NEEDS_U else (None, None)
                prods.append((name, _simplex(rng, n1), u1, _simplex(rng, n2), u2, ps))
            self.products.append(prods)

    def prepare(self):
        self.rounds = [self._round_ops(i) for i in range(self.variants)]

    def _round_ops(self, i):
        ops = []
        by_name = {}
        for name, p, u, v, ps in self.cases[i]:
            by_name[name] = (p, u, v, ps)
            t = oracle.terms(p, u, v, ps.get("betas"))
            ops.append(Op(
                f"evaluate_named:{name}",
                lambda p, u, v, ps, name=name: registry.evaluate_named(name, p, weights=u, utilities=v, **ps),
                _check_value(oracle.row_value(name, t, ps), name),
                _fresh(p, u, v, ps),
            ))
        for name, p, u1, q, u2, ps in self.products[i]:
            spec = registry.lookup(name)
            kind = "certainty" if name in CERTAINTY else "information"
            ep = spec.engine_params(spec.check_params(ps))
            want = oracle.row_value(name, oracle.product_terms(oracle.terms(p, u1), oracle.terms(q, u2)), ps)
            w1, w2 = (p, q) if u1 is None else (u1, u2)
            ops.append(Op(
                f"verify_composability:{name}",
                lambda w1, p, w2, q, kind=kind, ep=ep: engine.verify_composability(kind, ep, w1, p, w2, q),
                _check_report(want, f"verify {name}"),
                lambda w1=w1, p=p, w2=w2, q=q: (w1.copy(), p.copy(), w2.copy(), q.copy()),
            ))
        for name in CERTAINTY:
            p, u, v, ps = by_name[name]
            want = oracle.dual_value(name, oracle.terms(p, u), ps)
            ops.append(Op(
                f"dual_verify:{name}",
                lambda p, u, v, ps, name=name: registry.dual_verify(name, p, weights=u, **ps),
                _check_report(want, f"dual {name}"),
                _fresh(p, u, v, ps),
            ))
        return ops

    def round(self, i):
        return self.rounds[i % self.variants]


def _fresh(p, u, v, ps):
    def make():
        fresh = dict(ps)
        if "betas" in fresh:
            fresh["betas"] = fresh["betas"].copy()
        return (p.copy(), None if u is None else u.copy(), None if v is None else v.copy(), fresh)
    return make


# -- stream_large ------------------------------------------------------

class StreamLarge(Workload):
    """10^6-entry inputs, validated once and reused by every operation,
    so the time goes to memory passes, masking, log2 and the kernels."""

    name = "stream_large"
    tail_pct = 95.0
    n = 10**6
    zero_share = 0.2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 2])
        cls, self.counts = _levels(rng, self.n, 6, round(self.zero_share * self.n))
        # P strictly positive; Z and U zero on class 0; V utilities
        self.levels = {
            "P": _column(rng, self.counts),
            "Z": _column(rng, self.counts, zero_first=True),
            "U": _column(rng, self.counts, zero_first=True),
            "V": rng.uniform(0.5, 5.0, self.counts.size),
        }
        self.raw = {key: lvl[cls] for key, lvl in self.levels.items()}
        self.params = {name: PARAMS[name](rng) for name in PARAMS}
        # (kind, row, distribution, external weights, utilities)
        self.plan = [
            ("evaluate", "shannon", "P", None, None),              # lambda = 0
            ("evaluate", "renyi", "Z", None, None),                # log-sum-exp over a masked support
            ("evaluate", "tsallis", "P", None, None),              # exponential generator
            ("evaluate", "kapur", "Z", None, None),                # escort weights
            ("evaluate", "khan_autar", "P", None, "V"),            # utility weights
            ("evaluate", "kerridge", "P", "U", None),              # external weights with zeros
            ("evaluate", "nath_inaccuracy_b", "P", "U", None),     # external, lambda != 0
            ("evaluate", "pardo", "P", "U", None),                 # tilted weights, certainty
            ("evaluate", "onicescu", "Z", None, None),             # certainty over a masked support
            ("dual", "pardo_taneja", "Z", None, None),
            ("dual", "pardo", "P", "U", None),
        ]

    def build(self):
        r = self.raw
        self.inputs = {
            "P": core.make_distribution(r["P"]),
            "Z": core.make_distribution(r["Z"]),
            "U": core.WeightVector(r["U"]),
            "V": core.UtilityVector(r["V"]),
        }
        del self.raw   # the validated copies are the inputs; keep only the library's memory

    def prepare(self):
        lv = self.levels
        self.ops = []
        for kind, name, dist, weights, utils in self.plan:
            ps = self.params[name]
            t = oracle.terms(lv[dist], lv["U"], lv["V"], count=self.counts)
            d = self.inputs[dist]
            u = self.inputs[weights] if weights else None
            if kind == "evaluate":
                v = self.inputs[utils] if utils else None
                fn = lambda name=name, d=d, u=u, v=v, ps=ps: registry.evaluate_named(
                    name, d, weights=u, utilities=v, **ps)
                check = _check_value(oracle.row_value(name, t, ps), f"{name}[{dist}]")
            else:
                fn = lambda name=name, d=d, u=u, ps=ps: registry.dual_verify(name, d, weights=u, **ps)
                check = _check_report(oracle.dual_value(name, t, ps), f"dual {name}[{dist}]")
            self.ops.append(Op(f"{kind}:{name}[{dist}]", fn, check))

    def round(self, i):
        return self.ops


# -- CLI workloads -----------------------------------------------------

@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_inproc(argv) -> CliResult:
    """cli.run in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    result = CliResult(code, out.getvalue(), err.getvalue())
    if code not in (0, 3):
        raise OpFailed(f"exit {code}: {result.err.strip().splitlines()[-1][:200]}")
    return result


def _inline(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _write_csv(path: Path, values) -> None:
    path.write_text("p\n" + "\n".join(repr(float(x)) for x in values) + "\n")


def _fields(text: str) -> dict:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _check_cli_report(want: float, label: str, fmt: str = "plain"):
    def check(res: CliResult) -> str | None:
        if fmt == "json":
            rec = json.loads(res.out)
            passed, lhs, rhs = rec["passed"], rec["lhs"], rec["rhs"]
        else:
            rec = _fields(res.out)
            passed, lhs, rhs = rec.get("status") == "PASS", float(rec["lhs"]), float(rec["rhs"])
        if res.code != 0 or not passed:
            return f"{label}: verification failed: {res.out!r}"
        for side, got in (("lhs", lhs), ("rhs", rhs)):
            if not oracle.close(got, want):
                return f"{label}: {side} {got!r}, want {want!r}"
        return None
    return check


def _check_cli_value(want: float, label: str, fmt: str):
    def check(res: CliResult) -> str | None:
        text = res.out.strip()
        if fmt == "json":
            got = json.loads(text)["value"]
        elif fmt == "csv":
            got = float(text.splitlines()[1].split(",")[1])
        else:
            got = float(text)
        return None if oracle.close(got, want) else f"{label}: got {got!r}, want {want!r}"
    return check


def _check_sweep(grid, wants, label: str):
    def check(res: CliResult) -> str | None:
        lines = res.out.strip().splitlines()
        if len(lines) != len(grid) + 1 or len(lines[0].split(",")) != 2:
            return f"{label}: unexpected sweep output {lines[:3]!r}"
        for line, g, want in zip(lines[1:], grid, wants):
            point, value = line.split(",")
            if not (oracle.close(float(point), g) and oracle.close(float(value), want)):
                return f"{label}: at {g!r} got {line!r}, want {want!r}"
        return None
    return check


def _check_list(names, label: str):
    def check(res: CliResult) -> str | None:
        got = [line.split()[0] for line in res.out.strip().splitlines()]
        return None if got == names else f"{label}: listed {got!r}"
    return check


class SweepVerify(Workload):
    """In-process CLI calls that read, validate and format anew each time:
    100-point sweeps over a 10^4-entry CSV, alternating with a
    composability check on the 10^6-entry product of two 10^3-entry CSVs.

    A round is three calls of distinct cost (Renyi sweep, verify, escort
    sweep), so the median falls inside one cost band, not in the gap
    between two."""

    name = "sweep_verify"
    imports_cli = True
    tail_pct = 95.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 4])
        self.sweep_in = self._input(rng, 10**4, 5)
        self.verify_in = (self._input(rng, 10**3, 4), self._input(rng, 10**3, 4))
        grid = np.concatenate([rng.uniform(0.3, 0.95, 50), rng.uniform(1.05, 3.0, 50)])
        self.grid = [float(g) for g in np.sort(grid)]
        self.gamma = _away(rng, 0.3, 2.5)
        self.beta = _u(rng, 0.2, 2.0)

    @staticmethod
    def _input(rng, n, k):
        cls, counts = _levels(rng, n, k)
        return cls, counts, _column(rng, counts)

    def prepare(self):
        cls, counts, p = self.sweep_in
        sweep_csv = self.workdir / "sweep_p.csv"
        _write_csv(sweep_csv, p[cls])
        t = oracle.terms(p, count=counts)
        grid = ",".join(map(repr, self.grid))
        sweeps = []
        for name, fixed in (("renyi", {}), ("kapur", {"beta": self.beta})):
            wants = [oracle.row_value(name, t, {"alpha": g, **fixed}) for g in self.grid]
            argv = ["sweep", "--measure", name, "--param", "alpha", "--grid", grid, "--p", str(sweep_csv)]
            for key, value in fixed.items():
                argv += [f"--{key}", repr(value)]
            sweeps.append(Op(f"cli.run:sweep:{name}", lambda argv=argv: run_inproc(argv),
                             _check_sweep(self.grid, wants, f"sweep {name}")))

        sides = []
        for tag, (cls, counts, p) in zip("pq", self.verify_in):
            path = self.workdir / f"verify_{tag}.csv"
            _write_csv(path, p[cls])
            sides.append((path, oracle.terms(p, count=counts)))
        ps = {"gamma": self.gamma}
        want = oracle.row_value("tsallis", oracle.product_terms(sides[0][1], sides[1][1]), ps)
        argv_v = ["verify", "--measure", "tsallis", "--gamma", repr(self.gamma),
                  "--p", str(sides[0][0]), "--q", str(sides[1][0]), "--format", "json"]
        verify = Op("cli.run:verify", lambda: run_inproc(argv_v), _check_cli_report(want, "verify tsallis", "json"))
        self.ops = [sweeps[0], verify, sweeps[1]]

    def round(self, i):
        return self.ops


# The long inline vector trips the known read_vector fault: an inline
# --p over 255 characters makes Path.is_file() raise OSError (file name
# too long), so this operation fails on every round until that is fixed.
LONG_INLINE = ",".join(["0.01"] * 100)


class CliCold(Workload):
    """One fresh inforcer process per operation, on small inline inputs:
    import, argparse and vector parsing, which no library workload sees."""

    name = "cli_cold"
    imports_cli = True
    tail_pct = 80.0
    variants = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 5])
        self.inputs = []
        for _ in range(self.variants):
            n = lambda: int(rng.integers(4, 9))
            k = n()
            self.inputs.append({
                "renyi": (_simplex(rng, n()), {"alpha": _away(rng, 0.2, 2.5)}),
                "kerridge": (_simplex(rng, k), _simplex(rng, k)),
                "kapur": (_simplex(rng, n()), {"alpha": _away(rng, 0.2, 2.5), "beta": _u(rng, 0.2, 2.0)}),
                "verify": (_simplex(rng, n()), _simplex(rng, n()), {"gamma": _away(rng, 0.2, 2.5)}),
                "dual": (_simplex(rng, n()), {"gamma": _u(rng, 1.05, 3.0)}),
                "sweep": (_simplex(rng, n()), sorted(_away(rng, 0.2, 2.5) for _ in range(5))),
            })

    def prepare(self):
        self.env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        self.out_f = tempfile.TemporaryFile(dir=self.workdir)
        self.err_f = tempfile.TemporaryFile(dir=self.workdir)
        self.maxrss_kb = 0
        self.rounds = [self._round_specs(x) for x in self.inputs]

    def _round_specs(self, x):
        specs = []
        p, ps = x["renyi"]
        want = oracle.row_value("renyi", oracle.terms(p), ps)
        specs.append(("compute:plain", ["compute", "--measure", "renyi", "--alpha", repr(ps["alpha"]),
                                        "--p", _inline(p)], _check_cli_value(want, "renyi", "plain")))
        p, u = x["kerridge"]
        want = oracle.row_value("kerridge", oracle.terms(p, u), {})
        specs.append(("compute:json", ["compute", "--measure", "kerridge", "--p", _inline(p), "--u", _inline(u),
                                       "--format", "json"], _check_cli_value(want, "kerridge", "json")))
        p, ps = x["kapur"]
        want = oracle.row_value("kapur", oracle.terms(p), ps)
        specs.append(("compute:csv", ["compute", "--measure", "kapur", "--alpha", repr(ps["alpha"]),
                                      "--beta", repr(ps["beta"]), "--p", _inline(p), "--format", "csv"],
                      _check_cli_value(want, "kapur", "csv")))
        p, q, ps = x["verify"]
        want = oracle.row_value("havrda_charvat", oracle.product_terms(oracle.terms(p), oracle.terms(q)), ps)
        specs.append(("verify", ["verify", "--measure", "havrda_charvat", "--gamma", repr(ps["gamma"]),
                                 "--p", _inline(p), "--q", _inline(q)],
                      _check_cli_report(want, "verify havrda_charvat")))
        p, ps = x["dual"]
        want = oracle.dual_value("pardo_taneja", oracle.terms(p), ps)
        specs.append(("dual", ["dual", "--measure", "pardo_taneja", "--gamma", repr(ps["gamma"]), "--p", _inline(p)],
                      _check_cli_report(want, "dual pardo_taneja")))
        p, grid = x["sweep"]
        wants = [oracle.row_value("tsallis", oracle.terms(p), {"gamma": g}) for g in grid]
        specs.append(("sweep", ["sweep", "--measure", "tsallis", "--param", "gamma",
                                "--grid", ",".join(map(repr, grid)), "--p", _inline(p)],
                      _check_sweep(grid, wants, "sweep tsallis")))
        specs.append(("list", ["list"], _check_list(list(PARAMS), "list")))
        want = oracle.row_value("shannon", oracle.terms([0.01] * 100), {})
        specs.append(("compute:long_inline", ["compute", "--measure", "shannon", "--p", LONG_INLINE],
                      _check_cli_value(want, "shannon long inline", "plain")))
        return specs

    def _spawn(self, argv) -> CliResult:
        for f in (self.out_f, self.err_f):
            f.seek(0)
            f.truncate()
        proc = subprocess.Popen([sys.executable, "-m", "inforcer.cli", *argv],
                                stdout=self.out_f, stderr=self.err_f, env=self.env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        self.out_f.seek(0)
        self.err_f.seek(0)
        result = CliResult(proc.returncode, self.out_f.read().decode(), self.err_f.read().decode())
        if result.code not in (0, 3):
            raise OpFailed(f"exit {result.code}: {result.err.strip().splitlines()[-1][:200]}")
        return result

    def round(self, i):
        return [Op(f"cold:{label}", lambda argv=argv: self._spawn(argv), check)
                for label, argv, check in self.rounds[i % self.variants]]

    def trace_round(self, i):
        return [Op(f"inproc:{label}", lambda argv=argv: run_inproc(argv), check)
                for label, argv, check in self.rounds[i % self.variants]]

    def peak_rss_mb(self):
        return self.maxrss_kb / 1024.0

    def close(self):
        self.out_f.close()
        self.err_f.close()


WORKLOADS = {w.name: w for w in (CatalogSmall, StreamLarge, SweepVerify, CliCold)}
