"""Reference floors for reading the benchmark's figures.

    python3 perfbench/floors.py

Prints, on this machine:
- fresh-process wall times (median of 7): a bare interpreter, ``import
  numpy``, ``import inforcer`` and ``import inforcer.cli``;
- the same math as ``evaluate_named`` for Shannon and Renyi (alpha = 2)
  written as one bare numpy expression, next to ``evaluate_named``
  itself, at n = 4 and n = 10^6 (median of repeated calls).
"""
from __future__ import annotations

import statistics
import sys
import time

from run import SRC, fresh_s   # first: it sets OPENBLAS_NUM_THREADS=1 before numpy loads, as for every run

import numpy as np  # noqa: E402

sys.path.insert(0, str(SRC))

from inforcer import evaluate_named, make_distribution  # noqa: E402


def call_us(fn, budget_s: float = 1.0) -> float:
    fn()
    times = []
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline or len(times) < 5:
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e3


def main() -> None:
    for code, seconds in fresh_s(("pass", "import numpy", "import inforcer", "import inforcer.cli"), 7).items():
        print(f"fresh process: {code:<22} {1e3 * seconds:9.1f} ms")
    rng = np.random.default_rng(0)
    for n in (4, 10**6):
        raw = 0.8 * rng.dirichlet(np.ones(n)) + 0.2 / n
        p = make_distribution(raw)
        cases = {
            "shannon numpy": lambda: -float(np.dot(raw, np.log2(raw))),
            "shannon evaluate_named": lambda: evaluate_named("shannon", p),
            "renyi(2) numpy": lambda: -float(np.log2(np.dot(raw, raw))),
            "renyi(2) evaluate_named": lambda: evaluate_named("renyi", p, alpha=2.0),
        }
        for label, fn in cases.items():
            print(f"n = {n:<8} {label:<26} {call_us(fn):12.2f} us")


if __name__ == "__main__":
    main()
