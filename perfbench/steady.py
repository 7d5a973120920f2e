"""Run sets of benchmark runs of the same code and compare their spread.

    python3 perfbench/steady.py [--runs 10] [--sets 2]

Each set runs every workload of BENCHMARK.json ``--runs`` times for its
``run_seconds``, each run with its own seed (set k uses seeds
1000*k + 1 ..). For every end-to-end metric and workload it prints each
set's median and quartiles, the spread (Q3 - Q1) / median, the change of
each set's median against the first set's, and the metric's bound. A
spread at or above a third of the bound, or a median that moved by more
than the bound in either direction, is flagged, for every metric. The
failed share of operations must be identical across sets. Raw results
go to .perfbench/steady-<time>.json. ``--sets 1 --runs 1`` is one run
of every workload.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]

    results = {}   # (set, workload) -> list of run results
    for k in range(1, args.sets + 1):
        for name in names:
            runs = []
            for seed in range(1000 * k + 1, 1000 * k + 1 + args.runs):
                runs.append(run_once(bench["command"], name, seed, bench["run_seconds"]))
                print(f"set {k} {name} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.6g}" for m, v in runs[-1]["metrics"].items()), file=sys.stderr)
            results[(k, name)] = runs

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({f"{k}:{name}": runs for (k, name), runs in results.items()}, indent=1))

    flagged = 0
    print(f"{'workload':<14}{'metric':<13}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
          f"{'bound':>7}{'change':>9}")
    for name in names:
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            medians = []
            for k in range(1, args.sets + 1):
                values = [r["metrics"][m]["value"] for r in results[(k, name)]]
                q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                spread = (q3 - q1) / q2
                medians.append(q2)
                flag = spread >= bound / 3
                change = (q2 - medians[0]) / medians[0]
                flag_change = abs(change) > bound
                flagged += flag + flag_change
                print(f"{name:<14}{m:<13}{k:>4}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>8.2%}{'!' if flag else ' '}"
                      f"{bound:>6.0%}{change:>+8.2%}{'!' if flag_change else ''}")
        runs = [r for k in range(1, args.sets + 1) for r in results[(k, name)]]
        if not all(r["correct"] for r in runs):
            print(f"{name}: runs with wrong outputs")
            flagged += 1
        attempted, failed = sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)
        print(f"{name:<14}{'operations':<13}{attempted:>18} attempted, {failed} failed")
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        if len(shares) != 1:
            print(f"{name}: failed share differs between runs: {sorted(map(str, shares))}")
            flagged += 1
    print(f"raw results: {out.relative_to(ROOT)}")
    print("steady" if not flagged else f"{flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
