"""Run one benchmark workload; the last line of stdout is a JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs whole rounds of the workload's operations for S
seconds, one caller in a closed loop, with nothing patched, and prints
the end-to-end metrics, their times scaled for machine speed (see
end_to_end). ``--trace 1`` prints the per-layer metrics of a
traced run instead (see tracing.py), with the tracing overhead. Every
output is checked against the 60-digit references in oracle.py, outside
the timed calls. Workloads and metrics are described in README.md.
"""
from __future__ import annotations

import argparse
import array
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, no worker threads: numpy's OpenBLAS would otherwise start a
# worker thread at import that spins beside the main thread, and whether
# the two share a CPU swings import time by half. Children inherit this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 10
IMPORT_SAMPLES = 5
# Times are scaled to a machine on which a bare interpreter starts in
# BARE_S seconds; BARE is started beside every set-up probe to measure
# this machine's speed at the time (see "Machine-speed scaling" in
# README.md). -I keeps the checkout's files out of that process.
BARE = [sys.executable, "-I", "-c", "pass"]
BARE_S = 0.05


class Tally:
    def __init__(self) -> None:
        self.lat_ns = array.array("q")   # compact, so peak RSS barely depends on the op count
        self.round_rates: list[float] = []   # per round: operations completed per second of their time
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: dict[str, str] = {}

    def add(self, other: "Tally") -> None:
        self.lat_ns += other.lat_ns
        self.round_rates += other.round_rates
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.failures.update(other.failures)


def run_rounds(make_round, seconds: float, tracer=None, rounds: int | None = None) -> Tally:
    """Whole rounds until the time is up (or a fixed number of rounds)."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        done = len(tally.lat_ns)
        for op in make_round(i):
            args = op.args()
            if tracer:
                tracer.begin_op()
            tally.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                out = op.fn(*args)
            except Exception as err:  # an operation's failure is counted, not fatal
                tally.failed += 1
                tally.failures[op.label] = f"{type(err).__name__}: {err}"
                continue
            tally.lat_ns.append(time.perf_counter_ns() - t0)
            if tracer:
                tracer.end_op()
            problem = op.check(out)
            if problem:
                tally.problems.append(problem)
        tally.round_rates.append((len(tally.lat_ns) - done) / (sum(tally.lat_ns[done:]) / 1e9))
        i += 1
        if (i >= rounds) if rounds else time.perf_counter() >= deadline:
            return tally


def setup_probe(workload):
    """One fresh interpreter running setup_probe.py: its set-up seconds."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(workload.seed)]
    cmd += ["cli"] if workload.imports_cli else []
    return lambda: float(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)


def wall(argv, env=None) -> float:
    """Wall time of one process, from spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True)
    return time.perf_counter() - t0


def fresh_s(codes, samples: int) -> dict[str, float]:
    """Median wall time of fresh `python3 -c CODE` processes, per code.

    One warm-up each, then the codes take turns, so a change of machine
    speed during the measurement falls on all of them alike."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = {code: [] for code in codes}
    for code in codes:
        wall([sys.executable, "-c", code], env)
    for _ in range(samples):
        for code in codes:
            times[code].append(wall([sys.executable, "-c", code], env))
    return {code: statistics.median(t) for code, t in times.items()}


def cli_import_ms() -> float:
    """Fresh `import inforcer.cli` minus a bare interpreter start, in ms."""
    t = fresh_s(("pass", "import inforcer.cli"), IMPORT_SAMPLES)
    return 1e3 * (t["import inforcer.cli"] - t["pass"])


def end_to_end(workload, seconds: float) -> tuple[Tally, dict]:
    """Rounds of the workload for `seconds`, in SETUP_SAMPLES slices.

    After each slice come a set-up probe and two bare interpreter starts,
    so set-up and machine speed are sampled across the same stretch of
    time as the operations. Times are scaled by BARE_S over the median
    bare start; peak memory is not."""
    probe = setup_probe(workload)
    probe()                                          # warm-ups: byte-code and file caches
    wall(BARE)
    run_rounds(workload.round, 0, rounds=1)          # warm-up, not counted
    tally, setups, bare = Tally(), [], []
    start = time.perf_counter()
    for k in range(1, SETUP_SAMPLES + 1):
        left = start + k * seconds / SETUP_SAMPLES - time.perf_counter()
        if left > 0:    # a slice already used up by a long round is skipped
            tally.add(run_rounds(workload.round, left))
        setups.append(probe())
        bare += [wall(BARE), wall(BARE)]
    scale = BARE_S / statistics.median(bare)
    print(f"{workload.name:<14} {'bare start':<28} {statistics.median(bare):>14.6g} s; times below are scaled "
          f"by {scale:.4g}")
    lat = np.array(tally.lat_ns, dtype=float) / 1e3
    return tally, {
        "ops_per_s": (statistics.median(tally.round_rates) / scale, "1/s"),
        "p50_us": (scale * float(np.median(lat)), "us"),
        "tail_us": (scale * float(np.percentile(lat, workload.tail_pct)), "us"),
        "setup_s": (scale * statistics.median(setups), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }


def per_layer(workload, seconds: float) -> tuple[Tally, dict]:
    from tracing import Tracer

    run_rounds(workload.trace_round, 0, rounds=1)    # warm-up, not counted
    tally = run_rounds(workload.trace_round, 0.4 * seconds)
    timing = Tracer()
    with timing.installed():
        traced = run_rounds(workload.trace_round, 0.4 * seconds, tracer=timing)
    alloc = Tracer(alloc=True)
    with alloc.installed():
        counted = run_rounds(workload.trace_round, 0, tracer=alloc, rounds=1)
    overhead = (statistics.median(traced.lat_ns) - statistics.median(tally.lat_ns)) / 1e3
    tally.add(traced)
    tally.add(counted)
    metrics = {name: (value, "us") for name, value in timing.time_metrics().items()}
    metrics.update({name: (value, "MB") for name, value in alloc.alloc_metrics().items()})
    metrics["cli.import_ms"] = (cli_import_ms(), "ms")
    metrics["trace.overhead_us"] = (overhead, "us")
    return tally, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "inforcer" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'inforcer'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.build()
        workload.prepare()
        measure = per_layer if args.trace else end_to_end
        tally, metrics = measure(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for label, message in sorted(tally.failures.items()):
        print(f"failed: {label}: {message[:160]}", file=sys.stderr)
    for problem in tally.problems[:10]:
        print(f"wrong: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<14} {name:<28} {value:>14.6g} {unit}")
    print(f"{args.workload:<14} {'attempted':<28} {tally.attempted:>14} ops, {tally.failed} failed")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
