"""Time one fresh interpreter from start to ready for a workload.

    python3 perfbench/setup_probe.py WORKLOAD SEED [cli]

Prints the seconds spent in ``import inforcer`` (plus ``import
inforcer.cli`` when ``cli`` is given) and in building the validated
inputs the workload reuses. Interpreter start-up and the benchmark's
own input generation are left out. run.py starts several of these and
reports their median as ``setup_s``.
"""
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import inforcer  # noqa: F401

    if sys.argv[3:] == ["cli"]:
        import inforcer.cli  # noqa: F401
    imported = time.perf_counter() - t0

    import workloads

    workload = workloads.WORKLOADS[name](seed, ROOT / ".perfbench")
    t1 = time.perf_counter()
    workload.build()
    print(imported + time.perf_counter() - t1)


if __name__ == "__main__":
    main()
