"""Smoke tests: each workload runs one round with its output checks on.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from inforcer import registry  # noqa: E402
from tracing import TIME_METRICS, Tracer  # noqa: E402

KNOWN_FAULTS = {"cold:compute:long_inline", "inproc:compute:long_inline"}


def _one_round(name, tmp_path, traced=False, tracer=None):
    workload = workloads.WORKLOADS[name](7, tmp_path)
    try:
        workload.build()
        workload.prepare()
        make_round = workload.trace_round if traced else workload.round
        return run.run_rounds(make_round, 0, tracer=tracer, rounds=1), len(make_round(0))
    finally:
        workload.close()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_round_is_correct(name, tmp_path):
    tally, ops = _one_round(name, tmp_path)
    assert tally.attempted == ops
    assert not tally.problems
    assert set(tally.failures) <= KNOWN_FAULTS


def test_traced_round_reaches_every_layer_and_restores(tmp_path):
    original = registry.evaluate_named
    timing, alloc = Tracer(), Tracer(alloc=True)
    with timing.installed():
        tally, _ = _one_round("cli_cold", tmp_path, traced=True, tracer=timing)
    with alloc.installed():
        _one_round("cli_cold", tmp_path, traced=True, tracer=alloc)
    assert not tally.problems
    assert registry.evaluate_named is original
    assert set(timing.time_metrics()) == set(TIME_METRICS)
    assert all(value > 0 for value in timing.time_metrics().values())
    assert all(value > 0 for value in alloc.alloc_metrics().values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
