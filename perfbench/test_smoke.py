"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench/test_smoke.py

Every workload runs once per mode; every output check must pass and every
metric declared in BENCHMARK.json must be reported.  No timing assertions.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import IterationClock, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_checks(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--trace", str(trace),
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] == 1 + trace
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "pmmh-tall", "--seed", "1", "--seconds", "5",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_reports_a_missing_target_and_restores_the_rest():
    class Module:
        @staticmethod
        def present(x):
            return x + 1

    tracer = Tracer({"mod": Module})
    tracer.install([("mod", "present", "mod.present"), ("mod", "gone", "mod.gone"),
                    ("other", "f", "other.f")])
    assert Module.present(1) == 2
    tracer.uninstall()
    assert tracer.missing == ["mod.gone", "other.f"]
    assert [s[0] for s in tracer.spans] == ["mod.present"]
    assert "present" in Module.__dict__ and Module.present(1) == 2
    assert Module.present.__name__ == "present"


def test_iteration_clock_times_the_fastest_window_per_unit_of_work():
    class Samplers:
        @staticmethod
        def propose_u(x):
            return x

    clock = IterationClock({"samplers": Samplers}, work=("estimators", "differences"))
    clock.install()
    assert Samplers.propose_u(3) == 3 and len(clock.ticks) == 1
    clock.uninstall()
    assert clock.missing == ["estimators.differences"] and clock.work is None
    assert Samplers.propose_u.__name__ == "propose_u" and not hasattr(Samplers.propose_u,
                                                                        "__wrapped__")

    # iterations of 2, 1, 4 and 2 work units, one second each
    clock.work = ("estimators", "differences")
    clock.ticks, clock.counts, clock._count = [0.0, 1.0, 2.0, 3.0], [0, 2, 3, 7], [9]
    assert clock.fastest_iteration_s(1, end=4.0) == 0.25 * 9 / 4
    clock.work = None
    clock.ticks = [0.0, 1.0, 2.0, 2.5, 3.0, 4.0]
    assert clock.fastest_iteration_s(2, end=5.0) == 0.5


def test_end_to_end_times_the_loop_at_the_fastest_window_of_the_run():
    from run import end_to_end

    op = {"setup_s": 1.0, "ct": 5.0, "peak_rss_mb": 9.0, "n_iter": 10, "ess_min": 4.0,
          "total_s": 3.0}
    # without iteration marks the timed-loop figures are left out, not guessed
    assert sorted(end_to_end([op, op])) == ["ct", "peak_rss_mb", "setup_s"]
    marked = dict(op, fastest_iter_s=0.1, loop_s=2.0)
    out = end_to_end([marked, dict(marked, fastest_iter_s=0.05)])
    assert out["iter_per_s"] == 20.0
    assert out["ess_per_s"] == 4.0 / 0.5
    assert out["total_s"] == 1.0 + 0.5
