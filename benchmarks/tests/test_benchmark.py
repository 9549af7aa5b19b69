"""Smoke tests of the benchmark itself, at toy size.

    python3 -m pytest benchmarks/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import spikefit  # noqa: E402
from spikefit import autodiff, calibrate, cli, snn  # noqa: E402
from tracing import NAME, PARENT, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_toy_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "calib-grid-small", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_typed_failures_are_counted_and_others_raise(tmp_path):
    from workloads import Run

    run = Run(str(tmp_path), 0, dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))

    def diverge():
        raise calibrate.CalibrationError("non-finite calibration loss")

    assert run.attempt("nwc", diverge) is None
    assert run.cli("convert", str(tmp_path / "missing.json"), str(tmp_path / "out")) is False
    assert (run.attempted, run.failed, run.cli_failed) == (2, 2, 1)
    with pytest.raises(ZeroDivisionError):
        run.attempt("bug", lambda: 1 / 0)


def test_yardstick_is_timed_after_each_operation_only_while_set(tmp_path):
    from workloads import Run

    run = Run(str(tmp_path), 0, dict(os.environ))
    run.attempt("off", lambda: None)
    assert run.yardstick_s == []

    def fail():
        raise snn.SimulationError("non-finite potential")

    run.yardstick = ("tape",)
    run.attempt("on", lambda: None)
    run.attempt("failing", fail)
    assert len(run.yardstick_s) == 2 and all(t > 0 for t in run.yardstick_s)


def test_install_patches_every_lookup_site_and_restores():
    original = snn.simulate
    tracer = Tracer()
    restore = tracer.install(spikefit)
    try:
        assert snn.simulate is not original
        assert calibrate.simulate is snn.simulate is cli.simulate is spikefit.simulate
        assert cli._COMMANDS["train"] is cli.cmd_train
        assert autodiff.backward.__wrapped__ is not None
        assert not hasattr(autodiff.add, "__wrapped__")

        net = snn.SnnNetwork([spikefit.Linear(spikefit.Rng(0).normal(0, 1, (3, 4)),
                                              spikefit.Rng(1).normal(0, 1, (4,))),
                              snn.IfLayer([1.0] * 4, [0.5] * 4)], timesteps=3)
        calibrate.snn_predict(net, spikefit.Rng(2).normal(0, 1, (5, 3)))
    finally:
        restore()
    assert snn.simulate is original and calibrate.simulate is original
    names = {s[0]: s[NAME] for s in tracer.spans}
    parents = [(s[NAME], names.get(s[PARENT])) for s in tracer.spans]
    assert ("snn.simulate", "calibrate.snn_predict") in parents
    assert parents.count(("snn.if_step", "snn.simulate")) == 3
