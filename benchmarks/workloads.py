"""The benchmark's workloads, their output checks and their quality numbers.

Each workload has a `setup` (what a user pays before the first result), a
`rep` (one repetition at the workload's fixed size, the unit that `wall_s`
and `wall_rel` time) and a `finish` that checks the outputs and derives the
quality numbers.
An operation is one CLI stage, one grid cell or one `simulate` call; each is
attempted through `Run`, which counts typed failures and keeps going.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from spikefit import ann as sf_ann
from spikefit import calibrate as sf_cal
from spikefit import checkpoint as sf_ckpt
from spikefit import config as sf_config
from spikefit import data as sf_data
from spikefit import diagnostics as sf_diag
from spikefit import energy as sf_energy
from spikefit import snn as sf_snn
from spikefit.tensor import Rng

import yardstick
from tracing import load_spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TYPED_ERRORS = (sf_cal.CalibrationError, sf_snn.SimulationError, sf_ann.TrainingDivergedError)
CLI_STAGES = ("train", "convert", "calibrate", "eval", "analyze", "energy")
VARIANTS = sf_cal.ABLATION_VARIANTS


class Run:
    """Per-process state: work directory, operation counts, CLI launcher.

    While `tracer` is set, CLI stages run through `traced_cli.py` and their
    spans are merged under a parent-side `cli:<stage>` span. While
    `yardstick` names blocks of `yardstick.py`, one call of each is timed
    after every operation and the time appended to `yardstick_s`.
    """

    def __init__(self, work: str, seed: int, env: dict):
        self.work = work
        self.seed = seed
        self.env = env
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cli_failed = 0
        self.cli_times: dict[str, list[float]] = {}
        self.yardstick: tuple[str, ...] = ()
        self.yardstick_s: list[float] = []
        self._serial = 0

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def fresh_path(self, prefix: str) -> str:
        """A path not used before in this run, so a failed stage cannot pass
        off stale files as its output."""
        self._serial += 1
        return self.path(f"{prefix}{self._serial}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def _tick(self) -> None:
        if self.yardstick:
            start = time.perf_counter()
            for kind in self.yardstick:
                yardstick.BLOCKS[kind]()
            self.yardstick_s.append(time.perf_counter() - start)

    def attempt(self, label: str, fn, *args):
        """Run one operation; a typed failure is counted and yields None."""
        self.attempted += 1
        try:
            return fn(*args)
        except TYPED_ERRORS as e:
            self._fail(f"{label}: {type(e).__name__}: {e}")
            return None
        finally:
            self._tick()

    def cli(self, stage: str, config_path: str, out: str) -> bool:
        """Run one `spikefit` CLI stage in a fresh process."""
        self.attempted += 1
        args = [stage, "--config", config_path, "--out", out]
        start = time.perf_counter()
        if self.tracer is None:
            proc = subprocess.run([sys.executable, "-m", "spikefit", *args], env=self.env,
                                  capture_output=True, text=True)
        else:
            spans_path = self.fresh_path("spans") + ".json"
            span = self.tracer.open(f"cli:{stage}")
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans_path, *args],
                    env=self.env, capture_output=True, text=True)
            finally:
                self.tracer.close(span)
            if os.path.exists(spans_path):
                self.tracer.adopt(load_spans(spans_path), span)
        self.cli_times.setdefault(stage, []).append(time.perf_counter() - start)
        self._tick()
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["(no output)"]
            self.cli_failed += 1
            self._fail(f"spikefit {stage}: exit {proc.returncode}: {lines[-1]}")
            return False
        return True

    def write_config(self, raw: dict) -> str:
        path = self.path("config.json")
        with open(path, "w") as f:
            json.dump(raw, f, indent=2)
        return path


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What `finish` hands back: checks, the headline quality numbers (None
    where a number does not apply, with the reason) and the full table."""

    checks: list[Check]
    quality: dict
    not_applicable: dict = field(default_factory=dict)
    table: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


# Headline numbers when the operation they come from failed: a failed
# operation scores zero on the compared metrics.
FAILED_QUALITY = {"ann_accuracy": None, "snn_accuracy": 0.0, "heldout_L_all": None,
                  "calib_regret": None, "output_cosine": 0.0, "nwc_step_ms": None}


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _read_json(path: str) -> dict | None:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _same_reps(results: list) -> Check:
    """Reruns of the same code and seed must be bit-identical."""
    kept = [r for r in results if r is not None]
    ok = all(r == kept[0] for r in kept[1:])
    return Check("reps_bit_identical", ok, f"{len(kept)} repetitions compared")


def spike_fanout_acs(record, net) -> list[int]:
    """AC operations per layer recounted as spike count times fan-out."""
    linears = net.linear_layers()
    return [int(np.count_nonzero(s)) * linears[j + 1].w.shape[1]
            for j, s in enumerate(record.spikes)]


def reference_if_counts(net, x, timesteps: int) -> list[np.ndarray]:
    """Spike counts from a plain integrate-and-fire loop: constant input
    current, reset by subtraction, a tie at threshold fires."""
    linears, ifs = net.linear_layers(), net.if_layers()
    v = [np.broadcast_to(l.v_init, (len(x), l.width)).astype(np.float32) for l in ifs]
    counts = [np.zeros((len(x), l.width), dtype=np.int64) for l in ifs]
    first = x.astype(np.float32) @ linears[0].w + linears[0].b
    for _ in range(timesteps):
        carry = None
        for j, layer in enumerate(ifs):
            current = first if j == 0 else carry @ linears[j].w + linears[j].b
            v[j] = v[j] + current
            fired = v[j] >= layer.threshold
            v[j] = v[j] - fired * layer.threshold
            counts[j] += fired
            carry = fired.astype(np.float32) * layer.threshold
    return counts


# Tolerance of the reference check: float32 matmuls over a slice of the batch
# may round differently from the full batch, which can move a spike across a
# threshold. Up to this share of (sample, neuron) counts may differ.
REFERENCE_MISMATCH_TOLERANCE = 1e-3


def check_reference(record, net, x, rows: int) -> Check:
    ref = reference_if_counts(net, x[:rows], record.timesteps)
    worst = 0.0
    for j, counts in enumerate(ref):
        got = np.count_nonzero(record.spikes[j][:, :rows], axis=0)
        worst = max(worst, float(np.mean(got != counts)))
    return Check("reference_if_loop", worst <= REFERENCE_MISMATCH_TOLERANCE,
                 f"{rows} samples, worst layer mismatch share {worst:g} "
                 f"(tolerance {REFERENCE_MISMATCH_TOLERANCE:g})")


# -- calib-grid-small ----------------------------------------------------------------

class CalibGrid:
    """8-64-64-4 MLP, stage 1 trained in set-up; the run is the stage-2
    quality grid over every variant and horizon."""

    name = "calib-grid-small"
    yardstick = ("tape", "arrays")  # blocks of yardstick.py that work like it
    setup_repeats = 3

    def __init__(self, toy: bool):
        self.toy = toy
        self.horizons = (2, 8) if toy else (2, 4, 8, 16)
        self.default_t = 8

    def config(self, seed: int) -> dict:
        hidden, samples = ([8, 8], 200) if self.toy else ([64, 64], 4000)
        raw = {
            "seed": seed,
            "model": {"kind": "mlp_classifier", "hidden": hidden, "levels": 8},
            "dataset": {"kind": "synthetic-teacher", "samples": samples,
                        "input_dim": 8, "classes": 4},
            "stage1": {},
            "stage2": {"timesteps": self.default_t},
        }
        if self.toy:
            raw["stage1"]["steps"] = 20
            raw["stage2"]["steps"] = 3
        return raw

    def setup(self, run: Run):
        cfg_path = run.write_config(self.config(run.seed))
        out = run.fresh_path("model")
        if not run.cli("train", cfg_path, out):
            raise RuntimeError(f"set-up failed: {run.errors[-1]}")
        cfg = sf_config.parse_config(cfg_path)
        splits = sf_data.make_dataset(cfg.dataset, Rng(cfg.seed).split("data"))
        ann = sf_ckpt.load_checkpoint(os.path.join(out, "ann"))
        return {"cfg_path": cfg_path, "out": out, "cfg": cfg, "splits": splits, "ann": ann,
                "eval_batch": splits.test.x[:min(256, len(splits.test.x))], "nets": {}}

    def _cell(self, st, base, cfg, variant):
        start = time.perf_counter()
        net, log = sf_cal.apply_stage2(base, st["ann"], st["splits"], cfg, variant,
                                       Rng(st["cfg"].seed).split("calib"))
        stage2_s = time.perf_counter() - start
        row = {"variant": variant, "T": cfg.timesteps,
               "snn_accuracy": sf_cal.evaluate_snn(net, st["splits"].test,
                                                   cfg.timesteps)["accuracy"]}
        row.update(sf_cal.eval_losses(net, st["ann"], st["eval_batch"], cfg))
        st["nets"][(variant, cfg.timesteps)] = net
        return row, stage2_s, len(log)

    def rep(self, run: Run, st):
        rows, timing = [], []
        for T in self.horizons:
            base = sf_cal.convert(st["ann"], T)
            cfg = replace(st["cfg"].stage2, timesteps=T, rho=None, seed=st["cfg"].seed)
            for variant in VARIANTS:
                got = run.attempt(f"cell {variant} T={T}", self._cell, st, base, cfg, variant)
                if got is None:
                    rows.append({"variant": variant, "T": T, "failed": True})
                    continue
                row, stage2_s, steps = got
                rows.append(row)
                if steps:
                    timing.append((stage2_s, steps))
        st["nwc_timing"] = timing
        return rows

    def finish(self, run: Run, st, results: list) -> Outcome:
        rows = results[-1]
        cells = {(r["variant"], r["T"]): r for r in rows if not r.get("failed")}
        ann, T = st["ann"], self.default_t
        ann_acc = sf_ann.accuracy(ann, st["splits"].test)
        checks = [_same_reps(results)]

        ann_hash = sf_ckpt.weight_hash(ann)
        frozen = all(sf_ckpt.weight_hash(net) == ann_hash for net in st["nets"].values())
        checks.append(Check("grid_weights_match_ann", frozen,
                            f"{len(st['nets'])} calibrated networks hashed"))
        numbers = [v for r in cells.values() for k, v in r.items() if k.startswith(("L_", "snn_"))]
        checks.append(Check("grid_outputs_finite", _finite(numbers + [ann_acc]),
                            f"{len(numbers)} numbers"))

        both = cells.get(("both", T))
        cosine = None
        if both is not None:
            net = st["nets"][("both", T)]
            ann_out = sf_ann.ann_forward(ann, st["eval_batch"], record=False).output
            cosine = sf_diag.output_cosine(ann_out, sf_cal.snn_predict(net, st["eval_batch"], T))
            both = dict(both, output_cosine=cosine)

        # The same cell through the CLI: convert, calibrate (both), eval.
        ok = all([run.cli(stage, st["cfg_path"], st["out"])
                  for stage in ("convert", "calibrate", "eval")])
        metrics = _read_json(os.path.join(st["out"], "reports", "metrics.json")) if ok else None
        if metrics is not None and both is not None:
            ev = metrics["eval"]
            keys = ("snn_accuracy", "L_al", "L_logits", "L_all", "output_cosine")
            diff = {k: (both[k], ev[k]) for k in keys if both[k] != ev[k]}
            if ev["ann_accuracy"] != ann_acc:
                diff["ann_accuracy"] = (ann_acc, ev["ann_accuracy"])
            checks.append(Check(f"cell_both_T{T}_equals_cli", not diff,
                                f"mismatches {diff}" if diff else f"{len(keys) + 1} numbers equal"))
            checks.append(Check("cli_weight_hash_matches_ann",
                                metrics["convert"]["weight_hash_matches_ann"] is True))
            checks.append(Check("cli_weights_frozen",
                                metrics["calibrate"]["weights_frozen"] is True))
        else:
            checks.append(Check(f"cell_both_T{T}_equals_cli", False, "CLI chain or cell failed"))
        checks.append(Check("cli_stages_exit_0", run.cli_failed == 0,
                            f"{run.cli_failed} failed"))

        regrets = [cells[("both", t)]["L_all"] - cells[("none", t)]["L_all"]
                   for t in self.horizons if ("both", t) in cells and ("none", t) in cells]
        stage2_s = sum(s for s, _ in st["nwc_timing"])
        steps = sum(n for _, n in st["nwc_timing"])
        quality = {
            "ann_accuracy": ann_acc,
            "snn_accuracy": both["snn_accuracy"] if both else 0.0,
            "heldout_L_all": both["L_all"] if both else None,
            "calib_regret": max(regrets) if regrets else None,
            "output_cosine": cosine if cosine is not None else 0.0,
            "nwc_step_ms": 1e3 * stage2_s / steps if steps else None,
        }
        table = [dict(r, ann_accuracy=ann_acc) for r in rows]
        return Outcome(checks, quality, {}, table,
                       {"nwc_step_ms": "apply_stage2 wall time of the nwc and both "
                                             "cells of the last repetition over their steps"})


# -- pipeline-wide -------------------------------------------------------------------

class PipelineWide:
    """The full CLI chain on an 8-512-512-512-4 MLP, one process per stage."""

    name = "pipeline-wide"
    yardstick = ("process", "arrays", "tape")  # blocks of yardstick.py that work like it
    setup_repeats = 5

    def __init__(self, toy: bool):
        self.toy = toy
        self.timesteps = 4 if toy else 16

    def config(self, seed: int) -> dict:
        hidden, samples = ([16, 16, 16], 200) if self.toy else ([512, 512, 512], 4000)
        return {
            "seed": seed,
            "model": {"kind": "mlp_classifier", "hidden": hidden, "levels": 8},
            "dataset": {"kind": "synthetic-teacher", "samples": samples,
                        "input_dim": 8, "classes": 4},
            # Cut so that three repetitions fit in a 30 s run and their
            # median is one that a single slow repetition cannot move.
            "stage1": {"steps": 10 if self.toy else 50},
            "stage2": {"timesteps": self.timesteps, "steps": 2 if self.toy else 5},
        }

    def setup(self, run: Run):
        cfg_path = run.write_config(self.config(run.seed))
        cfg = sf_config.parse_config(cfg_path)
        splits = sf_data.make_dataset(cfg.dataset, Rng(cfg.seed).split("data"))
        # Built only to time it; `spikefit train` builds the same model again.
        sf_config.build_model(cfg, Rng(cfg.seed).split("init"))
        return {"cfg_path": cfg_path, "cfg": cfg, "splits": splits}

    def rep(self, run: Run, st):
        out = run.fresh_path("chain")
        for stage in CLI_STAGES:
            run.cli(stage, st["cfg_path"], out)
        st["last_out"] = out
        reports = {name: _read_json(os.path.join(out, "reports", f"{name}.json"))
                   for name in ("metrics", "energy")}
        return reports

    def finish(self, run: Run, st, results: list) -> Outcome:
        checks = [_same_reps(results),
                  Check("cli_stages_exit_0", run.cli_failed == 0, f"{run.cli_failed} failed")]
        metrics, energy = results[-1]["metrics"], results[-1]["energy"]
        if metrics is None or energy is None:
            checks.append(Check("reports_written", False, "metrics.json or energy.json missing"))
            return Outcome(checks, FAILED_QUALITY)
        ev = metrics["eval"]
        checks.append(Check("cli_weight_hash_matches_ann",
                            metrics["convert"]["weight_hash_matches_ann"] is True))
        checks.append(Check("cli_weights_frozen", metrics["calibrate"]["weights_frozen"] is True))
        numbers = [ev[k] for k in ("ann_accuracy", "snn_accuracy", "output_cosine",
                                   "L_al", "L_logits", "L_all")]
        checks.append(Check("eval_outputs_finite",
                            _finite(numbers + [energy["ac_count"], energy["ratio_pct"]])))

        out, cfg = st["last_out"], st["cfg"]
        ann = sf_ckpt.load_checkpoint(os.path.join(out, "ann"))
        before = sf_ckpt.load_checkpoint(os.path.join(out, "snn"))
        after = sf_ckpt.load_checkpoint(os.path.join(out, "snn_calibrated"))
        batch = st["splits"].test.x[:min(256, len(st["splits"].test.x))]
        record = sf_snn.simulate(after, batch, cfg.stage2.timesteps)
        expected = sum(spike_fanout_acs(record, after))
        checks.append(Check("ac_equals_spikes_times_fanout", energy["ac_count"] == expected,
                            f"energy.json {energy['ac_count']} vs recount {expected}"))
        none = sf_cal.eval_losses(before, ann, batch, cfg.stage2)

        quality = {
            "ann_accuracy": ev["ann_accuracy"],
            "snn_accuracy": ev["snn_accuracy"],
            "heldout_L_all": ev["L_all"],
            "calib_regret": ev["L_all"] - none["L_all"],
            "output_cosine": ev["output_cosine"],
            "nwc_step_ms": None,
        }
        T = cfg.stage2.timesteps
        table = [{"variant": "both", "T": T, "ann_accuracy": ev["ann_accuracy"],
                  "snn_accuracy": ev["snn_accuracy"],
                  **{k: ev[k] for k in ("L_al", "L_logits", "L_all")}},
                 {"variant": "none", "T": T, **none}]
        return Outcome(checks, quality,
                       {"nwc_step_ms": "calibration runs inside the `spikefit calibrate` "
                                       "process, which does not time its own steps"},
                       table)


# -- simulate-wide -------------------------------------------------------------------

class SimulateWide:
    """An untrained 8-1024-1024-1024-4 staircase MLP converted at T=64 and
    driven with one batch: simulate, then the post-processing that the
    `analyze` and `energy` stages do."""

    name = "simulate-wide"
    yardstick = ("arrays",)  # blocks of yardstick.py that work like it
    setup_repeats = 5
    reference_rows = 32

    def __init__(self, toy: bool):
        self.width, self.batch, self.timesteps = (32, 64, 8) if toy else (1024, 1024, 64)

    def setup(self, run: Run):
        # Nothing is fitted here, so the train and test splits together are the batch.
        spec = sf_data.DataSpec(kind="synthetic-teacher", samples=self.batch, input_dim=8)
        splits = sf_data.make_dataset(spec, Rng(run.seed).split("data"))
        x = np.concatenate([splits.train.x, splits.test.x])
        model = sf_ann.mlp([8] + [self.width] * 3 + [4], Rng(run.seed).split("init"))
        qcfs = sf_ann.replace_activations(model, 8, x)
        net = sf_cal.convert(qcfs, self.timesteps)
        return {"x": x, "qcfs": qcfs, "net": net, "record": None}

    def rep(self, run: Run, st):
        st["record"] = None  # free the last record before simulate allocates the next
        record = run.attempt("simulate", sf_snn.simulate, st["net"], st["x"], self.timesteps)
        if record is None:
            return None
        forward = sf_ann.ann_forward(st["qcfs"], st["x"], record=True)
        counts = sf_energy.count_ops(record, st["net"])
        rates = sf_energy.spike_rate_stats(record)
        errors = sf_diag.decompose_errors(forward.traces, record, st["net"])
        st["record"], st["forward"] = record, forward
        return {"output_sha256": hashlib.sha256(record.output.tobytes()).hexdigest(),
                "ac_per_layer": counts.per_layer_ac, "ac": counts.ac, "rates": rates,
                "errors": errors.as_dict()}

    def finish(self, run: Run, st, results: list) -> Outcome:
        checks = [_same_reps(results)]
        last, record = results[-1], st["record"]
        if last is None or record is None:
            checks.append(Check("simulate_ran", False))
            return Outcome(checks, FAILED_QUALITY)
        net, forward, T = st["net"], st["forward"], self.timesteps
        expected = spike_fanout_acs(record, net)
        checks.append(Check("ac_equals_spikes_times_fanout",
                            last["ac_per_layer"] == expected and last["ac"] == sum(expected),
                            f"count_ops {last['ac_per_layer']} vs recount {expected}"))
        checks.append(check_reference(record, net, st["x"], self.reference_rows))
        error_numbers = [v for row in last["errors"]["layers"] for v in row.values()]
        checks.append(Check("outputs_finite", bool(np.isfinite(record.output).all())
                            and _finite(last["rates"] + error_numbers)))

        # Held-out losses of the uncalibrated network at T, from this record's
        # spike counts (the formula of `eval_losses`, without a second simulate).
        l_al = 0.0
        for j, trace in enumerate(forward.traces):
            rate = (record.thresholds[j].astype(np.float64)
                    * record.spikes[j].sum(axis=0, dtype=np.float64) / T)
            l_al += float(np.mean((trace.post.astype(np.float64) - rate) ** 2))
        l_logits = sf_cal.logits_loss(forward.output, record.output, 1.0)
        agreement = float(np.mean(forward.output.argmax(axis=1) == record.output.argmax(axis=1)))
        quality = {
            "ann_accuracy": None,
            "snn_accuracy": agreement,
            "heldout_L_all": l_al + l_logits,
            "calib_regret": None,
            "output_cosine": sf_diag.output_cosine(forward.output, record.output),
            "nwc_step_ms": None,
        }
        table = [{"variant": "none", "T": T, "argmax_agreement": agreement, "L_al": l_al,
                  "L_logits": l_logits, "L_all": l_al + l_logits, "spike_rates": last["rates"]}]
        return Outcome(checks, quality, {
            "ann_accuracy": "the network is untrained and the batch has no labels",
            "calib_regret": "no stage 2 runs here",
            "nwc_step_ms": "no stage 2 runs here",
        }, table, {"snn_accuracy": "argmax agreement between SNN and ANN outputs"})


WORKLOADS = {w.name: w for w in (CalibGrid, PipelineWide, SimulateWide)}
