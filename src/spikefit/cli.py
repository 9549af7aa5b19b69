"""Batch experiment runner: config-driven subcommands that train, convert,
calibrate, evaluate, and analyze, writing checkpoints and reports under one
output directory. `pipeline` runs the stages in that order. Every stage takes
only ``--config`` and ``--out``, reads its settings from the config alone, and
re-derives its random streams from the config seed, so a manual chain of
subcommands writes the same files, byte for byte, as one `pipeline` run, and
each report's ``config_hash`` names every setting that produced it.

``--out`` is the only source of the output directory, and a directory holds
one config's outputs. Each reported number is written once: the held-out
calibration losses in ``metrics.json``, and their per-layer ``L_al`` terms,
before and after calibration, in ``layer_mse.csv``."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from .ann import (TrainingDivergedError, ann_forward, accuracy as ann_accuracy,
                  replace_activations, stage1_finetune, train_model)
from .calibrate import (CalibrationError, _align_terms, _record_losses, _teacher_pass,
                        apply_stage2, convert, evaluate_snn)
from .config import ConfigError, ExperimentConfig, build_model, config_hash, parse_config
from .data import make_dataset
from .diagnostics import (decompose_errors, layer_mse_report, output_cosine,
                          tau_histogram, threshold_shift_report, write_error_csv,
                          write_mse_csv, write_tau_csv, write_threshold_shift_csv)
from .energy import count_ops, energy_report, spike_rate_stats
from .snn import SimulationError, simulate
from .tensor import Rng


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def _read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


class _Run:
    """Config, splits, and paths shared by every subcommand. Every stage,
    ``train`` and ``pipeline`` included, refuses a directory that ``train``
    filled under another config."""

    def __init__(self, args):
        if args.out is None:
            raise ConfigError("no output directory: pass --out")
        cfg = parse_config(args.config)
        self.cfg: ExperimentConfig = cfg
        self.out = args.out
        self.reports = os.path.join(args.out, "reports")
        self.config_hash = config_hash(args.config)
        trained = self.path("reports", "stage_train.json")
        if os.path.exists(trained):
            trained_hash = _read_json(trained).get("config_hash")
            if trained_hash != self.config_hash:
                raise ConfigError(f"{args.out} holds the outputs of config {trained_hash}, "
                                  f"not of this config {self.config_hash}; pass another --out")
        self.splits = make_dataset(cfg.dataset, Rng(cfg.seed).split("data"))

    def path(self, *parts) -> str:
        return os.path.join(self.out, *parts)

    def eval_batch(self):
        return self.splits.test.x[:min(256, len(self.splits.test.x))]


def cmd_train(run: _Run) -> None:
    cfg = run.cfg
    rng = Rng(cfg.seed)
    model0 = build_model(cfg, rng.split("init"))
    model0, hist0 = train_model(model0, run.splits.train, cfg.stage1,
                                rng.split("pretrain"), val_data=run.splits.test)
    # the baseline is scored now and dropped before stage 1 starts
    baseline = {"history": hist0, "test_accuracy": ann_accuracy(model0, run.splits.test)}

    init_batch = run.splits.train.x[:min(512, len(run.splits.train.x))]
    qcfs_model = replace_activations(model0, cfg.model.levels, init_batch)
    del model0
    ann1, hist1 = stage1_finetune(qcfs_model, run.splits.train, cfg.stage1,
                                  rng.split("stage1"), val_data=run.splits.test)
    ckpt.save_checkpoint(ann1, run.path("ann"))

    _write_json(run.path("reports", "stage_train.json"), {
        "config_hash": run.config_hash,
        "seed": cfg.seed,
        "levels": cfg.model.levels,
        "baseline": baseline,
        "stage1": {"history": hist1, "test_accuracy": ann_accuracy(ann1, run.splits.test)},
    })


def cmd_convert(run: _Run) -> None:
    ann = ckpt.load_checkpoint(run.path("ann"))
    net = convert(ann, run.cfg.stage2.timesteps)
    ckpt.save_checkpoint(net, run.path("snn"))
    digest = ckpt.weight_hash(net)
    _write_json(run.path("reports", "stage_convert.json"), {
        "config_hash": run.config_hash,
        "timesteps": net.timesteps,
        "weight_hash": digest,
        "weight_hash_matches_ann": digest == ckpt.weight_hash(ann),
        "thresholds_mean": [float(l.threshold.mean()) for l in net.if_layers()],
    })


def cmd_calibrate(run: _Run) -> None:
    cfg = run.cfg
    ann = ckpt.load_checkpoint(run.path("ann"))
    net = ckpt.load_checkpoint(run.path("snn"))
    calibrated, log = apply_stage2(net, ann, run.splits, cfg.stage2, "both",
                                   Rng(cfg.seed).split("calib"))
    ckpt.save_checkpoint(calibrated, run.path("snn_calibrated"))
    os.makedirs(run.reports, exist_ok=True)
    with open(run.path("reports", "calibration.jsonl"), "w") as f:
        for row in log:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    _write_json(run.path("reports", "stage_calibrate.json"), {
        "config_hash": run.config_hash,
        "rho": cfg.stage2.rho,
        "steps_logged": len(log),
        # against the teacher's own arrays: calibrated shares net's weights
        "weights_frozen": ckpt.weight_hash(calibrated) == ckpt.weight_hash(ann),
    })


def cmd_eval(run: _Run) -> None:
    cfg = run.cfg
    ann = ckpt.load_checkpoint(run.path("ann"))
    net = ckpt.load_checkpoint(run.path("snn_calibrated"))
    T = cfg.stage2.timesteps
    batch = run.eval_batch()
    rec = simulate(net, batch, T)
    teacher_acts, teacher_logits = _teacher_pass(ann, batch)
    results = {
        "timesteps": T,
        "output_cosine": output_cosine(teacher_logits, rec.output),
    }
    results.update(_record_losses(rec, teacher_acts, teacher_logits))
    # the whole split is simulated anew: the tail product's bits vary with batch shape
    results["ann_accuracy"] = ann_accuracy(ann, run.splits.test)
    results["snn_accuracy"] = evaluate_snn(net, run.splits.test, T)["accuracy"]

    metrics = {
        "config_hash": run.config_hash,
        "schema_version": run.cfg.schema_version,
        "seed": cfg.seed,
        "eval": results,
    }
    for stage in ("stage_train", "stage_convert", "stage_calibrate"):
        path = run.path("reports", f"{stage}.json")
        if os.path.exists(path):
            metrics[stage.removeprefix("stage_")] = _read_json(path)
    _write_json(run.path("reports", "metrics.json"), metrics)


def cmd_analyze(run: _Run) -> None:
    ann = ckpt.load_checkpoint(run.path("ann"))
    before = ckpt.load_checkpoint(run.path("snn"))
    after = ckpt.load_checkpoint(run.path("snn_calibrated"))
    T = run.cfg.stage2.timesteps
    batch = run.eval_batch()

    traces = ann_forward(ann, batch).traces
    acts = [t.post for t in traces]
    # one full-horizon record at a time: the first is dropped once scored
    terms_before = _align_terms(simulate(before, batch, T), acts)
    rec_after = simulate(after, batch, T)

    write_error_csv(decompose_errors(traces, rec_after, after),
                    run.path("reports", "errors.csv"))
    write_tau_csv(tau_histogram(acts, [t.ceiling for t in traces], T),
                  run.path("reports", "tau_histogram.csv"))
    write_mse_csv(layer_mse_report(terms_before, _align_terms(rec_after, acts)),
                  run.path("reports", "layer_mse.csv"))
    write_threshold_shift_csv(threshold_shift_report(before, after),
                              run.path("reports", "threshold_shift.csv"))


def cmd_energy(run: _Run) -> None:
    net = ckpt.load_checkpoint(run.path("snn_calibrated"))
    rec = simulate(net, run.eval_batch(), run.cfg.stage2.timesteps)
    counts = count_ops(rec, net)
    _write_json(run.path("reports", "energy.json"),
                energy_report(counts, rates=spike_rate_stats(rec)))


def cmd_pipeline(run: _Run) -> None:
    cmd_train(run)
    cmd_convert(run)
    cmd_calibrate(run)
    cmd_eval(run)
    cmd_analyze(run)
    cmd_energy(run)


_COMMANDS = {
    "train": cmd_train,
    "convert": cmd_convert,
    "calibrate": cmd_calibrate,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "energy": cmd_energy,
    "pipeline": cmd_pipeline,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spikefit",
                                     description="Analog-to-spiking conversion experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # every stage turns non-finite values into a typed error, so numpy's
        # overflow warnings would only repeat that error
        with np.errstate(all="ignore"):
            run = _Run(args)
            _COMMANDS[args.command](run)
    except (ConfigError, ckpt.IntegrityError, TrainingDivergedError, SimulationError,
            CalibrationError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0
