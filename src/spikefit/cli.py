"""Batch experiment runner: config-driven subcommands that train, convert,
calibrate, evaluate, and analyze, writing checkpoints and reports under one
output directory. `pipeline` runs the stages in that order; each stage
re-derives its random streams from the config seed, so a manual chain of
subcommands writes the same files, byte for byte, as one `pipeline` run."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import checkpoint as ckpt
from .ann import (TrainingDivergedError, ann_forward, accuracy as ann_accuracy, dataset_loss,
                  replace_activations, stage1_finetune, train_model)
from .calibrate import (CalibrationError, apply_stage2, convert, eval_losses,
                        evaluate_snn, snn_predict)
from .config import ConfigError, ExperimentConfig, build_model, config_hash, parse_config
from .data import make_dataset
from .diagnostics import (decompose_errors, layer_mse_report, output_cosine,
                          tau_histogram, threshold_shift_report, write_error_csv,
                          write_mse_csv, write_tau_csv, write_threshold_shift_csv)
from .energy import count_ops, energy_report, spike_rate_stats, write_energy_json
from .snn import SimulationError, firing_rate, simulate
from .tensor import Rng


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def _read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


class _Run:
    """Config, splits, and paths shared by every subcommand."""

    def __init__(self, args):
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        overrides = {}
        if args.timesteps is not None:
            overrides["timesteps"] = args.timesteps
            if args.rho is None and cfg.stage2.rho == cfg.stage2.timesteps:
                overrides["rho"] = None  # keep rho pinned to the horizon
        if args.rho is not None:
            overrides["rho"] = args.rho
        if args.denominator is not None:
            overrides["denominator"] = args.denominator
        cfg = replace(cfg, stage2=replace(cfg.stage2, seed=cfg.seed, **overrides))

        out = args.out or cfg.out_dir
        if out is None:
            raise ConfigError("no output directory: set out_dir in the config or pass --out")
        self.cfg: ExperimentConfig = cfg
        self.out = out
        self.reports = os.path.join(out, "reports")
        self.config_hash = config_hash(args.config)
        self.splits = make_dataset(cfg.dataset, Rng(cfg.seed).split("data"))
        self.ablate = getattr(args, "ablate", None) or "both"

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
    ckpt.save_checkpoint(model0, run.path("ann_baseline"))

    init_batch = run.splits.train.x[:min(512, len(run.splits.train.x))]
    qcfs_model = replace_activations(model0, cfg.model.levels, init_batch)
    ann1, hist1 = stage1_finetune(qcfs_model, run.splits.train, cfg.stage1,
                                  rng.split("stage1"), val_data=run.splits.test)
    ckpt.save_checkpoint(ann1, run.path("ann"))

    payload = {
        "config_hash": run.config_hash,
        "seed": cfg.seed,
        "levels": cfg.model.levels,
        "baseline": {"history": hist0},
        "stage1": {"history": hist1},
    }
    if run.splits.test.task != "regress":
        payload["baseline"]["test_accuracy"] = ann_accuracy(model0, run.splits.test)
        payload["stage1"]["test_accuracy"] = ann_accuracy(ann1, run.splits.test)
    else:
        payload["baseline"]["test_mse"] = dataset_loss(model0, run.splits.test)
        payload["stage1"]["test_mse"] = dataset_loss(ann1, run.splits.test)
    _write_json(run.path("reports", "stage_train.json"), payload)


def cmd_convert(run: _Run) -> None:
    ann = ckpt.load_checkpoint(run.path("ann"))
    net = convert(ann, run.cfg.stage2.timesteps)
    ckpt.save_checkpoint(net, run.path("snn"))
    _write_json(run.path("reports", "stage_convert.json"), {
        "config_hash": run.config_hash,
        "timesteps": net.timesteps,
        "weight_hash": ckpt.weight_hash(net),
        "weight_hash_matches_ann": ckpt.weight_hash(net) == ckpt.weight_hash(ann),
        "thresholds_mean": [float(l.threshold.mean()) for l in net.if_layers()],
    })


def cmd_calibrate(run: _Run) -> None:
    cfg = run.cfg
    ann = ckpt.load_checkpoint(run.path("ann"))
    net = ckpt.load_checkpoint(run.path("snn"))
    calibrated, log = apply_stage2(net, ann, run.splits, cfg.stage2, run.ablate,
                                   Rng(cfg.seed).split("calib"))
    ckpt.save_checkpoint(calibrated, run.path("snn_calibrated"))
    os.makedirs(run.reports, exist_ok=True)
    with open(run.path("reports", "calibration.jsonl"), "w") as f:
        for row in log:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    losses = eval_losses(calibrated, ann, run.eval_batch(), cfg.stage2)
    _write_json(run.path("reports", "stage_calibrate.json"), {
        "config_hash": run.config_hash,
        "ablate": run.ablate,
        "rho": cfg.stage2.rho,
        "denominator": cfg.stage2.denominator,
        "steps_logged": len(log),
        "eval_losses": losses,
        "weights_frozen": ckpt.weight_hash(calibrated) == ckpt.weight_hash(net),
    })


def cmd_eval(run: _Run) -> None:
    cfg = run.cfg
    ann = ckpt.load_checkpoint(run.path("ann"))
    net = ckpt.load_checkpoint(run.path("snn_calibrated"))
    T = cfg.stage2.timesteps
    batch = run.eval_batch()
    snn_out = snn_predict(net, batch, T)
    ann_out = ann_forward(ann, batch, record=False).output
    results = {
        "timesteps": T,
        "rho": cfg.stage2.rho,
        "output_cosine": output_cosine(ann_out, snn_out),
    }
    results.update(eval_losses(net, ann, batch, cfg.stage2))
    if run.splits.test.task != "regress":
        results["ann_accuracy"] = ann_accuracy(ann, run.splits.test)
        results["snn_accuracy"] = evaluate_snn(net, run.splits.test, T)["accuracy"]
    else:
        results["snn_mse"] = evaluate_snn(net, run.splits.test, T)["mse"]

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
    rec_before = simulate(before, batch, T)
    rec_after = simulate(after, batch, T)
    rates_before = [firing_rate(rec_before, j) for j in range(rec_before.n_layers)]
    rates_after = [firing_rate(rec_after, j) for j in range(rec_after.n_layers)]

    write_error_csv(decompose_errors(traces, rec_after, after),
                    run.path("reports", "errors.csv"))
    write_tau_csv(tau_histogram([t.post for t in traces], [t.ceiling for t in traces], T),
                  run.path("reports", "tau_histogram.csv"))
    write_mse_csv(layer_mse_report([t.post for t in traces], rates_before, rates_after),
                  run.path("reports", "layer_mse.csv"))
    write_threshold_shift_csv(threshold_shift_report(before, after),
                              run.path("reports", "threshold_shift.csv"))


def cmd_energy(run: _Run) -> None:
    net = ckpt.load_checkpoint(run.path("snn_calibrated"))
    rec = simulate(net, run.eval_batch(), run.cfg.stage2.timesteps)
    counts = count_ops(rec, net)
    report = energy_report(counts, rates=spike_rate_stats(rec))
    write_energy_json(report, run.path("reports", "energy.json"))


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
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--timesteps", type=int, default=None, help="override inference horizon")
        p.add_argument("--rho", type=int, default=None, help="override calibration steps")
        p.add_argument("--denominator", choices=("rho", "T"), default=None,
                       help="rate denominator mode")
        p.add_argument("--ablate", choices=("none", "lwc", "nwc", "both"), default=None,
                       help="which stage-2 components to apply")
    return parser


def dispatch(argv: list[str] | None = None) -> int:
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


def main(argv: list[str] | None = None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
