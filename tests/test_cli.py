import hashlib
import json
import os

import numpy as np
import pytest

from spikefit import cli
from spikefit.ann import TrainingDivergedError
from spikefit.calibrate import CalibrationError
from spikefit.checkpoint import IntegrityError, load_checkpoint
from spikefit.config import ConfigError
from spikefit.snn import SimulationError

STAGES = ("train", "convert", "calibrate", "eval", "analyze", "energy")


def _config(tmp_path, stage1=(), stage2=()) -> str:
    raw = {
        "seed": 3,
        "model": {"kind": "mlp_classifier", "hidden": [8, 8], "levels": 4},
        "dataset": {"kind": "synthetic-teacher", "samples": 200},
        "stage1": {"steps": 20, "batch_size": 32, **dict(stage1)},
        "stage2": {"timesteps": 4, "steps": 5, "batch_size": 32, **dict(stage2)},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _files(root) -> dict[str, bytes]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as f:
                out[os.path.relpath(full, root)] = f.read()
    return out


def test_stage_chain_writes_the_same_files_as_pipeline(tmp_path):
    config = _config(tmp_path)
    assert cli.dispatch(["pipeline", "--config", config, "--out", str(tmp_path / "a")]) == 0
    for stage in STAGES:
        assert cli.dispatch([stage, "--config", config, "--out", str(tmp_path / "b")]) == 0
    piped, chained = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert "reports/energy.json" in piped
    assert sorted(piped) == sorted(chained)
    for name in piped:
        assert piped[name] == chained[name], name


@pytest.mark.parametrize("stage2, flags, want", [
    ({}, ["--timesteps", "6"], (6, 6)),
    ({}, ["--timesteps", "6", "--rho", "2"], (6, 2)),
    ({"rho": 2}, ["--timesteps", "6"], (6, 2)),
    ({}, ["--rho", "3"], (4, 3)),
])
def test_timesteps_keeps_rho_pinned_unless_overridden(tmp_path, stage2, flags, want):
    config = _config(tmp_path, stage2=stage2)
    args = cli._build_parser().parse_args(
        ["convert", "--config", config, "--out", str(tmp_path / "o"), *flags])
    calib = cli._Run(args).cfg.stage2
    assert (calib.timesteps, calib.rho) == want


def test_missing_output_directory_is_one_line(tmp_path, capsys):
    assert cli.dispatch(["train", "--config", _config(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no output directory")


@pytest.mark.parametrize("error", [TrainingDivergedError, SimulationError, CalibrationError,
                                   IntegrityError, ConfigError])
def test_typed_errors_exit_1_with_one_line(tmp_path, capsys, monkeypatch, error):
    def fail(run):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "train", fail)
    assert cli.dispatch(["train", "--config", _config(tmp_path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: boom"]


def test_training_keeps_staircase_ceilings_positive(tmp_path):
    # a ceiling learning rate this large drives the caps through zero
    raw = {
        "seed": 1,
        "model": {"kind": "mlp_classifier", "hidden": [16], "levels": 4},
        "dataset": {"kind": "synthetic-teacher", "samples": 400, "input_dim": 6, "classes": 3},
        "stage1": {"steps": 200, "lr": 0.01, "lr_ceiling": 20.0},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert cli.dispatch(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    ceilings = [q.ceiling for q in load_checkpoint(str(tmp_path / "o" / "ann")).qcfs_layers()]
    assert ceilings and all(c >= np.float32(1e-4) for c in ceilings)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_training_is_one_line(tmp_path, capsys):
    config = _config(tmp_path, stage1={"lr": 1e38})
    assert cli.dispatch(["train", "--config", config, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite loss")


_CORPUS = b"the quick brown fox jumps over the lazy dog; pack my box with five dozen jugs. " * 8

# sha256 of every file `spikefit train` writes, recorded before stage-1
# training left the autodiff tape; the hand-written backward must keep them
TRAIN_GOLDEN = {
    "classifier": {
        "ann/manifest.json":
            "a5982f35338440848dc9a55479705ffc0c889804b3fe9d2acbc3c75edd13faa5",
        "ann/weights.bin":
            "6f0afc2bb4268ff02b423497f28dc7dc7b8d993680177f62a9f46893a6f84211",
        "ann_baseline/manifest.json":
            "77da9a99f1066fc0063b68d35643b68427893dcce72071123d5289d30c732580",
        "ann_baseline/weights.bin":
            "6b53ef86e02bf3ed0fc2a6e126befdcce1688abba2467bec9c96854751d89c6a",
        "reports/stage_train.json":
            "2ffa5d15b708683f110ebc71f8d10e6c651f326b50a313a6a82089fa247ddbc1",
    },
    "regressor": {
        "ann/manifest.json":
            "929fefe6d43dd1bcd2651e64aebd08f438ce65a937b9372b8d6b06aa63c7975d",
        "ann/weights.bin":
            "59c515cf46c522c74ef94996e81c4d88b560a744f1c9e366c9493da8aefe902b",
        "ann_baseline/manifest.json":
            "a6a017ed0dc71a8c68d9b23e4cdfa56d692130929e1da4299e435ea760740b64",
        "ann_baseline/weights.bin":
            "27f79fa1801db2205af8b81080375e15f58552795bacd47493e96942dea5f5c0",
        "reports/stage_train.json":
            "00a54783e7d2589da3e07b61fee314fc18db9bc0271dc0325f5738dee5fff418",
    },
    "char_lm": {
        "ann/manifest.json":
            "f957c05666dfc8cc59181cb878538ac42efcaffe45b3a834a6e1a26ca4eff9c1",
        "ann/weights.bin":
            "50e2a36dc70f62bc89a9b7ddb6958db9498e48c023156798b523e1fbb09e500b",
        "ann_baseline/manifest.json":
            "1d97cf6071cd61dbccff5f8ee769ffc2a396fcbd9414096544eb712f1339d3da",
        "ann_baseline/weights.bin":
            "08ee8f56505ed830a04369e9644298ba21c94c869eb936587f21d0b3678dc6b2",
        "reports/stage_train.json":
            "a12a0cd546efe31b22f3f701fbc087dbe0d54ed505c6d364af8d91e0b4c953ad",
    },
}

_GOLDEN_CONFIGS = {
    "classifier": {
        "seed": 5,
        "model": {"kind": "mlp_classifier", "hidden": [16, 12], "levels": 4},
        "dataset": {"kind": "synthetic-teacher", "samples": 300},
        "stage1": {"steps": 40, "batch_size": 32, "lr": 0.01, "lr_ceiling": 0.05,
                   "weight_decay": 0.001},
    },
    "regressor": {
        "seed": 6,
        "model": {"kind": "mlp_regressor", "hidden": [12], "levels": 8},
        "dataset": {"kind": "synthetic-teacher", "samples": 300, "classes": 3},
        "stage1": {"steps": 40, "batch_size": 32, "lr": 0.005},
    },
    "char_lm": {
        "seed": 7,
        "model": {"kind": "char_lm", "hidden": [16], "levels": 4, "embed_dim": 4},
        "dataset": {"kind": "char-lm", "samples": 400, "window": 4, "path": "corpus.txt"},
        "stage1": {"steps": 30, "batch_size": 32, "lr": 0.01},
    },
}


def _sha256_tree(root) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in _files(root).items()}


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIGS))
def test_train_writes_golden_bytes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the corpus path, and so the config hash, is relative
    (tmp_path / "corpus.txt").write_bytes(_CORPUS)
    (tmp_path / "config.json").write_text(json.dumps(_GOLDEN_CONFIGS[name], sort_keys=True))
    assert cli.dispatch(["train", "--config", "config.json", "--out", "out"]) == 0
    assert _sha256_tree(tmp_path / "out") == TRAIN_GOLDEN[name]
