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

# sha256 of every file `spikefit pipeline` writes. The ann, ann_baseline and
# stage_train hashes were recorded before stage-1 training left the autodiff
# tape; the rest before the spike-to-rate paths were merged into one. A
# refactor that keeps outputs must keep them all.
PIPELINE_GOLDEN = {
    "classifier": {
        "ann/manifest.json":
            "a5982f35338440848dc9a55479705ffc0c889804b3fe9d2acbc3c75edd13faa5",
        "ann/weights.bin":
            "6f0afc2bb4268ff02b423497f28dc7dc7b8d993680177f62a9f46893a6f84211",
        "ann_baseline/manifest.json":
            "77da9a99f1066fc0063b68d35643b68427893dcce72071123d5289d30c732580",
        "ann_baseline/weights.bin":
            "6b53ef86e02bf3ed0fc2a6e126befdcce1688abba2467bec9c96854751d89c6a",
        "reports/calibration.jsonl":
            "226ce26880e489f392d3ee81434b680d7be130a56e9ce90970fd169b266d1453",
        "reports/energy.json":
            "6db98c80ea313964e3d155ab3555f773ea848ab7b4264b7a67be069c91c78d2a",
        "reports/errors.csv":
            "901f58d97d2ed44e78f3a04585c6487295d9cf4e8f414f085106cde0e687b93c",
        "reports/layer_mse.csv":
            "cbeb0ce992dbd55f85512ac7485ed21dfd6d4db8a8e9b4ba23542c11444372df",
        "reports/metrics.json":
            "9f8f7271f1a7a98641c929ac74f6406d25ad188d5fe33367232419bf5e7f0933",
        "reports/stage_calibrate.json":
            "b116f61bb7048c72ceb70a54af0519324e3939b1bb28382f84002c32d47c0a62",
        "reports/stage_convert.json":
            "d988bbb76690271052c495b7dd444f0b642c7c3dc050ead9cf50bb1c7ee51657",
        "reports/stage_train.json":
            "2ffa5d15b708683f110ebc71f8d10e6c651f326b50a313a6a82089fa247ddbc1",
        "reports/tau_histogram.csv":
            "0896fdb01889cd674859e1d1a3d8bdcc582bc5a2e47e7cd6ab9057aedeb64633",
        "reports/threshold_shift.csv":
            "c24a14dbb060b469f19e76a630b81fa8d55c9a4d9417447ad1d159b693c30cd5",
        "snn/manifest.json":
            "f767393f78d655ab31129c49b9b3dbe1a0ba751ddabe3e6a3aec19477cbfcc40",
        "snn/weights.bin":
            "f3f2496555c4a7924e462f543e4d98f633988937257215f974692495a7cb6aca",
        "snn_calibrated/manifest.json":
            "5114600d54ef336fac795dd63f81a164417d9403c55a182b8b36f690dc48bbdd",
        "snn_calibrated/weights.bin":
            "87202e11dcf7bc56d7b4801d5a3d971c993cf115ac974f441b71db60faf17598",
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
        "reports/calibration.jsonl":
            "c00eb1eaee9818cc295f6167e388724161b562733ebb3de47482ec6442739704",
        "reports/energy.json":
            "9a9d3e4b9c43b2c4006861a45d7fd7c923c3c728f16d15fd373874ecf6196deb",
        "reports/errors.csv":
            "3cec6a6951ab6a039a8108c0115a8fc07a3405b12bd69415d2e80dfc822494ac",
        "reports/layer_mse.csv":
            "c344bca9ae44d9dd53add590cdcd642a714c8cabdf8626226e0d6d1e62b0aa50",
        "reports/metrics.json":
            "c2a735811af84bc1959d3745463592e6294bb45fd931de9edf7a5380646e0a60",
        "reports/stage_calibrate.json":
            "1c5241cbe2e14bd3b118db144ee67c81690a51b52070878ec4b436f58e99ba15",
        "reports/stage_convert.json":
            "7776510435069a48641db4386bd279fc173f89915596f0cfe9bcfd9c0fc66703",
        "reports/stage_train.json":
            "00a54783e7d2589da3e07b61fee314fc18db9bc0271dc0325f5738dee5fff418",
        "reports/tau_histogram.csv":
            "1ced7180996fde731b67c43792567d40b6d8a982f6c0e563ada3c068971fcc1b",
        "reports/threshold_shift.csv":
            "8947cb1e98e314f63a204c8bcfe3b57a5346430da788028a23281747999be86f",
        "snn/manifest.json":
            "458291980af651f0ecf7efd8d5bb0cec13542afac6f990b8b81a723430c33df7",
        "snn/weights.bin":
            "c76cef24c2ef7812bc24c067404b1a48d6e09aa740fc2aa42f36dabfc9173b0e",
        "snn_calibrated/manifest.json":
            "5e45fa77336a7972e163bce88fba2f8dd6ae1cc22a2e789011e8c6e36ad669bc",
        "snn_calibrated/weights.bin":
            "00dd10ec6c0ab052085da862f6e5d28960a9516cb037f03b31b70d9079b35f76",
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
        "reports/calibration.jsonl":
            "7db2e7642a923f5f3b1e7dc48f2f209974f3f31e4bb7b2f982678d0638825c60",
        "reports/energy.json":
            "a1348fe208380dffdc933cd721a0fc77211519afab1f505290a3639f909979c8",
        "reports/errors.csv":
            "4ec1758dbe3fc7d1793cda870006521a81d152237e5eb2fe05a35a871ddd8313",
        "reports/layer_mse.csv":
            "1e14b22ad1edd0a73847e30fdf7c4df70f1231bdc93961d73a97459b4e152c0c",
        "reports/metrics.json":
            "927444c54572ce32e4351ce1a5db68422493bdc34bb2fcb42529f74234809322",
        "reports/stage_calibrate.json":
            "b7d123610090615f38e4404e1a0e1fb26b7412578963f816c0d6f14856d52398",
        "reports/stage_convert.json":
            "1b7d17c74c7c5365c8477fb43cc8d9695071cb790b4e6d926123b65dc7ab3efb",
        "reports/stage_train.json":
            "a12a0cd546efe31b22f3f701fbc087dbe0d54ed505c6d364af8d91e0b4c953ad",
        "reports/tau_histogram.csv":
            "5a712c52e79d99e69828723397ec712d659230f5d43ecb7120a87bf77fb6914c",
        "reports/threshold_shift.csv":
            "d9d654d6be404256b8d9a74d86b81fab1f440e1998bed1b5c6f995c41fe96f2b",
        "snn/manifest.json":
            "f97d7c242cc20cd6741b3eaad8caf5348f003657d385884f736372063d3db3cb",
        "snn/weights.bin":
            "3dc8768b421cf70a8697c0e1972a21d08a74176345c19ea4abcfdb35deb65e27",
        "snn_calibrated/manifest.json":
            "9a6ddb5f61031d4cc3ce86b058e4b5cf4ced398c0530b5d57e7ff7facaabfd72",
        "snn_calibrated/weights.bin":
            "a63effb65238f534433385a89e440232821189f896d9293749d6e5a2db6c8802",
    },
    "regressor_rho": {
        "ann/manifest.json":
            "929fefe6d43dd1bcd2651e64aebd08f438ce65a937b9372b8d6b06aa63c7975d",
        "ann/weights.bin":
            "59c515cf46c522c74ef94996e81c4d88b560a744f1c9e366c9493da8aefe902b",
        "ann_baseline/manifest.json":
            "a6a017ed0dc71a8c68d9b23e4cdfa56d692130929e1da4299e435ea760740b64",
        "ann_baseline/weights.bin":
            "27f79fa1801db2205af8b81080375e15f58552795bacd47493e96942dea5f5c0",
        "reports/calibration.jsonl":
            "c8cc8941129ded84494cefbcde25b4f11d7e896b4544f2997a40c7d160edbd7e",
        "reports/energy.json":
            "54c9e4ebc3c6552ad4990b357e7efdf305befcdc396184cc6fd405f304f18f4c",
        "reports/errors.csv":
            "7c049e70989293a452e9141d240f29673fd8facd045cb7637aaec4b9067beedf",
        "reports/layer_mse.csv":
            "0035ca18074e2aee8f3965ccf84b667ca26fba98ca94ac4d1bb50d47f5e23b02",
        "reports/metrics.json":
            "6e6e2e1c625d020437740705f0a5014827b191129044e0300c8cf8115d2012f5",
        "reports/stage_calibrate.json":
            "b12bcd732e180aac45bb22b41308acb83fb80cf865aa01b2f94a6b91f70c8eef",
        "reports/stage_convert.json":
            "694dacb4e4e7c159f3d78147e47344c71ee2c732b006f38c1548f2aea80bb710",
        "reports/stage_train.json":
            "8d933d07aa86df754e8965f2de512fcafadc304e1be85f4db0a27f644f279594",
        "reports/tau_histogram.csv":
            "a7f357288c11d61b782782ec65844a7390ed3172750a9c0d923547270dd54f0c",
        "reports/threshold_shift.csv":
            "d4440c31af104ba08c42db139004090d1a73a3c13533ccf05d5488087752acaa",
        "snn/manifest.json":
            "fa5207d787e6a840a21079ba8a3e4f5bf255059886a8864903b6b30e70b764bb",
        "snn/weights.bin":
            "c76cef24c2ef7812bc24c067404b1a48d6e09aa740fc2aa42f36dabfc9173b0e",
        "snn_calibrated/manifest.json":
            "5fbc6eb9fb7547e67c7c30b96a069681522633f70eaad0cbac83909652815805",
        "snn_calibrated/weights.bin":
            "83c02664f24d898828882692515b83703c0d153baeadada2bf28986663d89a71",
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
    # a partial calibration window, rates over T, and the data-driven alpha
    "regressor_rho": {
        "seed": 6,
        "model": {"kind": "mlp_regressor", "hidden": [12], "levels": 8},
        "dataset": {"kind": "synthetic-teacher", "samples": 300, "classes": 3},
        "stage1": {"steps": 40, "batch_size": 32, "lr": 0.005},
        "stage2": {"timesteps": 6, "rho": 3, "denominator": "T", "alpha": "auto"},
    },
}


def _sha256_tree(root) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in _files(root).items()}


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIGS))
def test_train_writes_golden_bytes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the corpus path, and so the config hash, is relative
    (tmp_path / "corpus.txt").write_bytes(_CORPUS)
    (tmp_path / "config.json").write_text(json.dumps(_GOLDEN_CONFIGS[name], sort_keys=True))
    assert cli.dispatch(["pipeline", "--config", "config.json", "--out", "out"]) == 0
    assert _sha256_tree(tmp_path / "out") == PIPELINE_GOLDEN[name]
