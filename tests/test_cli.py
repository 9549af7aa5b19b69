import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spikefit
from spikefit import cli
from spikefit.ann import TrainingDivergedError
from spikefit.calibrate import CalibrationError
from spikefit.checkpoint import IntegrityError, load_checkpoint
from spikefit.config import ConfigError
from spikefit.snn import SimulationError

STAGES = ("train", "convert", "calibrate", "eval", "analyze", "energy")


def _config(tmp_path, stage1=()) -> str:
    raw = {
        "seed": 3,
        "model": {"kind": "mlp_classifier", "hidden": [8, 8], "levels": 4},
        "dataset": {"kind": "synthetic-teacher", "samples": 200},
        "stage1": {"steps": 20, "batch_size": 32, **dict(stage1)},
        "stage2": {"timesteps": 4, "steps": 5, "batch_size": 32},
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
    assert cli.main(["pipeline", "--config", config, "--out", str(tmp_path / "a")]) == 0
    for stage in STAGES:
        assert cli.main([stage, "--config", config, "--out", str(tmp_path / "b")]) == 0
    piped, chained = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert "reports/energy.json" in piped
    assert sorted(piped) == sorted(chained)
    for name in piped:
        assert piped[name] == chained[name], name


def test_missing_output_directory_is_one_line(tmp_path, capsys):
    assert cli.main(["train", "--config", _config(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no output directory")


@pytest.mark.parametrize("error", [TrainingDivergedError, SimulationError, CalibrationError,
                                   IntegrityError, ConfigError])
def test_typed_errors_exit_1_with_one_line(tmp_path, capsys, monkeypatch, error):
    def fail(run):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "train", fail)
    assert cli.main(["train", "--config", _config(tmp_path), "--out", str(tmp_path)]) == 1
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
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    ceilings = [q.ceiling for q in load_checkpoint(str(tmp_path / "o" / "ann")).qcfs_layers()]
    assert ceilings and all(c >= np.float32(1e-4) for c in ceilings)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_training_is_one_line(tmp_path, capsys):
    config = _config(tmp_path, stage1={"lr": 1e38})
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite loss")


_CORPUS = b"the quick brown fox jumps over the lazy dog; pack my box with five dozen jugs. " * 8

# sha256 of every file `spikefit pipeline` writes. The ann and stage_train
# hashes were recorded before stage-1 training left the autodiff tape; the rest
# before the spike-to-rate paths were merged into one, except
# stage_calibrate.json and metrics.json, re-recorded when the denominator mode
# left stage 2 and output_cosine stopped using BLAS, and every regressor_rho
# hash, re-recorded when that config dropped the denominator and alpha "auto".
# A refactor that keeps outputs must keep them all.
PIPELINE_GOLDEN = {
    "classifier": {
        "ann/manifest.json":
            "a5982f35338440848dc9a55479705ffc0c889804b3fe9d2acbc3c75edd13faa5",
        "ann/weights.bin":
            "6f0afc2bb4268ff02b423497f28dc7dc7b8d993680177f62a9f46893a6f84211",
        "reports/calibration.jsonl":
            "226ce26880e489f392d3ee81434b680d7be130a56e9ce90970fd169b266d1453",
        "reports/energy.json":
            "6db98c80ea313964e3d155ab3555f773ea848ab7b4264b7a67be069c91c78d2a",
        "reports/errors.csv":
            "901f58d97d2ed44e78f3a04585c6487295d9cf4e8f414f085106cde0e687b93c",
        "reports/layer_mse.csv":
            "cbeb0ce992dbd55f85512ac7485ed21dfd6d4db8a8e9b4ba23542c11444372df",
        "reports/metrics.json":
            "1f6da3311a5f5fa3879f689ad91217c7cce7b31353f89dbf13448873e0daea02",
        "reports/stage_calibrate.json":
            "0cbf3c08d304cc8bb407b885ce6648c3c6ce138c4d8f9ab0c0a580650079117a",
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
        "reports/calibration.jsonl":
            "c00eb1eaee9818cc295f6167e388724161b562733ebb3de47482ec6442739704",
        "reports/energy.json":
            "9a9d3e4b9c43b2c4006861a45d7fd7c923c3c728f16d15fd373874ecf6196deb",
        "reports/errors.csv":
            "3cec6a6951ab6a039a8108c0115a8fc07a3405b12bd69415d2e80dfc822494ac",
        "reports/layer_mse.csv":
            "c344bca9ae44d9dd53add590cdcd642a714c8cabdf8626226e0d6d1e62b0aa50",
        "reports/metrics.json":
            "dc9a355459ddab8b95d5da2ecc6fb38853ca7035b1ba10c6d4ade2fd8449d921",
        "reports/stage_calibrate.json":
            "4b14021a0049e26d4158f9da28b4f3e77e6c60dfce98103889d3f6ec336dd36c",
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
        "reports/calibration.jsonl":
            "7db2e7642a923f5f3b1e7dc48f2f209974f3f31e4bb7b2f982678d0638825c60",
        "reports/energy.json":
            "a1348fe208380dffdc933cd721a0fc77211519afab1f505290a3639f909979c8",
        "reports/errors.csv":
            "4ec1758dbe3fc7d1793cda870006521a81d152237e5eb2fe05a35a871ddd8313",
        "reports/layer_mse.csv":
            "1e14b22ad1edd0a73847e30fdf7c4df70f1231bdc93961d73a97459b4e152c0c",
        "reports/metrics.json":
            "ad5e814d5a170dac954517f39ce50bf3e3d5c9ee655557aa66f00e311873c26b",
        "reports/stage_calibrate.json":
            "666c2db509922caaac48bbade02de9db04037f2295db01161d78a49a661cf905",
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
        "reports/calibration.jsonl":
            "5c584a19a1a895f340ccfc6e52a8dd6543cd7cf61f7c84f8f02fd3d0a90edabc",
        "reports/energy.json":
            "3b8f12228650ca725e4936b21ab98fbcd1c59880caf99a9436270fd6fa04274c",
        "reports/errors.csv":
            "4d9664e1b1d85c8f13b3b5342f146a518ecc60934cb810e689cc301f6e7687ee",
        "reports/layer_mse.csv":
            "a1643214674d746955bcce92039dfc5efa13aee4c61034863b4051ba43afba4c",
        "reports/metrics.json":
            "f9c19725e475e82770b0aee09ed4542ba1e6f76b94653b0b0681520c6b9a984c",
        "reports/stage_calibrate.json":
            "bef09d541d572040e4ef7b6fd628ce3a4a937c8c3f751eff0477041344cf1284",
        "reports/stage_convert.json":
            "6d8d3839e71b1b430b971cc68e291c117b13043c980cc618a6fb8de16e1717d4",
        "reports/stage_train.json":
            "8e1077dd2ea6b13325dc1be6ec5d33e10293742f4bc3b370d2eb90bcf59a4e7a",
        "reports/tau_histogram.csv":
            "a7f357288c11d61b782782ec65844a7390ed3172750a9c0d923547270dd54f0c",
        "reports/threshold_shift.csv":
            "ba2ee2ff6c552a29b27dddf38c41693c2c8cdc78811aed649d106dde1677854a",
        "snn/manifest.json":
            "fa5207d787e6a840a21079ba8a3e4f5bf255059886a8864903b6b30e70b764bb",
        "snn/weights.bin":
            "c76cef24c2ef7812bc24c067404b1a48d6e09aa740fc2aa42f36dabfc9173b0e",
        "snn_calibrated/manifest.json":
            "5869977589b789eeebe27d98e9766934afd6fdbc4ff6048c05ce501616feb014",
        "snn_calibrated/weights.bin":
            "315749d1901355989fee4e7775f048c78f68c6b403842a5bfaa3cf9e27a557e0",
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
    # a partial calibration window: NWC's rates divide by rho = 3, an inexact 1/rho
    "regressor_rho": {
        "seed": 6,
        "model": {"kind": "mlp_regressor", "hidden": [12], "levels": 8},
        "dataset": {"kind": "synthetic-teacher", "samples": 300, "classes": 3},
        "stage1": {"steps": 40, "batch_size": 32, "lr": 0.005},
        "stage2": {"timesteps": 6, "rho": 3},
    },
}


def _sha256_tree(root) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in _files(root).items()}


def _write_golden_config(directory, name) -> None:
    (directory / "corpus.txt").write_bytes(_CORPUS)
    (directory / "config.json").write_text(json.dumps(_GOLDEN_CONFIGS[name], sort_keys=True))


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIGS))
def test_train_writes_golden_bytes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the corpus path, and so the config hash, is relative
    _write_golden_config(tmp_path, name)
    assert cli.main(["pipeline", "--config", "config.json", "--out", "out"]) == 0
    assert _sha256_tree(tmp_path / "out") == PIPELINE_GOLDEN[name]
    # every stage reads only the config, so a chain of them writes the same bytes
    for stage in STAGES:
        assert cli.main([stage, "--config", "config.json", "--out", "chain"]) == 0
    assert _sha256_tree(tmp_path / "chain") == PIPELINE_GOLDEN[name]


@pytest.mark.parametrize("threads", ["1", "3"])
def test_golden_bytes_at_any_blas_thread_count(tmp_path, threads):
    # OpenBLAS reads its thread count when numpy loads, hence a fresh process;
    # char_lm's 40x256 eval outputs are long enough for BLAS to split a reduction
    _write_golden_config(tmp_path, "char_lm")
    src = str(Path(spikefit.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "spikefit", "pipeline", "--config", "config.json",
                    "--out", "out"], cwd=tmp_path, env=env, check=True, timeout=300)
    assert _sha256_tree(tmp_path / "out") == PIPELINE_GOLDEN["char_lm"]
