import csv
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
from spikefit.calibrate import CalibrationError, eval_losses
from spikefit.checkpoint import IntegrityError, load_checkpoint
from spikefit.config import MODEL_KINDS, ConfigError, parse_config
from spikefit.data import make_dataset
from spikefit.snn import SimulationError
from spikefit.tensor import Rng

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


def test_a_directory_holds_one_configs_outputs(tmp_path, capsys):
    # a pipeline under A, then B's stages on A's directory: each would mix
    # A's checkpoints and reports with B's seed and horizon
    raw = json.loads(Path(_config(tmp_path)).read_text())
    config_a, config_b = tmp_path / "a.json", tmp_path / "b.json"
    config_a.write_text(json.dumps(dict(raw, seed=5)))
    config_b.write_text(json.dumps(dict(raw, seed=9, stage2=dict(raw["stage2"], timesteps=6))))
    out = str(tmp_path / "out")
    assert cli.main(["pipeline", "--config", str(config_a), "--out", out]) == 0
    written = _files(out)
    capsys.readouterr()
    for stage in STAGES[1:]:
        assert cli.main([stage, "--config", str(config_b), "--out", out]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "holds the outputs of config" in err[0], stage
    assert _files(out) == written


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_training_refuses_another_configs_directory(tmp_path, capsys, command):
    # retraining under B would leave A's checkpoints for B's later stages to
    # score; a rerun under A itself is still allowed
    raw = json.loads(Path(_config(tmp_path)).read_text())
    config_a, config_b = tmp_path / "a.json", tmp_path / "b.json"
    config_a.write_text(json.dumps(dict(raw, seed=5)))
    config_b.write_text(json.dumps(dict(raw, seed=9, stage2=dict(raw["stage2"], timesteps=6))))
    out = str(tmp_path / "out")
    assert cli.main(["pipeline", "--config", str(config_a), "--out", out]) == 0
    written = _files(out)
    capsys.readouterr()
    assert cli.main([command, "--config", str(config_b), "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "holds the outputs of config" in err[0]
    assert _files(out) == written
    assert cli.main(["train", "--config", str(config_a), "--out", out]) == 0
    assert _files(out) == written


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
# left stage 2 and output_cosine stopped using BLAS.
# stage_calibrate.json, metrics.json and layer_mse.csv were re-recorded in every
# config when each reported number got one definition: stage_calibrate.json
# lost its copy of eval's losses and the constant "ablate" field (metrics.json
# embeds that file), and layer_mse.csv's columns became L_al's own float64
# terms instead of an MSE of float32 rates.
# Every classifier_rho hash was recorded when the regression task was deleted:
# this config, the one golden with T = 6 and a rho = 3 window, moved from a
# regressor to a classifier, and in the same change NWC's reverse sweep began
# dividing its rate adjoint by rho, as _rate divides its counts, instead of
# multiplying it by a rounded 1 / rho.
# When NWC's reverse sweep took its reset form, its gradients moved in their
# last bits, and so did the calibrated thresholds and potentials: re-recorded
# then were calibration.jsonl, errors.csv, layer_mse.csv, metrics.json,
# threshold_shift.csv and snn_calibrated/* of classifier and char_lm, and
# calibration.jsonl, threshold_shift.csv and snn_calibrated/* of
# classifier_rho. Every accuracy in metrics.json held.
# classifier_rho's metrics.json was re-recorded when logits_loss began
# returning stage 2's one soft-target cross entropy, _kd_loss_and_grad, in
# float64, instead of a log-softmax of its own: eval L_logits moved from
# 0.5011945480783281 to 0.501194548078328 and L_all from 0.5360593946981367
# to 0.5360593946981366. Every other file, and every other config, held.
# A refactor that keeps outputs must keep them all.
PIPELINE_GOLDEN = {
    "classifier": {
        "ann/manifest.json":
            "a5982f35338440848dc9a55479705ffc0c889804b3fe9d2acbc3c75edd13faa5",
        "ann/weights.bin":
            "6f0afc2bb4268ff02b423497f28dc7dc7b8d993680177f62a9f46893a6f84211",
        "reports/calibration.jsonl":
            "7c47fa9b186ac3fbe07cb8afb6aaea9d77a592319c78e13849082ab09109b01b",
        "reports/energy.json":
            "6db98c80ea313964e3d155ab3555f773ea848ab7b4264b7a67be069c91c78d2a",
        "reports/errors.csv":
            "c5b6c532b8daa5d91160178638b2a6959b37f14015da7a4e7d428afcf5e72d54",
        "reports/layer_mse.csv":
            "479609c0bab34f4de4c20e71e8ddf954194df84d5a587c683824cf3e83b88a3b",
        "reports/metrics.json":
            "515cef466d68acc91805f276034169fc5ca4e3d18a881e477162c7ca8a1faa42",
        "reports/stage_calibrate.json":
            "95e4be39179eeb5cce90f095fc039b043ac508588ba908cb84d350d0de50e661",
        "reports/stage_convert.json":
            "d988bbb76690271052c495b7dd444f0b642c7c3dc050ead9cf50bb1c7ee51657",
        "reports/stage_train.json":
            "2ffa5d15b708683f110ebc71f8d10e6c651f326b50a313a6a82089fa247ddbc1",
        "reports/tau_histogram.csv":
            "0896fdb01889cd674859e1d1a3d8bdcc582bc5a2e47e7cd6ab9057aedeb64633",
        "reports/threshold_shift.csv":
            "088f4f70555a009e6cd29d654327dddbe3355d1042fa16ca4fab1bb10ca837c9",
        "snn/manifest.json":
            "f767393f78d655ab31129c49b9b3dbe1a0ba751ddabe3e6a3aec19477cbfcc40",
        "snn/weights.bin":
            "f3f2496555c4a7924e462f543e4d98f633988937257215f974692495a7cb6aca",
        "snn_calibrated/manifest.json":
            "9e416c572e21bc4105459a83710ed4c30aeb9525309b7001cd5f798bd073c9bf",
        "snn_calibrated/weights.bin":
            "0bdbfeb7271588f20dbc0de529df75e9060716f055496528cfca51a824dc475c",
    },
    "char_lm": {
        "ann/manifest.json":
            "f957c05666dfc8cc59181cb878538ac42efcaffe45b3a834a6e1a26ca4eff9c1",
        "ann/weights.bin":
            "50e2a36dc70f62bc89a9b7ddb6958db9498e48c023156798b523e1fbb09e500b",
        "reports/calibration.jsonl":
            "0b5dcd064d18ada493489aafe7eb52971ae630c357ae96b4b0eb1015833cd749",
        "reports/energy.json":
            "a1348fe208380dffdc933cd721a0fc77211519afab1f505290a3639f909979c8",
        "reports/errors.csv":
            "97f9be368923c4c40ffbb0a9f08bc5282b21ad86e12552a34c3f52894ea0b33c",
        "reports/layer_mse.csv":
            "b5f4452389c708eade119935e49d9a79ac5125e26df0876690f38ea12efad973",
        "reports/metrics.json":
            "cf3908aa7dbbaeae170084bffe394a8fa0756c03f0e3076994849d5dccb4ea8e",
        "reports/stage_calibrate.json":
            "06d28f669d06e824ff8d589faadf66b4517cc31de7ff29c76499c94531e361d1",
        "reports/stage_convert.json":
            "1b7d17c74c7c5365c8477fb43cc8d9695071cb790b4e6d926123b65dc7ab3efb",
        "reports/stage_train.json":
            "a12a0cd546efe31b22f3f701fbc087dbe0d54ed505c6d364af8d91e0b4c953ad",
        "reports/tau_histogram.csv":
            "5a712c52e79d99e69828723397ec712d659230f5d43ecb7120a87bf77fb6914c",
        "reports/threshold_shift.csv":
            "d38f5458fe20c5f85596fd877a5d7df3c4b5d3a9b5777fb6b09318a6db9a0c27",
        "snn/manifest.json":
            "f97d7c242cc20cd6741b3eaad8caf5348f003657d385884f736372063d3db3cb",
        "snn/weights.bin":
            "3dc8768b421cf70a8697c0e1972a21d08a74176345c19ea4abcfdb35deb65e27",
        "snn_calibrated/manifest.json":
            "9f8593e8930812f400727c044ddd7b8f7afca27c2ea18f620851afa532e2112e",
        "snn_calibrated/weights.bin":
            "1b1b99493a6f0beeb7b9e77aabd57f38384483c036068cb5ffd288f923630ced",
    },
    "classifier_rho": {
        "ann/manifest.json":
            "72eda27315085f3ac0966a82352638e71c49b395079c3f01a3558471f5e71f43",
        "ann/weights.bin":
            "28ee46dca26222b920b88a750c74cd6bddc61123e84c5f2a05e1fcf367ed2675",
        "reports/calibration.jsonl":
            "d3d718fbb0321c8417e5a6df2f39177b0f8e984d361cd2e2fa8dac0848554323",
        "reports/energy.json":
            "537e42076a39cc160afe45e6a6610d41154cbd87064ad8127ab5060884ade72e",
        "reports/errors.csv":
            "80a086a3c6c0fa8eed57a6aa0eeb44900809abf45e5f6aae50caad2de7250fcb",
        "reports/layer_mse.csv":
            "0484819459502f3b0a715be5cf863e58cdf40944c38a39cbcb2190271cf5ffe1",
        "reports/metrics.json":
            "9a2e9f888aea4e737ebddf24c6e4ee6f271bba3a068596e5702cbe2f5d78afac",
        "reports/stage_calibrate.json":
            "3e3338271c273d705cdcc01c95a07a0162e10ca526843b388c11c19a2e28d66f",
        "reports/stage_convert.json":
            "671a370cccbc2cdf5705ef043fb8b01a09c5bfe5b52efb5d232909ed494229f8",
        "reports/stage_train.json":
            "0e9f6a5554990519fb1ab6fd44d1f93e0b0f414e5979619be4c918973c2479ba",
        "reports/tau_histogram.csv":
            "bc0048579f28820f00edf3b9770f9ed963e878c9259dd97ae7a6c87351bcf5bf",
        "reports/threshold_shift.csv":
            "7729b8335705fe6ee42a6d07655a8fbe5148493640da2842e9b6fcf6639992a9",
        "snn/manifest.json":
            "240869f8b27101e83862dd1fbfba5491a61f3b6e2f76e94af482835ae87ad836",
        "snn/weights.bin":
            "a0f04e39bbe565579a0be6b5a84959a44a1798cc335435485b77e46d9275dc8f",
        "snn_calibrated/manifest.json":
            "6aaac3635f60712fc245844476aa3e67351060fbfdae6ecbd3e3d74907fb9b84",
        "snn_calibrated/weights.bin":
            "c78fe4c084987f37d8586039ccb23fe041072f9f16b93aa915fb1615d81cb006",
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
    "char_lm": {
        "seed": 7,
        "model": {"kind": "char_lm", "hidden": [16], "levels": 4, "embed_dim": 4},
        "dataset": {"kind": "char-lm", "samples": 400, "window": 4, "path": "corpus.txt"},
        "stage1": {"steps": 30, "batch_size": 32, "lr": 0.01},
    },
    # a partial calibration window of rho = 3 steps, not a power of two
    "classifier_rho": {
        "seed": 6,
        "model": {"kind": "mlp_classifier", "hidden": [12], "levels": 8},
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


def test_every_model_kind_has_a_golden():
    kinds = {raw["model"]["kind"] for raw in _GOLDEN_CONFIGS.values()}
    assert kinds == set(MODEL_KINDS)


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


@pytest.mark.parametrize("name", sorted(_GOLDEN_CONFIGS))
def test_layer_mse_columns_sum_to_L_al(tmp_path, monkeypatch, name):
    # each column holds L_al's own terms: summed in layer order they give the
    # calibrated network's eval L_al, and the converted network's eval_losses
    monkeypatch.chdir(tmp_path)
    _write_golden_config(tmp_path, name)
    assert cli.main(["pipeline", "--config", "config.json", "--out", "out"]) == 0
    with open("out/reports/layer_mse.csv") as f:
        rows = list(csv.DictReader(f))
    before = after = 0.0
    for row in rows:
        before += float(row["mse_before"])
        after += float(row["mse_after"])
    metrics = json.loads(Path("out/reports/metrics.json").read_text())
    assert after == metrics["eval"]["L_al"]

    cfg = parse_config("config.json")
    test_x = make_dataset(cfg.dataset, Rng(cfg.seed).split("data")).test.x
    losses = eval_losses(load_checkpoint("out/snn"), load_checkpoint("out/ann"),
                         test_x[:min(256, len(test_x))], cfg.stage2)
    assert before == losses["L_al"]


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
