import json
import os

import pytest

from spikefit import cli
from spikefit.ann import TrainingDivergedError
from spikefit.calibrate import CalibrationError
from spikefit.checkpoint import IntegrityError
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_training_is_one_line(tmp_path, capsys):
    config = _config(tmp_path, stage1={"lr": 1e38})
    assert cli.dispatch(["train", "--config", config, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite loss")
