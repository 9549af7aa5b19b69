import json
import re

import pytest

from spikefit import cli
from spikefit.config import ConfigError, parse_config


def _base() -> dict:
    return {
        "seed": 1,
        "model": {"kind": "mlp_classifier", "hidden": [8]},
        "dataset": {"kind": "synthetic-teacher", "samples": 100},
        "stage1": {"steps": 5},
        "stage2": {"timesteps": 8},
    }


def _write(tmp_path, raw) -> str:
    path = tmp_path / "config.json"
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    return str(path)


def _with(section, key, value) -> dict:
    raw = _base()
    if section is None:
        raw[key] = value
    else:
        raw[section][key] = value
    return raw


def _without(section, key) -> dict:
    raw = _base()
    del raw[section][key]
    return raw


@pytest.mark.parametrize("raw, message", [
    (_with(None, "bogus", 1), "'bogus'"),
    (_with("model", "bogus", 1), "'model.bogus'"),
    (_with("dataset", "bogus", 1), "'dataset.bogus'"),
    (_with("stage1", "bogus", 1), "'stage1.bogus'"),
    (_with("stage2", "bogus", 1), "'stage2.bogus'"),
    (_without("model", "kind"), "model.kind"),
    (_without("dataset", "kind"), "dataset.kind"),
    (_with(None, "model", 3), "model must be an object"),
    (_with("model", "kind", "char_lm"), "model.kind char_lm requires dataset.kind char-lm"),
    (_with("dataset", "kind", "char-lm"), "dataset.kind char-lm requires model.kind char_lm"),
    ("{not json", "not valid JSON"),
    ("[1, 2]", "must be a JSON object"),
    (_with(None, "seed", "3"), "seed must be an integer"),
    (_with(None, "seed", 1.5), "seed must be an integer"),
    (_with(None, "seed", True), "seed must be an integer"),
    (_with("stage2", "timesteps", 0), "stage2: timesteps"),
    (_with("stage2", "rho", 9), "stage2: need 1 <= rho <= timesteps"),
    (_with("stage2", "alpha", 1.5), "stage2: alpha"),
    (_with("stage2", "denominator", "steps"), "unknown key 'stage2.denominator'"),
    (_with("stage2", "temperature", 0), "unknown key 'stage2.temperature'"),
    (_with(None, "schema_version", "banana"), "unsupported schema_version 'banana'"),
    (_with(None, "schema_version", 2), "unsupported schema_version 2"),
    (_with(None, "schema_version", True), "unsupported schema_version True"),
    (_with("stage1", "batch_size", 0), "stage1: batch_size must be >= 1"),
    (_with("stage1", "steps", -5), "stage1: steps must be >= 0"),
    (_with("stage2", "batch_size", 0), "stage2: batch_size must be >= 1"),
    (_with("stage2", "steps", -5), "stage2: steps must be >= 0"),
    (_with("dataset", "kind", "two-class-synthetic"), "dataset: unknown dataset kind"),
    (_with(None, "out_dir", "out"), "unknown key 'out_dir'"),
    (_with("model", "hidden", "ab"), "model.hidden must be a list of integers"),
    (_with("model", "hidden", [0]), "model: widths must be >= 1"),
    (_with("model", "embed_dim", 0), "model: widths must be >= 1"),
    (_with("dataset", "samples", 100.5), "dataset.samples must be an integer, got 100.5"),
    (_with("dataset", "input_dim", 0), "dataset: widths must be >= 1"),
    (_with("dataset", "teacher_hidden", "x"), "dataset.teacher_hidden must be a list of integers"),
    (_with("stage1", "lr", "x"), "stage1.lr must be a finite number, got 'x'"),
    (_with("stage2", "timesteps", 4.5), "stage2.timesteps must be an integer, got 4.5"),
    (_with("stage2", "lr", float("nan")), "stage2.lr must be a finite number, got nan"),
    (_with("dataset", "task", "regress"), "unknown key 'dataset.task'"),
    (_with("stage2", "alpha", [0.5, 0.5, 0.5]),
     "stage2.alpha must be a finite number, got [0.5, 0.5, 0.5]"),
    (_with("stage2", "alpha", "x"), "stage2.alpha must be a finite number, got 'x'"),
    (_with("stage2", "beta", "x"), "stage2.beta must be a finite number, got 'x'"),
    (_with("stage2", "beta", float("nan")), "stage2.beta must be a finite number, got nan"),
    (_with("stage2", "beta", [0.5, 0.5]), "stage2.beta must be a finite number, got [0.5, 0.5]"),
    (_with("stage2", "alpha", "auto"), "stage2.alpha must be a finite number, got 'auto'"),
    (_with("model", "hidden", []), "model: hidden must list at least one width"),
    (_with("stage2", "lambda_align", 1.0), "unknown key 'stage2.lambda_align'"),
    (_with("stage2", "lambda_logits", 1.0), "unknown key 'stage2.lambda_logits'"),
    (_with("stage1", "lr", -0.01), "stage1: lr must be >= 0, got -0.01"),
    (_with("stage1", "lr_ceiling", -5), "stage1: lr_ceiling must be >= 0, got -5"),
    (_with("stage1", "weight_decay", -0.5), "stage1: weight_decay must be >= 0, got -0.5"),
    (_with("stage2", "lr", -0.5), "stage2: lr must be >= 0, got -0.5"),
])
def test_rejected_with_key_path(tmp_path, raw, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(_write(tmp_path, raw))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "absent.json"))


def test_regression_configs_are_refused(tmp_path, capsys):
    regressor = _with("model", "kind", "mlp_regressor")
    with pytest.raises(ConfigError, match=re.escape(
            "model: unknown model kind 'mlp_regressor'; "
            "choose from ('mlp_classifier', 'char_lm')")):
        parse_config(_write(tmp_path, regressor))
    for raw in (regressor, _with("dataset", "task", "regress")):
        config = _write(tmp_path, raw)
        assert cli.main(["train", "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), raw
    assert not (tmp_path / "out").exists()


def test_negative_rates_are_refused_and_zero_runs(tmp_path, capsys):
    # a negative rate makes Adam climb its own objective, so the run stops
    # before stage 1; zero leaves the parameters as they are, and runs
    for section, key, value in [("stage1", "lr", -0.01), ("stage1", "lr_ceiling", -5),
                                ("stage1", "weight_decay", -0.5), ("stage2", "lr", -0.5)]:
        config = _write(tmp_path, _with(section, key, value))
        assert cli.main(["pipeline", "--config", config, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {section}: {key} must be >= 0, got {value}"]
        assert not (tmp_path / "out").exists()
    raw = _base()
    raw["stage1"].update(lr=0.0, lr_ceiling=0.0, weight_decay=0.0)
    raw["stage2"].update(lr=0.0, steps=2)
    config = _write(tmp_path, raw)
    assert cli.main(["pipeline", "--config", config, "--out", str(tmp_path / "zero")]) == 0


def test_defaults_pin_rho_to_the_horizon(tmp_path):
    cfg = parse_config(_write(tmp_path, _base()))
    assert cfg.seed == 1
    assert cfg.stage2.timesteps == cfg.stage2.rho == 8
