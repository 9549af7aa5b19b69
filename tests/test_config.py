import json
import re

import pytest

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
    (_with("stage2", "denominator", "steps"), "stage2: denominator"),
    (_with("stage2", "temperature", 0), "stage2: temperature"),
    (_with(None, "schema_version", "banana"), "unsupported schema_version 'banana'"),
    (_with(None, "schema_version", 2), "unsupported schema_version 2"),
    (_with(None, "schema_version", True), "unsupported schema_version True"),
    (_with("stage1", "batch_size", 0), "stage1: batch_size must be >= 1"),
    (_with("stage1", "steps", -5), "stage1: steps must be >= 0"),
    (_with("stage2", "batch_size", 0), "stage2: batch_size must be >= 1"),
    (_with("stage2", "steps", -5), "stage2: steps must be >= 0"),
])
def test_rejected_with_key_path(tmp_path, raw, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(_write(tmp_path, raw))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "absent.json"))


def test_mlp_regressor_forces_regression(tmp_path):
    raw = _with("model", "kind", "mlp_regressor")
    raw["dataset"]["task"] = "classify"
    cfg = parse_config(_write(tmp_path, raw))
    assert cfg.dataset.task == "regress"


def test_defaults_pin_rho_to_the_horizon(tmp_path):
    cfg = parse_config(_write(tmp_path, _base()))
    assert cfg.seed == 1 and cfg.out_dir is None
    assert cfg.stage2.timesteps == cfg.stage2.rho == 8
