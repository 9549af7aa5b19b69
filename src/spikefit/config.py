"""Strict JSON experiment configs: versioned schema, defaults, unknown-key
rejection, and a git-style content hash for provenance."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields

from .ann import TrainConfig
from .calibrate import CalibConfig
from .data import DataSpec
from .tensor import Rng


class ConfigError(ValueError):
    """A config file is missing fields, has unknown keys, or is out of range."""


@dataclass
class ModelSpec:
    kind: str                      # mlp_classifier | mlp_regressor | char_lm
    hidden: list[int] = field(default_factory=lambda: [64, 64])
    levels: int = 8
    embed_dim: int = 16

    def __post_init__(self):
        kinds = ("mlp_classifier", "mlp_regressor", "char_lm")
        if self.kind not in kinds:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {kinds}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")


@dataclass
class ExperimentConfig:
    seed: int
    model: ModelSpec
    dataset: DataSpec
    stage1: TrainConfig
    stage2: CalibConfig
    out_dir: str | None = None
    schema_version: int = 1


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}
_MODEL_KEYS = {f.name for f in fields(ModelSpec)}
_DATASET_KEYS = {f.name for f in fields(DataSpec)}
_STAGE1_KEYS = {f.name for f in fields(TrainConfig)}
_STAGE2_KEYS = {f.name for f in fields(CalibConfig)} - {"seed"}


def _check_keys(section: dict, allowed: set, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {path + key!r}")


def _section(raw: dict, name: str, required: bool = True) -> dict:
    if name not in raw:
        if required:
            raise ConfigError(f"missing required field: {name}")
        return {}
    value = raw[name]
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    return value


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate a config file; defaults fill everything except the
    model and dataset kinds. rho defaults to the inference horizon."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "")

    model_raw = _section(raw, "model")
    dataset_raw = _section(raw, "dataset")
    stage1_raw = _section(raw, "stage1", required=False)
    stage2_raw = _section(raw, "stage2", required=False)
    _check_keys(model_raw, _MODEL_KEYS, "model.")
    _check_keys(dataset_raw, _DATASET_KEYS, "dataset.")
    _check_keys(stage1_raw, _STAGE1_KEYS, "stage1.")
    _check_keys(stage2_raw, _STAGE2_KEYS, "stage2.")
    if "kind" not in model_raw:
        raise ConfigError("missing required field: model.kind")
    if "kind" not in dataset_raw:
        raise ConfigError("missing required field: dataset.kind")

    try:
        model = ModelSpec(**model_raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"model: {e}") from None
    try:
        dataset = DataSpec(**dataset_raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"dataset: {e}") from None
    try:
        stage1 = TrainConfig(**stage1_raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"stage1: {e}") from None
    try:
        stage2 = CalibConfig(**stage2_raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"stage2: {e}") from None

    if model.kind == "char_lm" and dataset.kind != "char-lm":
        raise ConfigError("model.kind char_lm requires dataset.kind char-lm")
    if model.kind != "char_lm" and dataset.kind == "char-lm":
        raise ConfigError(f"dataset.kind char-lm requires model.kind char_lm, got {model.kind}")
    if model.kind == "mlp_regressor":
        dataset.task = "regress"
    if dataset.kind == "char-lm" and dataset.path is not None and not os.path.exists(dataset.path):
        raise ConfigError(f"dataset.path does not exist: {dataset.path}")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    schema_version = raw.get("schema_version", 1)
    if type(schema_version) is not int or schema_version != 1:
        raise ConfigError(f"unsupported schema_version {schema_version!r}; this version reads 1")
    return ExperimentConfig(
        seed=seed,
        model=model,
        dataset=dataset,
        stage1=stage1,
        stage2=stage2,
        out_dir=raw.get("out_dir"),
        schema_version=schema_version,
    )


def config_hash(path: str) -> str:
    """Content hash of the raw config bytes, framed the way git hashes blobs."""
    with open(path, "rb") as f:
        data = f.read()
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def build_model(cfg: ExperimentConfig, rng: Rng):
    """Fresh starting model (ReLU activations) matching the dataset shapes."""
    from .ann import char_lm, mlp

    if cfg.model.kind == "char_lm":
        return char_lm(256, cfg.dataset.window, cfg.model.embed_dim,
                       list(cfg.model.hidden), rng)
    out_dim = cfg.dataset.classes
    dims = [cfg.dataset.input_dim] + list(cfg.model.hidden) + [out_dim]
    return mlp(dims, rng)
