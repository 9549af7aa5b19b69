"""Strict JSON experiment configs: versioned schema, defaults, unknown-key
rejection, and a git-style content hash for provenance."""

from __future__ import annotations

import hashlib
import json
import math
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
        if not self.hidden:
            raise ValueError("hidden must list at least one width, got []")
        if min([self.embed_dim, *self.hidden]) < 1:
            raise ValueError(f"widths must be >= 1, got hidden={self.hidden}, "
                             f"embed_dim={self.embed_dim}")


@dataclass
class ExperimentConfig:
    seed: int
    model: ModelSpec
    dataset: DataSpec
    stage1: TrainConfig
    stage2: CalibConfig
    schema_version: int = 1


# JSON value checks by field annotation; a field annotated otherwise (a
# section) is checked by its own code
_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list[int]": ("a list of integers",
                  lambda v: isinstance(v, list) and all(type(i) is int for i in v)),
}


def _check_section(section: dict, cls, path: str, exclude: tuple = ()) -> None:
    """Refuse keys that are not fields of ``cls`` (or are in ``exclude``), and
    values whose JSON type does not fit the field's annotation."""
    known = {f.name: f.type for f in fields(cls) if f.name not in exclude}
    for key, value in section.items():
        if key not in known:
            raise ConfigError(f"unknown key {path + key!r}")
        want, _, optional = known[key].partition(" | ")
        if want in _TYPES and not (optional and value is None):
            name, ok = _TYPES[want]
            if not ok(value):
                raise ConfigError(f"{path}{key} must be {name}, got {value!r}")


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
    schema_version = raw.get("schema_version", 1)
    if type(schema_version) is not int or schema_version != 1:
        raise ConfigError(f"unsupported schema_version {schema_version!r}; this version reads 1")
    _check_section(raw, ExperimentConfig, "")

    model_raw = _section(raw, "model")
    dataset_raw = _section(raw, "dataset")
    stage1_raw = _section(raw, "stage1", required=False)
    stage2_raw = _section(raw, "stage2", required=False)
    _check_section(model_raw, ModelSpec, "model.")
    _check_section(dataset_raw, DataSpec, "dataset.", exclude=("task",))  # model.kind sets it
    _check_section(stage1_raw, TrainConfig, "stage1.")
    _check_section(stage2_raw, CalibConfig, "stage2.", exclude=("seed",))  # the run's seed
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

    return ExperimentConfig(
        seed=raw.get("seed", 0),
        model=model,
        dataset=dataset,
        stage1=stage1,
        stage2=stage2,
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
