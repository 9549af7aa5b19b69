"""Strict JSON experiment configs: versioned schema, defaults, unknown-key
rejection, and a git-style content hash for provenance."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields

from .ann import TrainConfig, char_lm, mlp
from .calibrate import CalibConfig
from .data import DataSpec
from .tensor import Rng


class ConfigError(ValueError):
    """A config file is missing fields, has unknown keys, or is out of range."""


# the model kinds a config may name
MODEL_KINDS = ("mlp_classifier", "char_lm")


@dataclass
class ModelSpec:
    kind: str                      # one of MODEL_KINDS
    hidden: list[int] = field(default_factory=lambda: [64, 64])
    levels: int = 8
    embed_dim: int = 16

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
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


def _section(raw: dict, name: str, required: bool) -> dict:
    if name not in raw:
        if required:
            raise ConfigError(f"missing required field: {name}")
        return {}
    value = raw[name]
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    return value


# the config's sections: name, class, whether the file must give it, and the
# keys it may not set (the run's seed is stage 2's)
_SECTIONS = (("model", ModelSpec, True, ()),
             ("dataset", DataSpec, True, ()),
             ("stage1", TrainConfig, False, ()),
             ("stage2", CalibConfig, False, ("seed",)))


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

    found = {name: _section(raw, name, required) for name, _, required, _ in _SECTIONS}
    for name, cls, _, exclude in _SECTIONS:
        _check_section(found[name], cls, name + ".", exclude)
    for name in ("model", "dataset"):
        if "kind" not in found[name]:
            raise ConfigError(f"missing required field: {name}.kind")

    sections = {}
    for name, cls, _, _ in _SECTIONS:
        try:
            sections[name] = cls(**found[name])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{name}: {e}") from None
    model, dataset = sections["model"], sections["dataset"]

    if model.kind == "char_lm" and dataset.kind != "char-lm":
        raise ConfigError("model.kind char_lm requires dataset.kind char-lm")
    if model.kind != "char_lm" and dataset.kind == "char-lm":
        raise ConfigError(f"dataset.kind char-lm requires model.kind char_lm, got {model.kind}")
    if dataset.kind == "char-lm" and dataset.path is not None and not os.path.exists(dataset.path):
        raise ConfigError(f"dataset.path does not exist: {dataset.path}")

    return ExperimentConfig(seed=raw.get("seed", 0), schema_version=schema_version, **sections)


def config_hash(path: str) -> str:
    """Content hash of the raw config bytes, framed the way git hashes blobs."""
    with open(path, "rb") as f:
        data = f.read()
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def build_model(cfg: ExperimentConfig, rng: Rng):
    """Fresh starting model (ReLU activations) matching the dataset shapes."""
    if cfg.model.kind == "char_lm":
        return char_lm(256, cfg.dataset.window, cfg.model.embed_dim,
                       list(cfg.model.hidden), rng)
    dims = [cfg.dataset.input_dim] + list(cfg.model.hidden) + [cfg.dataset.classes]
    return mlp(dims, rng)
