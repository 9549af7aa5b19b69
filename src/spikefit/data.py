"""Synthetic and tiny-corpus datasets with deterministic, seed-driven splits."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .ann import ann_forward, mlp
from .tensor import Array, Rng


@dataclass
class Dataset:
    x: Array
    y: Array  # class labels, or next-token bytes for char-lm


@dataclass
class DatasetSplits:
    train: Dataset
    test: Dataset


@dataclass
class DataSpec:
    kind: str                     # synthetic-teacher | char-lm
    samples: int = 10000
    input_dim: int = 8
    classes: int = 4
    teacher_hidden: list[int] = field(default_factory=lambda: [32])
    path: str | None = None       # char-lm corpus file
    window: int = 8

    def __post_init__(self):
        kinds = ("synthetic-teacher", "char-lm")
        if self.kind not in kinds:
            raise ValueError(f"unknown dataset kind {self.kind!r}; choose from {kinds}")
        if self.samples < 10:
            raise ValueError(f"need at least 10 samples, got {self.samples}")
        if min([self.input_dim, self.classes, self.window, *self.teacher_hidden]) < 1:
            raise ValueError(f"widths must be >= 1, got input_dim={self.input_dim}, "
                             f"classes={self.classes}, window={self.window}, "
                             f"teacher_hidden={self.teacher_hidden}")


def _split(x: Array, y: Array, rng: Rng) -> DatasetSplits:
    """Shuffled 90/10 train/test split; calibration reads the training split."""
    n = len(x)
    perm = rng.permutation(n)
    n_test = max(1, n // 10)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return DatasetSplits(train=Dataset(x[train_idx], y[train_idx]),
                         test=Dataset(x[test_idx], y[test_idx]))


def _synthetic_teacher(spec: DataSpec, rng: Rng) -> tuple[Array, Array]:
    x = rng.split("x").normal(0.0, 1.0, (spec.samples, spec.input_dim))
    dims = [spec.input_dim] + list(spec.teacher_hidden) + [spec.classes]
    teacher = mlp(dims, rng.split("teacher"))
    logits = ann_forward(teacher, x, record=False).output
    return x, logits.argmax(axis=1).astype(np.int64)


def _char_lm(spec: DataSpec, rng: Rng) -> tuple[Array, Array]:
    if spec.path is None:
        raise ValueError("char-lm dataset needs a corpus path")
    if not os.path.exists(spec.path):
        raise ValueError(f"cannot read corpus file: {spec.path}")
    with open(spec.path, "rb") as f:
        raw = f.read()
    if len(raw) == 0:
        raise ValueError(f"empty corpus file: {spec.path}")
    tokens = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    n = len(tokens) - spec.window
    if n < 10:
        raise ValueError(
            f"corpus too short: {len(tokens)} bytes for window {spec.window}")
    n = min(n, spec.samples)
    x = np.lib.stride_tricks.sliding_window_view(tokens, spec.window)[:n].copy()
    y = tokens[spec.window:spec.window + n]
    return x, y


def make_dataset(spec: DataSpec, rng: Rng) -> DatasetSplits:
    """Build the (train, test) splits; deterministic for a given spec and seed."""
    if spec.kind == "synthetic-teacher":
        x, y = _synthetic_teacher(spec, rng)
    else:
        x, y = _char_lm(spec, rng)
    return _split(x, y, rng.split("split"))
