"""A fixed yardstick to time the workloads against.

A shared host's speed drifts over minutes, by a fifth or more for
interpreter-bound code, so a run time alone varies from run to run with the
machine as much as with the program. While the benchmark times a
workload, it therefore also times one call of the workload's yardstick
blocks after every operation, and reports the median repetition's time over
the median yardstick's time (`wall_rel`) next to the raw seconds
(`wall_s`). The blocks do not use spikefit, so a change to the program
cannot move them; each workload names the blocks that do the same sort of
work as it does, so that the two slow down together.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np


class _Node:
    __slots__ = ("value", "back")

    def __init__(self, value, back=None):
        self.value, self.back = value, back


def tape_block(steps: int = 8, repeats: int = 80) -> float:
    """Interpreter-bound, like stage-2 calibration on a small MLP: an
    unrolled integrate-and-fire recurrence on a 128 x 64 layer recorded on a
    list tape of small-array operations, then a backward pass over it."""
    rng = np.random.default_rng(0)
    x = rng.random((128, 64), dtype=np.float32)
    w = rng.standard_normal((64, 64), dtype=np.float32) / 8
    grad = np.zeros(64, dtype=np.float32)
    for _ in range(repeats):
        tape, theta = [], np.ones(64, dtype=np.float32)
        v, current = np.zeros((128, 64), dtype=np.float32), x @ w
        for _ in range(steps):
            v = v + current
            s = 1.0 / (1.0 + np.exp(np.clip(theta - v, -30.0, 30.0)))
            tape.append(_Node(s, lambda g, s=s: g * s * (1.0 - s)))
            v = v - s * theta
        g = np.ones((128, 64), dtype=np.float32)
        for node in reversed(tape):
            grad -= node.back(g).sum(axis=0)
    return float(grad.sum())


def array_block(width: int = 1024, steps: int = 4) -> int:
    """Array-bound, like `simulate` on a wide layer: integrate-and-fire steps
    on a width x width float32 layer into a freshly allocated spike record."""
    rng = np.random.default_rng(0)
    x = rng.random((width, width), dtype=np.float32)
    w = rng.standard_normal((width, width), dtype=np.float32) / 32
    v = np.zeros((width, width), dtype=np.float32)
    record = np.zeros((steps, width, width), dtype=bool)
    for t in range(steps):
        v += x @ w
        record[t] = v >= 1.0
        v -= record[t] * np.float32(1.0)
    return int(np.count_nonzero(record))


def process_block() -> int:
    """Start-up bound, like one CLI stage: a fresh interpreter imports numpy."""
    return subprocess.run([sys.executable, "-c", "import numpy"], check=True).returncode


BLOCKS = {"tape": tape_block, "arrays": array_block, "process": process_block}

