"""Time-stepped integrate-and-fire simulation with reset-by-subtraction,
per-neuron thresholds and initial potentials, spike recording, and rate math.

A spiking network is plain data: each IF layer holds only its threshold and
initial potential, and ``simulate`` keeps the membrane potentials of a run
to itself, so simulating never changes the network. The first linear
layer's current, computed once from the analog input, drives the first IF
layer at every step; deeper layers are driven by threshold-weighted spikes.
Ties (potential exactly at threshold) fire. Membrane potentials may go
negative.
"""

from __future__ import annotations

import copy
import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .ann import Embedding, Linear, _apply_embedding
from .tensor import Array


class SimulationError(RuntimeError):
    """Simulation produced a non-finite membrane potential."""


@dataclass
class IfLayer:
    """Integrate-and-fire population: per-neuron threshold and initial
    potential, as float32 vectors of one width."""

    threshold: Array
    v_init: Array

    def __post_init__(self):
        self.threshold = np.asarray(self.threshold, dtype=np.float32)
        self.v_init = np.asarray(self.v_init, dtype=np.float32)
        if self.threshold.ndim != 1 or self.v_init.shape != self.threshold.shape:
            raise ValueError(f"threshold/v_init must be matching vectors, got "
                             f"{self.threshold.shape} and {self.v_init.shape}")
        if not np.all(self.threshold > 0):
            raise ValueError("threshold must be positive elementwise")

    @property
    def width(self) -> int:
        return self.threshold.shape[0]


def if_step(layer: IfLayer, v: Array, input_current: Array,
            step: int | None = None) -> tuple[Array, Array]:
    """Advance potentials ``v`` (batch, width) by one timestep; returns the
    0/1 spike array and the next potentials.

    Reset is by subtraction: a firing neuron's potential drops by exactly
    its threshold. A potential exactly at threshold fires.
    """
    cur = np.asarray(input_current, dtype=np.float32)
    if cur.shape[-1] != layer.width:
        raise ValueError(f"input current width {cur.shape[-1]} != layer width {layer.width}")
    v = v + cur
    if not np.all(np.isfinite(v)):
        neuron = int(np.argwhere(~np.isfinite(v))[0][-1])
        where = f" at step {step}" if step is not None else ""
        raise SimulationError(f"non-finite membrane potential for neuron {neuron}{where}")
    spikes = (v >= layer.threshold).astype(np.float32)
    return spikes, v - spikes * layer.threshold


class SnnNetwork:
    """Alternating linear/IF stack mirroring the analog model it came from.

    ``input_encoder`` (an embedding, when present) runs once on the raw
    input; its output is the analog drive injected at every step.
    """

    def __init__(self, layers: list, timesteps: int, input_encoder: Embedding | None = None):
        if timesteps < 1:
            raise ValueError(f"simulation horizon must be >= 1, got {timesteps}")
        self.layers = list(layers)
        self.timesteps = int(timesteps)
        self.input_encoder = input_encoder

    def if_layers(self) -> list[IfLayer]:
        return [l for l in self.layers if isinstance(l, IfLayer)]

    def linear_layers(self) -> list[Linear]:
        return [l for l in self.layers if isinstance(l, Linear)]

    def clone(self) -> "SnnNetwork":
        return copy.deepcopy(self)


@dataclass
class SpikeRecord:
    """Per-layer spike trains plus enough state to audit the run."""

    spikes: list[Array]            # per IF layer: (T, batch, width), entries 0/1
    thresholds: list[Array]        # per IF layer: (width,)
    v_end: list[Array]             # (batch, width)
    output: Array                  # decoded prediction (batch, out_dim)
    timesteps: int
    currents: list[Array] | None = None    # (T, batch, width) when recorded
    potentials: list[Array] | None = None  # post-step traces when recorded

    @property
    def n_layers(self) -> int:
        return len(self.spikes)

    @property
    def n_samples(self) -> int:
        return self.spikes[0].shape[1] if self.spikes else 0

    def counts(self, layer: int) -> Array:
        """Spike count per (sample, neuron) over the full horizon."""
        return self.spikes[layer].sum(axis=0)


def _split_stack(net: SnnNetwork):
    """Group layers into (linear, if) pairs plus an optional trailing linear."""
    pairs: list[tuple[Linear, IfLayer]] = []
    tail: Linear | None = None
    i = 0
    layers = net.layers
    while i < len(layers):
        layer = layers[i]
        if not isinstance(layer, Linear):
            raise ValueError(f"layer {i}: expected a linear layer, got {type(layer).__name__}")
        if i + 1 < len(layers):
            nxt = layers[i + 1]
            if not isinstance(nxt, IfLayer):
                raise ValueError(f"layer {i + 1}: expected an IF layer, got {type(nxt).__name__}")
            pairs.append((layer, nxt))
            i += 2
        else:
            tail = layer
            i += 1
    return pairs, tail


def simulate(net: SnnNetwork, analog_input: Array, timesteps: int | None = None,
             record_currents: bool = False, record_potentials: bool = False) -> SpikeRecord:
    """Run the network for ``timesteps`` steps on a batch of analog inputs.

    The first linear layer sees the same analog input at every step; deeper
    linears see threshold-weighted spikes. The decoded output is the firing
    rate of the last IF layer pushed through the trailing linear, if any.
    """
    T = net.timesteps if timesteps is None else int(timesteps)
    if T < 1:
        raise ValueError(f"simulation horizon must be >= 1, got {timesteps}")
    x = np.asarray(analog_input)
    if x.ndim == 1:
        x = x[None, :]
    if net.input_encoder is not None:
        x = _apply_embedding(x, net.input_encoder, "encoder")
    x = x.astype(np.float32, copy=False)
    batch = x.shape[0]

    pairs, tail = _split_stack(net)
    v = [np.broadcast_to(iflayer.v_init, (batch, iflayer.width)) for _, iflayer in pairs]

    # the first linear's current is the same at every step
    first_current = x @ pairs[0][0].w + pairs[0][0].b if pairs else None

    spikes_rec = [np.zeros((T, batch, p[1].width), dtype=np.float32) for p in pairs]
    currents_rec = ([np.zeros((T, batch, p[1].width), dtype=np.float32) for p in pairs]
                    if record_currents else None)
    potentials_rec = ([np.zeros((T, batch, p[1].width), dtype=np.float32) for p in pairs]
                      if record_potentials else None)

    for t in range(T):
        carry = None
        for j, (linear, iflayer) in enumerate(pairs):
            cur = first_current if j == 0 else carry @ linear.w + linear.b
            s, v[j] = if_step(iflayer, v[j], cur, step=t)
            spikes_rec[j][t] = s
            if currents_rec is not None:
                currents_rec[j][t] = cur
            if potentials_rec is not None:
                potentials_rec[j][t] = v[j]
            carry = s * iflayer.threshold

    if pairs:
        last_rate = pairs[-1][1].threshold * spikes_rec[-1].sum(axis=0) / np.float32(T)
        output = last_rate @ tail.w + tail.b if tail is not None else last_rate
    else:
        output = x @ tail.w + tail.b if tail is not None else x

    return SpikeRecord(
        spikes=spikes_rec,
        thresholds=[p[1].threshold.copy() for p in pairs],
        v_end=v,
        output=output,
        timesteps=T,
        currents=currents_rec,
        potentials=potentials_rec,
    )


def firing_rate(record: SpikeRecord, layer: int, rho: int | None = None,
                denominator: str = "rho") -> Array:
    """Threshold-weighted rate: theta * sum of the first rho spike frames,
    divided by rho (default) or by the full horizon T."""
    T = record.timesteps
    rho = T if rho is None else int(rho)
    if not 1 <= rho <= T:
        raise ValueError(f"rho out of range: need 1 <= rho <= {T}, got {rho}")
    if denominator not in ("rho", "T"):
        raise ValueError(f"denominator must be 'rho' or 'T', got {denominator!r}")
    denom = np.float32(rho if denominator == "rho" else T)
    return record.thresholds[layer] * record.spikes[layer][:rho].sum(axis=0) / denom


def theoretical_spike_count(a: Array, ceiling, timesteps: int) -> Array:
    """Spikes needed to represent activation a in `timesteps` steps: a*T/ceiling."""
    a = np.asarray(a)
    dt = a.dtype if a.dtype.kind == "f" else np.dtype(np.float64)
    ceiling = np.asarray(ceiling, dtype=dt)
    if not np.all(ceiling > 0):
        raise ValueError("activation ceiling must be positive")
    return a.astype(dt) * dt.type(timesteps) / ceiling


def psi_max(taus, exclude_top_fraction: float = 0.01) -> Array:
    """Per-neuron max of theoretical spike counts after globally discarding
    the largest `exclude_top_fraction` of values."""
    taus = np.atleast_2d(np.asarray(taus, dtype=np.float64))
    if taus.shape[0] < 1 or taus.size == 0:
        raise ValueError("psi_max needs at least one sample")
    if not 0.0 <= exclude_top_fraction < 0.5:
        raise ValueError(f"exclude_top_fraction must be in [0, 0.5), got {exclude_top_fraction}")
    k = int(exclude_top_fraction * taus.size)
    if k == 0:
        return taus.max(axis=0)
    cutoff = np.sort(taus, axis=None)[taus.size - k - 1]
    masked = np.where(taus <= cutoff, taus, -np.inf)
    psi = masked.max(axis=0)
    return np.where(np.isneginf(psi), cutoff, psi)


def export_spike_csv(record: SpikeRecord, out_dir: str, sample: int = 0) -> list[str]:
    """One CSV per layer (`t,neuron,spike`) plus a summary JSON."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for j, s in enumerate(record.spikes):
        path = os.path.join(out_dir, f"spikes_layer{j}.csv")
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["t", "neuron", "spike"])
            for t in range(record.timesteps):
                for neuron in range(s.shape[2]):
                    w.writerow([t, neuron, int(s[t, sample, neuron])])
        paths.append(path)
    summary = {
        "timesteps": record.timesteps,
        "n_samples": record.n_samples,
        "per_layer_counts": [float(s.sum()) for s in record.spikes],
        "per_layer_mean_rates": [float(s.mean()) for s in record.spikes],
    }
    spath = os.path.join(out_dir, "spike_summary.json")
    with open(spath, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    paths.append(spath)
    return paths
