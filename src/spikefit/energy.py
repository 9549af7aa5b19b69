"""Synaptic operation counting for the spiking path and the picojoule-level
comparison against the analog equivalent.

Only layers driven by spikes are counted, on both sides: the first linear
layer consumes the analog input and is excluded, as are bias additions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .snn import SnnNetwork, SpikeRecord, _split_stack

AC_PICOJOULES = 0.9
MAC_PICOJOULES = 4.6


@dataclass
class OpCounts:
    ac: int
    mac: int
    per_layer_ac: list[int]
    per_layer_mac: list[int]
    n_samples: int
    timesteps: int


def count_ops(record: SpikeRecord, net: SnnNetwork) -> OpCounts:
    """Accumulate counts: every spike costs the firing neuron's fan-out in
    ACs; the analog side costs in*out MACs per sample, once per inference.

    Covers each linear layer whose input is spikes; the mismatch check
    compares the record's layer widths against the network's.
    """
    pairs, tail = _split_stack(net)
    if record.n_layers != len(pairs):
        raise ValueError(
            f"record has {record.n_layers} spiking layers but the network has {len(pairs)}")
    for j, (_, iflayer) in enumerate(pairs):
        if record.spikes[j].shape[2] != iflayer.width:
            raise ValueError(
                f"layer {j}: record width {record.spikes[j].shape[2]} != network width "
                f"{iflayer.width}")
    n_samples = record.n_samples
    per_ac: list[int] = []
    per_mac: list[int] = []
    for j in range(len(pairs)):
        consumer = pairs[j + 1][0] if j + 1 < len(pairs) else tail
        if consumer is None:
            per_ac.append(0)
            per_mac.append(0)
            continue
        fan_out = consumer.w.shape[1]
        spikes_total = int(np.count_nonzero(record.spikes[j]))
        per_ac.append(spikes_total * fan_out)
        per_mac.append(consumer.w.shape[0] * fan_out * n_samples)
    return OpCounts(
        ac=int(sum(per_ac)),
        mac=int(sum(per_mac)),
        per_layer_ac=per_ac,
        per_layer_mac=per_mac,
        n_samples=n_samples,
        timesteps=record.timesteps,
    )


@dataclass
class EnergyReport:
    ac_count: int
    mac_count: int
    snn_energy_pj: float
    ann_energy_pj: float
    ratio_percent: float
    rates: list[float] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "ac_count": self.ac_count,
            "mac_count": self.mac_count,
            "snn_pj": self.snn_energy_pj,
            "ann_pj": self.ann_energy_pj,
            "ratio_pct": self.ratio_percent,
            "rates": list(self.rates),
            "meta": dict(self.meta),
        }


def energy_report(counts: OpCounts, rates: list[float] | None = None) -> EnergyReport:
    """Price the counts: spiking side at AC_PICOJOULES per AC, analog side at
    MAC_PICOJOULES per MAC; ratio is their percentage."""
    ac, mac = counts.ac, counts.mac
    if ac < 0 or mac < 0:
        raise ValueError("operation counts must be nonnegative")
    snn = AC_PICOJOULES * ac
    ann = MAC_PICOJOULES * mac
    ratio = 100.0 * snn / ann if ann > 0 else 0.0
    return EnergyReport(
        ac_count=int(ac),
        mac_count=int(mac),
        snn_energy_pj=float(snn),
        ann_energy_pj=float(ann),
        ratio_percent=float(ratio),
        rates=list(rates or []),
        meta={"ac_pj": AC_PICOJOULES, "mac_pj": MAC_PICOJOULES,
              "bias_ops": "excluded from both sides"},
    )


def spike_rate_stats(record: SpikeRecord) -> list[float]:
    """Share of neuron-steps that fired, per layer, over neurons, timesteps and
    samples. It comes from an exact spike count, rounded to float32 as the
    mean of float32 frames is, so the two agree while a layer's frames hold
    fewer than 2**24 spikes."""
    return [float(np.float32(np.float64(np.count_nonzero(s)) / s.size)) for s in record.spikes]


def write_energy_json(report: EnergyReport, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(report.as_dict(), f, indent=2, sort_keys=True)
