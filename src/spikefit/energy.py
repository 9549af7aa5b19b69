"""Synaptic operation counting for the spiking path and the picojoule-level
comparison against the analog equivalent. ``energy_report`` returns the
content of the CLI's ``energy.json``, under the names that file uses.

Only layers driven by spikes are counted, on both sides: the first linear
layer consumes the analog input and is excluded, as are bias additions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .snn import SnnNetwork, SpikeRecord

AC_PICOJOULES = 0.9
MAC_PICOJOULES = 4.6


@dataclass
class OpCounts:
    ac: int
    mac: int
    per_layer_ac: list[int]


def count_ops(record: SpikeRecord, net: SnnNetwork) -> OpCounts:
    """Accumulate counts: every spike costs the firing neuron's fan-out in
    ACs; the analog side costs in*out MACs per sample, once per inference.

    Covers each linear layer whose input is spikes; the mismatch check
    compares the record's layer widths against the network's.
    """
    layers = net.if_layers()
    if record.n_layers != len(layers):
        raise ValueError(
            f"record has {record.n_layers} spiking layers but the network has {len(layers)}")
    for j, iflayer in enumerate(layers):
        if record.counts[j].shape[1] != iflayer.width:
            raise ValueError(
                f"layer {j}: record width {record.counts[j].shape[1]} != network width "
                f"{iflayer.width}")
    per_ac = [0] * len(layers)
    mac = 0
    # IF layer j feeds the linear after it; the last has none without a tail
    for j, consumer in enumerate(net.layers[2::2]):
        fan_out = consumer.w.shape[1]
        spikes_total = int(record.counts[j].sum(dtype=np.int64))
        per_ac[j] = spikes_total * fan_out
        mac += consumer.w.shape[0] * fan_out * record.n_samples
    return OpCounts(ac=int(sum(per_ac)), mac=mac, per_layer_ac=per_ac)


def energy_report(counts: OpCounts, rates: list[float]) -> dict:
    """Price the counts as ``energy.json`` states them: the spiking side at
    AC_PICOJOULES per AC, the analog side at MAC_PICOJOULES per MAC, and
    their percentage ratio. ``rates`` (each layer's share of neuron-steps
    that fired, from ``spike_rate_stats``) is carried into the report."""
    ac, mac = counts.ac, counts.mac
    if ac < 0 or mac < 0:
        raise ValueError("operation counts must be nonnegative")
    snn = AC_PICOJOULES * ac
    ann = MAC_PICOJOULES * mac
    return {
        "ac_count": int(ac),
        "mac_count": int(mac),
        "snn_pj": float(snn),
        "ann_pj": float(ann),
        "ratio_pct": float(100.0 * snn / ann if ann > 0 else 0.0),
        "rates": list(rates),
        "meta": {"ac_pj": AC_PICOJOULES, "mac_pj": MAC_PICOJOULES,
                 "bias_ops": "excluded from both sides"},
    }


def spike_rate_stats(record: SpikeRecord) -> list[float]:
    """Share of neuron-steps that fired, per layer, over neurons, timesteps and
    samples. It comes from the exact total of the layer's spike counts,
    rounded to float32 as the mean of float32 frames is, so the two agree
    while a layer fires fewer than 2**24 spikes."""
    return [float(np.float32(np.float64(c.sum(dtype=np.int64)) / (c.size * record.timesteps)))
            for c in record.counts]
