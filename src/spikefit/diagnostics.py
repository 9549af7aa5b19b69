"""Conversion-error decomposition, spike-count statistics, alignment MSE,
and output-similarity reports, with CSV emitters for offline plotting."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .ann import ActivationTrace, qcfs_forward
from .snn import SnnNetwork, SpikeRecord, theoretical_spike_count
from .tensor import Array


def temporal_error(tau_real, theta, tau_theor, ceiling, timesteps: int):
    """Rate deviation from mistimed spikes: |tau_real*theta - tau_theor*ceiling| / T.

    Computed in float64 so the reference micro-cases hold to 1e-12.
    """
    tau_real = np.asarray(tau_real, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    tau_theor = np.asarray(tau_theor, dtype=np.float64)
    ceiling = np.asarray(ceiling, dtype=np.float64)
    return np.abs(tau_real * theta - tau_theor * ceiling) / float(timesteps)


@dataclass
class LayerErrors:
    layer: int
    quant: float
    clip: float
    temporal: float
    a_max: float
    tau_real_mean: float
    tau_real_max: float
    tau_theor_mean: float
    tau_theor_max: float


@dataclass
class ErrorReport:
    layers: list[LayerErrors]

    def as_dict(self) -> dict:
        return {"layers": [vars(l).copy() for l in self.layers]}


def decompose_errors(traces: list[ActivationTrace], record: SpikeRecord,
                     net: SnnNetwork | None = None) -> ErrorReport:
    """Split the analog/spiking discrepancy into quantization, clipping, and
    temporal components, one row per activation layer.

    Quantization and clipping are measured on the values entering each
    staircase; the temporal term compares actual spike counts against the
    counts the staircase output would need.
    """
    if len(traces) != record.n_layers:
        raise ValueError(
            f"{len(traces)} activation traces vs {record.n_layers} spiking layers")
    rows: list[LayerErrors] = []
    T = record.timesteps
    for j, trace in enumerate(traces):
        if trace.ceiling is None:
            raise ValueError(f"trace {j} does not come from a staircase activation")
        pre = np.asarray(trace.pre, dtype=np.float64)
        post = np.asarray(trace.post, dtype=np.float64)
        if pre.shape[0] != record.n_samples:
            raise ValueError(
                f"mismatched sample counts: trace has {pre.shape[0]}, record has {record.n_samples}")
        lam = float(trace.ceiling)
        in_range = (pre >= 0) & (pre <= lam)
        if in_range.any():
            q = np.abs(pre - qcfs_forward(pre, lam, trace.levels))[in_range].mean()
        else:
            q = 0.0
        clip = np.maximum(pre - lam, 0.0).mean()
        tau_theor = theoretical_spike_count(post, lam, T)
        tau_real = record.counts(j).astype(np.float64)
        theta = record.thresholds[j].astype(np.float64)
        temp = temporal_error(tau_real, theta, tau_theor, lam, T).mean()
        rows.append(LayerErrors(
            layer=j,
            quant=float(q),
            clip=float(clip),
            temporal=float(temp),
            a_max=float(pre.max()),
            tau_real_mean=float(tau_real.mean()),
            tau_real_max=float(tau_real.max()),
            tau_theor_mean=float(tau_theor.mean()),
            tau_theor_max=float(tau_theor.max()),
        ))
    return ErrorReport(rows)


@dataclass
class TauHistogram:
    edges: Array
    counts: list[Array]
    frac_le_half: list[float]
    timesteps: int

    def total(self, layer: int) -> int:
        return int(self.counts[layer].sum())


def tau_histogram(acts: list[Array], ceilings: list[float], timesteps: int) -> TauHistogram:
    """Distribution of theoretical spike counts pooled per layer.

    Bins are unit-width starting at zero; also reports the fraction of counts
    at or below half the horizon.
    """
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    if len(acts) != len(ceilings):
        raise ValueError(f"{len(acts)} activation arrays vs {len(ceilings)} ceilings")
    taus = []
    for a, lam in zip(acts, ceilings):
        if lam <= 0:
            raise ValueError(f"activation ceiling must be positive, got {lam}")
        taus.append(theoretical_spike_count(np.asarray(a, dtype=np.float64), lam, timesteps))
    hi = max(float(timesteps), max(float(np.ceil(t.max())) for t in taus)) if taus else float(timesteps)
    edges = np.arange(0.0, hi + 2.0)
    counts = [np.histogram(t, bins=edges)[0] for t in taus]
    frac = [float((t <= timesteps / 2).mean()) for t in taus]
    return TauHistogram(edges, counts, frac, timesteps)


@dataclass
class LayerMse:
    layer: int
    mse_before: float
    mse_after: float
    reduction_pct: float


def layer_mse_report(acts: list[Array], rates_before: list[Array],
                     rates_after: list[Array]) -> list[LayerMse]:
    """Per-layer MSE between analog activations and spike rates, before and
    after calibration, with the percentage reduction."""
    if not len(acts) == len(rates_before) == len(rates_after):
        raise ValueError(
            f"layer count mismatch: {len(acts)} activations, "
            f"{len(rates_before)} before, {len(rates_after)} after")
    rows = []
    for j, (a, rb, ra) in enumerate(zip(acts, rates_before, rates_after)):
        a = np.asarray(a, dtype=np.float64)
        before = float(np.mean((a - np.asarray(rb, dtype=np.float64)) ** 2))
        after = float(np.mean((a - np.asarray(ra, dtype=np.float64)) ** 2))
        reduction = 100.0 * (1.0 - after / before) if before > 0 else 0.0
        rows.append(LayerMse(j, before, after, reduction))
    return rows


def output_cosine(ann_out: Array, snn_out: Array) -> float:
    """Cosine similarity of the flattened outputs."""
    a = np.asarray(ann_out, dtype=np.float64).ravel()
    b = np.asarray(snn_out, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"output shape mismatch: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("cosine similarity is undefined for a zero-norm output")
    return float(a @ b / (na * nb))


@dataclass
class ThresholdShift:
    ratios: list[Array]   # theta_after / theta_before, per layer
    v_inits: list[Array]  # calibrated initial potentials, per layer


def threshold_shift_report(before: SnnNetwork, after: SnnNetwork) -> ThresholdShift:
    b_layers, a_layers = before.if_layers(), after.if_layers()
    if len(b_layers) != len(a_layers) or any(
            x.width != y.width for x, y in zip(b_layers, a_layers)):
        raise ValueError("networks have different architectures")
    ratios = [(a.threshold / b.threshold).astype(np.float64)
              for a, b in zip(a_layers, b_layers)]
    v_inits = [a.v_init.astype(np.float64) for a in a_layers]
    return ThresholdShift(ratios, v_inits)


# -- CSV emitters ---------------------------------------------------------------

def write_error_csv(report: ErrorReport, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["layer", "quant", "clip", "temporal"])
        for row in report.layers:
            w.writerow([row.layer, row.quant, row.clip, row.temporal])


def write_tau_csv(hist: TauHistogram, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["layer", "bin", "count"])
        for layer, counts in enumerate(hist.counts):
            for edge, count in zip(hist.edges[:-1], counts):
                w.writerow([layer, float(edge), int(count)])


def write_mse_csv(rows: list[LayerMse], path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["layer", "mse_before", "mse_after", "reduction_pct"])
        for row in rows:
            w.writerow([row.layer, row.mse_before, row.mse_after, row.reduction_pct])


def write_threshold_shift_csv(shift: ThresholdShift, path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["layer", "metric", "bin_lo", "bin_hi", "count"])
        for layer, (ratio, v0) in enumerate(zip(shift.ratios, shift.v_inits)):
            for metric, values in (("theta_ratio", ratio), ("v_init", v0)):
                counts, edges = np.histogram(values, bins=20)
                for k, count in enumerate(counts):
                    w.writerow([layer, metric, float(edges[k]), float(edges[k + 1]), int(count)])
