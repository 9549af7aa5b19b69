"""Conversion-error decomposition, spike-count statistics, alignment MSE,
and output-similarity reports, with CSV emitters for offline plotting.

The alignment MSE report does not score rates itself: it tabulates the
per-layer terms of the calibration loss ``L_al``, so ``layer_mse.csv`` and
the ``L_al`` a run reports come from one definition."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .ann import ActivationTrace, _qcfs_into
from .snn import SnnNetwork, SpikeRecord, _spike_count_into, theoretical_spike_count
from .tensor import Array

_BLOCK = 1 << 16  # elements per block of temporal_error's first product


def temporal_error(tau_real, theta, tau_theor, ceiling, timesteps: int):
    """Rate deviation from mistimed spikes: |tau_real*theta - tau_theor*ceiling| / T.

    Computed in float64 so the reference micro-cases hold to 1e-12, in one
    buffer of the result's shape.
    """
    args = np.broadcast_arrays(*(np.asarray(a) for a in (tau_real, theta, tau_theor, ceiling)))
    tau_real, theta, tau_theor, ceiling = (np.atleast_1d(a) for a in args)
    err = np.empty(tau_real.shape, dtype=np.float64)
    return _temporal_error_into(tau_real, theta, tau_theor, ceiling, timesteps,
                                err).reshape(args[0].shape)


def _temporal_error_into(tau_real, theta, tau_theor, ceiling, timesteps: int, out):
    """``temporal_error`` written into the float64 array ``out``, which may be
    ``tau_theor`` itself. The first product is formed a block of rows at a
    time, so a wide layer holds no array beyond its inputs and ``out``."""
    np.multiply(tau_theor, ceiling, out=out, dtype=np.float64)
    tau_real, theta = (np.broadcast_to(a, out.shape) for a in (tau_real, theta))
    step = max(1, _BLOCK // max(out[0].size, 1))
    for lo in range(0, len(out), step):
        rows = slice(lo, lo + step)
        np.subtract(np.multiply(tau_real[rows], theta[rows], dtype=np.float64), out[rows],
                    out=out[rows])
    np.abs(out, out=out)
    out /= float(timesteps)
    return out


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
    counts the staircase output would need. Each figure is taken in float64,
    and a layer holds at most one float64 (batch, width) buffer at a time:
    the quantization error is formed only over the in-range values, picked
    out of ``pre`` first, and the temporal term reuses the buffer of the
    theoretical counts.
    """
    if len(traces) != record.n_layers:
        raise ValueError(
            f"{len(traces)} activation traces vs {record.n_layers} spiking layers")
    rows: list[LayerErrors] = []
    T = record.timesteps
    for j, trace in enumerate(traces):
        if trace.ceiling is None:
            raise ValueError(f"trace {j} does not come from a staircase activation")
        if np.shape(trace.pre)[0] != record.n_samples:
            raise ValueError(f"mismatched sample counts: trace has {np.shape(trace.pre)[0]}, "
                             f"record has {record.n_samples}")
        # a float64 scalar, not a Python float: compared with a float32 array,
        # a Python float would be rounded to float32 first
        lam = np.float64(trace.ceiling)
        pre = np.asarray(trace.pre)
        a_max = pre.max()
        buf = np.subtract(pre, lam, dtype=np.float64, order="C")
        np.maximum(buf, 0.0, out=buf)
        clip = buf.mean()
        del buf
        in_range = pre >= 0
        in_range &= pre <= lam
        # in the order of a masked float64 copy, so the mean's bits hold;
        # np.extract picks them several times faster than pre[in_range]
        inside = np.extract(in_range, pre)
        del in_range
        q = 0.0
        if inside.size:
            dev = _qcfs_into(inside, lam, trace.levels, np.empty(inside.shape, np.float64))
            np.subtract(inside, dev, out=dev)
            np.abs(dev, out=dev)
            q = dev.mean()
            del dev
        del inside
        tau_theor = _spike_count_into(trace.post, lam, T,
                                      np.empty(np.shape(trace.post), np.float64))
        tau_theor_mean, tau_theor_max = tau_theor.mean(), tau_theor.max()
        tau_real = record.counts[j]
        temp = _temporal_error_into(tau_real, record.thresholds[j], tau_theor, lam, T,
                                    tau_theor).mean()
        del tau_theor
        rows.append(LayerErrors(
            layer=j,
            quant=float(q),
            clip=float(clip),
            temporal=float(temp),
            a_max=float(a_max),
            # counts are integers, so their float64 sum is exact in any order
            tau_real_mean=float(tau_real.mean(dtype=np.float64)),
            tau_real_max=float(tau_real.max()),
            tau_theor_mean=float(tau_theor_mean),
            tau_theor_max=float(tau_theor_max),
        ))
    return ErrorReport(rows)


@dataclass
class TauHistogram:
    edges: Array
    counts: list[Array]

    def total(self, layer: int) -> int:
        return int(self.counts[layer].sum())


def tau_histogram(acts: list[Array], ceilings: list[float], timesteps: int) -> TauHistogram:
    """Distribution of theoretical spike counts pooled per layer.

    Bins are unit-width starting at zero.
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
    return TauHistogram(edges, counts)


@dataclass
class LayerMse:
    layer: int
    mse_before: float
    mse_after: float
    reduction_pct: float


def layer_mse_report(before: list[float], after: list[float]) -> list[LayerMse]:
    """Rows of each IF layer's alignment MSE before and after calibration,
    with the percentage reduction. The MSEs are the layers' ``L_al`` terms
    (``calibrate._align_terms``), so each column, summed in layer order, is
    that network's ``L_al`` on the batch."""
    if len(before) != len(after):
        raise ValueError(f"layer count mismatch: {len(before)} before, {len(after)} after")
    rows = []
    for j, (b, a) in enumerate(zip(before, after)):
        reduction = 100.0 * (1.0 - a / b) if b > 0 else 0.0
        rows.append(LayerMse(j, b, a, reduction))
    return rows


def output_cosine(ann_out: Array, snn_out: Array) -> float:
    """Cosine similarity of the flattened outputs."""
    a = np.asarray(ann_out, dtype=np.float64).ravel()
    b = np.asarray(snn_out, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"output shape mismatch: {a.shape} vs {b.shape}")
    # numpy's own reductions, not BLAS, so the bits do not depend on the
    # BLAS thread count
    na, nb = np.sqrt(np.sum(a * a)), np.sqrt(np.sum(b * b))
    if na == 0 or nb == 0:
        raise ValueError("cosine similarity is undefined for a zero-norm output")
    return float(np.sum(a * b) / (na * nb))


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

def _write_csv(path: str, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_error_csv(report: ErrorReport, path: str) -> None:
    _write_csv(path, ["layer", "quant", "clip", "temporal"],
               ([row.layer, row.quant, row.clip, row.temporal] for row in report.layers))


def write_tau_csv(hist: TauHistogram, path: str) -> None:
    _write_csv(path, ["layer", "bin", "count"],
               ([layer, float(edge), int(count)]
                for layer, counts in enumerate(hist.counts)
                for edge, count in zip(hist.edges[:-1], counts)))


def write_mse_csv(rows: list[LayerMse], path: str) -> None:
    _write_csv(path, ["layer", "mse_before", "mse_after", "reduction_pct"],
               ([row.layer, row.mse_before, row.mse_after, row.reduction_pct] for row in rows))


def write_threshold_shift_csv(shift: ThresholdShift, path: str) -> None:
    def rows():
        for layer, (ratio, v0) in enumerate(zip(shift.ratios, shift.v_inits)):
            for metric, values in (("theta_ratio", ratio), ("v_init", v0)):
                counts, edges = np.histogram(values, bins=20)
                for k, count in enumerate(counts):
                    yield [layer, metric, float(edges[k]), float(edges[k + 1]), int(count)]
    _write_csv(path, ["layer", "metric", "bin_lo", "bin_hi", "count"], rows())
