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

_LEAF = 1 << 15  # values per leaf of decompose_errors' pairwise sums


def _temporal_error_into(tau_real, theta, tau_theor, ceiling, timesteps: int, out, spare=None):
    """Rate deviation from mistimed spikes, |tau_real*theta - tau_theor*ceiling| / T,
    written into the float64 array ``out``, which may be ``tau_theor`` itself;
    tau_real*theta is formed in the float64 array ``spare``, or a new one."""
    np.multiply(tau_theor, ceiling, out=out, dtype=np.float64)
    np.subtract(np.multiply(tau_real, theta, out=spare, dtype=np.float64), out, out=out)
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
    counts the staircase output would need, formed from ``pre`` with the
    bits of ``trace.post``. Each figure is taken in float64 and has the bits
    of the mean over a float64 array of all its values, but no such array
    is formed: ``_pairwise_sums`` adds the values up one leaf of at most
    ``_LEAF`` values at a time, in numpy's order. One pass over the leaves
    gives the clipping sum, the theoretical counts' sum and maximum and the
    temporal sum, from two leaf buffers; and the quantization error is
    formed over the in-range values only, picked out of ``pre`` one chunk
    of ``_LEAF`` values at a time, in row-major order.
    """
    if len(traces) != record.n_layers:
        raise ValueError(
            f"{len(traces)} activation traces vs {record.n_layers} spiking layers")
    buf = np.empty(_LEAF, dtype=np.float64)
    rows: list[LayerErrors] = []
    for j, trace in enumerate(traces):
        if trace.ceiling is None:
            raise ValueError(f"trace {j} does not come from a staircase activation")
        if np.shape(trace.pre)[0] != record.n_samples:
            raise ValueError(f"mismatched sample counts: trace has {np.shape(trace.pre)[0]}, "
                             f"record has {record.n_samples}")
        if np.shape(trace.pre) != record.counts[j].shape:
            raise ValueError(f"layer {j}: trace pre has shape {np.shape(trace.pre)}, "
                             f"the record's counts {record.counts[j].shape}")
        rows.append(_layer_errors(j, trace, record, buf))
    return ErrorReport(rows)


def _layer_errors(j: int, trace: ActivationTrace, record: SpikeRecord, buf) -> LayerErrors:
    """``decompose_errors``' row for layer j, with ``buf`` as its float64
    leaf buffer."""
    T = record.timesteps
    # a float64 scalar, not a Python float: compared with a float32 array,
    # a Python float would be rounded to float32 first
    lam = np.float64(trace.ceiling)
    pre = np.ravel(trace.pre)
    a_max, n = pre.max(), pre.size

    n_inside = sum(np.count_nonzero(_in_range(c, lam)) for c in _chunks(pre))
    # the in-range values in row-major order; np.compress picks them several
    # times faster than boolean indexing
    inside = (np.compress(_in_range(c, lam), c) for c in _chunks(pre))
    pending = pre[:0]

    def quant_leaf(lo, hi):
        nonlocal pending
        parts, have = [pending], pending.size
        while have < hi - lo:
            parts.append(next(inside))
            have += parts[-1].size
        vals = np.concatenate(parts)
        vals, pending = vals[:hi - lo], vals[hi - lo:]
        dev = _qcfs_into(vals, lam, trace.levels, buf[:hi - lo])
        np.subtract(vals, dev, out=dev)
        return (np.add.reduce(np.abs(dev, out=dev)),)

    (quant_sum,) = _pairwise_sums(quant_leaf, 0, n_inside) if n_inside else (0.0,)

    tau_real = record.counts[j]
    counts, width = np.ravel(tau_real), np.shape(trace.pre)[-1]
    post_dt = pre.dtype if pre.dtype.kind == "f" else np.dtype(np.float64)  # trace.post's
    spare = np.empty(_LEAF, np.float64)  # a leaf of post, then of the temporal products
    # the threshold of every flat index lo..hi is theta_run[lo % width:][:hi - lo]
    theta_run = np.tile(record.thresholds[j], _LEAF // width + 2)
    tau_maxima = []

    def clip_tau_leaf(lo, hi):
        out = np.subtract(pre[lo:hi], lam, out=buf[:hi - lo], dtype=np.float64)
        clip = np.add.reduce(np.maximum(out, 0.0, out=out))
        post = _qcfs_into(pre[lo:hi], trace.ceiling, trace.levels,
                          spare.view(post_dt)[:hi - lo])
        tau = _spike_count_into(post, lam, T, out)
        tau_maxima.append(tau.max())
        tau_sum = np.add.reduce(tau)
        theta = theta_run[lo % width:][:hi - lo]
        temp = np.add.reduce(_temporal_error_into(counts[lo:hi], theta, tau, lam, T, tau,
                                                  spare[:hi - lo]))
        return clip, tau_sum, temp

    clip_sum, tau_theor_sum, temp_sum = _pairwise_sums(clip_tau_leaf, 0, n)
    return LayerErrors(
        layer=j,
        quant=float(quant_sum / n_inside) if n_inside else 0.0,
        clip=float(clip_sum / n),
        temporal=float(temp_sum / n),
        a_max=float(a_max),
        # counts are integers, so their float64 sum is exact in any order
        tau_real_mean=float(tau_real.mean(dtype=np.float64)),
        tau_real_max=float(tau_real.max()),
        tau_theor_mean=float(tau_theor_sum / n),
        tau_theor_max=float(np.max(tau_maxima)),
    )


def _pairwise_sums(leaf_sums, lo: int, hi: int) -> tuple:
    """Float64 sums over the values lo..hi, with the bits ``np.add.reduce``
    gives over a contiguous float64 array of them: the sums that ``mean``
    divides by n. numpy sums such an array pairwise, splitting n values
    at ``n // 2`` rounded down to a multiple of 8; this splits the same way
    down to leaves of at most ``_LEAF`` values, and adds the leaf sums back
    up the same tree. ``leaf_sums(lo, hi)`` returns a tuple of
    ``np.add.reduce`` results, one per sum, over the leaf's values; it is
    called once per leaf, in order of ``lo``, so only one leaf need be held
    at a time."""
    n = hi - lo
    if n <= _LEAF:
        return leaf_sums(lo, hi)
    half = n // 2
    half -= half % 8
    left = _pairwise_sums(leaf_sums, lo, lo + half)
    right = _pairwise_sums(leaf_sums, lo + half, hi)
    return tuple(a + b for a, b in zip(left, right))


def _chunks(flat):
    """The 1-D array ``flat`` in views of ``_LEAF`` values."""
    return (flat[lo:lo + _LEAF] for lo in range(0, flat.size, _LEAF))


def _in_range(values, lam):
    """Where 0 <= values <= lam: the staircase's unclipped inputs."""
    keep = values >= 0
    keep &= values <= lam
    return keep


@dataclass
class TauHistogram:
    edges: Array
    counts: list[Array]


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
