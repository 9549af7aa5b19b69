"""A spike record stores per-layer spike counts and no frames; its frames
are recomputed from a snapshot of the run on first read, checked against
the counts, and equal the frames a plain IF loop fires. Every reader of a
record, reading the counts, gives the bits that the frames gave."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from records import record_from_frames

from spikefit.ann import ActivationTrace, Linear
from spikefit.calibrate import activation_align_loss
from spikefit.cli import _write_json
from spikefit.diagnostics import _LEAF, decompose_errors
from spikefit.energy import count_ops, energy_report, spike_rate_stats
from spikefit.snn import (IfLayer, SimulationError, SnnNetwork, SpikeRecord, _rate, if_step,
                          simulate)
from spikefit.tensor import Rng


def _net(widths, timesteps, seed, scale=0.8) -> SnnNetwork:
    """Linear/IF stack over `widths`, ending in a linear layer."""
    rng = Rng(seed)
    layers = []
    for i in range(len(widths) - 1):
        layers.append(Linear(rng.normal(0, scale, (widths[i], widths[i + 1])),
                             rng.normal(0, 0.1, (widths[i + 1],))))
        if i < len(widths) - 2:
            theta = rng.uniform(0.5, 1.5, (widths[i + 1],))
            layers.append(IfLayer(theta, theta / 2))
    return SnnNetwork(layers, timesteps=timesteps)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_if_step_returns_booleans():
    layer = IfLayer(np.ones(3, np.float32), np.zeros(3, np.float32))
    v = np.zeros((1, 3), np.float32)
    s, out = if_step(layer, v, np.array([[0.5, 1.0, 2.5]], np.float32),
                     np.empty((1, 3), np.bool_), 0)
    assert s.dtype == np.bool_
    assert s.tolist() == [[False, True, True]]
    assert v.dtype == out.dtype == np.float32
    assert v.tolist() == [[0.5, 0.0, 1.5]]
    assert out.tolist() == [[0.0, 1.0, 1.0]]


def test_if_step_returns_the_destination_it_was_given():
    layer = IfLayer(np.ones(3, np.float32), np.zeros(3, np.float32))
    frames = np.zeros((2, 1, 3), np.uint8)
    dest = frames[1].view(np.bool_)
    s, out = if_step(layer, np.zeros((1, 3), np.float32),
                     np.array([[0.5, 1.0, 2.5]], np.float32), dest, 1)
    assert s is dest
    assert frames.tolist() == [[[0, 0, 0]], [[0, 1, 1]]]
    assert not np.shares_memory(out, frames)


def test_simulate_keeps_counts_and_replays_byte_frames():
    net = _net([5, 6, 4, 3], timesteps=6, seed=7)
    rec = simulate(net, Rng(8).normal(0, 1, (3, 5)))
    assert {f.name for f in dataclasses.fields(rec)} == {
        "counts", "thresholds", "output", "timesteps", "replay", "currents", "potentials"}
    for s, c, layer in zip(rec.spikes, rec.counts, net.if_layers()):
        assert s.dtype == np.uint8 and s.shape == (6, 3, layer.width)
        assert set(np.unique(s).tolist()) <= {0, 1}
        assert c.dtype == np.uint8 and c.shape == (3, layer.width)


def test_simulate_peak_memory():
    # three 256-wide layers, batch 256, T=16: the frames alone would be
    # 0.375 MiB at one bit per neuron-step, 3 MiB at one byte and 12 MiB at
    # four; the record keeps the counts, the output and its copy of the drive
    net = _net([8, 256, 256, 256, 4], timesteps=16, seed=3, scale=0.3)
    x = Rng(4).normal(0, 1, (256, 8))
    tracemalloc.start()
    try:
        rec = simulate(net, x)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert peak < 2.75 * 2**20
    drive = x.size * np.dtype(np.float32).itemsize
    assert kept <= sum(c.nbytes for c in rec.counts) + rec.output.nbytes + drive + 64 * 2**10
    assert sum(s.nbytes for s in rec.spikes) == 3 * 16 * 256 * 256


def _plain_if_frames(net: SnnNetwork, x, timesteps: int) -> list[np.ndarray]:
    """Spike frames of a plain float32 IF loop, one (T, batch, width) uint8
    array per layer: reset by subtraction, a tie at threshold fires."""
    linears, ifs = net.linear_layers(), net.if_layers()
    x = np.asarray(x, dtype=np.float32)
    v = [np.repeat(l.v_init[None, :], len(x), axis=0) for l in ifs]
    frames = [np.zeros((timesteps, len(x), l.width), np.uint8) for l in ifs]
    first = x @ linears[0].w + linears[0].b
    for t in range(timesteps):
        carry = None
        for j, layer in enumerate(ifs):
            v[j] = v[j] + (first if j == 0 else carry @ linears[j].w + linears[j].b)
            fired = v[j] >= layer.threshold
            carry = fired * layer.threshold
            v[j] = v[j] - carry
            frames[j][t] = fired
    return frames


@pytest.mark.parametrize("width,timesteps", [(5, 6), (7, 6), (13, 6), (13, 300)])
def test_unpacked_frames_equal_a_plain_if_loop(width, timesteps):
    # the replayed frames, at widths that are not multiples of 8 and at
    # T = 300, which needs uint16 counts
    net = _net([5, width, width + 1, 3], timesteps=timesteps, seed=width)
    x = Rng(width + 1).normal(0, 2.0, (9, 5))
    rec = simulate(net, x)
    want = _plain_if_frames(net, x, timesteps)
    assert any(f.any() for f in want) and not all(f.all() for f in want)
    assert len(rec.spikes) == len(want)
    for got, ref in zip(rec.spikes, want):
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, ref)


def test_frames_ignore_calibration_after_the_run():
    # neuron-wise calibration writes thresholds and initial potentials in
    # place; the record replays the layers as they were when it was made
    net = _net([5, 7, 6, 3], timesteps=8, seed=21)
    x = Rng(22).normal(0, 1.5, (4, 5))
    want = simulate(net.clone(), x).spikes
    rec = simulate(net, x)
    thresholds = [t.copy() for t in rec.thresholds]
    for layer in net.if_layers():
        layer.threshold *= 1.7
        layer.v_init -= 0.4
    assert any(not np.array_equal(s, w)
               for s, w in zip(simulate(net.clone(), x).spikes, want))
    for got, ref in zip(rec.spikes, want):
        np.testing.assert_array_equal(got, ref)
    for got, ref in zip(rec.thresholds, thresholds):
        np.testing.assert_array_equal(got, ref)


def test_frames_refuse_weights_written_after_the_run():
    # converted weights are frozen; a replay over changed weights would give
    # other frames, so it fails the check against the counts
    net = _net([5, 7, 6, 3], timesteps=8, seed=21)
    rec = simulate(net, Rng(22).normal(0, 1.5, (4, 5)))
    net.linear_layers()[1].w *= 3.0
    with pytest.raises(SimulationError, match="layer 1"):
        rec.spikes


def _assert_counts_equal_frames(rec: SpikeRecord, frames=None) -> None:
    frames = rec.spikes if frames is None else frames
    assert len(rec.counts) == len(frames)
    for c, s in zip(rec.counts, frames):
        assert c.dtype == np.min_scalar_type(rec.timesteps)
        np.testing.assert_array_equal(c, s.sum(axis=0, dtype=np.int64))


@pytest.mark.parametrize("widths,timesteps,seed,batch", [
    ([5, 6, 4, 3], 6, 7, 3), ([5, 7, 6, 3], 8, 21, 4), ([8, 64, 48, 5], 12, 9, 32)])
def test_counts_equal_frames(widths, timesteps, seed, batch):
    rec = simulate(_net(widths, timesteps, seed), Rng(seed + 1).normal(0, 1.5, (batch, widths[0])))
    assert any(c.any() for c in rec.counts)
    _assert_counts_equal_frames(rec)


def test_counts_past_uint8_range():
    # T = 300: a neuron that fires more than 255 times would wrap a uint8 count
    net = _net([5, 6, 4, 3], timesteps=300, seed=7)
    rec = simulate(net, Rng(8).normal(0, 10, (3, 5)))
    assert rec.counts[0].dtype == np.uint16
    assert int(max(c.max() for c in rec.counts)) > 255
    _assert_counts_equal_frames(rec)


def _frame_readers(rec: SpikeRecord, net: SnnNetwork, acts, traces, frames=None) -> dict:
    """Each reader's result written as the frame-based expression that
    computed it before the record kept counts, over ``frames`` (the
    record's own by default): the reference."""
    T, frames = rec.timesteps, rec.spikes if frames is None else frames
    linears = net.linear_layers()
    fan_out = [linears[j + 1].w.shape[1] for j in range(len(frames))]
    rates, align, errors = [], [], []
    for j, (s, theta, trace) in enumerate(zip(frames, rec.thresholds, traces)):
        rates.append(theta * s.sum(axis=0, dtype=np.float32) / np.float32(T))
        theta64 = np.asarray(theta, dtype=np.float64)
        rate64 = theta64 * s.sum(axis=0, dtype=np.float64) / np.float64(T)
        align.append(float(np.mean((np.asarray(acts[j], dtype=np.float64) - rate64) ** 2)))
        pre, lam, lv = np.asarray(trace.pre, dtype=np.float64), trace.ceiling, trace.levels
        staircase = np.clip(np.floor(pre * lv / lam + 0.5) * lam / lv, 0.0, lam)
        in_range = (pre >= 0) & (pre <= lam)
        tau_theor = np.asarray(trace.post, dtype=np.float64) * np.float64(T) / np.float64(lam)
        tau_real = s.sum(axis=0, dtype=np.int32).astype(np.float64)
        errors.append({
            "layer": j,
            "quant": float(np.abs(pre - staircase)[in_range].mean()),
            "clip": float(np.maximum(pre - lam, 0.0).mean()),
            "temporal": float((np.abs(tau_real * theta64 - tau_theor * lam) / float(T)).mean()),
            "a_max": float(pre.max()),
            "tau_real_mean": float(tau_real.mean()),
            "tau_real_max": float(tau_real.max()),
            "tau_theor_mean": float(tau_theor.mean()),
            "tau_theor_max": float(tau_theor.max()),
        })
    ac = [int(np.count_nonzero(s)) * f for s, f in zip(frames, fan_out)]
    return {
        "n_samples": frames[0].shape[1],
        "output": (rates[-1] @ linears[-1].w + linears[-1].b).tobytes(),
        "rate": [r.tobytes() for r in rates],
        "activation_align_loss": align,
        "per_layer_ac": ac,
        "ac": sum(ac),
        "spike_rate_stats": [float(np.float32(np.float64(np.count_nonzero(s)) / s.size))
                             for s in frames],
        "decompose_errors": {"layers": errors},
    }


def _probes(rec: SpikeRecord):
    """Fixed analog activations and QCFS traces to score the record against."""
    n = rec.n_layers
    acts = [Rng(23 + j).uniform(0, 1.5, rec.counts[j].shape) for j in range(n)]
    traces = [ActivationTrace(str(j), pre=(acts[j] * 1.2 - 0.2).astype(np.float32),
                              ceiling=1.25, levels=4)
              for j in range(n)]
    return acts, traces


def _count_readers(rec: SpikeRecord, net: SnnNetwork, acts, traces) -> dict:
    """Each reader's result as the library computes it, from the counts."""
    n = rec.n_layers
    ops = count_ops(rec, net)
    return {
        "n_samples": rec.n_samples,
        "output": rec.output.tobytes(),
        "rate": [_rate(rec.thresholds[j], rec.counts[j], rec.timesteps).tobytes()
                 for j in range(n)],
        "activation_align_loss": [activation_align_loss(acts[j], rec.counts[j],
                                                        rec.thresholds[j], rec.timesteps, j)
                                  for j in range(n)],
        "per_layer_ac": ops.per_layer_ac,
        "ac": ops.ac,
        "spike_rate_stats": spike_rate_stats(rec),
        "decompose_errors": decompose_errors(traces, rec, net).as_dict(),
    }


@pytest.mark.parametrize("widths,timesteps,seed,batch", [
    ([5, 7, 6, 3], 8, 21, 4), ([8, 64, 48, 5], 12, 9, 32)])
def test_readers_match_frame_expressions(widths, timesteps, seed, batch):
    # every reader reads the record's counts; the reference rescans the frames
    net = _net(widths, timesteps, seed)
    rec = simulate(net, Rng(seed + 1).normal(0, 1.5, (batch, widths[0])))
    acts, traces = _probes(rec)
    assert _count_readers(rec, net, acts, traces) == _frame_readers(rec, net, acts, traces)


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.float32])
def test_readers_agree_across_frame_dtypes(dtype):
    # the frames recast to any dtype still sum to the counts, so the
    # frame-based reference over them gives the count readers' bits, and a
    # record built from the recast frames holds the same bits
    net = _net([5, 7, 6, 3], timesteps=8, seed=21)
    rec = simulate(net, Rng(22).normal(0, 1.5, (4, 5)))
    acts, traces = _probes(rec)
    want = _count_readers(rec, net, acts, traces)
    frames = [s.astype(dtype) for s in rec.spikes]
    _assert_counts_equal_frames(rec, frames)
    assert _frame_readers(rec, net, acts, traces, frames) == want
    rebuilt = record_from_frames(frames, rec.thresholds, rec.output, rec.timesteps)
    for a, b in zip(rebuilt.spikes, rec.spikes):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(rebuilt.counts, rec.counts):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert _count_readers(rebuilt, net, acts, traces) == want


def test_readers_depend_only_on_spike_counts():
    # every reader of a record scores the whole horizon, so the order of the
    # spike frames in time cannot matter: frames reversed in time have the
    # same counts and the same frame-based results
    net = _net([5, 7, 6, 3], timesteps=8, seed=21)
    rec = simulate(net, Rng(22).normal(0, 1.5, (4, 5)))
    acts, traces = _probes(rec)
    want = _count_readers(rec, net, acts, traces)
    frames = rec.spikes
    rec = record_from_frames([s[::-1] for s in frames], rec.thresholds, rec.output,
                             rec.timesteps)
    # the reversal must move spikes, or the check shows nothing
    assert any(not np.array_equal(s, f) for s, f in zip(rec.spikes, frames))
    _assert_counts_equal_frames(rec)
    assert _frame_readers(rec, net, acts, traces) == want


def test_decompose_errors_peak_memory():
    # a 512 x 512 layer, about half of it in range: the error split holds a
    # float64 leaf buffer of _LEAF values, a second that takes a leaf's
    # staircase output and then the temporal term's products, and a leaf's
    # worth of in-range values, thresholds and masks, whatever the layer's
    # size; 3.55 leaf buffers were measured, where one float64 (batch,
    # width) buffer at a time took 10.5 (1.31 arrays)
    batch = width = 512
    net = _net([8, width, 4], timesteps=8, seed=11)
    rec = simulate(net, Rng(12).normal(0, 1, (batch, 8)))
    pre = Rng(13).uniform(-0.5, 1.5, (batch, width)).astype(np.float32)
    trace = ActivationTrace("0", pre=pre, ceiling=1.0, levels=8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        decompose_errors([trace], rec, net)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 4 * _LEAF * 8


def test_outputs_match_float32_frame_golden(tmp_path):
    # sha256 values written by the simulator when it stored float32 frames
    net = _net([5, 6, 4, 3], timesteps=6, seed=7)
    rec = simulate(net, Rng(8).normal(0, 1, (3, 5)))
    assert _sha(rec.output.tobytes()) == \
        "d3ddae7dfa131418408748c0bf08347550e77cc025906681ee05d23a8ccf15b3"
    path = tmp_path / "energy.json"
    _write_json(str(path), energy_report(count_ops(rec, net), rates=spike_rate_stats(rec)))
    assert _sha(path.read_bytes()) == \
        "9bd0ff9e0abb3994ab6ca99003a797b5bf690b49bb5ed0d41a5b21542100a0cf"


def test_wide_record_golden():
    # sha256 values written by the simulator before if_step advanced the
    # potentials in place (the spike frames are now read replayed from the
    # run's snapshot); covers the deeper layers' bias add and the first
    # layer's current, which is reused at every step
    net = _net([8, 128, 128, 128, 4], timesteps=16, seed=5, scale=0.3)
    rec = simulate(net, Rng(6).normal(0, 1, (64, 8)),
                   record_currents=True, record_potentials=True)
    joined = {"spikes": rec.spikes, "output": [rec.output],
              "currents": rec.currents, "potentials": rec.potentials}
    _assert_counts_equal_frames(rec)
    got = {k: _sha(b"".join(a.tobytes() for a in arrs)) for k, arrs in joined.items()}
    assert got == {
        "spikes": "3461a1acd9ba937df3346ee701a3df0da21bc38d94e5bde8a5173b63704575d4",
        "output": "d7e860bff826aca4f0a71cdb4b33622023a225a0b874c2bfc022ede676e67bae",
        "currents": "fa82e1e5f0f1fe777b5a5ce8bb7835e351a5678096327e7b7009a34f6aeacb07",
        "potentials": "0cb49a93ee03c6c85311fba13ff9fadff18e8cbe08f092c6521a6f8935fd18c5",
    }
