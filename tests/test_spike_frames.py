"""Spike frames are stored one byte per neuron-step, and every reader of a
frame gives the same result whatever the frame's dtype."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from spikefit.ann import Linear
from spikefit.calibrate import activation_align_loss
from spikefit.energy import count_ops, energy_report, spike_rate_stats, write_energy_json
from spikefit.snn import IfLayer, SnnNetwork, SpikeRecord, firing_rate, if_step, simulate
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
    s, out = if_step(layer, v, np.array([[0.5, 1.0, 2.5]], np.float32))
    assert s.dtype == np.bool_
    assert s.tolist() == [[False, True, True]]
    assert v.dtype == out.dtype == np.float32
    assert v.tolist() == [[0.5, 0.0, 1.5]]
    assert out.tolist() == [[0.0, 1.0, 1.0]]


def test_simulate_stores_one_byte_frames():
    net = _net([5, 6, 4, 3], timesteps=6, seed=7)
    rec = simulate(net, Rng(8).normal(0, 1, (3, 5)))
    for s, layer in zip(rec.spikes, net.if_layers()):
        assert s.dtype == np.uint8
        assert set(np.unique(s).tolist()) <= {0, 1}
        assert s.nbytes == 6 * 3 * layer.width
    assert rec.counts(0).dtype == np.int32


def test_simulate_peak_memory():
    # three 256-wide layers, batch 256, T=16: the frames alone are 3 MiB at
    # one byte per neuron-step and 12 MiB at four
    net = _net([8, 256, 256, 256, 4], timesteps=16, seed=3, scale=0.3)
    x = Rng(4).normal(0, 1, (256, 8))
    tracemalloc.start()
    try:
        rec = simulate(net, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert sum(s.nbytes for s in rec.spikes) == 3 * 16 * 256 * 256


def _readers(rec: SpikeRecord, net: SnnNetwork) -> dict:
    T = rec.timesteps
    windows = [(j, rho, d) for j in range(rec.n_layers)
               for rho in (1, T // 2, T) for d in ("rho", "T")]
    rates = [firing_rate(rec, j, rho, d) for j, rho, d in windows]
    # the float64 rate: the same frames against fixed analog activations
    acts = [Rng(23 + j).uniform(0, 1.5, rec.spikes[j].shape[1:]) for j in range(rec.n_layers)]
    align = [activation_align_loss(acts[j], rec.spikes[j], rec.thresholds[j], rho, T, d)
             for j, rho, d in windows]
    return {"firing_rate": rates,
            "activation_align_loss": align,
            "count_ops": count_ops(rec, net),
            "spike_rate_stats": spike_rate_stats(rec),
            "counts": [rec.counts(j) for j in range(rec.n_layers)]}


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.float32])
def test_readers_agree_across_frame_dtypes(dtype):
    net = _net([5, 7, 6, 3], timesteps=8, seed=21)
    rec = simulate(net, Rng(22).normal(0, 1.5, (4, 5)))
    want = _readers(rec, net)
    rec.spikes = [s.astype(dtype) for s in rec.spikes]
    got = _readers(rec, net)
    assert got["count_ops"] == want["count_ops"]
    assert got["spike_rate_stats"] == want["spike_rate_stats"]
    assert got["activation_align_loss"] == want["activation_align_loss"]
    for key in ("firing_rate", "counts"):
        for a, b in zip(got[key], want[key]):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_outputs_match_float32_frame_golden(tmp_path):
    # sha256 values written by the simulator when it stored float32 frames
    net = _net([5, 6, 4, 3], timesteps=6, seed=7)
    rec = simulate(net, Rng(8).normal(0, 1, (3, 5)))
    assert _sha(rec.output.tobytes()) == \
        "d3ddae7dfa131418408748c0bf08347550e77cc025906681ee05d23a8ccf15b3"
    assert _sha(b"".join(v.tobytes() for v in rec.v_end)) == \
        "e1ab2d5cba3753cf9de8295821ccd10b4f33fc0902afa6c8c43abf2553290eb1"
    path = tmp_path / "energy.json"
    write_energy_json(energy_report(count_ops(rec, net), rates=spike_rate_stats(rec)), str(path))
    assert _sha(path.read_bytes()) == \
        "9bd0ff9e0abb3994ab6ca99003a797b5bf690b49bb5ed0d41a5b21542100a0cf"


def test_wide_record_golden():
    # sha256 values written by the simulator before if_step advanced the
    # potentials in place; covers the deeper layers' bias add and the first
    # layer's current, which is reused at every step
    net = _net([8, 128, 128, 128, 4], timesteps=16, seed=5, scale=0.3)
    rec = simulate(net, Rng(6).normal(0, 1, (64, 8)),
                   record_currents=True, record_potentials=True)
    joined = {"spikes": rec.spikes, "output": [rec.output], "v_end": rec.v_end,
              "currents": rec.currents, "potentials": rec.potentials}
    got = {k: _sha(b"".join(a.tobytes() for a in arrs)) for k, arrs in joined.items()}
    assert got == {
        "spikes": "3461a1acd9ba937df3346ee701a3df0da21bc38d94e5bde8a5173b63704575d4",
        "output": "d7e860bff826aca4f0a71cdb4b33622023a225a0b874c2bfc022ede676e67bae",
        "v_end": "175240fa27b8975479a60370f7574d6350408dd1fff33d4bb38697bbcd433451",
        "currents": "fa82e1e5f0f1fe777b5a5ce8bb7835e351a5678096327e7b7009a34f6aeacb07",
        "potentials": "0cb49a93ee03c6c85311fba13ff9fadff18e8cbe08f092c6521a6f8935fd18c5",
    }
