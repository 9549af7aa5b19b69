"""The fused neuron-wise calibration step against a tape reference.

The reference records the unrolled IF chain on the autodiff tape twice: once
with the carries between layers detached, for the alignment loss, and once
over the full chain, for the logits loss. Its gradients are what the fused
forward pass and reverse sweep must reproduce.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from spikefit import autodiff as ad
from spikefit import snn
from spikefit.ann import AnnModel, Embedding, Linear, mlp, replace_activations
from spikefit.calibrate import CalibConfig, _calib_batch, _nwc_bptt, convert, lwc
from spikefit.snn import IfLayer, SnnNetwork, _split_stack
from spikefit.tensor import Rng

TOL = 1e-6  # of the largest gradient entry


def _tape_unroll(snn, theta_vars, v0_vars, drive, cfg, detach_carry):
    """Unroll rho steps on the tape and return the per-layer rate Vars."""
    pairs, tail = _split_stack(snn)
    batch = drive.shape[0]
    denom = float(cfg.rho)
    first_current = drive @ pairs[0][0].w + pairs[0][0].b

    vs = [ad.add(v0_vars[j], np.zeros((batch, p[1].width), dtype=np.float32))
          for j, p in enumerate(pairs)]
    sums = [None] * len(pairs)
    for _ in range(cfg.rho):
        carry = None
        for j, (linear, _) in enumerate(pairs):
            if j == 0:
                cur = first_current
            elif isinstance(carry, ad.Var):
                cur = ad.add(ad.matmul(carry, linear.w), linear.b)
            else:
                cur = carry @ linear.w + linear.b
            v = ad.add(vs[j], cur)
            s = ad.spike(v, theta_vars[j])
            vs[j] = ad.sub(v, ad.mul(s, theta_vars[j]))
            sums[j] = s if sums[j] is None else ad.add(sums[j], s)
            carry = ad.mul(s, theta_vars[j])
            if detach_carry:
                carry = carry.value
    rates = [ad.mul(ad.mul(sums[j], theta_vars[j]), 1.0 / denom) for j in range(len(pairs))]
    return rates, tail


def tape_nwc_step(snn, drive, teacher_acts, teacher_logits, cfg):
    """Reference losses and gradients from two tapes (detached-carry
    alignment, full-chain logits), summed."""
    n_layers = len(snn.if_layers())
    params = {}
    for j, layer in enumerate(snn.if_layers()):
        params[f"if{j}.threshold"] = layer.threshold
        params[f"if{j}.v_init"] = layer.v_init
    grads = {k: np.zeros_like(v) for k, v in params.items()}

    def leaves(tape):
        return ([tape.leaf(params[f"if{j}.threshold"]) for j in range(n_layers)],
                [tape.leaf(params[f"if{j}.v_init"]) for j in range(n_layers)])

    def accumulate(tape, loss, thetas, v0s):
        gmap = ad.backward(tape, loss)
        for j in range(n_layers):
            grads[f"if{j}.threshold"] += gmap.wrt(thetas[j])
            grads[f"if{j}.v_init"] += gmap.wrt(v0s[j])

    tape = ad.Tape()
    thetas, v0s = leaves(tape)
    rates, _ = _tape_unroll(snn, thetas, v0s, drive, cfg, detach_carry=True)
    align = ad.mse(rates[0], teacher_acts[0])
    for j in range(1, n_layers):
        align = ad.add(align, ad.mse(rates[j], teacher_acts[j]))
    accumulate(tape, align, thetas, v0s)

    tape2 = ad.Tape()
    thetas2, v0s2 = leaves(tape2)
    rates2, tail = _tape_unroll(snn, thetas2, v0s2, drive, cfg, detach_carry=False)
    out = rates2[-1] if tail is None else ad.add(ad.matmul(rates2[-1], tail.w), tail.b)
    kd = ad.kd_cross_entropy(teacher_logits, out)
    accumulate(tape2, kd, thetas2, v0s2)

    l_align, l_kd = float(align.value), float(kd.value)
    return {"L_al": l_align, "L_logits": l_kd, "L_all": l_align + l_kd}, grads


def _setup(seed, dims=(6, 16, 12, 4), levels=8, timesteps=8, embed=False, if_tail=False):
    rng = Rng(seed)
    model = mlp(list(dims), rng.split("model"))
    if if_tail:  # drop the trailing linear: the net ends in an IF layer
        model = AnnModel(model.layers[:-1])
    if embed:
        table = rng.split("embed").normal(0, 1, (5, dims[0] // 2))
        model = AnnModel([Embedding(table)] + model.layers)
        x = rng.split("data").integers(0, 5, (48, 2))
    else:
        x = rng.split("data").normal(0, 1, (48, dims[0]))
    model = replace_activations(model, levels, x)
    # uneven per-neuron thresholds and potentials so every surrogate branch is hit
    net = lwc(convert(model, timesteps), 0.7, 0.2)
    for j, layer in enumerate(net.if_layers()):
        jitter = rng.split(f"jitter{j}").uniform(0.6, 1.4, (layer.width,))
        layer.threshold = (layer.threshold * jitter).astype(np.float32)
        layer.v_init = (layer.v_init * jitter[::-1]).astype(np.float32)
    return net, model, x


def _compare(net, model, x, cfg):
    batch = _calib_batch(net, model, x)
    losses, grads = _nwc_bptt(*_split_stack(net), *batch, cfg.rho)
    want_losses, want = tape_nwc_step(net, *batch, cfg)
    scale = max(float(np.abs(g).max()) for g in want.values())
    assert scale > 0
    for key in want:
        assert grads[key].dtype == np.float32
        np.testing.assert_allclose(grads[key], want[key], rtol=0, atol=TOL * scale,
                                   err_msg=key)
    for key in want_losses:
        assert losses[key] == pytest.approx(want_losses[key], rel=1e-6, abs=1e-7), key


class TestMatchesTape:
    @pytest.mark.parametrize("timesteps", [1, 2, 8])
    def test_horizons(self, timesteps):
        net, model, x = _setup(timesteps, timesteps=timesteps, levels=timesteps)
        _compare(net, model, x, CalibConfig(timesteps=timesteps))

    def test_short_window(self):
        net, model, x = _setup(11)
        _compare(net, model, x, CalibConfig(timesteps=8, rho=5))

    def test_net_ending_in_if_layer(self):
        net, model, x = _setup(14, dims=(6, 10, 8, 5), if_tail=True)
        assert isinstance(net.layers[-1], IfLayer)
        _compare(net, model, x, CalibConfig(timesteps=8))

    def test_embedding_encoder(self):
        net, model, x = _setup(15, dims=(6, 12, 3), embed=True)
        assert net.input_encoder is not None
        _compare(net, model, x, CalibConfig(timesteps=4))

    def test_single_layer(self):
        net, model, x = _setup(16, dims=(6, 9, 3))
        _compare(net, model, x, CalibConfig(timesteps=8))


def test_no_tape_recorded(monkeypatch):
    """The fused step records nothing on the autodiff tape."""
    net, model, x = _setup(17)

    def refuse(*args, **kwargs):
        raise AssertionError("tape used")

    monkeypatch.setattr(ad, "record_op", refuse)
    monkeypatch.setattr(ad.Tape, "_record", refuse)
    _nwc_bptt(*_split_stack(net), *_calib_batch(net, model, x), 8)


@pytest.mark.parametrize("dims,rho", [((6, 16, 12, 4), 8), ((6, 9, 3), 5)])
def test_forward_runs_simulate_recurrence(monkeypatch, dims, rho):
    """The forward pass advances the potentials through snn.if_step, once
    per unrolled step and IF layer, as simulate does, on the network's own
    IF layers."""
    net, model, x = _setup(18, dims=dims)
    pairs, tail = _split_stack(net)
    calls = []
    real = snn.if_step

    def counting(layer, *args, **kwargs):
        calls.append(layer)
        return real(layer, *args, **kwargs)

    monkeypatch.setattr(snn, "if_step", counting)
    _nwc_bptt(pairs, tail, *_calib_batch(net, model, x), rho)
    want = [layer for _ in range(rho) for _, layer in pairs]
    assert len(calls) == len(want) and all(a is b for a, b in zip(calls, want))


def test_tail_of_the_wrong_fan_in_names_its_layer():
    """The forward pass decodes with the analog path's linear step, so a
    trailing linear of the wrong fan-in names its layer, as the network's
    constructor does, which refuses to build such a stack."""
    net, model, x = _setup(20)
    batch = _calib_batch(net, model, x)
    pairs, tail = _split_stack(net)
    bad = Linear(np.zeros((tail.w.shape[0] + 1, tail.w.shape[1]), np.float32), tail.b)
    with pytest.raises(ValueError, match=r"layer 4 \(linear\)"):
        SnnNetwork(net.layers[:-1] + (bad,), net.timesteps)
    with pytest.raises(ValueError, match=r"layer 4 \(linear\)"):
        _nwc_bptt(pairs, bad, *batch, 8)


def test_saved_spike_masks_are_distinct_memory(monkeypatch):
    """Each step writes its spikes into memory of its own: a mask that a
    later step overwrote would feed the reverse sweep the wrong spikes."""
    net, model, x = _setup(18, dims=(6, 16, 12, 4))
    dests = []
    real = snn.if_step

    def recording(layer, v, current, spikes, *args, **kwargs):
        dests.append(spikes)
        return real(layer, v, current, spikes, *args, **kwargs)

    monkeypatch.setattr(snn, "if_step", recording)
    _nwc_bptt(*_split_stack(net), *_calib_batch(net, model, x), 8)
    assert len(dests) == 8 * len(net.if_layers())
    for i, a in enumerate(dests):
        assert a.dtype == np.bool_
        for b in dests[i + 1:]:
            assert not np.shares_memory(a, b)


def test_saved_state_bytes_per_neuron_step():
    """What the forward pass keeps for the reverse sweep grows by two bytes
    per neuron-step (a boolean spike and a boolean surrogate window), not by
    the eight of a float32 spike frame and a float32 surrogate factor."""
    batch, width = 64, 256
    rng = Rng(19)
    x = rng.split("data").normal(0, 1, (batch, 8))
    model = replace_activations(mlp([8, width, width, 4], rng.split("model")), 8, x)
    net = convert(model, 16)
    pairs, tail = _split_stack(net)
    calib_batch = _calib_batch(net, model, x)

    def peak(rho):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _nwc_bptt(pairs, tail, *calib_batch, rho)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    added_neuron_steps = (16 - 8) * batch * 2 * width
    assert (peak(16) - peak(8)) / added_neuron_steps <= 2.5


def test_peak_beyond_saved_state():
    """Beyond the spikes and windows it saves, a step holds about ten
    (batch, width) float32 arrays per layer at its peak: the reverse sweep's
    g_sum, acc and g_u, two lanes each, and one layer's temporaries. The
    forward-only arrays (potentials, sums, rates, diffs, seeds) are dropped
    before that sweep; kept alive, they took the peak to nearly twenty."""
    batch, width, rho = 64, 256, 16
    rng = Rng(19)
    x = rng.split("data").normal(0, 1, (batch, 8))
    model = replace_activations(mlp([8, width, width, 4], rng.split("model")), 8, x)
    net = convert(model, 16)
    pairs, tail = _split_stack(net)
    calib_batch = _calib_batch(net, model, x)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _nwc_bptt(pairs, tail, *calib_batch, rho)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    saved = 2 * rho * batch * width * len(pairs)
    per_layer_array = 4 * batch * width * len(pairs)
    assert (peak - saved) / per_layer_array <= 12


# (name, _setup arguments, CalibConfig arguments, drive scale): the
# TestMatchesTape setups, plus a drive strong enough that potentials pass 2θ
GOLDEN_CASES = [
    ("T1", dict(seed=1, timesteps=1, levels=1), dict(timesteps=1), 1),
    ("T2", dict(seed=2, timesteps=2, levels=2), dict(timesteps=2), 1),
    ("T8", dict(seed=8, timesteps=8, levels=8), dict(timesteps=8), 1),
    ("rho5", dict(seed=11), dict(timesteps=8, rho=5), 1),
    ("if_tail", dict(seed=14, dims=(6, 10, 8, 5), if_tail=True), dict(timesteps=8), 1),
    ("embed", dict(seed=15, dims=(6, 12, 3), embed=True), dict(timesteps=4), 1),
    ("one_layer", dict(seed=16, dims=(6, 9, 3)), dict(timesteps=8), 1),
    ("drive30", dict(seed=17), dict(timesteps=8), 30),
]

# sha256 over the losses and gradients of one step, recorded from the
# hand-written forward loop that preceded the shared IF recurrence; rho5
# re-recorded when the window's rates became simulate's, counts divided by
# rho rather than float32 sums times 1 / rho, which is inexact at rho = 5,
# and again when the reverse sweep began dividing the rate adjoint by rho too
NWC_GOLDEN = {
    "T1": "9d62fdac9a224bba530dc0bca31786c55d8a7a5ccc4d6c35ba8ff327b3160d05",
    "T2": "bcc64cc850b7b944e218e9a1d2c621e6df4026a3e6fce17d5e6727a2ff6769b0",
    "T8": "cfaf3fe61f9226c000e8a61de9626dff39e2f5410d525c7b112b3faeb34f47a7",
    "rho5": "88e5fbdd5387b8174fb7d358c84fc5f5b5cfc9944403b1d9edd050518ba304f0",
    "if_tail": "b1c6f6e7ae74c1cb78a34e11e78185d72a764007b484b5cf38d2c8ab5616a116",
    "embed": "f674eb8b4ef6cb9fa1b0393634b2441a8047b4f16c840343a1ec3889e1ad26ec",
    "one_layer": "12deda630ed106add460e473bd535f52b456bb648c401ed17a9ebc7f2010b181",
    "drive30": "8617e7d479449319604b17241f28944b8f8f5d8cc3efe88510b98ea50df850cb",
}


def _nwc_digest(setup, cfg_kwargs, scale):
    net, model, x = _setup(setup.pop("seed"), **setup)
    drive, acts, logits = _calib_batch(net, model, x)
    losses, grads = _nwc_bptt(*_split_stack(net), drive * np.float32(scale), acts, logits,
                              CalibConfig(**cfg_kwargs).rho)
    h = hashlib.sha256()
    for key in sorted(losses):
        h.update(key.encode() + np.float64(losses[key]).tobytes())
    for key in sorted(grads):
        h.update(key.encode() + grads[key].dtype.str.encode() + grads[key].tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,setup,cfg_kwargs,scale", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_bit_identical_to_golden(name, setup, cfg_kwargs, scale):
    assert _nwc_digest(dict(setup), cfg_kwargs, scale) == NWC_GOLDEN[name]
