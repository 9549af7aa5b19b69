"""The fused neuron-wise calibration step against a tape reference.

The reference records the unrolled IF chain on the autodiff tape twice: once
with the carries between layers detached, for the alignment loss, and once
over the full chain, for the logits loss. Its gradients are what the fused
forward pass and reverse sweep must reproduce. A second reference, the
reverse sweep taken one step at a time (``per_step_sweep``), checks the
reset-form sweep on records of any spike and window pattern.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from spikefit import autodiff as ad
from spikefit import snn
from spikefit.ann import AnnModel, Embedding, Linear, mlp, replace_activations
from spikefit.calibrate import (CalibConfig, _calib_batch, _nwc_bptt, activation_align_loss,
                                convert, logits_loss, lwc)
from spikefit.snn import IfLayer, SnnNetwork, _count_dtype, _split_stack, _window_grads
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


def per_step_sweep(pairs, record, g_align, g_logits):
    """Reference reverse of ``snn._window_run``, one step at a time on two
    adjoint lanes stacked on axis 0, alignment and logits; only the logits
    lane crosses layers, and each layer's logits seed is zero but the
    last's. Per step and lane, with g the adjoint of the post-reset
    potential: a spike moves theta from the potential to the output, so
    theta gains the output's adjoint less g per spike; inside the window the
    spike's surrogate derivative by the pre-reset potential is 1/theta and
    by theta minus that, which sums over the steps to minus g at the start.
    ``g_align`` and ``g_logits`` are overwritten."""
    spikes, windows, counts = record
    rho = len(windows)
    g_rate = [np.stack([a, np.zeros_like(a)]) for a in g_align]
    g_rate[-1][1] = g_logits
    acc = []
    for j, g in enumerate(g_rate):
        g /= g.dtype.type(rho)
        acc.append(g * counts[j])
        g *= pairs[j][1].threshold
    g_v = [np.zeros_like(g) for g in g_rate]
    for t in range(rho - 1, -1, -1):
        g_carry = None
        for j in range(len(pairs) - 1, -1, -1):
            linear, layer = pairs[j]
            theta = layer.threshold
            c = -g_v[j]
            if g_carry is not None:
                c[-1] += g_carry
            acc[j] += spikes[j][t] * c
            g_v[j] += (g_rate[j] + theta * c) * (windows[t][j] * (1 / theta))
            g_carry = g_v[j][-1] @ linear.w.T if j > 0 else None
    return [((a - g).sum(axis=(0, 1)), g.sum(axis=(0, 1))) for a, g in zip(acc, g_v)]


def _random_pairs(rng, widths, in_dim=5, out_dim=3):
    """The (linear, IF) pairs of a random stack with IF layers of ``widths``."""
    layers, fan_in = [], in_dim
    for width in widths:
        layers += [Linear(rng.normal(0, 1, (fan_in, width)).astype(np.float32),
                          np.zeros(width, np.float32)),
                   IfLayer(rng.uniform(0.5, 1.5, width), rng.uniform(0, 0.5, width))]
        fan_in = width
    layers.append(Linear(rng.normal(0, 1, (fan_in, out_dim)).astype(np.float32),
                         np.zeros(out_dim, np.float32)))
    return _split_stack(SnnNetwork(layers, 8))[0]


def _random_record(rng, pairs, rho, batch, pattern):
    """A ``_window_run`` record of random spikes and windows, reshaped by
    ``pattern``: "random", "no_window", "all_window", or
    "spikes_after_windows", where each neuron's window steps all come
    before its spikes."""
    spikes, windows = [], [[] for _ in range(rho)]
    for _, layer in pairs:
        shape = (rho, batch, layer.width)
        s, w = rng.random(shape) < 0.4, rng.random(shape) < 0.5
        if pattern == "no_window":
            w[:] = False
        elif pattern == "all_window":
            w[:] = True
        elif pattern == "spikes_after_windows":
            cut = rng.integers(0, rho + 1, shape[1:])
            before = np.arange(rho)[:, None, None] < cut
            w &= before
            s &= ~before
        spikes.append(s)
        for t in range(rho):
            windows[t].append(w[t])
    return spikes, windows, [s.sum(axis=0, dtype=_count_dtype(rho)) for s in spikes]


# (name, seed, IF widths, rho, record pattern)
SWEEP_CASES = [
    ("random", 0, (7, 6), 8, "random"),
    ("random_rho5", 1, (7, 6), 5, "random"),
    ("no_window", 2, (7, 6), 8, "no_window"),
    ("all_window", 3, (7, 6), 8, "all_window"),
    ("spikes_after_windows", 4, (7, 6), 8, "spikes_after_windows"),
    ("rho1", 5, (7, 6), 1, "random"),
    ("one_layer", 6, (7,), 8, "random"),
    ("three_layers", 7, (7, 6, 5), 8, "random"),
    ("three_layers_after_windows", 8, (7, 6, 5), 6, "spikes_after_windows"),
]


@pytest.mark.parametrize("name,seed,widths,rho,pattern", SWEEP_CASES,
                         ids=[c[0] for c in SWEEP_CASES])
def test_sweep_matches_per_step_reference(name, seed, widths, rho, pattern):
    """The reset-form sweep equals the per-step sweep on any record: it
    holds only while the surrogate's height is 1/theta and a spike is one
    unit, so a neuron or surrogate that breaks either fails here."""
    rng = np.random.default_rng(seed)
    batch = 9
    pairs = _random_pairs(rng, widths)
    record = _random_record(rng, pairs, rho, batch, pattern)
    g_align = [rng.normal(0, 1, (batch, w)).astype(np.float32) for w in widths]
    g_logits = rng.normal(0, 1, (batch, widths[-1])).astype(np.float32)

    want = per_step_sweep(pairs, record, [a.copy() for a in g_align], g_logits.copy())
    got = _window_grads(pairs, record, [a.copy() for a in g_align], g_logits.copy())
    scale = max(float(np.abs(g).max()) for grads in want for g in grads)
    assert scale > 0
    for j, ((g_theta, g_v), (w_theta, w_v)) in enumerate(zip(got, want)):
        assert g_theta.dtype == g_v.dtype == np.float32
        np.testing.assert_allclose(g_theta, w_theta, rtol=0, atol=TOL * scale, err_msg=f"if{j}")
        np.testing.assert_allclose(g_v, w_v, rtol=0, atol=TOL * scale, err_msg=f"if{j}")
    if len(widths) > 1 and pattern != "no_window":
        # the logits seed reaches the first layer, through every carry between
        unseeded = per_step_sweep(pairs, record, [a.copy() for a in g_align],
                                  np.zeros_like(g_logits))
        assert not np.array_equal(unseeded[0][0], want[0][0])


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
    """Beyond the spikes and windows it saves, a step holds under ten
    (batch, width) float32 arrays per layer at its peak: the reverse sweep's
    rate seeds, the float state of the logits lane below the last layer,
    each neuron's window flag and spike count, a contiguous copy of each
    carried weight, and one layer's temporaries. The forward-only arrays
    (potentials, sums, rates, diffs) are dropped before that sweep; kept
    alive, they took the peak to nearly twenty."""
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

# sha256 over the losses and gradients of one step. All eight were
# re-recorded when the reverse sweep took its reset form, which keeps float
# state only in the logits lane below the last layer: the same gradients
# rounded otherwise, within 2.2e-7 of each case's largest entry of the
# per-step sweep's, with every loss unchanged
NWC_GOLDEN = {
    "T1": "c70ec43b0676c2254b5c344dd4274c986fb3e7bb7ca01cc31ab986c5784fd826",
    "T2": "327c48b0757489a2e4c5086c76242a3b95b1e6091692288059a814a11c87de29",
    "T8": "2637f44cc393a2c8c83e1de2fc8db955401827815bd03791ed60539be07ae862",
    "rho5": "06ef5547c4358c577eae4bf2e89c39be131b02a8df6d6f8385f6d361afdd4a8f",
    "if_tail": "f252be5a9cbcdef5130fbe4354640e56b3ef125147bc66807fed3f1d63f17438",
    "embed": "e06f0c7e44c2ea627e867948defe4c93699a611cf6a4c5e0edf1a2a3989389b0",
    "one_layer": "c3b7b559e3f4143d28a3523c936394ab113ee767228537e2dc876a45526eede0",
    "drive30": "969e7743e16c7f33bcf786147daf64ed4e750568a891065901da78299b218a9e",
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


@pytest.mark.parametrize("name,setup,cfg_kwargs,scale", GOLDEN_CASES,
                         ids=[c[0] for c in GOLDEN_CASES])
def test_log_and_report_measure_the_same_objective(name, setup, cfg_kwargs, scale):
    """The losses an NWC step logs are the report's functions, in float32
    where the report is in float64, applied to the step's own window: its
    decoded rates for ``L_logits`` and its counts for each ``L_al`` term."""
    setup = dict(setup)
    net, model, x = _setup(setup.pop("seed"), **setup)
    drive, acts, logits = _calib_batch(net, model, x)
    drive = drive * np.float32(scale)
    rho = CalibConfig(**cfg_kwargs).rho
    pairs, tail = _split_stack(net)
    losses, _ = _nwc_bptt(pairs, tail, drive, acts, logits, rho)

    rates, (_, _, counts) = snn._window_run(pairs, drive, rho)
    out = rates[-1] if tail is None else rates[-1] @ tail.w + tail.b
    want_kd = logits_loss(logits, out, 1.0)
    want_al = sum(activation_align_loss(acts[j], counts[j], layer.threshold, rho, layer=j)
                  for j, (_, layer) in enumerate(pairs))
    assert losses["L_logits"] == pytest.approx(want_kd, rel=1e-6)
    assert losses["L_al"] == pytest.approx(want_al, rel=1e-6)
