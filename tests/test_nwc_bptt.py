"""The fused neuron-wise calibration step against a tape reference.

The reference records the unrolled IF chain on the autodiff tape twice: once
with the carries between layers detached, for the alignment loss, and once
over the full chain, for the logits loss. Its gradients are what the fused
forward pass and reverse sweep must reproduce.
"""

import numpy as np
import pytest

from spikefit import autodiff as ad
from spikefit.ann import AnnModel, Embedding, mlp, replace_activations
from spikefit.calibrate import CalibConfig, _calib_batch, _nwc_bptt, convert, lwc
from spikefit.snn import IfLayer, _split_stack
from spikefit.tensor import Rng

TOL = 1e-6  # of the largest gradient entry


def _tape_unroll(snn, theta_vars, v0_vars, drive, cfg, detach_carry):
    """Unroll rho steps on the tape and return the per-layer rate Vars."""
    pairs, tail = _split_stack(snn)
    batch = drive.shape[0]
    denom = float(cfg.rho if cfg.denominator == "rho" else cfg.timesteps)
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


def tape_nwc_step(snn, params, drive, teacher_acts, teacher_logits, cfg):
    """Reference losses and gradients from two tapes (detached-carry
    alignment, full-chain logits), combined with the loss weights."""
    n_layers = len(snn.if_layers())
    grads = {k: np.zeros_like(v) for k, v in params.items()}

    def leaves(tape):
        return ([tape.leaf(params[f"if{j}.threshold"]) for j in range(n_layers)],
                [tape.leaf(params[f"if{j}.v_init"]) for j in range(n_layers)])

    def accumulate(tape, loss, weight, thetas, v0s):
        gmap = ad.backward(tape, loss)
        for j in range(n_layers):
            grads[f"if{j}.threshold"] += weight * gmap.wrt(thetas[j])
            grads[f"if{j}.v_init"] += weight * gmap.wrt(v0s[j])

    tape = ad.Tape()
    thetas, v0s = leaves(tape)
    rates, _ = _tape_unroll(snn, thetas, v0s, drive, cfg, detach_carry=True)
    align = ad.mse(rates[0], teacher_acts[0])
    for j in range(1, n_layers):
        align = ad.add(align, ad.mse(rates[j], teacher_acts[j]))
    if cfg.lambda_align > 0:
        accumulate(tape, align, cfg.lambda_align, thetas, v0s)

    tape2 = ad.Tape()
    thetas2, v0s2 = leaves(tape2)
    rates2, tail = _tape_unroll(snn, thetas2, v0s2, drive, cfg, detach_carry=False)
    out = rates2[-1] if tail is None else ad.add(ad.matmul(rates2[-1], tail.w), tail.b)
    kd = ad.kd_cross_entropy(teacher_logits, out, cfg.temperature)
    if cfg.lambda_logits > 0:
        accumulate(tape2, kd, cfg.lambda_logits, thetas2, v0s2)

    l_align, l_kd = float(align.value), float(kd.value)
    losses = {"L_al": l_align, "L_logits": l_kd,
              "L_all": cfg.lambda_align * l_align + cfg.lambda_logits * l_kd}
    return losses, grads


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
    params = {}
    for j, layer in enumerate(net.if_layers()):
        jitter = rng.split(f"jitter{j}").uniform(0.6, 1.4, (layer.width,))
        params[f"if{j}.threshold"] = (layer.threshold * jitter).astype(np.float32)
        params[f"if{j}.v_init"] = (layer.v_init * jitter[::-1]).astype(np.float32)
    return net, model, x, params


def _compare(net, model, x, params, cfg):
    batch = _calib_batch(net, model, x)
    losses, grads = _nwc_bptt(net, params, *batch, cfg)
    want_losses, want = tape_nwc_step(net, params, *batch, cfg)
    scale = max(float(np.abs(g).max()) for g in want.values())
    assert scale > 0
    for key in want:
        assert grads[key].dtype == np.float32
        np.testing.assert_allclose(grads[key], want[key], rtol=0, atol=TOL * scale,
                                   err_msg=key)
    for key in want_losses:
        assert losses[key] == pytest.approx(want_losses[key], rel=1e-6, abs=1e-7), key
    return grads


class TestMatchesTape:
    @pytest.mark.parametrize("timesteps", [1, 2, 8])
    def test_horizons(self, timesteps):
        net, model, x, params = _setup(timesteps, timesteps=timesteps, levels=timesteps)
        _compare(net, model, x, params, CalibConfig(timesteps=timesteps))

    @pytest.mark.parametrize("denominator", ["rho", "T"])
    def test_short_window(self, denominator):
        net, model, x, params = _setup(11)
        _compare(net, model, x, params, CalibConfig(timesteps=8, rho=5,
                                                    denominator=denominator))

    def test_loss_weights_and_temperature(self):
        net, model, x, params = _setup(12)
        _compare(net, model, x, params, CalibConfig(timesteps=8, lambda_align=0.3,
                                                    lambda_logits=1.7, temperature=2.5))

    @pytest.mark.parametrize("weights", [(0.0, 1.0), (1.0, 0.0)])
    def test_single_loss(self, weights):
        net, model, x, params = _setup(13)
        cfg = CalibConfig(timesteps=8, lambda_align=weights[0], lambda_logits=weights[1])
        grads = _compare(net, model, x, params, cfg)
        # the zero-weight lane is skipped, not computed: poisoning its
        # targets leaves the gradients untouched
        drive, acts, logits = _calib_batch(net, model, x)
        if weights[0] == 0.0:
            acts = [np.full_like(a, np.nan) for a in acts]
        else:
            logits = np.full_like(logits, np.nan)
        _, poisoned = _nwc_bptt(net, params, drive, acts, logits, cfg)
        for key in grads:
            np.testing.assert_array_equal(poisoned[key], grads[key], err_msg=key)

    def test_net_ending_in_if_layer(self):
        net, model, x, params = _setup(14, dims=(6, 10, 8, 5), if_tail=True)
        assert isinstance(net.layers[-1], IfLayer)
        _compare(net, model, x, params, CalibConfig(timesteps=8))

    def test_embedding_encoder(self):
        net, model, x, params = _setup(15, dims=(6, 12, 3), embed=True)
        assert net.input_encoder is not None
        _compare(net, model, x, params, CalibConfig(timesteps=4))

    def test_single_layer(self):
        net, model, x, params = _setup(16, dims=(6, 9, 3))
        _compare(net, model, x, params, CalibConfig(timesteps=8))


def test_no_tape_recorded(monkeypatch):
    """The fused step records nothing on the autodiff tape."""
    net, model, x, params = _setup(17)

    def refuse(*args, **kwargs):
        raise AssertionError("tape used")

    monkeypatch.setattr(ad, "record_op", refuse)
    monkeypatch.setattr(ad.Tape, "_record", refuse)
    _nwc_bptt(net, params, *_calib_batch(net, model, x), CalibConfig(timesteps=8))
