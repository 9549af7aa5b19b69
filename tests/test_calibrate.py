import numpy as np
import pytest

import spikefit.calibrate as calibrate
from spikefit.ann import (AnnModel, Linear, Qcfs, Relu, ann_forward, char_lm, mlp,
                          replace_activations)
from spikefit.calibrate import (CalibConfig, CalibrationError, activation_align_loss,
                                apply_stage2, convert, eval_losses, logits_loss,
                                lwc, nwc_calibrate)
from spikefit.checkpoint import weight_hash
from spikefit.data import Dataset, DataSpec, DatasetSplits, make_dataset
from spikefit.snn import simulate
from spikefit.tensor import Rng


def _staircase_mlp(rng: Rng, dims=(6, 12, 3), levels=8, ceilings=None):
    model = mlp(list(dims), rng)
    batch = rng.split("init").normal(0, 1, (128, dims[0]))
    model = replace_activations(model, levels, batch)
    if ceilings is not None:
        for q, c in zip(model.qcfs_layers(), ceilings):
            q.ceiling = c
    return model


class TestConvert:
    def test_ceilings_become_thresholds(self):
        model = _staircase_mlp(Rng(0), dims=(4, 6, 5, 2), ceilings=[1.3, 0.8])
        net = convert(model, 8)
        layers = net.if_layers()
        np.testing.assert_allclose(layers[0].threshold, 1.3)
        np.testing.assert_allclose(layers[1].threshold, 0.8)
        for l in layers:
            np.testing.assert_allclose(l.v_init, l.threshold / 2)

    def test_weights_copied_bit_exactly(self):
        # the network shares the model's own weight arrays, in its own layers
        model = _staircase_mlp(Rng(1))
        net = convert(model, 8)
        assert weight_hash(net) == weight_hash(model)
        pairs = list(zip(model.layers[::2], net.linear_layers()))
        assert len(pairs) == 2
        for a, b in pairs:
            assert a is not b
            assert a.w is b.w and a.b is b.b
        lm = replace_activations(char_lm(16, 2, 3, [5], Rng(2)), 4,
                                 Rng(3).integers(0, 16, (8, 2)))
        snn = convert(lm, 4)
        assert snn.input_encoder is not lm.layers[0]
        assert snn.input_encoder.table is lm.layers[0].table

    def test_single_hidden_layer_reproduces_ann_at_t_equals_l(self):
        model = _staircase_mlp(Rng(2), dims=(6, 16, 3), levels=8)
        net = convert(model, 8)
        x = Rng(3).normal(0, 1, (32, 6))
        ann_out = ann_forward(model, x, record=False).output
        snn_out = simulate(net, x, 8).output
        np.testing.assert_allclose(snn_out, ann_out, atol=1e-5)

    def test_relu_model_rejected_with_stage1_hint(self):
        model = mlp([4, 8, 2], Rng(0))
        with pytest.raises(ValueError, match="stage 1"):
            convert(model, 8)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            convert(_staircase_mlp(Rng(0)), 0)

    def test_staircase_first_rejected(self):
        linear = mlp([4, 2], Rng(0)).layers[0]
        with pytest.raises(ValueError, match="layer 0: staircase without a preceding linear"):
            convert(AnnModel([Qcfs(1.0, 4), linear]), 8)

    def test_two_staircases_in_a_row_rejected(self):
        linear = mlp([4, 2], Rng(0)).layers[0]
        with pytest.raises(ValueError, match="layer 2: staircase without a preceding linear"):
            convert(AnnModel([linear, Qcfs(1.0, 4), Qcfs(1.0, 4)]), 8)

    def test_embedding_after_layer_0_rejected(self):
        lm = replace_activations(char_lm(16, 2, 3, [5], Rng(2)), 4,
                                 Rng(3).integers(0, 16, (8, 2)))
        with pytest.raises(ValueError, match="layer 1: embedding is only convertible as the "
                                             "input encoder"):
            convert(AnnModel([lm.layers[1], lm.layers[0]] + lm.layers[2:]), 4)


class TestLwc:
    def test_reference_scaling(self):
        # alpha 0.6, beta 0.1: threshold 2.0 -> 1.2, v_init -> 0.12
        model = _staircase_mlp(Rng(0), dims=(4, 6, 2), ceilings=[2.0])
        net = lwc(convert(model, 8), 0.6, 0.1)
        layer = net.if_layers()[0]
        np.testing.assert_allclose(layer.threshold, 1.2, rtol=1e-6)
        np.testing.assert_allclose(layer.v_init, 0.12, rtol=1e-6)

    def test_identity_scale_keeps_thresholds(self):
        model = _staircase_mlp(Rng(1))
        base = convert(model, 8)
        out = lwc(base, 1.0, 0.1)
        np.testing.assert_array_equal(out.if_layers()[0].threshold,
                                      base.if_layers()[0].threshold)

    def test_elementwise_vector_scaling(self):
        model = _staircase_mlp(Rng(2), dims=(4, 3, 2), ceilings=[1.0])
        base = convert(model, 8)
        base.if_layers()[0].threshold = np.array([1.0, 2.0, 4.0], np.float32)
        out = lwc(base, 0.5, 0.0)
        np.testing.assert_allclose(out.if_layers()[0].threshold, [0.5, 1.0, 2.0])

    def test_alpha_out_of_range(self):
        net = convert(_staircase_mlp(Rng(0)), 8)
        with pytest.raises(ValueError, match="alpha"):
            lwc(net, 0.0, 0.1)
        with pytest.raises(ValueError, match="alpha"):
            lwc(net, 1.5, 0.1)


class TestAlignLoss:
    def test_perfect_alignment_is_zero(self):
        spikes = np.zeros((4, 1, 2), np.float32)
        spikes[:2, 0, 0] = 1
        theta = np.ones(2, np.float32)
        rate = theta * spikes.sum(axis=0) / 4.0  # exactly representable
        assert activation_align_loss(rate, spikes.sum(axis=0), theta, 4, 0) == 0.0

    def test_reference_value(self):
        # a=0.4, 3 spikes in 5 steps, theta=1: (0.6-0.4)^2
        spikes = np.zeros((5, 1, 1), np.float32)
        spikes[:3, 0, 0] = 1
        loss = activation_align_loss(np.array([[0.4]]), spikes.sum(axis=0),
                                     np.ones(1, np.float32), 5, 0)
        assert loss == pytest.approx(0.04, abs=1e-9)

    def test_silent_match(self):
        spikes = np.zeros((4, 1, 3), np.float32)
        loss = activation_align_loss(np.zeros((1, 3)), spikes.sum(axis=0),
                                     np.ones(3, np.float32), 4, 0)
        assert loss == 0.0

    def test_shape_mismatch_names_layer(self):
        spikes = np.zeros((4, 1, 3), np.float32)
        with pytest.raises(ValueError, match="layer 2"):
            activation_align_loss(np.zeros((1, 4)), spikes.sum(axis=0), np.ones(3, np.float32),
                                  4, layer=2)


class TestLogitsLoss:
    def test_identical_uniform_gives_log4(self):
        z = np.zeros((3, 4))
        assert logits_loss(z, z, 1.0) == pytest.approx(np.log(4), abs=1e-12)

    def test_identical_logits_give_teacher_entropy(self):
        z = np.array([[0.3, -1.2, 2.0]])
        q = np.exp(z - z.max())
        q /= q.sum()
        entropy = float(-(q * np.log(q)).sum())
        assert logits_loss(z, z, 1.0) == pytest.approx(entropy, abs=1e-12)

    def test_reference_value(self):
        # teacher [0,0], student [ln3, 0]: -(0.5 log .75 + 0.5 log .25) ~ 0.8370
        loss = logits_loss(np.array([[0.0, 0.0]]), np.array([[np.log(3), 0.0]]), 1.0)
        assert loss == pytest.approx(0.8370, abs=5e-5)

    def test_zero_classes_rejected(self):
        with pytest.raises(ValueError, match="class"):
            logits_loss(np.zeros((2, 0)), np.zeros((2, 0)), 1.0)

    def test_bad_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            logits_loss(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)


class TestCalibConfig:
    def test_rho_defaults_to_horizon(self):
        cfg = CalibConfig(timesteps=12)
        assert cfg.rho == 12

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            CalibConfig(timesteps=4, rho=5)

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError, match="alpha"):
            CalibConfig(alpha=0.0)

    def test_alpha_default(self):
        assert CalibConfig().alpha == 0.6


def _calib_setup(seed, dims=(6, 12, 3)):
    rng = Rng(seed)
    data_x = rng.split("data").normal(0, 1, (512, dims[0]))
    model = _staircase_mlp(rng.split("model"), dims=dims)
    res = ann_forward(model, data_x, record=False)
    labels = res.output.argmax(axis=1).astype(np.int64)
    data = Dataset(data_x, labels)
    return rng, model, data


class TestNwc:
    def test_weights_frozen(self):
        rng, model, data = _calib_setup(0)
        net = lwc(convert(model, 8), 0.6, 0.1)
        before = weight_hash(net)
        cfg = CalibConfig(timesteps=8, steps=10, batch_size=64, lr=0.01, seed=0)
        out, _ = nwc_calibrate(net, model, data, cfg, rng.split("nwc"))
        assert weight_hash(out) == before

    def test_fixed_batch_loss_does_not_increase(self):
        # biased start (paper-style layer scaling), full-batch steps
        for seed in (0, 1, 2):
            rng, model, data = _calib_setup(seed)
            fixed = Dataset(data.x[:128], data.y[:128])
            net = lwc(convert(model, 8), 0.6, 0.1)
            cfg = CalibConfig(timesteps=8, steps=50, batch_size=128, lr=0.01, seed=seed)
            out, log = nwc_calibrate(net, model, fixed, cfg, rng.split("nwc"))
            assert log[-1]["L_all"] <= log[0]["L_all"], f"seed {seed}"

    def test_stationary_point_unchanged(self):
        # exact-rate network: the alignment and logits gradients are both
        # exactly zero
        rng, model, data = _calib_setup(3, dims=(6, 10, 3))
        net = convert(model, 8)
        theta0 = net.if_layers()[0].threshold.copy()
        v0 = net.if_layers()[0].v_init.copy()
        cfg = CalibConfig(timesteps=8, steps=5, batch_size=64, lr=0.05, seed=3)
        out, log = nwc_calibrate(net, model, data, cfg, rng.split("nwc"))
        np.testing.assert_array_equal(out.if_layers()[0].threshold, theta0)
        np.testing.assert_array_equal(out.if_layers()[0].v_init, v0)
        assert log[0]["L_al"] == 0.0

    def test_input_network_untouched(self):
        # Adam updates the clone's own arrays in place; the caller's network
        # keeps its bits, and no IF array of the result is the caller's memory
        rng, model, data = _calib_setup(8, dims=(6, 12, 8, 3))
        net = lwc(convert(model, 8), 0.6, 0.1)
        before = [(l.threshold.copy(), l.v_init.copy()) for l in net.if_layers()]
        cfg = CalibConfig(timesteps=8, steps=4, batch_size=64, lr=0.05, seed=8)
        out, _ = nwc_calibrate(net, model, data, cfg, rng.split("nwc"))
        for layer, (theta, v0) in zip(net.if_layers(), before):
            assert layer.threshold.tobytes() == theta.tobytes()
            assert layer.v_init.tobytes() == v0.tobytes()
        moved = [l.threshold.tobytes() != theta.tobytes()
                 for l, (theta, _) in zip(out.if_layers(), before)]
        assert all(moved)
        for got in out.if_layers():
            for given in net.if_layers():
                for a in (got.threshold, got.v_init):
                    assert not np.shares_memory(a, given.threshold)
                    assert not np.shares_memory(a, given.v_init)

    def test_nan_threshold_aborts(self):
        # the clamp keeps thresholds positive but passes NaN through; a NaN
        # threshold resets to a NaN potential, which the IF step refuses
        rng, model, data = _calib_setup(9, dims=(6, 12, 8, 3))
        net = convert(model, 8)
        net.if_layers()[0].threshold[0] = np.nan
        cfg = CalibConfig(timesteps=8, steps=2, batch_size=64, seed=9)
        with np.errstate(invalid="ignore"), pytest.raises(
                CalibrationError, match="non-finite membrane potential"):
            nwc_calibrate(net, model, data, cfg, rng.split("nwc"))

    def test_reruns_bit_identical(self):
        rng, model, data = _calib_setup(5, dims=(6, 12, 8, 3))
        net = lwc(convert(model, 8), 0.6, 0.1)
        cfg = CalibConfig(timesteps=8, steps=6, batch_size=64, lr=0.02, seed=5)
        runs = [nwc_calibrate(net, model, data, cfg, Rng(5).split("nwc")) for _ in range(2)]
        (a, log_a), (b, log_b) = runs
        assert log_a == log_b
        for la, lb in zip(a.if_layers(), b.if_layers()):
            np.testing.assert_array_equal(la.threshold, lb.threshold)
            np.testing.assert_array_equal(la.v_init, lb.v_init)

    def test_fixed_batch_teacher_runs_once(self, monkeypatch):
        rng, model, data = _calib_setup(6)
        fixed = Dataset(data.x[:64], data.y[:64])
        calls = []
        real = calibrate.ann_forward

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(calibrate, "ann_forward", counting)
        cfg = CalibConfig(timesteps=8, steps=4, batch_size=64, seed=6)
        nwc_calibrate(convert(model, 8), model, fixed, cfg, rng.split("nwc"))
        assert len(calls) == 1

    def test_log_schema(self):
        rng, model, data = _calib_setup(1)
        net = convert(model, 8)
        cfg = CalibConfig(timesteps=8, steps=3, batch_size=32, seed=1)
        _, log = nwc_calibrate(net, model, data, cfg, rng.split("nwc"))
        assert len(log) == 3
        assert set(log[0]) == {"step", "L_al", "L_logits", "L_all", "mean_theta", "mean_v0"}

    def test_nan_teacher_aborts(self):
        rng, model, data = _calib_setup(2)
        net = convert(model, 8)
        bad = Dataset(np.full_like(data.x, np.nan), data.y)
        cfg = CalibConfig(timesteps=8, steps=2, batch_size=16, seed=2)
        with pytest.raises((CalibrationError, ValueError)):
            nwc_calibrate(net, model, bad, cfg, rng.split("nwc"))

    def test_nonfinite_potential_aborts(self):
        # finite inputs, but the second layer's currents overflow to inf:
        # NaN potentials would never fire and inf ones always would. The
        # overflow is the scenario, so numpy's warning about it is muted.
        rng, model, data = _calib_setup(7, dims=(6, 16, 12, 4))
        net = convert(model, 8)
        net.linear_layers()[1].w[:] = np.float32(3e38)
        cfg = CalibConfig(timesteps=8, steps=3, batch_size=32, seed=7)
        with np.errstate(over="ignore"), pytest.raises(
                CalibrationError, match=r"non-finite membrane potential for neuron \d+ "
                                        r"at step \d+ in calibration step 0"):
            nwc_calibrate(net, model, data, cfg, rng.split("nwc"))


class TestLossDecomposition:
    def test_weighted_sum_matches_parts(self):
        rng, model, data = _calib_setup(4)
        net = lwc(convert(model, 8), 0.8, 0.3)
        x = data.x[:64]
        losses = eval_losses(net, model, x, CalibConfig(timesteps=8))
        assert losses["L_all"] == losses["L_al"] + losses["L_logits"]
        assert losses["L_al"] > 0 and losses["L_logits"] > 0

    def test_rho_does_not_enter(self):
        # the eval losses score all T steps, whatever NWC's window
        rng, model, data = _calib_setup(4)
        net = lwc(convert(model, 6), 0.8, 0.3)
        x = data.x[:64]
        plain = eval_losses(net, model, x, CalibConfig(timesteps=6))
        windowed = eval_losses(net, model, x, CalibConfig(timesteps=6, rho=3))
        assert plain == windowed


class TestPredict:
    def test_predict_is_one_simulate_run(self):
        # 1,100 rows of a 64-wide net: more than two 512-row batches, and one
        # row block of simulate's, which bounds its own memory
        net = convert(_staircase_mlp(Rng(9), dims=(8, 64, 64, 4)), 8)
        x = Rng(10).normal(0, 1, (1100, 8))
        got = calibrate.snn_predict(net, x, 6)
        want = simulate(net, x, 6).output
        assert got.shape == (1100, 4) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestApplyStage2:
    def test_none_variant_equals_converted(self):
        rng, model, data = _calib_setup(5)
        splits = DatasetSplits(data, data)
        base = convert(model, 8)
        cfg = CalibConfig(timesteps=8, steps=2, batch_size=16, seed=5)
        out, log = apply_stage2(base, model, splits, cfg, "none", rng.split("s2"))
        assert log == []
        for a, b in zip(out.if_layers(), base.if_layers()):
            np.testing.assert_array_equal(a.threshold, b.threshold)
            np.testing.assert_array_equal(a.v_init, b.v_init)

    def test_both_keeps_the_input_weight_arrays(self):
        # weights are frozen in stage 2, so the calibrated network holds the
        # input network's own arrays rather than copies of them
        rng, model, data = _calib_setup(7, dims=(6, 12, 8, 3))
        splits = DatasetSplits(data, data)
        base = convert(model, 8)
        cfg = CalibConfig(timesteps=8, steps=2, batch_size=64, seed=7)
        out, log = apply_stage2(base, model, splits, cfg, "both", rng.split("s2"))
        assert len(log) == 2
        assert weight_hash(out) == weight_hash(base) == weight_hash(model)
        for got, given in zip(out.linear_layers(), base.linear_layers()):
            assert got.w is given.w and got.b is given.b

    def test_unknown_variant_rejected(self):
        rng, model, data = _calib_setup(6)
        splits = DatasetSplits(data, data)
        with pytest.raises(ValueError, match="variant"):
            apply_stage2(convert(model, 8), model, splits, CalibConfig(timesteps=8),
                         "all", rng)
