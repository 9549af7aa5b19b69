import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from records import record_from_frames

from spikefit.ann import Embedding, Linear, Relu, mlp, qcfs_forward, replace_activations
from spikefit.calibrate import convert, lwc
from spikefit.snn import (IfLayer, SimulationError, SnnNetwork, _count_dtype, _drive, _rate,
                          _split_stack, _window_run, if_step, simulate,
                          theoretical_spike_count)
from spikefit.tensor import Rng


def _layer_rate(rec, j: int):
    """Threshold-weighted rate of IF layer j over the record's whole horizon."""
    return _rate(rec.thresholds[j], rec.counts[j], rec.timesteps)


def _single_neuron_net(theta: float, v0: float, timesteps: int) -> SnnNetwork:
    return SnnNetwork(
        [Linear(np.ones((1, 1), np.float32), np.zeros(1, np.float32)),
         IfLayer(np.array([theta], np.float32), np.array([v0], np.float32))],
        timesteps=timesteps)


def _random_stack(rng: Rng, depth: int, widths=None, timesteps=8) -> SnnNetwork:
    widths = widths or [int(rng.integers(3, 9, ())) for _ in range(depth + 1)]
    layers = []
    for i in range(depth):
        scale = 0.5 / np.sqrt(widths[i])
        w = rng.normal(0, scale, (widths[i], widths[i + 1]))
        b = rng.normal(0, 0.05, (widths[i + 1],))
        theta = rng.uniform(0.5, 2.0, (widths[i + 1],))
        layers += [Linear(w, b), IfLayer(theta, theta / 2)]
    return SnnNetwork(layers, timesteps=timesteps)


def _step(theta: float, v: float, current: float):
    """One step of a one-neuron layer; returns the spikes and the potential
    array that if_step advanced in place."""
    layer = IfLayer(np.array([theta], np.float32), np.array([0.0], np.float32))
    potential = np.array([[v]], np.float32)
    spikes, _ = if_step(layer, potential, np.array([[current]], np.float32),
                        np.empty((1, 1), np.bool_), 0)
    return spikes, potential


# dyadic values make exact ties (v + cur == theta) and -0.0 common
_DYADIC = [-0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, -0.5, -1.0, -2.0]
_POTENTIAL = st.one_of(st.sampled_from(_DYADIC), st.floats(-1e6, 1e6, width=32))
_THRESHOLD = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
                       st.floats(2.0**-10, 2.0**10, width=32))


class TestIfStep:
    def test_accumulate_and_fire(self):
        s, v = _step(1.0, 0.5, 0.6)
        assert s[0, 0] == 1.0
        assert v[0, 0] == pytest.approx(0.1, abs=1e-7)

    def test_subthreshold_integrates(self):
        s, v = _step(1.0, 0.5, 0.3)
        assert s[0, 0] == 0.0
        assert v[0, 0] == pytest.approx(0.8, abs=1e-7)

    def test_tie_fires_and_resets_to_zero(self):
        s, v = _step(1.0, 0.5, 0.5)
        assert s[0, 0] == 1.0
        assert v[0, 0] == 0.0

    def test_reset_by_subtraction_exact(self):
        _, v = _step(1.0, 0.0, 2.7)
        assert v[0, 0] == pytest.approx(1.7, abs=1e-6)

    def test_current_and_layer_are_not_modified(self):
        layer = IfLayer(np.array([1.0, 2.0], np.float32), np.array([0.5, 1.0], np.float32))
        v = np.array([[0.5, 0.5]], np.float32)
        cur = np.array([[0.6, 0.1]], np.float32)
        cur_before = cur.copy()
        spikes, out = if_step(layer, v, cur, np.empty((1, 2), np.bool_), 0)
        assert cur.tobytes() == cur_before.tobytes()
        assert layer.threshold.tolist() == [1.0, 2.0]
        assert layer.v_init.tolist() == [0.5, 1.0]
        assert spikes.tolist() == [[True, False]]
        assert out.tolist() == [[1.0, 0.0]]
        assert not np.shares_memory(out, cur) and not np.shares_memory(out, v)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_in_place_step_matches_pure_formula(self, data):
        batch, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        theta = data.draw(arrays(np.float32, width, elements=_THRESHOLD))
        v0 = data.draw(arrays(np.float32, (batch, width), elements=_POTENTIAL))
        cur = data.draw(arrays(np.float32, (batch, width), elements=_POTENTIAL))
        u = v0 + cur
        s = u >= theta
        want_v, want_out = u - s * theta, s * theta
        v = v0.copy()
        spikes, out = if_step(IfLayer(theta, np.zeros_like(theta)), v, cur,
                              np.empty((batch, width), np.bool_), 0)
        assert spikes.tobytes() == s.tobytes()
        assert v.dtype == out.dtype == np.float32
        assert v.tobytes() == want_v.tobytes()
        assert out.tobytes() == want_out.tobytes()

    def test_width_mismatch_rejected(self):
        layer = IfLayer(np.ones(2, np.float32), np.zeros(2, np.float32))
        with pytest.raises(ValueError, match="width 3 != layer width 2"):
            if_step(layer, np.zeros((1, 2), np.float32), np.zeros((1, 3), np.float32),
                    np.empty((1, 2), np.bool_), 0)

    def test_nonfinite_current_names_neuron_and_step(self):
        layer = IfLayer(np.array([1.0, 1.0], np.float32), np.zeros(2, np.float32))
        with pytest.raises(SimulationError, match="neuron 1 at step 3"):
            if_step(layer, np.zeros((1, 2), np.float32),
                    np.array([[0.1, np.nan]], np.float32), np.empty((1, 2), np.bool_), 3)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            IfLayer(np.array([0.0], np.float32), np.array([0.0], np.float32))

    @pytest.mark.parametrize("threshold, v_init", [
        ([np.inf] * 4, [0.5] * 4), ([np.nan] * 4, [0.5] * 4), ([1.0] * 4, [0.5, -np.inf, 0, 0]),
    ], ids=["inf-threshold", "nan-threshold", "inf-v_init"])
    def test_nonfinite_parameters_are_refused(self, threshold, v_init):
        # an infinite threshold used to pass, and simulate then blamed a
        # finite potential for the NaN of a silent neuron's 0 * inf output
        with pytest.raises(ValueError, match="threshold and v_init must be finite"):
            IfLayer(threshold, v_init)

    def test_layer_holds_its_own_arrays(self):
        # neuron-wise calibration updates a layer's arrays in place, so no
        # two of them, and none of the caller's, may share memory
        theta = np.ones(3, np.float32)
        layer = IfLayer(theta, theta)
        assert not np.shares_memory(layer.threshold, theta)
        assert not np.shares_memory(layer.v_init, theta)
        assert not np.shares_memory(layer.threshold, layer.v_init)


class TestStackOrder:
    """A network is built only from (linear, IF) pairs and an optional
    trailing linear."""

    def _parts(self):
        theta = np.ones(2, np.float32)
        return (Linear(np.ones((2, 2), np.float32), np.zeros(2, np.float32)),
                IfLayer(theta, theta / 2))

    def test_valid_orders_build(self):
        linear, layer = self._parts()
        for layers in ([], [linear], [linear, layer], [linear, layer, linear]):
            assert SnnNetwork(layers, timesteps=2).layers == tuple(layers)

    @pytest.mark.parametrize("order, message", [
        ("if", "layer 0: expected a linear layer, got IfLayer"),
        ("linear linear if", "layer 1: expected an IF layer, got Linear"),
        ("linear relu", "layer 1: expected an IF layer, got Relu"),
    ], ids=["if-first", "two-linears", "relu"])
    def test_other_orders_are_refused(self, order, message):
        linear, layer = self._parts()
        parts = {"linear": linear, "if": layer, "relu": Relu()}
        with pytest.raises(ValueError, match=message):
            SnnNetwork([parts[name] for name in order.split()], timesteps=2)

    @pytest.mark.parametrize("widths, message", [
        ((4, 5, 6), r"layer 0 \(linear\): fan-out 4 != width 5 of the IF layer after it"),
        ((5, 5, 6), r"layer 2 \(linear\): fan-in 6 != width 5 of the IF layer before it"),
    ], ids=["fan-out", "fan-in"])
    def test_widths_must_meet(self, widths, message):
        # (first linear's fan-out, IF width, second linear's fan-in); such a
        # stack used to build and fail at its first step, naming no layer
        fan_out, width, fan_in = widths
        theta = np.ones(width, np.float32)
        layers = [Linear(np.ones((8, fan_out), np.float32), np.zeros(fan_out, np.float32)),
                  IfLayer(theta, theta / 2),
                  Linear(np.ones((fan_in, 2), np.float32), np.zeros(2, np.float32))]
        with pytest.raises(ValueError, match=message):
            SnnNetwork(layers, timesteps=4)

    def test_layers_cannot_be_rewritten(self):
        net = SnnNetwork(self._parts(), timesteps=2)
        with pytest.raises(TypeError):
            net.layers[1] = Relu()


class TestClone:
    def _net(self):
        net = _random_stack(Rng(31), depth=3, widths=[6, 5, 4, 3])
        table = Rng(32).normal(0, 1, (4, 3))
        return SnnNetwork(net.layers, net.timesteps, input_encoder=Embedding(table))

    def test_shares_the_linear_layers_and_the_encoder(self):
        net = self._net()
        twin = net.clone()
        assert twin.timesteps == net.timesteps and twin.layers is not net.layers
        assert twin.input_encoder is net.input_encoder
        assert len(twin.linear_layers()) == 3
        for got, given in zip(twin.linear_layers(), net.linear_layers()):
            assert got is given

    def test_if_layers_share_no_memory_with_the_source(self):
        net = self._net()
        twin = net.clone()
        assert len(twin.if_layers()) == 3
        for got, given in zip(twin.if_layers(), net.if_layers()):
            assert got is not given
            for a in (got.threshold, got.v_init):
                for b in (given.threshold, given.v_init):
                    assert not np.shares_memory(a, b)
            assert got.threshold.tobytes() == given.threshold.tobytes()
            assert got.v_init.tobytes() == given.v_init.tobytes()


class TestSimulate:
    def test_single_neuron_trace_matches_staircase(self):
        # constant current 0.3, theta 1, v0 0.5, T 4: fires once, at t=1
        net = _single_neuron_net(1.0, 0.5, 4)
        rec = simulate(net, np.array([[0.3]], np.float32))
        assert rec.spikes[0][:, 0, 0].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert float(rec.counts[0][0, 0]) == 1.0
        rate = float(_layer_rate(rec, 0)[0, 0])
        assert rate == pytest.approx(0.25)
        assert rate == pytest.approx(float(qcfs_forward(np.float32(0.3), 1.0, 4)))

    def test_zero_input_below_threshold_is_silent(self):
        net = _random_stack(Rng(1), depth=2)
        for layer in net.layers:
            if isinstance(layer, Linear):
                layer.b = np.zeros_like(layer.b)  # no bias current
        rec = simulate(net, np.zeros((3, net.layers[0].w.shape[0]), np.float32))
        total = sum(float(s.sum()) for s in rec.spikes)
        assert total == 0.0

    def test_drive_of_the_wrong_width_names_the_layer(self):
        net = _random_stack(Rng(4), depth=2, widths=[8, 5, 3])
        message = r"layer 0 \(linear\): input width 7 does not match 8"
        with pytest.raises(ValueError, match=message):
            simulate(net, np.zeros((2, 7), np.float32))

    def test_horizon_zero_rejected(self):
        net = _single_neuron_net(1.0, 0.5, 4)
        with pytest.raises(ValueError, match=">= 1"):
            simulate(net, np.array([[0.3]], np.float32), timesteps=0)

    def test_determinism(self):
        net = _random_stack(Rng(2), depth=3)
        x = Rng(3).normal(0, 1, (4, net.layers[0].w.shape[0]))
        r1 = simulate(net.clone(), x)
        r2 = simulate(net.clone(), x)
        for a, b in zip(r1.spikes, r2.spikes):
            assert a.tobytes() == b.tobytes()
        assert r1.output.tobytes() == r2.output.tobytes()

    def test_network_is_left_unchanged(self):
        net = _random_stack(Rng(11), depth=3, timesteps=5)
        before = copy.deepcopy(net)
        x = Rng(12).normal(0, 1, (4, net.layers[0].w.shape[0]))
        simulate(net, x, record_currents=True, record_potentials=True)
        for layer, old in zip(net.layers, before.layers):
            assert vars(layer).keys() == vars(old).keys()
            for name, value in vars(layer).items():
                np.testing.assert_array_equal(value, vars(old)[name], err_msg=name)
        for layer in net.if_layers():
            assert vars(layer).keys() == {"threshold", "v_init"}

    def test_potential_trace_follows_if_recurrence(self):
        # each recorded frame is the previous one plus the step's current,
        # less theta where the neuron fired, in float32, bit for bit
        net = _random_stack(Rng(13), depth=2, timesteps=6)
        x = Rng(14).normal(0, 1, (3, net.layers[0].w.shape[0]))
        rec = simulate(net, x, record_currents=True, record_potentials=True)
        for j, layer in enumerate(net.if_layers()):
            v = np.repeat(layer.v_init[None, :], 3, axis=0)
            for t in range(rec.timesteps):
                v = v + rec.currents[j][t]
                v = v - rec.spikes[j][t] * layer.threshold
                np.testing.assert_array_equal(rec.potentials[j][t], v)

    def test_telescoping_identity_random_nets(self):
        # theta * count == integrated current + v(0) - v(T), per neuron
        rng = Rng(4)
        for trial in range(20):
            depth = 1 + trial % 4
            net = _random_stack(rng.split(f"net{trial}"), depth=depth,
                                timesteps=int(rng.integers(2, 17, ())))
            x = rng.split(f"x{trial}").normal(0, 1, (3, net.layers[0].w.shape[0]))
            rec = simulate(net, x, record_currents=True, record_potentials=True)
            for j, layer in enumerate(net.if_layers()):
                lhs = rec.thresholds[j].astype(np.float64) * rec.counts[j].astype(np.float64)
                rhs = (rec.currents[j].astype(np.float64).sum(axis=0)
                       + layer.v_init.astype(np.float64)
                       - rec.potentials[j][-1].astype(np.float64))
                np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-5)

    def test_rates_live_on_theta_over_t_lattice(self):
        net = _random_stack(Rng(5), depth=2, timesteps=8)
        x = Rng(6).normal(0, 1, (5, net.layers[0].w.shape[0]))
        rec = simulate(net, x)
        for j in range(rec.n_layers):
            rate = _layer_rate(rec, j)
            k = rate * 8 / rec.thresholds[j]
            np.testing.assert_allclose(k, np.round(k), atol=1e-5)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 20), st.sampled_from([2, 4, 8, 16]),
           st.floats(0.25, 3.0), st.floats(-0.6, 1.6))
    def test_rate_equivalence_property(self, seed, levels, lam, frac):
        # single IF layer, constant current, theta = ceiling, v0 = theta/2,
        # T = levels: the rate equals the staircase activation
        u = np.float32(frac * lam)
        z = float(u) * levels / lam + 0.5
        assume(abs(z - round(z)) > 1e-3)  # keep away from knife-edge lattice points
        net = _single_neuron_net(lam, lam / 2, levels)
        rec = simulate(net, np.array([[u]], np.float32))
        rate = float(_layer_rate(rec, 0)[0, 0])
        want = float(qcfs_forward(u, lam, levels))
        assert abs(rate - want) <= 1e-6

    def test_rate_equivalence_at_exact_lattice_point(self):
        # u = 0.25, lam = 1, L = 4: z = 1.5 exactly; tie rule keeps both sides equal
        net = _single_neuron_net(1.0, 0.5, 4)
        rec = simulate(net, np.array([[0.25]], np.float32))
        assert float(_layer_rate(rec, 0)[0, 0]) == float(qcfs_forward(np.float32(0.25), 1.0, 4))


class TestCausalPrefix:
    """A run's first t steps do not depend on its horizon: at t steps,
    simulate gives the counts and decoded output of the first t steps of
    the T=16 run, bit for bit."""

    @pytest.mark.parametrize("seed", [31, 35, 40])
    @pytest.mark.parametrize("stage", ["convert", "lwc"])
    def test_shorter_horizon_is_a_prefix(self, seed, stage):
        rng = Rng(seed)
        x = rng.split("x").normal(0, 1, (64, 8))
        net = convert(replace_activations(mlp([8, 64, 64, 4], rng.split("model")), 8, x), 16)
        if stage == "lwc":
            net = lwc(net, 0.8, 0.3)
        frames = simulate(net, x, 16).spikes
        tail = net.layers[-1]
        for t in (1, 2, 4, 8, 16):
            rec = simulate(net, x, t)
            prefix = [f[:t].sum(axis=0, dtype=c.dtype) for f, c in zip(frames, rec.counts)]
            assert [c.tobytes() for c in rec.counts] == [c.tobytes() for c in prefix]
            rate = _rate(rec.thresholds[-1], prefix[-1], t)
            assert rec.output.tobytes() == (rate @ tail.w + tail.b).tobytes()


class TestWindowRate:
    """Neuron-wise calibration's window counts its spikes in simulate's
    count dtype and rates them with simulate's ``_rate``, so at rho = T the
    two rates are one, bit for bit, at every T."""

    @pytest.mark.parametrize("seed", [31, 35, 40])
    @pytest.mark.parametrize("stage", ["convert", "lwc"])
    def test_window_rate_is_the_simulated_rate(self, seed, stage):
        rng = Rng(seed)
        x = rng.split("x").normal(0, 1, (64, 8))
        net = convert(replace_activations(mlp([8, 64, 64, 4], rng.split("model")), 8, x), 16)
        if stage == "lwc":
            net = lwc(net, 0.8, 0.3)
        pairs, _ = _split_stack(net)
        for T in (1, 2, 3, 4, 5, 6, 7, 8, 16):
            window, (_, _, window_counts) = _window_run(pairs, _drive(net, x), T)
            counts = simulate(net, x, T).counts
            for (_, layer), got, wc, c in zip(pairs, window, window_counts, counts):
                assert wc.dtype == _count_dtype(T)
                assert wc.tobytes() == c.tobytes()
                assert got.tobytes() == _rate(layer.threshold, c, T).tobytes()


class TestFiringRate:
    def _record(self, spikes):
        # build a minimal record from a simulated one's thresholds and output
        net = _single_neuron_net(1.0, 0.0, len(spikes))
        rec = simulate(net, np.array([[0.0]], np.float32))
        frames = np.array(spikes, np.uint8).reshape(-1, 1, 1)
        return record_from_frames([frames], rec.thresholds, rec.output, len(spikes))

    def test_saturation(self):
        rec = self._record([1, 1, 1, 1, 1])
        assert float(_layer_rate(rec, 0)[0, 0]) == 1.0  # theta = 1

    def test_silence(self):
        rec = self._record([0, 0, 0])
        assert float(_layer_rate(rec, 0)[0, 0]) == 0.0


class TestTheoreticalSpikeCount:
    def test_full_activation_gives_horizon(self):
        assert float(theoretical_spike_count(np.asarray(1.0), 1.0, 8)) == 8.0

    def test_direct_product(self):
        assert float(theoretical_spike_count(np.asarray(0.5), 1.0, 8)) == 4.0

    def test_fractional_ceiling(self):
        assert float(theoretical_spike_count(np.asarray(0.3), 1.2, 8)) == pytest.approx(2.0)

    def test_not_rounded(self):
        out = theoretical_spike_count(np.asarray(0.33), 1.0, 8)
        assert float(out) == pytest.approx(2.64)

    def test_nonpositive_ceiling_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            theoretical_spike_count(np.zeros(3), 0.0, 8)
