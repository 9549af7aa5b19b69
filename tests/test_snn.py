import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spikefit.ann import Linear, qcfs_forward
from spikefit.snn import (IfLayer, SimulationError, SnnNetwork, firing_rate, if_step,
                          simulate, theoretical_spike_count)
from spikefit.tensor import Rng


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
    spikes, _ = if_step(layer, potential, np.array([[current]], np.float32))
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
        spikes, out = if_step(layer, v, cur)
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
        spikes, out = if_step(IfLayer(theta, np.zeros_like(theta)), v, cur)
        assert spikes.tobytes() == s.tobytes()
        assert v.dtype == out.dtype == np.float32
        assert v.tobytes() == want_v.tobytes()
        assert out.tobytes() == want_out.tobytes()

    def test_width_mismatch_rejected(self):
        layer = IfLayer(np.ones(2, np.float32), np.zeros(2, np.float32))
        with pytest.raises(ValueError, match="width 3 != layer width 2"):
            if_step(layer, np.zeros((1, 2), np.float32), np.zeros((1, 3), np.float32))

    def test_nonfinite_current_names_neuron_and_step(self):
        layer = IfLayer(np.array([1.0, 1.0], np.float32), np.zeros(2, np.float32))
        with pytest.raises(SimulationError, match="neuron 1 at step 3"):
            if_step(layer, np.zeros((1, 2), np.float32),
                    np.array([[0.1, np.nan]], np.float32), step=3)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            IfLayer(np.array([0.0], np.float32), np.array([0.0], np.float32))


class TestSimulate:
    def test_single_neuron_trace_matches_staircase(self):
        # constant current 0.3, theta 1, v0 0.5, T 4: fires once, at t=1
        net = _single_neuron_net(1.0, 0.5, 4)
        rec = simulate(net, np.array([[0.3]], np.float32))
        assert rec.spikes[0][:, 0, 0].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert float(rec.counts(0)[0, 0]) == 1.0
        rate = float(firing_rate(rec, 0)[0, 0])
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

    def test_end_potentials_are_owned_c_ordered_arrays(self):
        net = _random_stack(Rng(15), depth=3, timesteps=4)
        before = copy.deepcopy(net)
        rec = simulate(net, Rng(16).normal(0, 1, (5, net.layers[0].w.shape[0])))
        for v, layer in zip(rec.v_end, net.if_layers()):
            assert v.flags.c_contiguous and v.flags.writeable
            assert not np.shares_memory(v, layer.v_init)
            v[...] = 123.0
        for layer, old in zip(net.layers, before.layers):
            for name, value in vars(layer).items():
                np.testing.assert_array_equal(value, vars(old)[name], err_msg=name)

    def test_potential_trace_ends_at_v_end(self):
        net = _random_stack(Rng(13), depth=2, timesteps=6)
        x = Rng(14).normal(0, 1, (3, net.layers[0].w.shape[0]))
        rec = simulate(net, x, record_potentials=True)
        for j in range(rec.n_layers):
            np.testing.assert_array_equal(rec.potentials[j][-1], rec.v_end[j])

    def test_telescoping_identity_random_nets(self):
        # theta * count == integrated current + v(0) - v(T), per neuron
        rng = Rng(4)
        for trial in range(20):
            depth = 1 + trial % 4
            net = _random_stack(rng.split(f"net{trial}"), depth=depth,
                                timesteps=int(rng.integers(2, 17, ())))
            x = rng.split(f"x{trial}").normal(0, 1, (3, net.layers[0].w.shape[0]))
            rec = simulate(net, x, record_currents=True)
            for j, layer in enumerate(net.if_layers()):
                lhs = rec.thresholds[j].astype(np.float64) * rec.counts(j).astype(np.float64)
                rhs = (rec.currents[j].astype(np.float64).sum(axis=0)
                       + layer.v_init.astype(np.float64)
                       - rec.v_end[j].astype(np.float64))
                np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-5)

    def test_rates_live_on_theta_over_t_lattice(self):
        net = _random_stack(Rng(5), depth=2, timesteps=8)
        x = Rng(6).normal(0, 1, (5, net.layers[0].w.shape[0]))
        rec = simulate(net, x)
        for j in range(rec.n_layers):
            rate = firing_rate(rec, j)
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
        rate = float(firing_rate(rec, 0)[0, 0])
        want = float(qcfs_forward(u, lam, levels))
        assert abs(rate - want) <= 1e-6

    def test_rate_equivalence_at_exact_lattice_point(self):
        # u = 0.25, lam = 1, L = 4: z = 1.5 exactly; tie rule keeps both sides equal
        net = _single_neuron_net(1.0, 0.5, 4)
        rec = simulate(net, np.array([[0.25]], np.float32))
        assert float(firing_rate(rec, 0)[0, 0]) == float(qcfs_forward(np.float32(0.25), 1.0, 4))


class TestFiringRate:
    def _record(self, spikes):
        # build a minimal record by simulating then overwriting spikes
        net = _single_neuron_net(1.0, 0.0, len(spikes))
        rec = simulate(net, np.array([[0.0]], np.float32))
        rec.spikes[0] = np.array(spikes, np.float32).reshape(-1, 1, 1)
        return rec

    def test_saturation(self):
        rec = self._record([1, 1, 1, 1, 1])
        assert float(firing_rate(rec, 0, rho=5)[0, 0]) == 1.0  # theta = 1

    def test_partial_window_t_denominator(self):
        rec = self._record([1, 0, 1, 0, 1])
        assert float(firing_rate(rec, 0, rho=5, denominator="T")[0, 0]) == pytest.approx(0.6)

    def test_silence(self):
        rec = self._record([0, 0, 0])
        assert float(firing_rate(rec, 0)[0, 0]) == 0.0

    def test_rho_bounds(self):
        rec = self._record([1, 0, 1])
        with pytest.raises(ValueError, match="rho"):
            firing_rate(rec, 0, rho=0)
        with pytest.raises(ValueError, match="rho"):
            firing_rate(rec, 0, rho=4)

    def test_bad_denominator(self):
        rec = self._record([1])
        with pytest.raises(ValueError, match="denominator"):
            firing_rate(rec, 0, denominator="both")


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
