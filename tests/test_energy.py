import json

import numpy as np
import pytest

from spikefit.ann import Linear
from spikefit.energy import OpCounts, count_ops, energy_report, spike_rate_stats, write_energy_json
from spikefit.snn import IfLayer, SnnNetwork, SpikeRecord, simulate
from spikefit.tensor import Rng


def _net(in_dim, hidden, out_dim, timesteps=5, seed=0):
    rng = Rng(seed)
    theta = np.ones(hidden, np.float32)
    return SnnNetwork([
        Linear(rng.normal(0, 0.4, (in_dim, hidden)), np.zeros(hidden, np.float32)),
        IfLayer(theta, theta / 2),
        Linear(rng.normal(0, 0.4, (hidden, out_dim)), np.zeros(out_dim, np.float32)),
    ], timesteps=timesteps)


def _record_with_spikes(net, spikes):
    """Simulate once for the scaffolding, then plant a known spike train."""
    in_dim = net.layers[0].w.shape[0]
    rec = simulate(net, np.zeros((spikes.shape[1], in_dim), np.float32), spikes.shape[0])
    rec.spikes[0] = spikes.astype(np.float32)
    return rec


def _brute_force_ac(record, net):
    """Independent oracle: walk every spike event and add its fan-out."""
    consumers = []
    linears = [l for l in net.layers if isinstance(l, Linear)]
    for j in range(len(record.spikes)):
        consumers.append(linears[j + 1] if j + 1 < len(linears) else None)
    total = 0
    for j, s in enumerate(record.spikes):
        if consumers[j] is None:
            continue
        fan_out = consumers[j].w.shape[1]
        T, batch, width = s.shape
        for t in range(T):
            for b in range(batch):
                for i in range(width):
                    if s[t, b, i]:
                        total += fan_out
    return total


class TestCountOps:
    def test_zero_spikes(self):
        net = _net(3, 4, 2)
        rec = _record_with_spikes(net, np.zeros((5, 1, 4)))
        counts = count_ops(rec, net)
        assert counts.ac == 0

    def test_five_spikes_fanout_four(self):
        net = _net(3, 2, 4)
        spikes = np.zeros((5, 1, 2))
        spikes[:, 0, 0] = 1  # one neuron fires every step: 5 spikes, fan-out 4
        rec = _record_with_spikes(net, spikes)
        assert count_ops(rec, net).ac == 20

    def test_saturation_bound(self):
        # every neuron fires every step: ac = T * mac for the layer
        net = _net(3, 4, 2, timesteps=6)
        rec = _record_with_spikes(net, np.ones((6, 1, 4)))
        counts = count_ops(rec, net)
        assert counts.ac == 6 * counts.mac

    def test_mac_counted_once_per_sample(self):
        net = _net(3, 4, 2)
        rec = _record_with_spikes(net, np.zeros((5, 7, 4)))
        counts = count_ops(rec, net)
        assert counts.mac == 4 * 2 * 7  # spiking-path linear only, per sample

    def test_first_linear_excluded_from_both_sides(self):
        net = _net(3, 4, 2)
        rec = _record_with_spikes(net, np.zeros((5, 1, 4)))
        counts = count_ops(rec, net)
        assert counts.mac == 4 * 2  # 3*4 analog front end not counted

    def test_closed_form_matches_event_walk(self):
        rng = Rng(11)
        for trial in range(100):
            T = int(rng.integers(1, 6, ()))
            hidden = int(rng.integers(1, 5, ()))
            batch = int(rng.integers(1, 4, ()))
            net = _net(2, hidden, int(rng.integers(1, 5, ())), timesteps=T,
                       seed=trial)
            spikes = (rng.uniform(0, 1, (T, batch, hidden)) < 0.4).astype(np.float32)
            rec = _record_with_spikes(net, spikes)
            assert count_ops(rec, net).ac == _brute_force_ac(rec, net)

    def test_exact_past_float32_integer_range(self):
        # 17.4 M spikes in one layer: a float32 sum of the frames is no longer
        # exact, so every reader of a total must count
        net = _net(3, 1024, 3)
        frames = (np.random.default_rng(2).random((1, 17000, 1024), dtype=np.float32)
                  < 0.999).astype(np.float32)
        rec = SpikeRecord(spikes=[frames], thresholds=[net.if_layers()[0].threshold],
                          v_end=[], output=np.zeros((17000, 3), np.float32), timesteps=1)
        n_spikes = int(np.count_nonzero(frames))
        assert n_spikes == 17_390_723
        assert count_ops(rec, net).ac == n_spikes * 3
        assert int(rec.counts(0).sum()) == n_spikes
        assert spike_rate_stats(rec) == [float(np.float32(n_spikes / frames.size))]

    def test_record_net_mismatch(self):
        net_a = _net(3, 4, 2)
        net_b = _net(3, 5, 2)
        rec = _record_with_spikes(net_a, np.zeros((5, 1, 4)))
        with pytest.raises(ValueError, match="width"):
            count_ops(rec, net_b)


def _counts(ac: int, mac: int) -> OpCounts:
    return OpCounts(ac=ac, mac=mac, per_layer_ac=[ac], per_layer_mac=[mac],
                    n_samples=1, timesteps=1)


class TestEnergyReport:
    def test_mac_pricing(self):
        report = energy_report(_counts(0, 16))
        assert report.ann_energy_pj == pytest.approx(73.6)

    def test_ac_pricing_and_ratio(self):
        report = energy_report(_counts(20, 16))
        assert report.snn_energy_pj == pytest.approx(18.0)
        assert report.ratio_percent == pytest.approx(24.46, abs=0.01)

    def test_zero_ac_gives_zero_ratio(self):
        assert energy_report(_counts(0, 16)).ratio_percent == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            energy_report(_counts(-1, 4))

    def test_monotone_in_spikes(self):
        lo = energy_report(_counts(10, 16)).snn_energy_pj
        hi = energy_report(_counts(11, 16)).snn_energy_pj
        assert hi > lo

    def test_ratio_rate_identity_uniform_layer(self):
        # ratio = (0.9/4.6) * T * mean_rate for one uniform layer
        net = _net(3, 4, 2, timesteps=8)
        spikes = (Rng(5).uniform(0, 1, (8, 3, 4)) < 0.5).astype(np.float32)
        rec = _record_with_spikes(net, spikes)
        counts = count_ops(rec, net)
        report = energy_report(counts)
        r_bar = np.count_nonzero(spikes) / spikes.size
        want = 100.0 * (0.9 / 4.6) * 8 * r_bar
        assert report.ratio_percent == pytest.approx(want, rel=1e-9)

    def test_json_fields(self, tmp_path):
        report = energy_report(_counts(20, 16), rates=[0.25, 0.5])
        path = tmp_path / "energy.json"
        write_energy_json(report, str(path))
        payload = json.loads(path.read_text())
        assert set(payload) == {"ac_count", "mac_count", "snn_pj", "ann_pj",
                                "ratio_pct", "rates", "meta"}
        assert payload["meta"]["bias_ops"] == "excluded from both sides"


class TestSpikeRateStats:
    def test_all_ones(self):
        net = _net(3, 4, 2)
        rec = _record_with_spikes(net, np.ones((5, 2, 4)))
        assert spike_rate_stats(rec) == [1.0]

    def test_empty_record_rate_zero(self):
        rec = SpikeRecord(spikes=[], thresholds=[], v_end=[],
                          output=np.zeros((1, 1), np.float32), timesteps=1)
        assert spike_rate_stats(rec) == []

    def test_rates_in_unit_interval(self):
        net = _net(3, 6, 2, timesteps=4)
        rec = simulate(net, Rng(3).normal(0, 1, (8, 3)), 4)
        for r in spike_rate_stats(rec):
            assert 0.0 <= r <= 1.0
