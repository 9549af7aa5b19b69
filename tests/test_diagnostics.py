import numpy as np
import pytest

from spikefit.ann import ActivationTrace, Linear, ann_forward, mlp, qcfs_forward, \
    replace_activations
from spikefit.calibrate import convert, lwc
from spikefit.diagnostics import (ErrorReport, decompose_errors, layer_mse_report,
                                  output_cosine, tau_histogram, temporal_error,
                                  threshold_shift_report, write_error_csv,
                                  write_mse_csv, write_tau_csv,
                                  write_threshold_shift_csv)
from spikefit.snn import simulate, theoretical_spike_count
from spikefit.tensor import Rng


class TestTemporalError:
    def test_reference_case_values(self):
        # tau_real 3, theta 1, tau_theor 2, ceiling 1, T 5 -> 0.2
        assert abs(float(temporal_error(3, 1.0, 2, 1.0, 5)) - 0.2) <= 1e-12
        # lowering theta to 0.7 -> 0.02
        assert abs(float(temporal_error(3, 0.7, 2, 1.0, 5)) - 0.02) <= 1e-12

    def test_threshold_lowering_reduces_error(self):
        hi = float(temporal_error(3, 1.0, 2, 1.0, 5))
        lo = float(temporal_error(3, 0.7, 2, 1.0, 5))
        assert lo < hi

    def test_vectorized(self):
        out = temporal_error(np.array([3.0, 2.0]), np.array([1.0, 1.0]),
                             np.array([2.0, 2.0]), 1.0, 5)
        np.testing.assert_allclose(out, [0.2, 0.0])


def _staircase_setup(seed=0, dims=(5, 8, 3), levels=8, timesteps=8):
    rng = Rng(seed)
    model = replace_activations(mlp(list(dims), rng), levels,
                                rng.split("init").normal(0, 1, (128, dims[0])))
    x = rng.split("batch").normal(0, 1, (64, dims[0]))
    net = convert(model, timesteps)
    traces = ann_forward(model, x, record=True).traces
    record = simulate(net, x, timesteps)
    return model, net, x, traces, record


class TestDecomposeErrors:
    def test_equivalence_regime_has_zero_temporal_error_in_first_layer(self):
        # unit ceiling keeps the staircase values exactly representable,
        # so the equivalence-regime temporal error is exactly zero
        rng = Rng(0)
        model = replace_activations(mlp([5, 10, 3], rng), 8)
        x = rng.split("batch").normal(0, 1, (64, 5))
        net = convert(model, 8)
        traces = ann_forward(model, x, record=True).traces
        record = simulate(net, x, 8)
        report = decompose_errors(traces, record, net)
        assert report.layers[0].temporal == 0.0

    def test_equivalence_regime_generic_ceilings_near_zero(self):
        model, net, x, traces, record = _staircase_setup(dims=(5, 10, 3), levels=8,
                                                         timesteps=8)
        report = decompose_errors(traces, record, net)
        assert report.layers[0].temporal <= 1e-7

    def test_components_nonnegative_and_quant_bounded(self):
        model, net, x, traces, record = _staircase_setup(seed=3)
        report = decompose_errors(traces, record, net)
        for row, trace in zip(report.layers, traces):
            assert row.quant >= 0 and row.clip >= 0 and row.temporal >= 0
            assert row.quant <= trace.ceiling / (2 * trace.levels) + 1e-9

    def test_clipping_excess_definition(self):
        from spikefit.snn import SpikeRecord
        trace = ActivationTrace("0", "qcfs", pre=np.array([[1.5]], np.float32),
                                post=np.array([[1.0]], np.float32), ceiling=1.0, levels=4)
        rec = SpikeRecord(spikes=[np.zeros((8, 1, 1), np.float32)],
                          thresholds=[np.ones(1, np.float32)],
                          v_end=[np.zeros((1, 1), np.float32)],
                          output=np.zeros((1, 1), np.float32), timesteps=8)
        report = decompose_errors([trace], rec, None)
        assert report.layers[0].clip == pytest.approx(0.5)

    def test_temporal_matches_recomputation_from_raw_logs(self):
        model, net, x, traces, record = _staircase_setup(seed=5)
        report = decompose_errors(traces, record, net)
        for j, row in enumerate(report.layers):
            tau_real = record.spikes[j].sum(axis=0).astype(np.float64)
            tau_theor = (traces[j].post.astype(np.float64) * record.timesteps
                         / traces[j].ceiling)
            theta = record.thresholds[j].astype(np.float64)
            want = np.abs(tau_real * theta - tau_theor * traces[j].ceiling).mean() \
                / record.timesteps
            assert row.temporal == pytest.approx(float(want), abs=0)

    def test_mismatched_sample_counts_rejected(self):
        model, net, x, traces, record = _staircase_setup()
        bad = [ActivationTrace(t.layer, t.kind, t.pre[:5], t.post[:5], t.ceiling, t.levels)
               for t in traces]
        with pytest.raises(ValueError, match="sample counts"):
            decompose_errors(bad, record, net)


class TestTauHistogram:
    def test_saturated_activations_fill_top_bin(self):
        acts = [np.full((10, 4), 2.0)]
        hist = tau_histogram(acts, [2.0], 8)
        assert hist.counts[0][-1] == 40
        assert hist.counts[0][:-1].sum() == 0

    def test_mass_conservation(self):
        rng = Rng(2)
        acts = [rng.uniform(0, 1.5, (33, 7)), rng.uniform(0, 0.5, (33, 5))]
        hist = tau_histogram(acts, [1.5, 0.5], 8)
        assert hist.total(0) == 33 * 7
        assert hist.total(1) == 33 * 5

    def test_fraction_at_or_below_half_horizon(self):
        acts = [np.array([[0.25, 0.75]])]  # tau = 2 and 6 at ceiling 1, T 8
        hist = tau_histogram(acts, [1.0], 8)
        assert hist.frac_le_half[0] == pytest.approx(0.5)

    def test_bad_ceiling(self):
        with pytest.raises(ValueError, match="positive"):
            tau_histogram([np.ones((2, 2))], [0.0], 8)


class TestLayerMseReport:
    def test_perfect_calibration(self):
        acts = [np.array([[0.5, 0.25]])]
        rows = layer_mse_report(acts, [np.array([[0.75, 0.5]])], [acts[0].copy()])
        assert rows[0].mse_after == 0.0
        assert rows[0].reduction_pct == pytest.approx(100.0)

    def test_noop_calibration(self):
        acts = [np.array([[0.5]])]
        rates = [np.array([[0.75]])]
        rows = layer_mse_report(acts, rates, [rates[0].copy()])
        assert rows[0].reduction_pct == 0.0

    def test_layer_count_mismatch(self):
        with pytest.raises(ValueError, match="layer count"):
            layer_mse_report([np.zeros((1, 1))], [], [])


class TestOutputCosine:
    def test_identical(self):
        v = Rng(0).normal(0, 1, (3, 4))
        assert output_cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert output_cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_scale_invariance(self):
        a = Rng(1).normal(0, 1, (8,))
        b = Rng(2).normal(0, 1, (8,))
        assert output_cosine(a, b) == pytest.approx(output_cosine(a, 4.0 * b), abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            output_cosine(np.zeros(4), np.ones(4))


class TestThresholdShift:
    def test_identity_gives_unit_ratios(self):
        model, net, *_ = _staircase_setup()
        shift = threshold_shift_report(net, net.clone())
        for r in shift.ratios:
            np.testing.assert_allclose(r, 1.0)

    def test_layer_scaling_shows_up_as_ratio(self):
        model, net, *_ = _staircase_setup()
        shifted = lwc(net, 0.6, 0.1)
        shift = threshold_shift_report(net, shifted)
        for r in shift.ratios:
            np.testing.assert_allclose(r, 0.6, rtol=1e-6)

    def test_architecture_mismatch(self):
        _, net_a, *_ = _staircase_setup(dims=(5, 8, 3))
        _, net_b, *_ = _staircase_setup(dims=(5, 6, 3))
        with pytest.raises(ValueError, match="architectures"):
            threshold_shift_report(net_a, net_b)


class TestCsvEmitters:
    def test_headers_and_rows(self, tmp_path):
        model, net, x, traces, record = _staircase_setup()
        report = decompose_errors(traces, record, net)
        write_error_csv(report, str(tmp_path / "errors.csv"))
        assert (tmp_path / "errors.csv").read_text().splitlines()[0] == \
            "layer,quant,clip,temporal"

        hist = tau_histogram([t.post for t in traces], [t.ceiling for t in traces], 8)
        write_tau_csv(hist, str(tmp_path / "tau.csv"))
        assert (tmp_path / "tau.csv").read_text().splitlines()[0] == "layer,bin,count"

        rows = layer_mse_report([t.post for t in traces],
                                [np.zeros_like(t.post) for t in traces],
                                [t.post for t in traces])
        write_mse_csv(rows, str(tmp_path / "mse.csv"))
        assert (tmp_path / "mse.csv").read_text().splitlines()[0] == \
            "layer,mse_before,mse_after,reduction_pct"

        shift = threshold_shift_report(net, lwc(net, 0.6, 0.1))
        write_threshold_shift_csv(shift, str(tmp_path / "shift.csv"))
        assert (tmp_path / "shift.csv").read_text().splitlines()[0] == \
            "layer,metric,bin_lo,bin_hi,count"
