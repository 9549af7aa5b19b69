import dataclasses

import numpy as np
import pytest
from records import record_from_frames

from spikefit.ann import ActivationTrace, Linear, ann_forward, mlp, qcfs_forward, \
    replace_activations
from spikefit.calibrate import convert, lwc
from spikefit.diagnostics import (ErrorReport, _temporal_error_into, decompose_errors,
                                  layer_mse_report, output_cosine, tau_histogram,
                                  threshold_shift_report, write_error_csv,
                                  write_mse_csv, write_tau_csv,
                                  write_threshold_shift_csv)
from spikefit.snn import simulate, theoretical_spike_count
from spikefit.tensor import Rng


def temporal_error(tau_real, theta, tau_theor, ceiling, timesteps):
    """``_temporal_error_into`` into a float64 array of the inputs' shape."""
    out = np.empty(np.broadcast_shapes(*map(np.shape, (tau_real, theta, tau_theor, ceiling))))
    return _temporal_error_into(tau_real, theta, tau_theor, ceiling, timesteps, out)


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
        model = mlp([5, 10, 3], rng)
        x = rng.split("batch").normal(0, 1, (64, 5))
        model = replace_activations(model, 8, x)
        for q in model.qcfs_layers():
            q.ceiling = 1.0
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
        trace = ActivationTrace("0", pre=np.array([[1.5]], np.float32), ceiling=1.0, levels=4)
        rec = record_from_frames([np.zeros((8, 1, 1), np.uint8)], [np.ones(1, np.float32)],
                                 np.zeros((1, 1), np.float32), timesteps=8)
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["none", "half", "all", "ceiling"])
    def test_bits_match_the_two_buffer_formula(self, dtype, case):
        # the split as it was written over a float64 copy of pre, a float64
        # staircase of it and a masked copy; the ceiling 0.1 + 0.2 is not a
        # float32 value, and the "ceiling" case holds only values within one
        # float32 step of it, where comparing in float32 would flip the mask
        lam, levels, T = 0.1 + 0.2, 8, 16
        batch, width = 300, 300  # more values than one leaf of the error split
        rng = Rng(31)
        near = np.float32(lam)
        near = [np.nextafter(near, np.float32(0)), near, np.nextafter(near, np.float32(1)),
                np.float32(0), np.nextafter(np.float32(0), np.float32(-1))]
        pre = {"none": lambda: rng.uniform(-2.0, -0.01, (batch, width)),
               "half": lambda: rng.uniform(-0.35, 0.35, (batch, width)),
               "all": lambda: rng.uniform(0.0, 0.29, (batch, width)),
               "ceiling": lambda: np.resize(np.array(near + [lam], np.float64), (batch, width)),
               }[case]().astype(dtype)
        trace = ActivationTrace("0", pre=pre, ceiling=lam, levels=levels)
        frames = rng.integers(0, 2, (T, batch, width)).astype(np.uint8)
        theta = rng.uniform(0.2, 0.4, (width,))
        rec = record_from_frames([frames], [theta], np.zeros((batch, 2), np.float32), T)

        p = np.array(pre, dtype=np.float64)
        in_range = (p >= 0) & (p <= lam)
        stair = np.clip(np.floor(p * np.float64(levels) / lam + 0.5) * lam / np.float64(levels),
                        0.0, lam)
        dev = np.abs(p - stair)
        tau_theor = trace.post.astype(np.float64) * np.float64(T) / lam
        counts = rec.counts[0]
        temporal = np.abs(np.multiply(counts, theta, dtype=np.float64) - tau_theor * lam) / T
        want = {"quant": dev[in_range].mean() if in_range.any() else 0.0,
                "clip": np.maximum(p - lam, 0.0).mean(),
                "temporal": temporal.mean(), "a_max": p.max(),
                "tau_real_mean": counts.mean(dtype=np.float64), "tau_real_max": counts.max(),
                "tau_theor_mean": tau_theor.mean(), "tau_theor_max": tau_theor.max()}
        share = in_range.mean()
        assert {"none": share == 0, "half": 0.3 < share < 0.7, "all": share == 1,
                "ceiling": 0 < share < 1}[case]
        got = vars(decompose_errors([trace], rec, None).layers[0])
        assert {k: got[k] for k in want} == {k: float(v) for k, v in want.items()}

    def test_mismatched_sample_counts_rejected(self):
        model, net, x, traces, record = _staircase_setup()
        bad = [ActivationTrace(t.layer, t.pre[:5], t.ceiling, t.levels)
               for t in traces]
        with pytest.raises(ValueError, match="sample counts"):
            decompose_errors(bad, record, net)

    @pytest.mark.parametrize("width", [12, 24])
    @pytest.mark.parametrize("field", ["pre"])  # post is formed from pre, in its shape
    def test_trace_width_must_match_the_layer(self, width, field):
        model, net, x, traces, record = _staircase_setup(dims=(5, 16, 3))
        values = np.resize(getattr(traces[0], field), (len(x), width))
        bad = dataclasses.replace(traces[0], **{field: values})
        with pytest.raises(ValueError, match=f"layer 0: trace {field} has shape"):
            decompose_errors([bad], record, net)


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
        assert hist.counts[0].sum() == 33 * 7
        assert hist.counts[1].sum() == 33 * 5

    def test_bad_ceiling(self):
        with pytest.raises(ValueError, match="positive"):
            tau_histogram([np.ones((2, 2))], [0.0], 8)


class TestLayerMseReport:
    def test_perfect_calibration(self):
        rows = layer_mse_report([0.0625], [0.0])
        assert rows[0].mse_after == 0.0
        assert rows[0].reduction_pct == pytest.approx(100.0)

    def test_noop_calibration(self):
        rows = layer_mse_report([0.0625], [0.0625])
        assert rows[0].reduction_pct == 0.0

    def test_layer_count_mismatch(self):
        with pytest.raises(ValueError, match="layer count"):
            layer_mse_report([0.0], [])


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

        rows = layer_mse_report([1.0] * len(traces), [0.0] * len(traces))
        write_mse_csv(rows, str(tmp_path / "mse.csv"))
        assert (tmp_path / "mse.csv").read_text().splitlines()[0] == \
            "layer,mse_before,mse_after,reduction_pct"

        shift = threshold_shift_report(net, lwc(net, 0.6, 0.1))
        write_threshold_shift_csv(shift, str(tmp_path / "shift.csv"))
        assert (tmp_path / "shift.csv").read_text().splitlines()[0] == \
            "layer,metric,bin_lo,bin_hi,count"
