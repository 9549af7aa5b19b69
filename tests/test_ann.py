import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefit.ann import (AnnModel, Embedding, Linear, Qcfs, Relu, TrainConfig,
                          TrainingDivergedError, _backward, ann_forward, dataset_loss, mlp,
                          param_arrays, qcfs_forward, replace_activations, set_param_arrays,
                          stage1_finetune, train_model)
from spikefit.checkpoint import weight_hash
from spikefit.data import Dataset
from spikefit.tensor import Rng


class TestQcfsForward:
    def test_scalar_reference_case(self):
        # floor(0.3*4/1 + 0.5) = floor(1.7) = 1 -> 1/4
        assert float(qcfs_forward(np.float64(0.3), 1.0, 4)) == 0.25

    def test_negative_clips_to_zero(self):
        assert float(qcfs_forward(np.float64(-0.2), 1.0, 4)) == 0.0

    def test_upper_clip(self):
        assert float(qcfs_forward(np.float64(1.5), 1.0, 4)) == 1.0

    def test_bad_params(self):
        with pytest.raises(ValueError):
            qcfs_forward(np.zeros(3), 0.0, 4)
        with pytest.raises(ValueError):
            qcfs_forward(np.zeros(3), 1.0, 0)

    def test_binary_quantization_at_one_level(self):
        x = np.linspace(-1, 2, 301)
        out = np.unique(qcfs_forward(x, 1.0, 1))
        assert set(out.tolist()) <= {0.0, 1.0}

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-2, 4), st.floats(-2, 4), st.floats(0.1, 3), st.integers(1, 64))
    def test_monotone_and_on_lattice(self, x1, x2, lam, levels):
        lo, hi = sorted((x1, x2))
        y_lo = float(qcfs_forward(np.float64(lo), lam, levels))
        y_hi = float(qcfs_forward(np.float64(hi), lam, levels))
        assert y_lo <= y_hi
        k = y_lo * levels / lam
        assert abs(k - round(k)) < 1e-9
        assert 0.0 <= y_lo <= lam

    def test_quantization_bound_over_level_sweep(self):
        rng = Rng(0)
        for levels in (2, 4, 8, 16, 64, 256, 1024):
            lam = 1.0
            x = rng.uniform(0.0, lam, (2000,)).astype(np.float64)
            err = np.abs(x - qcfs_forward(x, lam, levels))
            assert err.max() <= lam / (2 * levels) + 1e-12

    def test_converges_to_clip(self):
        x = np.linspace(-0.5, 1.5, 1001, dtype=np.float64)
        lam = 1.0
        clipped = np.clip(x, 0, lam)
        for levels in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            gap = np.abs(qcfs_forward(x, lam, levels) - clipped)
            assert gap.max() <= lam / (2 * levels) + 1e-12


class TestQcfsTapeGradients:
    """The staircase's gradients as the hand-written reverse sweep forms
    them. A unit linear in front makes the staircase's input gradient the
    bias gradient of that linear, for a batch of one row."""

    @staticmethod
    def _grads(x, ceiling, up):
        x = np.array([x], dtype=np.float32)
        width = x.shape[1]
        model = AnnModel([Linear(np.eye(width, dtype=np.float32), np.zeros(width, np.float32)),
                          Qcfs(ceiling, 4)])
        return _backward(model, x, ann_forward(model, x), np.array([up], dtype=np.float32))

    def test_interior_gradient_passes_upstream_unchanged(self):
        up = np.array([1.7], dtype=np.float32)
        g = self._grads([0.3], 1.0, up)
        np.testing.assert_array_equal(g["0.b"], up)  # exact pass-through

    def test_clipped_gradient_is_zero(self):
        g = self._grads([-0.5, 1.5], 1.0, np.ones(2, np.float32))
        np.testing.assert_array_equal(g["0.b"], [0.0, 0.0])

    def test_ceiling_gradient_saturation_region(self):
        # fully clipped above: output == ceiling, d(out)/d(ceiling) = 1
        g = self._grads([5.0], 1.0, np.ones(1, np.float32))
        assert float(g["1.ceiling"]) == 1.0


def _teacher_data(rng: Rng, n=2000, d=6, classes=3):
    x = rng.split("x").normal(0, 1, (n, d))
    teacher = mlp([d, 16, classes], rng.split("teacher"))
    y = ann_forward(teacher, x, record=False).output.argmax(axis=1).astype(np.int64)
    return Dataset(x, y, "classify")


class TestAnnForward:
    def test_identity_network(self):
        model = AnnModel([Linear(np.eye(3, dtype=np.float32), np.zeros(3, np.float32))])
        x = Rng(0).normal(0, 1, (4, 3))
        np.testing.assert_array_equal(ann_forward(model, x).output, x)

    def test_trace_count_matches_activation_layers(self):
        model = mlp([4, 8, 8, 2], Rng(0))
        res = ann_forward(model, Rng(1).normal(0, 1, (5, 4)))
        assert len(res.traces) == 2
        assert all(t.pre.shape == t.post.shape for t in res.traces)

    def test_matches_float64_oracle(self):
        model = mlp([6, 10, 3], Rng(2))
        x = Rng(3).normal(0, 1, (8, 6))
        got = ann_forward(model, x, record=False).output
        # independent double-precision forward
        h = x.astype(np.float64) @ model.layers[0].w.astype(np.float64) + model.layers[0].b
        h = np.maximum(h, 0)
        want = h @ model.layers[2].w.astype(np.float64) + model.layers[2].b
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_shape_error_names_layer(self):
        model = mlp([4, 8, 2], Rng(0))
        with pytest.raises(ValueError, match="layer 0"):
            ann_forward(model, np.zeros((2, 5), np.float32))

    def test_embedding(self):
        rng = Rng(4)
        table = rng.normal(0, 1, (11, 3))
        model = AnnModel([Embedding(table),
                          Linear(rng.normal(0, 0.3, (6, 6)), np.zeros(6, np.float32)),
                          Relu(),
                          Linear(rng.normal(0, 0.3, (6, 2)), np.zeros(2, np.float32))])
        tokens = rng.integers(0, 11, (5, 2))
        out = ann_forward(model, tokens)
        assert out.output.shape == (5, 2)
        assert [t.layer for t in out.traces] == ["2"]
        np.testing.assert_array_equal(out.traces[0].pre,
                                      table[tokens].reshape(5, 6) @ model.layers[1].w)


class TestNoReferenceCycles:
    """Activations are freed by reference counting alone, as soon as the
    caller drops the result, without waiting for the cyclic collector; and
    no walk over the layer list leaves cyclic garbage behind."""

    def _model(self):
        rng = Rng(5)
        return AnnModel([Linear(rng.normal(0, 0.3, (4, 6)), np.zeros(6, np.float32)),
                         Qcfs(1.5, 4),
                         Linear(rng.normal(0, 0.2, (6, 6)), np.zeros(6, np.float32)),
                         Qcfs(1.0, 4),
                         Linear(rng.normal(0, 0.3, (6, 2)), np.zeros(2, np.float32))])

    @pytest.mark.parametrize("walk", [
        lambda m: param_arrays(m),
        lambda m: set_param_arrays(m, param_arrays(m)),
        lambda m: m.qcfs_layers(),
        lambda m: replace_activations(mlp([8, 16, 16, 4], Rng(8)), 4, Rng(9).normal(0, 1, (32, 8))),
        lambda m: weight_hash(m),
    ], ids=["param_arrays", "set_param_arrays", "qcfs_layers", "replace_activations",
            "weight_hash"])
    def test_layer_walk_leaves_no_cyclic_garbage(self, walk):
        model = self._model()
        walk(model)  # a first call may leave one-off garbage from lazy imports
        gc.disable()
        try:
            gc.collect()
            walk(model)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ann_forward(self):
        model = self._model()
        x = Rng(6).normal(0, 1, (8, 4))
        gc.disable()
        try:
            result = ann_forward(model, x, record=True)
            refs = [weakref.ref(result.traces[0].post), weakref.ref(result.traces[-1].pre),
                    weakref.ref(result.output)]
            del result
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_training_step(self):
        model = self._model()
        rng = Rng(7)
        data = Dataset(rng.normal(0, 1, (16, 4)), rng.integers(0, 2, (16,)), "classify")

        def step():
            train_model(model, data, TrainConfig(steps=2, batch_size=8), Rng(8))

        step()  # a first call may leave one-off garbage from lazy imports
        gc.disable()
        try:
            gc.collect()
            step()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestReplaceActivations:
    def test_structural_swap_keeps_weights_bit_identical(self):
        model = mlp([4, 8, 8, 8, 2], Rng(0))
        out = replace_activations(model, 8)
        assert len(out.qcfs_layers()) == 3
        for a, b in zip(model.layers, out.layers):
            if isinstance(a, Linear):
                assert a.w.tobytes() == b.w.tobytes()
                assert a.b.tobytes() == b.b.tobytes()

    def test_ceiling_is_999_percentile_of_preactivation_magnitudes(self):
        model = mlp([4, 8, 2], Rng(1))
        batch = Rng(2).normal(0, 1, (200, 4))
        out = replace_activations(model, 8, batch)
        pre = batch @ model.layers[0].w + model.layers[0].b
        want = float(np.percentile(np.abs(pre), 99.9))
        assert out.qcfs_layers()[0].ceiling == pytest.approx(want, rel=1e-6)

    def test_one_level_is_binary(self):
        model = mlp([4, 8, 2], Rng(1))
        out = replace_activations(model, 1, Rng(2).normal(0, 1, (100, 4)))
        q = out.qcfs_layers()[0]
        x = Rng(3).normal(0, 2, (50, 4))
        trace = ann_forward(out, x).traces[0]
        values = set(np.unique(trace.post).tolist())
        assert values <= {0.0, np.float32(q.ceiling)}

    def test_no_activations_rejected(self):
        model = AnnModel([Linear(np.eye(2, dtype=np.float32), np.zeros(2, np.float32))])
        with pytest.raises(ValueError, match="no ReLU/GELU"):
            replace_activations(model, 8)


class TestTraining:
    def test_loss_halves_on_teacher_task(self):
        for seed in (0, 1, 2):
            rng = Rng(seed)
            data = _teacher_data(rng)
            model = replace_activations(mlp([6, 32, 32, 3], rng.split("init")), 8,
                                        data.x[:256])
            initial = dataset_loss(model, data)
            cfg = TrainConfig(steps=500, batch_size=64, lr=0.01, lr_ceiling=0.05)
            trained, history = stage1_finetune(model, data, cfg, rng.split("train"))
            assert dataset_loss(trained, data) <= 0.5 * initial
            assert len(history) >= 1 and "train_loss" in history[0]

    def test_quantization_bound_before_any_update(self):
        # with L=64 the staircase model's activations sit within ceiling/(2L)
        # of the clipped-relu model's, per activation
        rng = Rng(7)
        model = mlp([6, 16, 3], rng)
        batch = rng.split("b").normal(0, 1, (64, 6))
        q = replace_activations(model, 64, batch)
        cap = q.qcfs_layers()[0].ceiling
        pre = batch @ model.layers[0].w + model.layers[0].b
        clipped = np.clip(np.maximum(pre, 0), 0, cap)
        staircase = ann_forward(q, batch).traces[0].post
        assert np.abs(staircase - clipped).max() <= cap / (2 * 64) + 1e-6

    def test_lr_zero_leaves_model_unchanged(self):
        rng = Rng(3)
        data = _teacher_data(rng, n=200)
        model = replace_activations(mlp([6, 8, 3], rng.split("init")), 4, data.x[:64])
        before = {k: v.copy() for k, v in param_arrays(model).items()}
        trained, _ = train_model(model, data, TrainConfig(steps=20, lr=0.0, lr_ceiling=0.0),
                                 rng.split("t"))
        after = param_arrays(trained)
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_caller_model_is_never_written(self):
        rng = Rng(3)
        data = _teacher_data(rng, n=200)
        model = replace_activations(mlp([6, 8, 3], rng.split("init")), 4, data.x[:64])
        before = {k: v.copy() for k, v in param_arrays(model).items()}
        cfg = TrainConfig(steps=20, lr=0.05, lr_ceiling=0.05, weight_decay=0.01)
        trained, _ = train_model(model, data, cfg, rng.split("t"))
        after, got = param_arrays(model), param_arrays(trained)
        for k in before:
            assert after[k].tobytes() == before[k].tobytes(), k
            assert got[k].tobytes() != before[k].tobytes(), k
            assert not np.shares_memory(after[k], got[k]), k

    def test_nan_loss_aborts_with_diagnostic(self):
        rng = Rng(3)
        data = _teacher_data(rng, n=200)
        model = mlp([6, 8, 3], rng.split("init"))
        model.layers[0].w[0, 0] = np.float32(np.inf)
        # the inf is deliberate: silence numpy's warnings about it, as the CLI does
        with pytest.raises(TrainingDivergedError, match="step"), np.errstate(all="ignore"):
            train_model(model, data, TrainConfig(steps=5, lr=0.01), rng.split("t"))

    def test_stage1_requires_staircase_model(self):
        rng = Rng(3)
        data = _teacher_data(rng, n=100)
        with pytest.raises(ValueError, match="replace_activations"):
            stage1_finetune(mlp([6, 8, 3], rng), data, TrainConfig(steps=1), rng)
