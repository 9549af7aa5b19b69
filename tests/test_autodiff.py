import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefit import autodiff as ad
from spikefit.autodiff import (SURROGATE_WINDOW, AdamState, Tape, TapeError, adam_step,
                               backward, surrogate_spike_grad)
from spikefit.tensor import Rng


class TestBackwardBasics:
    def test_square_gradient(self):
        tape = Tape()
        x = tape.leaf(np.asarray(3.0))
        y = ad.mul(x, x)
        assert float(backward(tape, y).wrt(x)) == 6.0

    def test_constant_leaf_gets_zero(self):
        tape = Tape()
        x = tape.leaf(np.asarray(2.0))
        c = tape.leaf(np.asarray(5.0))
        y = ad.mul(x, x)
        g = backward(tape, y)
        assert float(g.wrt(c)) == 0.0

    def test_nonscalar_needs_seed(self):
        tape = Tape()
        x = tape.leaf(np.ones(3))
        y = ad.mul(x, 2.0)
        with pytest.raises(ValueError, match="seed"):
            backward(tape, y)
        g = backward(tape, y, seed=np.array([1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(g.wrt(x), [2.0, 0.0, 4.0])

    def test_cross_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.leaf(np.asarray(1.0))
        with pytest.raises(TapeError, match="before definition"):
            t2._record(np.asarray(0.0), (x,), lambda g: [g])

    def test_backward_deterministic(self):
        def run():
            tape = Tape()
            x = tape.leaf(Rng(3).normal(0, 1, (4, 4)))
            y = ad.sum_(ad.mul(ad.relu(x), x))
            return backward(tape, y).wrt(x).tobytes()

        assert run() == run()


def _finite_diff(f, params, h=1e-6):
    grads = {}
    for k, p in params.items():
        g = np.zeros_like(p)
        flat = p.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f(params)
            flat[i] = orig - h
            lo = f(params)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads[k] = g
    return grads


class TestFiniteDifferences:
    def test_two_layer_smooth_net_matches_central_differences(self):
        # float64 throughout: the oracle needs headroom below 1e-4 relative
        rng = Rng(0)
        w1 = rng.normal(0, 0.5, (5, 7)).astype(np.float64)
        b1 = rng.normal(0, 0.1, (7,)).astype(np.float64)
        w2 = rng.normal(0, 0.5, (7, 3)).astype(np.float64)
        b2 = rng.normal(0, 0.1, (3,)).astype(np.float64)
        x = rng.normal(0, 1, (4, 5)).astype(np.float64)
        params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}

        def loss_np(p):
            h = np.tanh(x @ p["w1"] + p["b1"])
            out = h @ p["w2"] + p["b2"]
            return float(np.mean(out ** 2))

        tape = Tape()
        tvars = {k: tape.leaf(v) for k, v in params.items()}
        h = ad.tanh(ad.add(ad.matmul(tape.leaf(x), tvars["w1"]), tvars["b1"]))
        out = ad.add(ad.matmul(h, tvars["w2"]), tvars["b2"])
        loss = ad.mean_(ad.mul(out, out))
        gmap = backward(tape, loss)

        fd = _finite_diff(loss_np, params, h=1e-6)
        for k in params:
            got = gmap.wrt(tvars[k])
            want = fd[k]
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-8)
            assert rel.max() < 1e-4, f"{k}: max rel err {rel.max()}"

    def test_gelu_gradient_matches_fd(self):
        x = np.linspace(-3, 3, 13, dtype=np.float64)
        tape = Tape()
        xv = tape.leaf(x)
        y = ad.sum_(ad.gelu(xv))
        got = backward(tape, y).wrt(xv)
        h = 1e-6
        want = (ad.gelu_ref(x + h) - ad.gelu_ref(x - h)) / (2 * h)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-8)

    def test_softmax_cross_entropy_matches_fd(self):
        rng = Rng(5)
        logits = rng.normal(0, 1, (6, 4)).astype(np.float64)
        onehot = np.eye(4)[rng.integers(0, 4, (6,))]

        def loss_np(p):
            z = p["z"]
            z = z - z.max(axis=1, keepdims=True)
            ls = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return float(-np.mean((ls * onehot).sum(axis=1)))

        params = {"z": logits.copy()}
        tape = Tape()
        zv = tape.leaf(params["z"])
        loss = ad.softmax_cross_entropy(zv, onehot)
        got = backward(tape, loss).wrt(zv)
        want = _finite_diff(loss_np, params)["z"]
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-10)


class TestSteFloor:
    def test_forward_is_floor(self):
        tape = Tape()
        x = tape.leaf(np.array([1.7, -0.3, 2.0]))
        y = ad.ste_floor(x)
        np.testing.assert_array_equal(y.value, [1.0, -1.0, 2.0])

    def test_backward_is_identity(self):
        tape = Tape()
        x = tape.leaf(np.array([1.7, -0.3, 2.0]))
        y = ad.ste_floor(x)
        g = backward(tape, ad.sum_(ad.mul(y, 3.0)))
        np.testing.assert_array_equal(g.wrt(x), [3.0, 3.0, 3.0])


class TestSurrogate:
    def test_window_center(self):
        assert surrogate_spike_grad(np.asarray(1.0), np.asarray(1.0)) == 1.0

    def test_outside_window(self):
        assert surrogate_spike_grad(np.asarray(0.0), np.asarray(1.0)) == 0.0

    def test_inside_window_off_center(self):
        # |1.4 - 1| = 0.4 < 0.5 -> 1/theta = 1
        assert surrogate_spike_grad(np.asarray(1.4), np.asarray(1.0)) == 1.0

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            surrogate_spike_grad(np.asarray(1.0), np.asarray(0.0))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-10, 10), st.floats(0.01, 5))
    def test_bounds_property(self, v, theta):
        g = float(surrogate_spike_grad(np.asarray(v), np.asarray(theta)))
        assert g >= 0.0
        assert g <= 1.0 / theta
        if abs(v - theta) >= SURROGATE_WINDOW * theta:
            assert g == 0.0

    def test_spike_op_gradients(self):
        tape = Tape()
        v = tape.leaf(np.array([0.2, 0.9, 1.6], dtype=np.float64))
        theta = tape.leaf(np.asarray(1.0))
        s = ad.spike(v, theta)
        np.testing.assert_array_equal(s.value, [0.0, 0.0, 1.0])
        g = backward(tape, ad.sum_(s))
        want = surrogate_spike_grad(v.value, 1.0)
        np.testing.assert_array_equal(g.wrt(v), want)
        assert float(g.wrt(theta)) == -want.sum()

    def test_tie_fires(self):
        tape = Tape()
        v = tape.leaf(np.array([1.0]))
        s = ad.spike(v, np.asarray(1.0))
        assert s.value[0] == 1.0


class TestAdam:
    def test_zero_gradient_keeps_params_and_decays_moments(self):
        p = {"w": np.array([1.5], np.float32)}
        state = AdamState({"w": np.array([0.8], np.float32)},
                          {"w": np.array([0.4], np.float32)}, 3)
        new, s2 = adam_step(p, {"w": np.zeros(1, np.float32)}, state, lr=0.0)
        np.testing.assert_array_equal(new["w"], p["w"])
        assert float(s2.m["w"][0]) == pytest.approx(0.9 * 0.8)
        assert float(s2.v["w"][0]) == pytest.approx(0.999 * 0.4)

    def test_single_step_moves_by_lr(self):
        new, _ = adam_step({"w": np.array([0.0])}, {"w": np.array([1.0])}, None, lr=0.1)
        assert float(new["w"][0]) == pytest.approx(-0.1, rel=1e-6)

    def test_lr_zero_is_identity(self):
        p = {"w": np.array([1.0, -2.0])}
        new, _ = adam_step(p, {"w": np.array([0.3, 0.7])}, None, lr=0.0)
        np.testing.assert_array_equal(new["w"], p["w"])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="'w'"):
            adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, None, lr=0.1)

    def test_decoupled_weight_decay(self):
        new, _ = adam_step({"w": np.array([1.0])}, {"w": np.array([0.0])}, None,
                           lr=0.1, weight_decay=0.5)
        assert float(new["w"][0]) == pytest.approx(1.0 - 0.1 * 0.5 * 1.0)


def _adam_reference(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """The Adam step as a formula over fresh arrays, before it worked in place."""
    b1, b2 = betas
    t = state.step + 1
    out_p, out_m, out_v = {}, {}, {}
    for k in sorted(params):
        p, g = params[k], grads[k]
        m = b1 * state.m[k] + (1 - b1) * g
        v = b2 * state.v[k] + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        new = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        if weight_decay:
            new = new - lr * weight_decay * p
        out_p[k] = new.astype(p.dtype, copy=False)
        out_m[k] = m.astype(p.dtype, copy=False)
        out_v[k] = v.astype(p.dtype, copy=False)
    return out_p, AdamState(out_m, out_v, t)


class TestInPlaceAdam:
    # parameter dtype, gradient dtype: float64 gradients reach float32
    # parameters when training runs on a float64 batch
    DTYPES = [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)]

    @pytest.mark.parametrize("p_dtype, g_dtype", DTYPES)
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_fifty_steps_equal_the_formula(self, p_dtype, g_dtype, weight_decay):
        rng = Rng(11)
        shapes = {"w": (7, 5), "b": (5,), "ceiling": ()}
        params = {k: np.array(rng.split(k).normal(0, 1, s), dtype=p_dtype)
                  for k, s in shapes.items()}
        ref_p = {k: p.copy() for k, p in params.items()}
        ref_state = AdamState({k: np.zeros_like(p) for k, p in params.items()},
                              {k: np.zeros_like(p) for k, p in params.items()}, 0)
        state = None
        for step in range(50):
            grads = {k: np.array(rng.split(f"g{step}{k}").normal(0, 10.0 ** (step % 5 - 2), s),
                                 dtype=g_dtype) for k, s in shapes.items()}
            grads["b"][step % 5] = 0.0  # a zero gradient in a moving moment
            ref_p, ref_state = _adam_reference(ref_p, grads, ref_state, 0.01,
                                               weight_decay=weight_decay)
            out, state = adam_step(params, grads, state, 0.01, weight_decay=weight_decay)
            assert out is params and state.step == ref_state.step == step + 1
            for k in shapes:
                for got, want in ((params[k], ref_p[k]), (state.m[k], ref_state.m[k]),
                                  (state.v[k], ref_state.v[k])):
                    assert got.dtype == p_dtype and np.shape(got) == shapes[k]
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (step, k)

    def test_arrays_keep_their_identity(self):
        params = {"w": np.ones((3, 2), np.float32), "ceiling": np.asarray(2.0, np.float32)}
        grads = {k: np.full_like(p, 0.5) for k, p in params.items()}
        ids = {k: id(p) for k, p in params.items()}
        _, state = adam_step(params, grads, None, 0.1, weight_decay=0.1)
        moments = {k: (id(state.m[k]), id(state.v[k])) for k in params}
        scratch = {k: tuple(id(a) for a in state.scratch[k]) for k in params}
        for _ in range(3):
            out, state2 = adam_step(params, grads, state, 0.1, weight_decay=0.1)
            assert out is params and state2 is state
        assert {k: id(p) for k, p in params.items()} == ids
        assert {k: (id(state.m[k]), id(state.v[k])) for k in params} == moments
        assert {k: tuple(id(a) for a in state.scratch[k]) for k in params} == scratch
        assert all(len(s) == 2 for s in state.scratch.values())
        assert params["ceiling"].shape == () and float(params["ceiling"]) < 2.0

    def test_numpy_scalar_rejected(self):
        # a numpy scalar cannot be updated in place
        with pytest.raises(TypeError, match="'c'"):
            adam_step({"c": np.float32(1.0)}, {"c": np.asarray(0.5, np.float32)}, None, lr=0.1)
