"""Stage-1 training's hand-written reverse sweep against a tape reference.

The reference records the forward pass and the loss on the autodiff tape,
the way training ran before it swept the layer list by hand. Every gradient
and every loss must equal the tape's bit for bit, in value and dtype.
"""

import numpy as np
import pytest

from spikefit import autodiff as ad
from spikefit.ann import (AnnModel, Embedding, Linear, Relu, TrainConfig, _backward,
                          _cross_entropy_head, ann_forward, char_lm, mlp,
                          param_arrays, replace_activations, train_model)
from spikefit.autodiff import Var, _unbroadcast, record_op
from spikefit.data import Dataset
from spikefit.tensor import Rng


def qcfs_on_tape(x: Var, ceiling, levels: int) -> Var:
    """Differentiable staircase: straight-through floor, zero outside the clip.

    Where the pre-floor argument is strictly inside (0, levels) the input
    gradient passes through unchanged; outside it is exactly zero. The
    ceiling gradient combines the saturation indicator with the
    straight-through correction term.
    """
    xv = x.value
    lam = float(ceiling.value) if isinstance(ceiling, Var) else float(ceiling)
    lv = int(levels)
    dt = xv.dtype
    z = xv * dt.type(lv) / dt.type(lam) + dt.type(0.5)
    floored = np.floor(z)
    q = np.clip(floored, 0.0, lv).astype(dt) / dt.type(lv)  # value / ceiling, in [0, 1]
    value = np.clip(floored * dt.type(lam) / dt.type(lv), dt.type(0.0), dt.type(lam))
    interior = ((z > 0) & (z < lv)).astype(dt)
    lam_shape = np.shape(ceiling.value if isinstance(ceiling, Var) else ceiling)

    def grad_x(g):
        return g * interior

    def grad_ceiling(g):
        return _unbroadcast(g * (q - xv / dt.type(lam) * interior), lam_shape)

    return record_op(value, [x, ceiling], [grad_x, grad_ceiling])


def forward_on_tape(model: AnnModel, params: dict[str, Var], x):
    """Mirror of ann_forward over tape variables; the input is a constant."""
    h = np.asarray(x)
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Linear):
            h = ad.add(ad.matmul(h, params[f"{i}.w"]), params[f"{i}.b"])
        elif isinstance(layer, Embedding):
            idx = h if isinstance(h, np.ndarray) else h.value
            rows = ad.gather_rows(params[f"{i}.table"], idx)
            h = ad.reshape(rows, (idx.shape[0], -1))
        elif isinstance(layer, Relu):
            h = ad.relu(h)
        else:
            h = qcfs_on_tape(h, params[f"{i}.ceiling"], layer.levels)
    return h


def loss_on_tape(output: Var, y) -> Var:
    onehot = np.eye(output.value.shape[1], dtype=output.value.dtype)[y]
    return ad.softmax_cross_entropy(output, onehot)


def float32_params(model):
    return {k: np.array(v, dtype=np.float32) for k, v in param_arrays(model).items()}


def tape_step(model, params, x, y):
    tape = ad.Tape()
    tvars = {k: tape.leaf(v) for k, v in params.items()}
    loss = loss_on_tape(forward_on_tape(model, tvars, x), y)
    grads = ad.backward(tape, loss)
    return float(loss.value), {k: grads.wrt(v) for k, v in tvars.items()}


def tape_train(model, data, cfg, rng):
    """Stage-1 training as it ran on the tape; returns the trained arrays."""
    params = float32_params(model)
    ceilings = {k: p for k, p in params.items() if k.endswith(".ceiling")}
    weights = {k: p for k, p in params.items() if k not in ceilings}
    lr_ceiling = cfg.lr if cfg.lr_ceiling is None else cfg.lr_ceiling
    state_w = state_c = None
    n = len(data.x)
    for _ in range(cfg.steps):
        idx = rng.integers(0, n, (min(cfg.batch_size, n),))
        _, grads = tape_step(model, params, data.x[idx], data.y[idx])
        _, state_w = ad.adam_step(weights, grads, state_w, cfg.lr,
                                  weight_decay=cfg.weight_decay)
        if ceilings:
            _, state_c = ad.adam_step(ceilings, grads, state_c, lr_ceiling)
            for p in ceilings.values():
                np.maximum(p, np.float32(1e-4), out=p)
    return params


def hand_step(model, x, y):
    fwd = ann_forward(model, x)
    loss, g = _cross_entropy_head(fwd.output, y)
    return loss, _backward(model, fwd, g)


def _staircase(model, x, levels=4, scale=0.5):
    """Staircase model with ceilings well inside the pre-activation range,
    so batches hit the clip at both ends as well as the interior. Ceilings
    are float32 values, as training keeps them."""
    q = replace_activations(model, levels, x)
    for layer in q.qcfs_layers():
        layer.ceiling = float(np.float32(layer.ceiling * scale))
    return q


def _case(name, seed, dtype):
    rng = Rng(seed)
    x = rng.split("x").normal(0, 1.5, (24, 6)).astype(dtype)
    if name == "char_lm":  # 5 tokens over a window of 3 and 24 rows: many repeats
        model = _staircase(char_lm(5, 3, 4, [10], rng.split("m")),
                           rng.split("t").integers(0, 5, (64, 3)))
        x = rng.split("tokens").integers(0, 5, (24, 3))
        return model, x, rng.split("y").integers(0, 5, (24,))
    dims = [6, 12, 10, 3]
    if name == "relu":
        model = mlp(dims, rng.split("m"))
    elif name == "qcfs":
        model = _staircase(mlp(dims, rng.split("m")), x)
    else:  # two linear maps back to back, then a staircase
        first = mlp([6, 9], rng.split("a")).layers
        model = _staircase(AnnModel(first + mlp([9, 12, 3], rng.split("m")).layers), x)
    return model, x, rng.split("y").integers(0, 3, (24,))


CASES = ["relu", "qcfs", "linear_linear", "char_lm"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", CASES)
def test_gradients_equal_the_tape(name, seed, dtype):
    model, x, y = _case(name, seed, dtype)
    want_loss, want = tape_step(model, float32_params(model), x, y)
    got_loss, got = hand_step(model, x, y)
    assert got_loss == want_loss
    assert sorted(got) == sorted(want)
    for k in want:
        assert got[k].dtype == want[k].dtype, k
        assert np.shape(got[k]) == np.shape(want[k]), k
        assert np.array_equal(got[k], want[k]), k


def test_cases_reach_every_branch():
    """The cases above cover the clip at both ends of each staircase,
    repeated tokens and a float64 forward pass."""
    model, x, _ = _case("qcfs", 0, np.float64)
    traces = ann_forward(model, x).traces
    assert traces[0].post.dtype == np.float64
    for t in traces:
        assert (t.post == 0).any() and (t.post == t.ceiling).any()
        assert ((t.post > 0) & (t.post < t.ceiling)).any()
    tokens = _case("char_lm", 0, np.float32)[1]
    assert len(np.unique(tokens)) < tokens.size


def test_head_equals_the_tape():
    rng = Rng(9)
    out = rng.split("out").normal(0, 3, (32, 5))
    y = rng.split("y").integers(0, 5, (32,))
    tape = ad.Tape()
    leaf = tape.leaf(out)
    loss = loss_on_tape(leaf, y)
    want = ad.backward(tape, loss).wrt(leaf)
    got_loss, got = _cross_entropy_head(out, y)
    assert got_loss == float(loss.value)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name, dtype, weight_decay", [
    ("relu", np.float64, 0.0),
    ("qcfs", np.float32, 1e-3),
    ("qcfs", np.float64, 0.0),
    ("char_lm", np.float32, 0.0),
])
def test_training_equals_the_tape_loop(name, dtype, weight_decay):
    model, x, y = _case(name, 0, dtype)
    data = Dataset(x, y)
    cfg = TrainConfig(steps=15, batch_size=8, lr=0.02, lr_ceiling=0.1,
                      weight_decay=weight_decay)
    want = tape_train(model, data, cfg, Rng(4))
    trained, _ = train_model(model, data, cfg, Rng(4), data)
    got = param_arrays(trained)
    assert sorted(got) == sorted(want)
    for k in want:
        assert np.array_equal(got[k], want[k]), k
        assert not np.array_equal(want[k], param_arrays(model)[k]), k  # training moved it


def test_training_records_nothing_on_the_tape(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("stage-1 training used the autodiff tape")

    monkeypatch.setattr(ad.Tape, "__init__", refuse)
    monkeypatch.setattr(ad, "backward", refuse)
    model, x, y = _case("qcfs", 0, np.float32)
    data = Dataset(x, y)
    train_model(model, data, TrainConfig(steps=3, batch_size=8), Rng(1), data)
