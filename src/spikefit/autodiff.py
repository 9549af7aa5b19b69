"""Reverse-mode autodiff on a flat tape of numpy arrays, plus the Adam step
that stage-1 training and neuron-wise calibration share.

Nothing in the package records on the tape any more: stage-1 training
(``ann._backward``) and neuron-wise calibration (``calibrate._nwc_bptt``)
sweep their layer lists by hand. The tape is the oracle their tests check
them against: training bit for bit (``tests/test_train_backprop.py``), and
calibration to 1e-6 of its largest gradient (``tests/test_nwc_bptt.py``).
It stays in the package for now because the benchmark's tracer test checks
that ``autodiff.backward`` is wrapped; it moves to ``tests/`` with the next
revision of the benchmark.

The tape carries the usual smooth primitives and a spike threshold
crossing whose derivative is the IF neuron's ``snn.surrogate_spike_grad``.
Gradients are accumulated in fixed reverse-creation order, which makes
``backward`` bit-deterministic for a given tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray


class TapeError(RuntimeError):
    """Internal consistency violation while recording or replaying a tape."""


class Var:
    """Handle to one tape node; holds the forward value."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: "Tape", idx: int, value: Array):
        self.tape = tape
        self.idx = idx
        self.value = value


class Tape:
    """Append-only record of operations; node order is topological."""

    def __init__(self):
        self._nodes: list[tuple[tuple[int, ...], object]] = []

    def __len__(self):
        return len(self._nodes)

    def leaf(self, value) -> Var:
        value = np.asarray(value)
        self._nodes.append(((), None))
        return Var(self, len(self._nodes) - 1, value)

    def _record(self, value: Array, parents: tuple[Var, ...], vjp) -> Var:
        n = len(self._nodes)
        for p in parents:
            if p.tape is not self or not 0 <= p.idx < n:
                raise TapeError("node referenced before definition on this tape")
        self._nodes.append((tuple(p.idx for p in parents), vjp))
        return Var(self, n, value)


def _value(x) -> Array:
    return x.value if isinstance(x, Var) else np.asarray(x)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def record_op(value: Array, operands: list, partials: list) -> Var:
    """Record an op; partials[i](g) gives the gradient for operands[i].

    Only operands that are Vars become tape parents; plain arrays and
    scalars are treated as constants.
    """
    tracked = [(o, partials[i]) for i, o in enumerate(operands) if isinstance(o, Var)]
    if not tracked:
        raise TapeError("operation has no tape variable among its operands")
    parents = tuple(o for o, _ in tracked)
    fns = [fn for _, fn in tracked]

    def vjp(g):
        return [fn(g) for fn in fns]

    return parents[0].tape._record(value, parents, vjp)


def add(a, b) -> Var:
    av, bv = _value(a), _value(b)
    return record_op(av + bv, [a, b],
                     [lambda g: _unbroadcast(g, av.shape),
                      lambda g: _unbroadcast(g, bv.shape)])


def sub(a, b) -> Var:
    av, bv = _value(a), _value(b)
    return record_op(av - bv, [a, b],
                     [lambda g: _unbroadcast(g, av.shape),
                      lambda g: _unbroadcast(-g, bv.shape)])


def mul(a, b) -> Var:
    av, bv = _value(a), _value(b)
    return record_op(av * bv, [a, b],
                     [lambda g: _unbroadcast(g * bv, av.shape),
                      lambda g: _unbroadcast(g * av, bv.shape)])


def matmul(a, b) -> Var:
    av, bv = _value(a), _value(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul shape mismatch: {av.shape} x {bv.shape}")
    return record_op(av @ bv, [a, b],
                     [lambda g: g @ bv.T,
                      lambda g: av.T @ g])


def relu(x) -> Var:
    xv = _value(x)
    mask = (xv > 0).astype(xv.dtype)
    return record_op(np.maximum(xv, 0), [x], [lambda g: g * mask])


def tanh(x) -> Var:
    y = np.tanh(_value(x))
    return record_op(y, [x], [lambda g: g * (1.0 - y ** 2)])


def exp(x) -> Var:
    y = np.exp(_value(x))
    return record_op(y, [x], [lambda g: g * y])


def log(x) -> Var:
    xv = _value(x)
    return record_op(np.log(xv), [x], [lambda g: g / xv])


def sum_(x, axis=None, keepdims=False) -> Var:
    xv = _value(x)
    y = xv.sum(axis=axis, keepdims=keepdims)

    def grad(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, xv.shape).astype(xv.dtype, copy=False)

    return record_op(np.asarray(y), [x], [grad])


def mean_(x, axis=None, keepdims=False) -> Var:
    xv = _value(x)
    n = xv.size if axis is None else xv.shape[axis]
    return mul(sum_(x, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(x, shape) -> Var:
    xv = _value(x)
    return record_op(xv.reshape(shape), [x], [lambda g: g.reshape(xv.shape)])


def gather_rows(table, idx) -> Var:
    """table[idx] with scatter-add backward; idx is a constant int array."""
    tv = _value(table)
    idx = np.asarray(idx)

    def grad(g):
        out = np.zeros_like(tv)
        np.add.at(out, idx, g)
        return out

    return record_op(tv[idx], [table], [grad])


def spike(v, theta) -> Var:
    """Spike indicator 1{v >= theta}; ties fire.

    Backward uses the rectangular surrogate at the firing condition:
    d/dv = +g, d/dtheta = -g with g = surrogate_spike_grad(v, theta). In
    downstream products like spike * theta the spike value itself is an
    ordinary node, so the threshold picks up gradient both as a factor and
    through the firing condition.
    """
    from .snn import surrogate_spike_grad  # local import: snn imports ann, which imports this
    vv, tv = _value(v), _value(theta)
    s = (vv >= tv).astype(vv.dtype)
    g_s = surrogate_spike_grad(vv, tv)
    return record_op(s, [v, theta],
                     [lambda g: g * g_s,
                      lambda g: _unbroadcast(-(g * g_s), tv.shape)])


class GradientMap:
    """Node id -> gradient array; absent leaves read as zeros."""

    def __init__(self, grads: dict[int, Array]):
        self._grads = grads

    def wrt(self, var: Var) -> Array:
        g = self._grads.get(var.idx)
        return np.zeros_like(var.value) if g is None else g


def backward(tape: Tape, out: Var, seed=None) -> GradientMap:
    """Reverse sweep from `out`; returns gradients for every reached node.

    Accumulation visits nodes in strictly decreasing index order, so a given
    tape always produces bit-identical gradients.
    """
    if out.tape is not tape:
        raise TapeError("output variable does not belong to this tape")
    if seed is None:
        if np.size(out.value) != 1:
            raise ValueError("non-scalar output needs an explicit seed gradient")
        seed = np.ones_like(out.value)
    else:
        seed = np.asarray(seed, dtype=out.value.dtype)
        if seed.shape != out.value.shape:
            raise ValueError(f"seed shape {seed.shape} does not match output {out.value.shape}")
    grads: dict[int, Array] = {out.idx: seed}
    for idx in range(out.idx, -1, -1):
        g = grads.get(idx)
        if g is None:
            continue
        parents, vjp = tape._nodes[idx]
        if vjp is None:
            continue
        for pidx, pg in zip(parents, vjp(g)):
            acc = grads.get(pidx)
            grads[pidx] = pg if acc is None else acc + pg
    return GradientMap(grads)


# -- losses -----------------------------------------------------------------

def mse(pred: Var, target: Array) -> Var:
    d = sub(pred, target)
    return mean_(mul(d, d))


def log_softmax(x: Var, axis: int = 1) -> Var:
    # max shift as a constant: it cancels in the result and keeps exp stable
    m = np.max(x.value, axis=axis, keepdims=True)
    shifted = sub(x, m)
    lse = log(sum_(exp(shifted), axis=axis, keepdims=True))
    return sub(shifted, lse)


def softmax_cross_entropy(logits: Var, onehot: Array) -> Var:
    per_row = sum_(mul(log_softmax(logits, axis=1), onehot), axis=1)
    return mul(mean_(per_row), -1.0)


def kd_cross_entropy(teacher_logits: Array, student_logits: Var) -> Var:
    """Soft-target cross entropy: -mean_batch sum_c softmax(t) * log_softmax(s).
    The teacher's softmax is formed here, apart from the package's, so the
    tape stays an independent oracle for ``calibrate._kd_loss_and_grad``."""
    t = np.asarray(teacher_logits)
    t = t - t.max(axis=1, keepdims=True)
    q = np.exp(t)
    q /= q.sum(axis=1, keepdims=True)
    ls = log_softmax(student_logits, axis=1)
    return mul(mean_(sum_(mul(ls, q.astype(student_logits.value.dtype)), axis=1)), -1.0)


# -- optimizer ---------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)
    step: int = 0
    scratch: dict[np.dtype, tuple[Array, Array]] = field(default_factory=dict)


def adam_step(params: dict[str, Array], grads: dict[str, Array], state: AdamState | None,
              lr: float, weight_decay: float = 0.0) -> tuple[dict[str, Array], AdamState]:
    """One Adam update over a dict of named arrays, in place; decoupled weight decay.

    Each parameter array and its two moment arrays are updated in place, and
    the same dict and state are returned. The update is

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps) - lr * wd * p_old

    with each operation in that order and in the dtype numpy gives it in that
    expression, and each stored array rounded once to the parameter dtype;
    so the result is bit-identical to the expression over fresh arrays
    whenever gradients are at least as wide as the parameters. The
    intermediates are held in two flat scratch arrays per dtype, kept in the
    state and sized to the largest parameter; each update reads them through
    views of its own shape and is done before the next begins.
    """
    if state is None:
        state = AdamState({k: np.zeros_like(p) for k, p in params.items()},
                          {k: np.zeros_like(p) for k, p in params.items()}, 0)
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = state.step + 1
    for k in sorted(params):
        p, g, m, v = params[k], grads[k], state.m[k], state.v[k]
        if not isinstance(p, np.ndarray):
            raise TypeError(f"adam_step: parameter {k!r} is not an array and cannot be "
                            f"updated in place")
        if g.shape != p.shape:
            raise ValueError(f"adam_step: grad shape {g.shape} != param shape {p.shape} for {k!r}")
        dt = np.result_type(p, g)
        buffers = state.scratch.get(dt)
        if buffers is None or buffers[0].size < p.size:
            n = max(np.size(q) for q in params.values())
            buffers = state.scratch[dt] = (np.empty(n, dt), np.empty(n, dt))
        s1, s2 = (b[:p.size].reshape(p.shape) for b in buffers)
        # the moments are formed in dt: in place when that is their own dtype
        mw = m if m.dtype == dt else s1
        vw = v if v.dtype == dt else s2
        np.multiply(m, b1, out=mw)
        np.multiply(g, 1 - b1, out=s2)
        mw += s2
        np.multiply(g, 1 - b2, out=s2)
        s2 *= g
        v *= b2
        np.add(v, s2, out=vw)
        if mw is not m:
            np.copyto(m, mw, casting="same_kind")
            np.copyto(v, vw, casting="same_kind")
        np.divide(vw, 1 - b2 ** t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += eps
        np.divide(mw, 1 - b1 ** t, out=s1)
        s1 *= lr
        s1 /= s2
        if weight_decay:
            np.multiply(p, lr * weight_decay, out=s2)
            np.subtract(p, s1, out=s1)
            s1 -= s2
            np.copyto(p, s1, casting="same_kind")
        else:
            p -= s1
    state.step = t
    return params, state
