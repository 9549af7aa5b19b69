"""Analog model zoo: linear stacks with ReLU or a trainable quantized
staircase activation, forward tracing of activation inputs, activation
replacement, and fine-tuning by a hand-written reverse sweep over layers."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .tensor import Array, Rng


class TrainingDivergedError(RuntimeError):
    """Training hit a non-finite loss."""


@dataclass
class Linear:
    w: Array  # (fan_in, fan_out)
    b: Array  # (fan_out,)


@dataclass
class Relu:
    pass


@dataclass
class Qcfs:
    """Quantized clip-floor staircase with a half-step shift.

    ``ceiling`` is the output cap (trainable during fine-tuning), ``levels``
    the number of steps; outputs lie on {0, ceiling/levels, ..., ceiling}.
    """

    ceiling: float
    levels: int

    def __post_init__(self):
        if self.ceiling <= 0:
            raise ValueError(f"qcfs ceiling must be positive, got {self.ceiling}")
        if self.levels < 1:
            raise ValueError(f"qcfs levels must be >= 1, got {self.levels}")


@dataclass
class Embedding:
    """Byte/token table; int input (batch, window) -> (batch, window*dim)."""

    table: Array


ACTIVATIONS = (Relu, Qcfs)


class AnnModel:
    def __init__(self, layers: list):
        self.layers = list(layers)

    def qcfs_layers(self) -> list[Qcfs]:
        return [layer for layer in self.layers if isinstance(layer, Qcfs)]


def qcfs_forward(x, ceiling: float, levels: int):
    """clip(ceiling/levels * floor(x * levels / ceiling + 1/2), 0, ceiling).

    Runs in the input dtype, so float64 inputs give a float64 reference path,
    and in one buffer of the input's shape, which it returns.
    """
    return _qcfs_into(x, ceiling, levels, None)


def _qcfs_into(x, ceiling: float, levels: int, out):
    """``qcfs_forward`` of x written into ``out`` and run in out's float
    dtype; a new buffer, as ``qcfs_forward`` describes, when out is None.
    ``out`` may be x itself."""
    if ceiling <= 0:
        raise ValueError(f"qcfs ceiling must be positive, got {ceiling}")
    if int(levels) < 1:
        raise ValueError(f"qcfs levels must be >= 1, got {levels}")
    x = np.asarray(x)
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    dt = out.dtype
    lam = dt.type(ceiling)
    lv = dt.type(int(levels))
    np.multiply(x, lv, out=out, dtype=dt)
    out /= lam
    out += dt.type(0.5)
    np.floor(out, out=out)
    out *= lam
    out /= lv
    return np.clip(out, dt.type(0.0), lam, out=out)


@dataclass
class ActivationTrace:
    """An activation layer's input in a recorded pass, and its staircase's
    ceiling and levels (None: a ReLU); ``post`` runs it again on each read."""

    layer: str
    pre: Array
    ceiling: float | None = None
    levels: int | None = None

    @property
    def post(self) -> Array:  # a new array with the pass's bits
        return (np.maximum(self.pre, 0) if self.ceiling is None
                else _qcfs_into(self.pre, self.ceiling, self.levels, None))


@dataclass
class ForwardResult:
    output: Array
    traces: list[ActivationTrace]
    inputs: list[Array | None]  # what each layer read, when recorded; None: an activation's output


def _apply_linear(x: Array, layer: Linear, path: str) -> Array:
    if x.ndim != 2 or x.shape[1] != layer.w.shape[0]:
        raise ValueError(
            f"layer {path} (linear): input width {x.shape[-1]} does not match {layer.w.shape[0]}")
    y = x @ layer.w
    y += layer.b
    return y


def _apply_embedding(x: Array, layer: Embedding, path: str) -> Array:
    if x.dtype.kind not in "iu":
        raise ValueError(f"layer {path} (embedding): expected integer token input, got {x.dtype}")
    out = layer.table[x]
    return out.reshape(out.shape[0], -1)


def ann_forward(model: AnnModel, x, record: bool = True) -> ForwardResult:
    """Run the stack, returning the output and one trace per activation layer.

    A recorded pass keeps each activation's input (``pre``) and nothing
    computed from it, so it holds at most one activation output at a time;
    ``inputs`` holds what each layer read, for the reverse sweep: the
    pass's input, the traces' ``pre``, and None for an activation's output.
    Without ``record``, nothing is kept, and an activation overwrites the
    array the layer before made, so a wide layer holds its input and output.
    """
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    traces: list[ActivationTrace] = []
    inputs: list[Array | None] = []
    owned = activated = False  # x was made by this pass; by an activation
    for i, layer in enumerate(model.layers):
        path = str(i)
        into = x if owned and not record else None  # where an activation writes
        if record:
            inputs.append(None if activated else x)
        if isinstance(layer, Linear):
            x = _apply_linear(x, layer, path)
        elif isinstance(layer, Embedding):
            x = _apply_embedding(x, layer, path)
        elif isinstance(layer, Relu):
            if record:
                traces.append(ActivationTrace(path, x))
            x = np.maximum(x, 0, out=into)
        elif isinstance(layer, Qcfs):
            if record:
                traces.append(ActivationTrace(path, x, layer.ceiling, layer.levels))
            x = _qcfs_into(x, layer.ceiling, layer.levels, into)
        else:
            raise TypeError(f"layer {path}: unknown layer type {type(layer).__name__}")
        owned, activated = True, isinstance(layer, ACTIVATIONS)
    return ForwardResult(x, traces, inputs)


# -- trainable parameters -----------------------------------------------------

def param_arrays(model: AnnModel) -> dict[str, Array]:
    """Trainable arrays keyed by layer index; ceilings are 0-d float32."""
    params: dict[str, Array] = {}
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Linear):
            params[f"{i}.w"] = layer.w
            params[f"{i}.b"] = layer.b
        elif isinstance(layer, Embedding):
            params[f"{i}.table"] = layer.table
        elif isinstance(layer, Qcfs):
            params[f"{i}.ceiling"] = np.asarray(layer.ceiling, dtype=np.float32)
    return params


def set_param_arrays(model: AnnModel, params: dict[str, Array]) -> None:
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Linear):
            layer.w = np.asarray(params[f"{i}.w"], dtype=np.float32)
            layer.b = np.asarray(params[f"{i}.b"], dtype=np.float32)
        elif isinstance(layer, Embedding):
            layer.table = np.asarray(params[f"{i}.table"], dtype=np.float32)
        elif isinstance(layer, Qcfs):
            layer.ceiling = float(params[f"{i}.ceiling"])


# -- activation replacement ---------------------------------------------------

def replace_activations(model: AnnModel, levels: int, init_batch: Array) -> AnnModel:
    """Swap every ReLU for a staircase with the given level count.

    The new model has its own layer objects but shares every weight array
    with ``model``: nothing writes a trained model's weights in place, and
    fine-tuning copies them first. Each ceiling starts at the 99.9th
    percentile of that layer's pre-activation magnitudes on ``init_batch``.
    """
    if int(levels) < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if not any(isinstance(a, Relu) for a in model.layers):
        raise ValueError("model has no ReLU activation layers to replace")

    ceilings = [max(float(np.percentile(np.abs(trace.pre), 99.9)), 1e-6)
                for trace in ann_forward(model, init_batch).traces]

    layers = [copy.copy(layer) for layer in model.layers]
    act_positions = [j for j, layer in enumerate(layers) if isinstance(layer, ACTIVATIONS)]
    for k, j in enumerate(act_positions):
        if isinstance(layers[j], Relu):
            layers[j] = Qcfs(ceiling=ceilings[k], levels=int(levels))
    return AnnModel(layers)


# -- training -----------------------------------------------------------------

@dataclass
class TrainConfig:
    steps: int = 500
    batch_size: int = 128
    lr: float = 1e-2
    lr_ceiling: float | None = None  # staircase caps get their own rate
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        # zero stays legal: a zero rate or decay leaves the parameters as they are
        for name in ("lr", "lr_ceiling", "weight_decay"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


# The heads and the reverse sweep below take, op for op and dtype for dtype,
# the products the autodiff tape's vjps take (tests/test_train_backprop.py
# holds the tape version), so trained weights are the tape's bit for bit.

def _softmax_parts(z: Array) -> tuple[Array, Array, Array]:
    """The numerically stable softmax of each row of ``z``, in z's dtype, as
    three parts: ``z`` minus its row max, the exp of that, and the row sums
    of the exp as a column. Every softmax and log-softmax in the package
    outside the tape is formed from them."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=1, keepdims=True)


def _cross_entropy_head(out: Array, y: Array) -> tuple[float, Array]:
    """Mean softmax cross-entropy of integer labels, and its gradient wrt out.

    The loss is averaged in float64, as the tape's ``mean_`` scales by a 0-d
    float64 ``1/n``; the gradient comes back in the output dtype.
    """
    dt = out.dtype
    onehot = np.eye(out.shape[1], dtype=dt)[y]
    shifted, e, se = _softmax_parts(out)
    total = ((shifted - np.log(se)) * onehot).sum(axis=1).sum()
    n = out.shape[0]
    g_ls = dt.type(-(1.0 / n)) * onehot
    return -(float(total) * (1.0 / n)), g_ls + ((-g_ls).sum(axis=1, keepdims=True) / se) * e


def _backward(model: AnnModel, fwd: ForwardResult, g: Array) -> dict[str, Array]:
    """Gradients of every trainable array, keyed as in ``param_arrays``, from
    one recorded ``ann_forward`` pass and the gradient ``g`` of its output.
    Local derivatives are recomputed from the input each layer read, an
    activation's output formed again from its trace; like the tape, the
    sweep does not form the gradient of the pass's input."""
    layers = model.layers
    trace_before = {int(t.layer) + 1: t for t in fwd.traces}
    grads: dict[str, Array] = {}
    for i in range(len(layers) - 1, -1, -1):
        layer, h = layers[i], fwd.inputs[i]
        h = trace_before[i].post if h is None else h
        if isinstance(layer, Linear):
            grads[f"{i}.w"] = h.T @ g
            grads[f"{i}.b"] = g.sum(axis=0)
            if i:
                g = g @ layer.w.T
        elif isinstance(layer, Embedding):
            table = np.zeros_like(layer.table)
            np.add.at(table, h, g.reshape(h.shape + layer.table.shape[1:]))
            grads[f"{i}.table"] = table
        elif isinstance(layer, Relu):
            g = g * (h > 0).astype(h.dtype)
        elif isinstance(layer, Qcfs):
            # straight-through floor: the input gradient passes where the
            # pre-floor argument is strictly inside (0, levels) and is zero
            # outside; the ceiling gradient adds the saturation indicator to
            # the straight-through correction term
            dt = h.dtype
            lam, lv = dt.type(layer.ceiling), int(layer.levels)
            z = h * dt.type(lv) / lam + dt.type(0.5)
            q = np.clip(np.floor(z), 0.0, lv) / dt.type(lv)  # value / ceiling
            interior = ((z > 0) & (z < lv)).astype(dt)
            grads[f"{i}.ceiling"] = (g * (q - h / lam * interior)).sum(axis=(0, 1))
            g = g * interior
        else:
            raise TypeError(f"layer {i}: unknown layer type {type(layer).__name__}")
    return grads


def train_model(model: AnnModel, data, cfg: TrainConfig, rng: Rng,
                val_data) -> tuple[AnnModel, list[dict]]:
    """Minibatch Adam training; staircase ceilings get their own learning rate.

    Each step is one recorded ``ann_forward`` pass, a loss head and one
    reverse sweep; Adam then updates the model's own arrays in place. The
    caller's model is never written to. Returns the trained model and a
    history of per-epoch train/validation losses (an epoch is one pass worth
    of steps over the training set).
    """
    # shallow copies of the layers, which then take the one copy of each array
    model = AnnModel([copy.copy(layer) for layer in model.layers])
    params = {k: np.array(v, dtype=np.float32) for k, v in param_arrays(model).items()}
    set_param_arrays(model, params)
    ceilings = {k: p for k, p in params.items() if k.endswith(".ceiling")}
    weights = {k: p for k, p in params.items() if k not in ceilings}
    lr_ceiling = cfg.lr if cfg.lr_ceiling is None else cfg.lr_ceiling

    state_w = None
    state_c = None
    n = len(data.x)
    steps_per_epoch = max(1, n // cfg.batch_size)
    history: list[dict] = []
    epoch_losses: list[float] = []

    for step in range(cfg.steps):
        idx = rng.integers(0, n, (min(cfg.batch_size, n),))
        bx, by = data.x[idx], data.y[idx]
        fwd = ann_forward(model, bx)
        loss_val, g_out = _cross_entropy_head(fwd.output, by)
        if not np.isfinite(loss_val):
            layer = next((t.layer for t in fwd.traces if not np.all(np.isfinite(t.post))),
                         "output")
            raise TrainingDivergedError(
                f"non-finite loss at step {step} (first non-finite activation at layer {layer})")
        grads = _backward(model, fwd, g_out)
        _, state_w = ad.adam_step(weights, grads, state_w, cfg.lr,
                                  weight_decay=cfg.weight_decay)
        if ceilings:
            _, state_c = ad.adam_step(ceilings, grads, state_c, lr_ceiling)
            for p in ceilings.values():
                # keep the staircase cap positive while it trains
                np.maximum(p, np.float32(1e-4), out=p)
            set_param_arrays(model, params)
        epoch_losses.append(loss_val)
        if (step + 1) % steps_per_epoch == 0 or step == cfg.steps - 1:
            history.append({"epoch": len(history),
                            "train_loss": float(np.mean(epoch_losses)),
                            "val_loss": float(dataset_loss(model, val_data))})
            epoch_losses = []

    return model, history


def stage1_finetune(model: AnnModel, data, cfg: TrainConfig, rng: Rng,
                    val_data) -> tuple[AnnModel, list[dict]]:
    """Full-parameter fine-tuning of a staircase-activated model."""
    if not model.qcfs_layers():
        raise ValueError("model has no staircase activations; run replace_activations first")
    if len(data.x) == 0:
        raise ValueError("fine-tuning dataset is empty")
    return train_model(model, data, cfg, rng, val_data=val_data)


_EVAL_BATCH = 1024  # rows per forward pass when scoring a whole dataset


def _scored_batches(model: AnnModel, data):
    """(output, labels) of each ``_EVAL_BATCH``-row scoring pass over data."""
    for lo in range(0, len(data.x), _EVAL_BATCH):
        bx = data.x[lo:lo + _EVAL_BATCH]
        yield ann_forward(model, bx, record=False).output, data.y[lo:lo + _EVAL_BATCH]


def dataset_loss(model: AnnModel, data) -> float:
    total = 0.0
    for out, by in _scored_batches(model, data):
        shifted, _, se = _softmax_parts(out.astype(np.float64))
        total += float(np.sum(np.log(se[:, 0]) - shifted[np.arange(len(by)), by]))
    return total / max(len(data.x), 1)


def accuracy(model: AnnModel, data) -> float:
    hits = 0
    for out, by in _scored_batches(model, data):
        hits += int((out.argmax(axis=1) == by).sum())
    return hits / max(len(data.x), 1)


# -- model builders -----------------------------------------------------------

def mlp(dims: list[int], rng: Rng) -> AnnModel:
    """Fully connected ReLU stack with the given layer widths."""
    layers: list = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = rng.normal(0.0, float(np.sqrt(2.0 / fan_in)), (fan_in, fan_out))
        layers.append(Linear(w, np.zeros(fan_out, dtype=np.float32)))
        if i < len(dims) - 2:
            layers.append(Relu())
    return AnnModel(layers)


def char_lm(vocab: int, window: int, embed_dim: int, hidden: list[int], rng: Rng) -> AnnModel:
    """Byte-level next-token model: embedding, then a plain MLP over the window."""
    table = rng.normal(0.0, 0.1, (vocab, embed_dim))
    dims = [window * embed_dim] + list(hidden) + [vocab]
    body = mlp(dims, rng)
    return AnnModel([Embedding(table)] + body.layers)
