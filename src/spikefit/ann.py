"""Analog model zoo: linear stacks with ReLU/GELU or a trainable quantized
staircase activation, forward tracing, activation replacement, and
fine-tuning by a hand-written reverse sweep over the layer list."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import _gelu_local, _unbroadcast, gelu_ref
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
class Gelu:
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


ACTIVATIONS = (Relu, Gelu, Qcfs)


class AnnModel:
    def __init__(self, layers: list):
        self.layers = list(layers)

    def clone(self) -> "AnnModel":
        return AnnModel(copy.deepcopy(self.layers))

    def activation_layers(self) -> list:
        return [layer for layer in self.layers if isinstance(layer, ACTIVATIONS)]

    def qcfs_layers(self) -> list[Qcfs]:
        return [a for a in self.activation_layers() if isinstance(a, Qcfs)]


def qcfs_forward(x, ceiling: float, levels: int):
    """clip(ceiling/levels * floor(x * levels / ceiling + 1/2), 0, ceiling).

    Runs in the input dtype, so float64 inputs give a float64 reference path.
    """
    if ceiling <= 0:
        raise ValueError(f"qcfs ceiling must be positive, got {ceiling}")
    if int(levels) < 1:
        raise ValueError(f"qcfs levels must be >= 1, got {levels}")
    x = np.asarray(x)
    dt = x.dtype if x.dtype.kind == "f" else np.dtype(np.float64)
    x = x.astype(dt, copy=False)
    lam = dt.type(ceiling)
    lv = dt.type(int(levels))
    y = np.floor(x * lv / lam + dt.type(0.5))
    return np.clip(y * lam / lv, dt.type(0.0), lam)


@dataclass
class ActivationTrace:
    layer: str
    kind: str
    pre: Array
    post: Array
    ceiling: float | None = None
    levels: int | None = None


@dataclass
class ForwardResult:
    output: Array
    traces: list[ActivationTrace]


def _apply_linear(x: Array, layer: Linear, path: str) -> Array:
    if x.ndim != 2 or x.shape[1] != layer.w.shape[0]:
        raise ValueError(
            f"layer {path} (linear): input width {x.shape[-1]} does not match {layer.w.shape[0]}")
    return x @ layer.w + layer.b


def _apply_embedding(x: Array, layer: Embedding, path: str) -> Array:
    if x.dtype.kind not in "iu":
        raise ValueError(f"layer {path} (embedding): expected integer token input, got {x.dtype}")
    out = layer.table[x]
    return out.reshape(out.shape[0], -1)


def ann_forward(model: AnnModel, x, record: bool = True) -> ForwardResult:
    """Run the stack, returning the output and one trace per activation layer.

    Each trace carries the value entering the activation (``pre``) and its
    output (``post``); both are needed downstream, for threshold selection
    and for rate alignment respectively.
    """
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    traces: list[ActivationTrace] = []
    for i, layer in enumerate(model.layers):
        path = str(i)
        if isinstance(layer, Linear):
            x = _apply_linear(x, layer, path)
        elif isinstance(layer, Embedding):
            x = _apply_embedding(x, layer, path)
        elif isinstance(layer, Relu):
            pre = x
            x = np.maximum(x, 0)
            if record:
                traces.append(ActivationTrace(path, "relu", pre, x))
        elif isinstance(layer, Gelu):
            pre = x
            x = gelu_ref(x).astype(x.dtype)
            if record:
                traces.append(ActivationTrace(path, "gelu", pre, x))
        elif isinstance(layer, Qcfs):
            pre = x
            x = qcfs_forward(x, layer.ceiling, layer.levels)
            if record:
                traces.append(ActivationTrace(path, "qcfs", pre, x, layer.ceiling, layer.levels))
        else:
            raise TypeError(f"layer {path}: unknown layer type {type(layer).__name__}")
    return ForwardResult(x, traces)


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

def replace_activations(model: AnnModel, levels: int, init_batch: Array | None = None) -> AnnModel:
    """Swap every ReLU/GELU for a staircase with the given level count.

    All other parameters are copied bit-exactly. When ``init_batch`` is
    given, each ceiling starts at the 99.9th percentile of that layer's
    pre-activation magnitudes on the batch; otherwise at 1.0.
    """
    if int(levels) < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    n_acts = sum(1 for a in model.activation_layers() if isinstance(a, (Relu, Gelu)))
    if n_acts == 0:
        raise ValueError("model has no ReLU/GELU activation layers to replace")

    ceilings: list[float] = []
    if init_batch is not None:
        for trace in ann_forward(model, init_batch).traces:
            cap = float(np.percentile(np.abs(trace.pre), 99.9))
            ceilings.append(max(cap, 1e-6))

    new = model.clone()
    act_positions = [j for j, layer in enumerate(new.layers) if isinstance(layer, ACTIVATIONS)]
    for k, j in enumerate(act_positions):
        if isinstance(new.layers[j], (Relu, Gelu)):
            new.layers[j] = Qcfs(ceiling=ceilings[k] if ceilings else 1.0, levels=int(levels))
    return new


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


# The heads and the reverse sweep below take, op for op and dtype for dtype,
# the products the autodiff tape's vjps take (tests/test_train_backprop.py
# holds the tape version), so trained weights are the tape's bit for bit.

def _cross_entropy_head(out: Array, y: Array) -> tuple[float, Array]:
    """Mean softmax cross-entropy of integer labels, and its gradient wrt out.

    The loss is averaged in float64, as the tape's ``mean_`` scales by a 0-d
    float64 ``1/n``; the gradient comes back in the output dtype.
    """
    dt = out.dtype
    onehot = np.eye(out.shape[1], dtype=dt)[y]
    shifted = out - np.max(out, axis=1, keepdims=True)
    e = np.exp(shifted)
    se = e.sum(axis=1, keepdims=True)
    total = ((shifted - np.log(se)) * onehot).sum(axis=1).sum()
    n = out.shape[0]
    g_ls = dt.type(-(1.0 / n)) * onehot
    return -(float(total) * (1.0 / n)), g_ls + (_unbroadcast(-g_ls, se.shape) / se) * e


def _mse_head(out: Array, y: Array) -> tuple[float, Array]:
    """Mean squared error over every output entry, and its gradient wrt out;
    ``d * d`` sends ``g * d`` back along both of its operands."""
    d = out - y.astype(out.dtype)
    total = (d * d).sum()
    half = out.dtype.type(1.0 / d.size) * d
    return float(total) * (1.0 / d.size), half + half


def _backward(model: AnnModel, x: Array, fwd: ForwardResult, g: Array) -> dict[str, Array]:
    """Gradients of every trainable array, keyed as in ``param_arrays``, from
    one recorded ``ann_forward`` pass of ``x`` and the gradient ``g`` of its
    output. Local derivatives are recomputed from each trace's ``pre``; like
    the tape, the sweep does not form the gradient of ``x`` itself."""
    layers = model.layers
    traces = {int(t.layer): t for t in fwd.traces}
    inputs, h = [], x  # what each layer read
    for i, layer in enumerate(layers[:-1]):
        inputs.append(h)
        if i in traces:
            h = traces[i].post
        elif i + 1 in traces:
            h = traces[i + 1].pre
        elif isinstance(layer, Linear):
            h = _apply_linear(h, layer, str(i))
        else:
            h = _apply_embedding(h, layer, str(i))
    inputs.append(h)

    grads: dict[str, Array] = {}
    for i in range(len(layers) - 1, -1, -1):
        layer, h = layers[i], inputs[i]
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
        elif isinstance(layer, Gelu):
            g = g * _gelu_local(h)
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
            grads[f"{i}.ceiling"] = _unbroadcast(g * (q - h / lam * interior), ())
            g = g * interior
        else:
            raise TypeError(f"layer {i}: unknown layer type {type(layer).__name__}")
    return grads


def train_model(model: AnnModel, data, cfg: TrainConfig, rng: Rng,
                val_data=None) -> tuple[AnnModel, list[dict]]:
    """Minibatch Adam training; staircase ceilings get their own learning rate.

    Each step is one recorded ``ann_forward`` pass, a loss head and one
    reverse sweep; Adam then updates the model's own arrays in place. The
    caller's model is never written to. Returns the trained model and a
    history of per-epoch train/validation losses (an epoch is one pass worth
    of steps over the training set).
    """
    model = model.clone()
    params = {k: np.array(v, dtype=np.float32) for k, v in param_arrays(model).items()}
    set_param_arrays(model, params)
    ceilings = {k: p for k, p in params.items() if k.endswith(".ceiling")}
    weights = {k: p for k, p in params.items() if k not in ceilings}
    lr_ceiling = cfg.lr if cfg.lr_ceiling is None else cfg.lr_ceiling
    head = _mse_head if data.task == "regress" else _cross_entropy_head

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
        loss_val, g_out = head(fwd.output, by)
        if not np.isfinite(loss_val):
            layer = next((t.layer for t in fwd.traces if not np.all(np.isfinite(t.post))),
                         "output")
            raise TrainingDivergedError(
                f"non-finite loss at step {step} (first non-finite activation at layer {layer})")
        grads = _backward(model, bx, fwd, g_out)
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
            entry = {"epoch": len(history), "train_loss": float(np.mean(epoch_losses))}
            entry["val_loss"] = (None if val_data is None
                                 else float(dataset_loss(model, val_data)))
            history.append(entry)
            epoch_losses = []

    return model, history


def stage1_finetune(model: AnnModel, data, cfg: TrainConfig, rng: Rng,
                    val_data=None) -> tuple[AnnModel, list[dict]]:
    """Full-parameter fine-tuning of a staircase-activated model."""
    if not model.qcfs_layers():
        raise ValueError("model has no staircase activations; run replace_activations first")
    if len(data.x) == 0:
        raise ValueError("fine-tuning dataset is empty")
    return train_model(model, data, cfg, rng, val_data=val_data)


_EVAL_BATCH = 1024  # rows per forward pass when scoring a whole dataset


def dataset_loss(model: AnnModel, data) -> float:
    total, count = 0.0, 0
    for lo in range(0, len(data.x), _EVAL_BATCH):
        bx = data.x[lo:lo + _EVAL_BATCH]
        by = data.y[lo:lo + _EVAL_BATCH]
        out = ann_forward(model, bx, record=False).output.astype(np.float64)
        if data.task == "regress":
            total += float(np.sum((out - by) ** 2) / out.shape[1])
        else:
            shifted = out - out.max(axis=1, keepdims=True)
            lse = np.log(np.exp(shifted).sum(axis=1))
            total += float(np.sum(lse - shifted[np.arange(len(by)), by]))
        count += len(bx)
    return total / max(count, 1)


def accuracy(model: AnnModel, data) -> float:
    hits, count = 0, 0
    for lo in range(0, len(data.x), _EVAL_BATCH):
        bx = data.x[lo:lo + _EVAL_BATCH]
        by = data.y[lo:lo + _EVAL_BATCH]
        out = ann_forward(model, bx, record=False).output
        hits += int((out.argmax(axis=1) == by).sum())
        count += len(bx)
    return hits / max(count, 1)


# -- model builders -----------------------------------------------------------

def mlp(dims: list[int], rng: Rng, activation: str = "relu") -> AnnModel:
    """Fully connected stack with the given layer widths."""
    act = {"relu": Relu, "gelu": Gelu}[activation]
    layers: list = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = rng.normal(0.0, float(np.sqrt(2.0 / fan_in)), (fan_in, fan_out))
        layers.append(Linear(w, np.zeros(fan_out, dtype=np.float32)))
        if i < len(dims) - 2:
            layers.append(act())
    return AnnModel(layers)


def char_lm(vocab: int, window: int, embed_dim: int, hidden: list[int], rng: Rng) -> AnnModel:
    """Byte-level next-token model: embedding, then a plain MLP over the window."""
    table = rng.normal(0.0, 0.1, (vocab, embed_dim))
    dims = [window * embed_dim] + list(hidden) + [vocab]
    body = mlp(dims, rng)
    return AnnModel([Embedding(table)] + body.layers)
