"""Analog model zoo: linear stacks with ReLU/GELU or a trainable quantized
staircase activation, forward tracing, activation replacement, fine-tuning,
and small two-layer approximators for otherwise non-convertible functions."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var, gelu_ref, record_op, _unbroadcast
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


def qcfs_on_tape(x: Var, ceiling, levels: int) -> Var:
    """Differentiable staircase: straight-through floor, zero outside the clip.

    Where the pre-floor argument is strictly inside (0, levels) the input
    gradient passes through unchanged; outside it is exactly zero. The
    ceiling gradient combines the saturation indicator with the
    straight-through correction term.
    """
    xv = x.value
    lam = float(ceiling.value) if isinstance(ceiling, Var) else float(ceiling)
    if lam <= 0:
        raise ValueError(f"qcfs ceiling must be positive, got {lam}")
    lv = int(levels)
    if lv < 1:
        raise ValueError(f"qcfs levels must be >= 1, got {lv}")
    dt = xv.dtype
    z = xv * dt.type(lv) / dt.type(lam) + dt.type(0.5)
    floored = np.floor(z)
    q = np.clip(floored, 0.0, lv).astype(dt) / dt.type(lv)  # value / ceiling, in [0, 1]
    value = np.clip(floored * dt.type(lam) / dt.type(lv), dt.type(0.0), dt.type(lam))
    interior = ((z > 0) & (z < lv)).astype(dt)

    # the shape, not the Var: a closure holding the Var would tie the tape
    # into a reference cycle
    lam_shape = np.shape(ceiling.value if isinstance(ceiling, Var) else ceiling)

    def grad_x(g):
        return g * interior

    def grad_ceiling(g):
        return _unbroadcast(g * (q - xv / dt.type(lam) * interior), lam_shape)

    return record_op(value, [x, ceiling], [grad_x, grad_ceiling])


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


# -- tape forward for training ------------------------------------------------

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
            # keep the staircase cap positive while it trains
            layer.ceiling = float(max(float(params[f"{i}.ceiling"]), 1e-4))


def forward_on_tape(model: AnnModel, params: dict[str, Var], x: Array):
    """Mirror of ann_forward over tape variables; returns (output, post-activations).

    Inputs are constants; gradients flow only into the parameter variables.
    """
    h = np.asarray(x)
    if h.ndim == 1 and h.dtype.kind == "f":
        h = h[None, :]
    acts: list[Var] = []
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Linear):
            h = ad.add(ad.matmul(h, params[f"{i}.w"]), params[f"{i}.b"])
        elif isinstance(layer, Embedding):
            idx = h if isinstance(h, np.ndarray) else h.value
            rows = ad.gather_rows(params[f"{i}.table"], idx)
            h = ad.reshape(rows, (idx.shape[0], -1))
        elif isinstance(layer, Relu):
            h = ad.relu(h)
            acts.append(h)
        elif isinstance(layer, Gelu):
            h = ad.gelu(h)
            acts.append(h)
        elif isinstance(layer, Qcfs):
            h = qcfs_on_tape(h, params[f"{i}.ceiling"], layer.levels)
            acts.append(h)
        else:
            raise TypeError(f"layer {i}: unknown layer type {type(layer).__name__}")
    return h, acts


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


def _loss_on_tape(output: Var, batch_y: Array, task: str) -> Var:
    if task == "regress":
        return ad.mse(output, batch_y.astype(output.value.dtype))
    n_classes = output.value.shape[1]
    onehot = np.eye(n_classes, dtype=output.value.dtype)[batch_y]
    return ad.softmax_cross_entropy(output, onehot)


def _scan_nonfinite(model: AnnModel, batch_x: Array) -> str:
    for trace in ann_forward(model, batch_x).traces:
        if not np.all(np.isfinite(trace.post)):
            return trace.layer
    return "output"


def train_model(model: AnnModel, data, cfg: TrainConfig, rng: Rng,
                val_data=None) -> tuple[AnnModel, list[dict]]:
    """Minibatch Adam training; staircase ceilings get their own learning rate.

    Returns the trained model and a history of per-epoch train/validation
    losses (an epoch is one pass worth of steps over the training set).
    """
    model = model.clone()
    params = {k: np.array(v, dtype=np.float32) for k, v in param_arrays(model).items()}
    ceil_keys = {k for k in params if k.endswith(".ceiling")}
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
        tape = ad.Tape()
        tvars = {k: tape.leaf(v, k) for k, v in params.items()}
        out, _ = forward_on_tape(model, tvars, bx)
        loss = _loss_on_tape(out, by, data.task)
        loss_val = float(loss.value)
        if not np.isfinite(loss_val):
            set_param_arrays(model, params)
            layer = _scan_nonfinite(model, bx)
            raise TrainingDivergedError(
                f"non-finite loss at step {step} (first non-finite activation at layer {layer})")
        grads = ad.backward(tape, loss)
        gdict = {k: grads.wrt(v) for k, v in tvars.items()}
        w_params = {k: params[k] for k in params if k not in ceil_keys}
        c_params = {k: params[k] for k in ceil_keys}
        w_new, state_w = ad.adam_step(w_params, {k: gdict[k] for k in w_params},
                                      state_w, cfg.lr, weight_decay=cfg.weight_decay)
        params.update(w_new)
        if c_params:
            c_new, state_c = ad.adam_step(c_params, {k: gdict[k] for k in c_params},
                                          state_c, lr_ceiling)
            params.update(c_new)
        epoch_losses.append(loss_val)
        if (step + 1) % steps_per_epoch == 0 or step == cfg.steps - 1:
            set_param_arrays(model, params)
            entry = {"epoch": len(history), "train_loss": float(np.mean(epoch_losses))}
            entry["val_loss"] = (None if val_data is None
                                 else float(dataset_loss(model, val_data)))
            history.append(entry)
            epoch_losses = []

    set_param_arrays(model, params)
    return model, history


def stage1_finetune(model: AnnModel, data, cfg: TrainConfig, rng: Rng,
                    val_data=None) -> tuple[AnnModel, list[dict]]:
    """Full-parameter fine-tuning of a staircase-activated model."""
    if not model.qcfs_layers():
        raise ValueError("model has no staircase activations; run replace_activations first")
    if len(data.x) == 0:
        raise ValueError("fine-tuning dataset is empty")
    return train_model(model, data, cfg, rng, val_data=val_data)


def dataset_loss(model: AnnModel, data, batch_size: int = 1024) -> float:
    total, count = 0.0, 0
    for lo in range(0, len(data.x), batch_size):
        bx = data.x[lo:lo + batch_size]
        by = data.y[lo:lo + batch_size]
        out = ann_forward(model, bx, record=False).output.astype(np.float64)
        if data.task == "regress":
            total += float(np.sum((out - by) ** 2) / out.shape[1])
        else:
            shifted = out - out.max(axis=1, keepdims=True)
            lse = np.log(np.exp(shifted).sum(axis=1))
            total += float(np.sum(lse - shifted[np.arange(len(by)), by]))
        count += len(bx)
    return total / max(count, 1)


def accuracy(model: AnnModel, data, batch_size: int = 1024) -> float:
    hits, count = 0, 0
    for lo in range(0, len(data.x), batch_size):
        bx = data.x[lo:lo + batch_size]
        by = data.y[lo:lo + batch_size]
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


# -- two-layer function approximators ------------------------------------------

@dataclass
class UgoApproximator:
    """Two linear maps with one hidden nonlinearity fit to a named target."""

    model: AnnModel
    target: str
    domain: list[tuple[float, float]]
    heldout_mse: float

    def predict(self, x: Array) -> Array:
        return ann_forward(self.model, x, record=False).output


def layernorm_ref(x: Array, eps: float = 1e-5) -> Array:
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return ((x - mu) / np.sqrt(var + eps)).astype(np.float32)


def softmax_ref(x: Array) -> Array:
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


_UGO_TARGETS = {
    "softmax-row": lambda x: softmax_ref(x),
    "layernorm": lambda x: layernorm_ref(x),
    "gelu-scalar": lambda x: gelu_ref(x).astype(np.float32),
}


@dataclass
class _ArrayData:
    x: Array
    y: Array
    task: str = "regress"


def fit_ugo(target: str, width: int, sample_count: int,
            domain: list[tuple[float, float]], rng: Rng,
            steps: int = 4000, batch_size: int = 256, lr: float = 5e-3) -> UgoApproximator:
    """Least-squares fit of a linear-ReLU-linear stack to a named function.

    Samples the domain uniformly, holds out 10% for the reported MSE. The
    result is an ordinary model, so its activation can later be replaced by
    a staircase and the whole thing converted to spikes.
    """
    if target not in _UGO_TARGETS:
        raise ValueError(f"unknown target {target!r}; choose from {sorted(_UGO_TARGETS)}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if sample_count < 10:
        raise ValueError(f"sample_count must be >= 10, got {sample_count}")
    domain = [(float(lo), float(hi)) for lo, hi in domain]
    for lo, hi in domain:
        if not lo < hi:
            raise ValueError(f"degenerate domain interval [{lo}, {hi}]")

    d = len(domain)
    u = rng.uniform(0.0, 1.0, (sample_count, d))
    lo = np.array([iv[0] for iv in domain], dtype=np.float32)
    hi = np.array([iv[1] for iv in domain], dtype=np.float32)
    x = lo + (hi - lo) * u
    y = _UGO_TARGETS[target](x)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"target {target!r} produced non-finite values on the sampled domain")

    n_hold = max(1, sample_count // 10)
    train = _ArrayData(x[n_hold:], y[n_hold:])
    hold = _ArrayData(x[:n_hold], y[:n_hold])

    net = mlp([d, width, y.shape[1]], rng.split("init"))
    cfg = TrainConfig(steps=steps, batch_size=batch_size, lr=lr)
    net, _ = train_model(net, train, cfg, rng.split("fit"))

    pred = ann_forward(net, hold.x, record=False).output
    heldout = float(np.mean((pred.astype(np.float64) - hold.y) ** 2))
    return UgoApproximator(net, target, domain, heldout)
