"""Stage 2 of the conversion: map a staircase-activated model onto
integrate-and-fire layers, then calibrate thresholds and initial potentials,
first per layer (closed-form scaling) and then per neuron (gradient descent
with weights frozen). The per-neuron gradients come from a hand-written
forward pass and reverse sweep through the unrolled simulation, not from the
autodiff tape; ``_nwc_bptt`` states what each loss contributes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .ann import AnnModel, Embedding, Linear, Qcfs, Relu, Gelu, _apply_embedding, ann_forward
from .snn import (IfLayer, SnnNetwork, _rate, _rate_denominator, _split_stack, firing_rate,
                  simulate, theoretical_spike_count)
from .tensor import Array, Rng


class CalibrationError(RuntimeError):
    """Neuron-wise calibration hit a non-finite loss or broke a contract."""


@dataclass
class CalibConfig:
    """Stage-2 knobs.

    ``rho`` is the number of unrolled calibration steps (defaults to the
    inference horizon); ``denominator`` picks whether rates divide the
    rho-step spike sum by rho or by the full horizon.
    """

    timesteps: int = 8
    rho: int | None = None
    alpha: object = 0.6          # scalar, per-layer list, or "auto"
    beta: object = 0.1           # scalar or per-layer list
    lambda_align: float = 1.0
    lambda_logits: float = 1.0
    temperature: float = 1.0
    lr: float = 0.02
    steps: int = 80
    batch_size: int = 128
    seed: int = 0
    denominator: str = "rho"

    def __post_init__(self):
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")
        if self.rho is None:
            self.rho = self.timesteps
        _rate_denominator(self.rho, self.timesteps, self.denominator)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.lambda_align < 0 or self.lambda_logits < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.lambda_align == 0 and self.lambda_logits == 0:
            raise ValueError("loss weights must not both be zero")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.alpha != "auto":
            for a in np.atleast_1d(np.asarray(self.alpha, dtype=np.float64)):
                if not 0 < a <= 1:
                    raise ValueError(f"alpha must lie in (0, 1], got {a}")


# -- stage-1 to stage-2 handoff -------------------------------------------------

def convert(model: AnnModel, timesteps: int) -> SnnNetwork:
    """Map a staircase model onto an IF stack.

    Weights are copied bit-exactly; each staircase ceiling becomes that
    layer's per-neuron threshold and the initial potential starts at half
    the threshold (the half-step shift of the staircase). Calibration will
    overwrite both.
    """
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    layers: list = []
    encoder = None
    pending_width: int | None = None
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Embedding):
            if i != 0:
                raise ValueError(f"layer {i}: embedding is only convertible as the input encoder")
            encoder = Embedding(layer.table.copy())
        elif isinstance(layer, Linear):
            layers.append(Linear(layer.w.copy(), layer.b.copy()))
            pending_width = layer.w.shape[1]
        elif isinstance(layer, Qcfs):
            if pending_width is None:
                raise ValueError(f"layer {i}: staircase without a preceding linear layer")
            theta = np.full(pending_width, np.float32(layer.ceiling), dtype=np.float32)
            layers.append(IfLayer(threshold=theta, v_init=theta / 2))
            pending_width = None
        elif isinstance(layer, (Relu, Gelu)):
            raise ValueError(
                f"layer {i}: model still has a {type(layer).__name__} activation; "
                "replace activations and fine-tune (stage 1) before converting")
        else:
            raise TypeError(f"layer {i}: unknown layer type {type(layer).__name__}")
    return SnnNetwork(layers, timesteps, input_encoder=encoder)


def _per_layer(value, n: int, name: str) -> list[float]:
    arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if arr.size == 1:
        return [float(arr[0])] * n
    if arr.size != n:
        raise ValueError(f"{name} needs 1 or {n} entries, got {arr.size}")
    return [float(v) for v in arr]


def lwc(net: SnnNetwork, alpha, beta) -> SnnNetwork:
    """Layer-wise calibration: scale thresholds by alpha, then set the
    initial potential to beta times the scaled threshold."""
    if_layers = net.if_layers()
    alphas = _per_layer(alpha, len(if_layers), "alpha")
    betas = _per_layer(beta, len(if_layers), "beta")
    for a in alphas:
        if not 0 < a <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {a}")
    out = net.clone()
    for layer, a, b in zip(out.if_layers(), alphas, betas):
        layer.threshold = (np.float32(a) * layer.threshold).astype(np.float32)
        layer.v_init = (np.float32(b) * layer.threshold).astype(np.float32)
    return out


def select_alpha(taus, timesteps: int) -> float:
    """Heuristic threshold scale from the spread of theoretical spike counts:
    clip(p99(tau)/T + 1/T, 0.5, 1.0)."""
    taus = np.asarray(taus)
    if taus.size == 0:
        raise ValueError("select_alpha needs at least one spike-count sample")
    p99 = float(np.percentile(taus, 99))
    return float(np.clip(p99 / timesteps + 1.0 / timesteps, 0.5, 1.0))


def resolve_alpha(cfg: CalibConfig, ann: AnnModel, probe_x: Array) -> list[float]:
    """Per-layer alpha: the configured value, or the data heuristic when 'auto'."""
    n = len(ann.qcfs_layers())
    if cfg.alpha != "auto":
        return _per_layer(cfg.alpha, n, "alpha")
    alphas = []
    for trace in ann_forward(ann, probe_x).traces:
        taus = theoretical_spike_count(trace.post, trace.ceiling, cfg.timesteps)
        alphas.append(select_alpha(taus, cfg.timesteps))
    return alphas


# -- calibration losses ---------------------------------------------------------

def activation_align_loss(acts: Array, spikes: Array, threshold: Array,
                          rho: int, timesteps: int, denominator: str = "rho",
                          layer: int | None = None) -> float:
    """Mean squared error between analog activations and the rho-step rate,
    both in float64."""
    rate = _rate(np.asarray(threshold, dtype=np.float64), np.asarray(spikes)[:rho],
                 _rate_denominator(rho, timesteps, denominator))
    acts = np.asarray(acts, dtype=np.float64)
    if acts.shape != rate.shape:
        where = f" at layer {layer}" if layer is not None else ""
        raise ValueError(f"activation/rate shape mismatch{where}: {acts.shape} vs {rate.shape}")
    return float(np.mean((acts - rate) ** 2))


def logits_loss(ann_logits: Array, snn_rates: Array, temperature: float) -> float:
    """Soft-target cross entropy between the two output distributions,
    averaged over the batch."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    a = np.atleast_2d(np.asarray(ann_logits, dtype=np.float64))
    r = np.atleast_2d(np.asarray(snn_rates, dtype=np.float64))
    if a.shape != r.shape:
        raise ValueError(f"logit shape mismatch: {a.shape} vs {r.shape}")
    if a.shape[1] == 0:
        raise ValueError("logits loss needs at least one class")

    def log_softmax(z):
        z = z / temperature
        z = z - z.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    q = np.exp(log_softmax(a))
    return float(-np.mean(np.sum(q * log_softmax(r), axis=1)))


# -- neuron-wise calibration ------------------------------------------------------

def _teacher_pass(ann: AnnModel, bx: Array):
    res = ann_forward(ann, bx)
    return [t.post.astype(np.float32) for t in res.traces], res.output.astype(np.float32)


def _kd_loss_and_grad(teacher_logits: Array, out: Array, temperature: float):
    """Soft-target cross entropy of ``out`` against the teacher (as in
    ``autodiff.kd_cross_entropy``) and its gradient with respect to ``out``."""
    q = ad.soft_targets(teacher_logits, temperature).astype(out.dtype)
    z = out * (1.0 / temperature)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    batch = out.shape[0]
    loss = -float(((z - np.log(total)) * q).sum(axis=1).sum() * (1.0 / batch))
    grad = (e / total - q) * (1.0 / (batch * temperature))
    return loss, grad


def _nwc_bptt(snn: SnnNetwork, params: dict, drive: Array, teacher_acts,
              teacher_logits, cfg: CalibConfig):
    """One calibration step: both losses and the gradient for every threshold
    and initial potential, by surrogate-gradient backprop through time.

    Gradient semantics: the alignment loss is differentiated with the
    carries between layers detached, so each layer's parameters receive the
    gradient of that layer's own ``L_al`` term (the membrane recurrence
    within the layer stays differentiable); the logits loss is differentiated
    through the whole chain, carries included. The two gradients are combined
    with their loss weights, ``lambda_align * dL_al + lambda_logits *
    dL_logits``; a term whose weight is zero is not computed.

    One forward pass over the rho unrolled steps stores each layer's spike
    frame and surrogate factor; one reverse sweep over steps and layers then
    carries the adjoint of the membrane potential in up to two lanes, stacked
    as (lanes, batch, width): the alignment lane, which never crosses layers,
    and the logits lane, which crosses layers through ``g @ W.T``.
    """
    pairs, tail = _split_stack(snn)
    n_layers = len(pairs)
    thetas = [params[f"if{j}.threshold"] for j in range(n_layers)]
    inv_denom = 1.0 / _rate_denominator(cfg.rho, cfg.timesteps, cfg.denominator)

    # forward: s and the surrogate factor for every (step, layer)
    first_current = drive @ pairs[0][0].w + pairs[0][0].b
    vs = [params[f"if{j}.v_init"] for j in range(n_layers)]
    sums: list = [None] * n_layers
    frames: list[list] = []
    for _ in range(cfg.rho):
        row = []
        carry = None
        for j, (linear, _) in enumerate(pairs):
            theta = thetas[j]
            cur = first_current if j == 0 else carry @ linear.w + linear.b
            v = vs[j] + cur
            s = (v >= theta).astype(np.float32)
            row.append((s, ad.surrogate_spike_grad(v, theta)))
            carry = s * theta
            vs[j] = v - carry
            sums[j] = s if sums[j] is None else sums[j] + s
        frames.append(row)
    rates = [sums[j] * thetas[j] * inv_denom for j in range(n_layers)]

    diffs = [rates[j] - teacher_acts[j] for j in range(n_layers)]
    l_align = float(np.sum([(d * d).sum() * (1.0 / d.size) for d in diffs]))
    out = rates[-1] if tail is None else rates[-1] @ tail.w + tail.b
    l_kd, g_out = _kd_loss_and_grad(teacher_logits, out, cfg.temperature)

    # seeds: the gradient of each lane's loss with respect to every rate
    lanes = []
    if cfg.lambda_align > 0:
        lanes.append([np.float32(2.0 * cfg.lambda_align / d.size) * d for d in diffs])
    kd = None
    if cfg.lambda_logits > 0:
        kd = len(lanes)
        g_last = g_out if tail is None else g_out @ tail.w.T
        lanes.append([np.zeros_like(r) for r in rates[:-1]] + [cfg.lambda_logits * g_last])
    g_rate = [np.stack([lane[j] for lane in lanes]) for j in range(n_layers)]

    # reverse: g_u is the adjoint of the post-reset potential; acc gathers
    # the threshold gradient through the reset and the carry
    g_sum = [g_rate[j] * inv_denom * thetas[j] for j in range(n_layers)]
    g_u = [np.zeros_like(g) for g in g_rate]
    acc = [g_rate[j] * inv_denom * sums[j] for j in range(n_layers)]
    for row in reversed(frames):
        g_carry = None
        for j in range(n_layers - 1, -1, -1):
            s, surr = row[j]
            c = -g_u[j]
            if g_carry is not None:
                c[kd] += g_carry
            acc[j] += s * c
            g_u[j] += (g_sum[j] + thetas[j] * c) * surr
            g_carry = g_u[j][kd] @ pairs[j][0].w.T if kd is not None and j > 0 else None

    # the firing condition's theta partial is minus its v partial, and summed
    # over the steps those v partials are exactly the final g_u
    grads = {}
    for j in range(n_layers):
        grads[f"if{j}.threshold"] = (acc[j] - g_u[j]).sum(axis=(0, 1))
        grads[f"if{j}.v_init"] = g_u[j].sum(axis=(0, 1))
    losses = {
        "L_al": l_align,
        "L_logits": l_kd,
        "L_all": cfg.lambda_align * l_align + cfg.lambda_logits * l_kd,
    }
    return losses, grads


def _calib_batch(snn: SnnNetwork, ann: AnnModel, bx: Array):
    """Drive current and teacher targets for one calibration batch."""
    teacher_acts, teacher_logits = _teacher_pass(ann, bx)
    if snn.input_encoder is None:
        drive = bx.astype(np.float32)
    else:
        drive = _apply_embedding(bx, snn.input_encoder, "encoder")
    return drive, teacher_acts, teacher_logits


def nwc_calibrate(snn: SnnNetwork, ann: AnnModel, data, cfg: CalibConfig,
                  rng: Rng | None = None) -> tuple[SnnNetwork, list[dict]]:
    """Neuron-wise calibration: train per-neuron thresholds and initial
    potentials by backprop through the unrolled simulation.

    Synaptic weights are frozen; the function asserts their hash is
    untouched. Returns the calibrated network and one log record per
    optimizer step.
    """
    from .checkpoint import weight_hash  # local import avoids a module cycle

    if rng is None:
        rng = Rng(cfg.seed).split("nwc")
    snn = snn.clone()
    pairs, _ = _split_stack(snn)
    if len(pairs) != len(ann.qcfs_layers()):
        raise ValueError(
            f"teacher has {len(ann.qcfs_layers())} staircase layers but the network has "
            f"{len(pairs)} IF layers")
    hash_before = weight_hash(snn)

    params = {}
    for j, (_, iflayer) in enumerate(pairs):
        params[f"if{j}.threshold"] = iflayer.threshold.copy()
        params[f"if{j}.v_init"] = iflayer.v_init.copy()
    state = None
    n = len(data.x)
    log: list[dict] = []

    # whole set fits one batch: keep it fixed across steps
    batch = _calib_batch(snn, ann, data.x) if cfg.batch_size >= n else None
    for step in range(cfg.steps):
        if cfg.batch_size < n:
            batch = _calib_batch(snn, ann, data.x[rng.integers(0, n, (cfg.batch_size,))])
        losses, gdict = _nwc_bptt(snn, params, *batch, cfg)
        l_all = losses["L_all"]
        if not np.isfinite(l_all):
            raise CalibrationError(f"non-finite calibration loss at step {step}")
        params, state = ad.adam_step(params, gdict, state, cfg.lr)
        for j in range(len(pairs)):
            # thresholds must stay positive for the surrogate to be defined
            theta = params[f"if{j}.threshold"]
            np.maximum(theta, np.float32(1e-4), out=theta)
        log.append({
            "step": step,
            "L_al": losses["L_al"],
            "L_logits": losses["L_logits"],
            "L_all": l_all,
            "mean_theta": float(np.mean([params[f"if{j}.threshold"].mean()
                                         for j in range(len(pairs))])),
            "mean_v0": float(np.mean([params[f"if{j}.v_init"].mean()
                                      for j in range(len(pairs))])),
        })

    for j, (_, iflayer) in enumerate(pairs):
        iflayer.threshold = params[f"if{j}.threshold"]
        iflayer.v_init = params[f"if{j}.v_init"]
    if weight_hash(snn) != hash_before:
        raise CalibrationError("synaptic weights changed during neuron-wise calibration")
    return snn, log


# -- evaluation -------------------------------------------------------------------

def eval_losses(snn: SnnNetwork, ann: AnnModel, x: Array, cfg: CalibConfig) -> dict:
    """Both calibration losses on a fixed batch, computed from a plain
    simulation at the inference horizon, over all of its T steps."""
    T = cfg.timesteps
    teacher_acts, teacher_logits = _teacher_pass(ann, x)
    rec = simulate(snn, x, T)
    _, tail = _split_stack(snn)
    align = 0.0
    for j in range(rec.n_layers):
        align += activation_align_loss(teacher_acts[j], rec.spikes[j], rec.thresholds[j],
                                       T, T, cfg.denominator, layer=j)
    rate = firing_rate(rec, rec.n_layers - 1, rho=T, denominator=cfg.denominator)
    out = rate if tail is None else rate @ tail.w + tail.b
    kd = logits_loss(teacher_logits, out, cfg.temperature)
    return {
        "L_al": float(align),
        "L_logits": float(kd),
        "L_all": float(cfg.lambda_align * align + cfg.lambda_logits * kd),
    }


_PREDICT_BATCH = 512  # rows per simulation when predicting a whole set


def snn_predict(snn: SnnNetwork, x: Array, timesteps: int | None = None) -> Array:
    outs = []
    for lo in range(0, len(x), _PREDICT_BATCH):
        outs.append(simulate(snn, x[lo:lo + _PREDICT_BATCH], timesteps).output)
    return np.concatenate(outs, axis=0)


def evaluate_snn(snn: SnnNetwork, data, timesteps: int | None = None) -> dict:
    out = snn_predict(snn, data.x, timesteps)
    if data.task == "regress":
        return {"mse": float(np.mean((out.astype(np.float64) - data.y) ** 2))}
    return {"accuracy": float((out.argmax(axis=1) == data.y).mean())}


# -- stage-2 variants -------------------------------------------------------------

ABLATION_VARIANTS = ("none", "lwc", "nwc", "both")


def apply_stage2(snn_base: SnnNetwork, ann: AnnModel, splits, cfg: CalibConfig,
                 variant: str, rng: Rng) -> tuple[SnnNetwork, list[dict]]:
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    net = snn_base.clone()
    if variant in ("lwc", "both"):
        probe = splits.train.x[:512]
        alphas = resolve_alpha(cfg, ann, probe)
        net = lwc(net, alphas, cfg.beta)
    log: list[dict] = []
    if variant in ("nwc", "both"):
        net, log = nwc_calibrate(net, ann, splits.calib, cfg, rng.split(f"nwc-{variant}"))
    return net, log
