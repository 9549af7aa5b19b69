"""Stage 2 of the conversion: map a staircase-activated model onto
integrate-and-fire layers, then calibrate thresholds and initial potentials,
first per layer (closed-form scaling) and then per neuron (gradient descent
with weights frozen). One neuron-wise step is ``_nwc_bptt``: it runs
``snn``'s unrolled window of the simulation's own IF recurrence, compares
the window's rates with the teacher's, and seeds that window's reverse
sweep with each loss's gradient by the rates; its docstring states what
each loss contributes. The soft-target cross entropy it minimizes is
written once, ``_kd_loss_and_grad``, which ``logits_loss`` reports. Only
Adam comes from ``autodiff``; the tape is the tests' oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ann import (AnnModel, Embedding, Linear, Qcfs, Relu, _apply_linear, _softmax_parts,
                  ann_forward)
from .autodiff import adam_step
from .checkpoint import weight_hash
from .snn import (IfLayer, SimulationError, SnnNetwork, SpikeRecord, _drive, _rate, _split_stack,
                  _window_grads, _window_run, simulate)
from .tensor import Array, Rng


class CalibrationError(RuntimeError):
    """Neuron-wise calibration hit a non-finite loss or broke a contract."""


@dataclass
class CalibConfig:
    """Stage-2 knobs.

    ``alpha`` scales every IF layer's thresholds in layer-wise calibration,
    and ``beta`` sets each initial potential as a fraction of the scaled
    threshold. ``rho`` is the number of unrolled steps in neuron-wise
    calibration's window (defaults to the inference horizon); that window's
    rates are ``simulate``'s over rho steps. Every other rate,
    ``eval_losses`` included, scores the whole horizon.
    Nothing in the package reads ``seed``: calibration draws its batches
    from the stream its caller passes.
    """

    timesteps: int = 8
    rho: int | None = None
    alpha: float = 0.6
    beta: float = 0.1
    lr: float = 0.02
    steps: int = 80
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {self.timesteps}")
        if self.rho is None:
            self.rho = self.timesteps
        if not 1 <= self.rho <= self.timesteps:
            raise ValueError(f"need 1 <= rho <= timesteps, got rho={self.rho}, T={self.timesteps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


# -- stage-1 to stage-2 handoff -------------------------------------------------

def convert(model: AnnModel, timesteps: int) -> SnnNetwork:
    """Map a staircase model onto an IF stack.

    The network has its own layer objects but shares every weight array
    with ``model``, as ``SnnNetwork.clone`` shares them: weights are frozen
    once converted, and neither the model nor the network writes them again.
    Each staircase ceiling becomes that layer's per-neuron threshold and the
    initial potential starts at half the threshold (the half-step shift of
    the staircase). Calibration will overwrite both.
    """
    layers: list = []
    encoder = None
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Embedding):
            if i != 0:
                raise ValueError(f"layer {i}: embedding is only convertible as the input encoder")
            encoder = Embedding(layer.table)
        elif isinstance(layer, Linear):
            layers.append(Linear(layer.w, layer.b))
        elif isinstance(layer, Qcfs):
            if not (layers and isinstance(layers[-1], Linear)):
                raise ValueError(f"layer {i}: staircase without a preceding linear layer")
            theta = np.full(layers[-1].w.shape[1], np.float32(layer.ceiling), dtype=np.float32)
            layers.append(IfLayer(threshold=theta, v_init=theta / 2))
        elif isinstance(layer, Relu):
            raise ValueError(
                f"layer {i}: model still has a {type(layer).__name__} activation; "
                "replace activations and fine-tune (stage 1) before converting")
        else:
            raise TypeError(f"layer {i}: unknown layer type {type(layer).__name__}")
    return SnnNetwork(layers, timesteps, input_encoder=encoder)


def lwc(net: SnnNetwork, alpha: float, beta: float) -> SnnNetwork:
    """Layer-wise calibration: scale every IF layer's thresholds by alpha,
    then set the initial potential to beta times the scaled threshold."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    out = net.clone()
    for layer in out.if_layers():
        layer.threshold = (np.float32(alpha) * layer.threshold).astype(np.float32)
        layer.v_init = (np.float32(beta) * layer.threshold).astype(np.float32)
    return out


# -- calibration losses ---------------------------------------------------------

def activation_align_loss(acts: Array, counts: Array, threshold: Array, timesteps: int,
                          layer: int) -> float:
    """Mean squared error between analog activations and the rate of the
    (batch, width) spike counts over all ``timesteps`` steps, both in
    float64; ``layer`` is the IF layer's index, for the error message."""
    rate = _rate(np.asarray(threshold, dtype=np.float64), np.asarray(counts), timesteps)
    acts = np.asarray(acts, dtype=np.float64)
    if acts.shape != rate.shape:
        raise ValueError(f"activation/rate shape mismatch at layer {layer}: "
                         f"{acts.shape} vs {rate.shape}")
    return float(np.mean((acts - rate) ** 2))


def logits_loss(ann_logits: Array, snn_rates: Array, temperature: float) -> float:
    """Soft-target cross entropy between the two output distributions,
    averaged over the batch: ``_kd_loss_and_grad``'s loss, which NWC
    minimizes in float32, taken here in float64 on the logits divided by
    ``temperature``."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    a = np.atleast_2d(np.asarray(ann_logits, dtype=np.float64))
    r = np.atleast_2d(np.asarray(snn_rates, dtype=np.float64))
    if a.shape != r.shape:
        raise ValueError(f"logit shape mismatch: {a.shape} vs {r.shape}")
    if a.shape[1] == 0:
        raise ValueError("logits loss needs at least one class")
    return _kd_loss_and_grad(a / temperature, r / temperature)[0]


# -- neuron-wise calibration ------------------------------------------------------

def _teacher_pass(ann: AnnModel, bx: Array):
    res = ann_forward(ann, bx)
    return ([t.post.astype(np.float32, copy=False) for t in res.traces],
            res.output.astype(np.float32, copy=False))


def _kd_loss_and_grad(teacher_logits: Array, out: Array):
    """Soft-target cross entropy of ``out`` against the teacher's softmax,
    averaged over the batch, and its gradient with respect to ``out``: the
    package's one definition of ``L_logits``, in two precisions: NWC calls
    it on float32 logits and ``logits_loss`` on float64 ones. The teacher's
    softmax is formed in the teacher's dtype, then cast to ``out``'s. The
    tape's ``kd_cross_entropy`` is its oracle."""
    _, e_t, se_t = _softmax_parts(teacher_logits)
    q = (e_t / se_t).astype(out.dtype)
    z, e, total = _softmax_parts(out)
    batch = out.shape[0]
    loss = -float(((z - np.log(total)) * q).sum(axis=1).sum() * (1.0 / batch))
    grad = (e / total - q) * (1.0 / batch)
    return loss, grad


def _nwc_bptt(pairs, tail, drive: Array, teacher_acts, teacher_logits, rho: int):
    """One calibration step on the split stack ``pairs, tail`` over a window
    of ``rho`` unrolled steps: both losses and the gradient for every
    threshold and initial potential of the pairs' IF layers, keyed
    ``if{j}.threshold`` and ``if{j}.v_init``, by surrogate-gradient backprop
    through time: ``snn._window_run``'s rates give the losses and each
    loss's gradient by the rates, which seed ``snn._window_grads``.

    Gradient semantics: the alignment loss is differentiated with the
    carries between layers detached, so each layer's parameters receive the
    gradient of that layer's own ``L_al`` term (the membrane recurrence
    within the layer stays differentiable); the logits loss is differentiated
    through the whole chain, carries included, from the last layer's rates
    down. The step minimizes ``L_all = L_al + L_logits``, so the gradient is
    the sum of the two: the alignment seeds stay in their layers, and the
    logits seed, by the last layer's rates alone, crosses every carry below.
    """
    n_layers = len(pairs)
    rates, record = _window_run(pairs, drive, rho)
    diffs = [rates[j] - teacher_acts[j] for j in range(n_layers)]
    l_align = float(np.sum([(d * d).sum() * (1.0 / d.size) for d in diffs]))
    out = rates[-1] if tail is None else _apply_linear(rates[-1], tail, str(2 * n_layers))
    l_kd, g_out = _kd_loss_and_grad(teacher_logits, out)
    # what only the forward pass reads is dropped once read, so the reverse
    # sweep starts with little more than the record
    del rates, out

    g_align = [np.float32(2.0 / d.size) * d for d in diffs]
    del diffs
    g_logits = g_out if tail is None else g_out @ tail.w.T
    grads = {}
    for j, (g_theta, g_v) in enumerate(_window_grads(pairs, record, g_align, g_logits)):
        grads[f"if{j}.threshold"], grads[f"if{j}.v_init"] = g_theta, g_v
    return {"L_al": l_align, "L_logits": l_kd, "L_all": l_align + l_kd}, grads


def _calib_batch(snn: SnnNetwork, ann: AnnModel, bx: Array):
    """Drive and teacher targets for one calibration batch."""
    return (_drive(snn, bx),) + _teacher_pass(ann, bx)


def nwc_calibrate(snn: SnnNetwork, ann: AnnModel, data, cfg: CalibConfig,
                  rng: Rng) -> tuple[SnnNetwork, list[dict]]:
    """Neuron-wise calibration: train per-neuron thresholds and initial
    potentials by backprop through the unrolled simulation.

    Adam updates the threshold and initial-potential arrays of a clone of
    ``snn`` in place; ``snn`` itself is left as it is. Synaptic weights are
    frozen; the function asserts their hash is untouched. Returns the
    calibrated clone and one log record per optimizer step.
    """
    snn = snn.clone()
    pairs, tail = _split_stack(snn)
    if len(pairs) != len(ann.qcfs_layers()):
        raise ValueError(
            f"teacher has {len(ann.qcfs_layers())} staircase layers but the network has "
            f"{len(pairs)} IF layers")
    hash_before = weight_hash(snn)

    layers = [iflayer for _, iflayer in pairs]
    params = {}
    for j, layer in enumerate(layers):
        params[f"if{j}.threshold"] = layer.threshold
        params[f"if{j}.v_init"] = layer.v_init
    state = None
    n = len(data.x)
    log: list[dict] = []

    # whole set fits one batch: keep it fixed across steps
    batch = _calib_batch(snn, ann, data.x) if cfg.batch_size >= n else None
    for step in range(cfg.steps):
        if cfg.batch_size < n:
            batch = _calib_batch(snn, ann, data.x[rng.integers(0, n, (cfg.batch_size,))])
        try:
            losses, gdict = _nwc_bptt(pairs, tail, *batch, cfg.rho)
        except SimulationError as e:
            raise CalibrationError(f"{e} in calibration step {step}") from e
        l_all = losses["L_all"]
        if not np.isfinite(l_all):
            raise CalibrationError(f"non-finite calibration loss at step {step}")
        _, state = adam_step(params, gdict, state, cfg.lr)
        for layer in layers:
            # thresholds must stay positive for the surrogate to be defined
            np.maximum(layer.threshold, np.float32(1e-4), out=layer.threshold)
        log.append({
            "step": step,
            "L_al": losses["L_al"],
            "L_logits": losses["L_logits"],
            "L_all": l_all,
            "mean_theta": float(np.mean([layer.threshold.mean() for layer in layers])),
            "mean_v0": float(np.mean([layer.v_init.mean() for layer in layers])),
        })

    if weight_hash(snn) != hash_before:
        raise CalibrationError("synaptic weights changed during neuron-wise calibration")
    return snn, log


# -- evaluation -------------------------------------------------------------------

def eval_losses(snn: SnnNetwork, ann: AnnModel, x: Array, cfg: CalibConfig) -> dict:
    """Both calibration losses on a fixed batch, computed from a plain
    simulation at the inference horizon, over all of its T steps; so rho
    does not enter, and the logits are the simulation's own decoded
    output."""
    return _record_losses(simulate(snn, x, cfg.timesteps), *_teacher_pass(ann, x))


def _align_terms(rec: SpikeRecord, teacher_acts) -> list[float]:
    """Each IF layer's ``activation_align_loss`` term of the simulation
    ``rec`` against the teacher's activations on the same batch, in layer
    order; ``L_al`` is their sum."""
    return [activation_align_loss(teacher_acts[j], rec.counts[j], rec.thresholds[j],
                                  rec.timesteps, layer=j) for j in range(rec.n_layers)]


def _record_losses(rec: SpikeRecord, teacher_acts, teacher_logits: Array) -> dict:
    """``eval_losses`` of an existing simulation ``rec`` against the teacher's
    activations and logits on the same batch."""
    # a plain loop, not sum(), which compensates float sums from Python 3.12
    align = 0.0
    for term in _align_terms(rec, teacher_acts):
        align += term
    kd = logits_loss(teacher_logits, rec.output, 1.0)
    return {"L_al": float(align), "L_logits": float(kd), "L_all": float(align + kd)}


def snn_predict(snn: SnnNetwork, x: Array, timesteps: int | None = None) -> Array:
    """The decoded output of one ``simulate`` run, which bounds its own
    memory by running one row block at a time."""
    return simulate(snn, x, timesteps).output


def evaluate_snn(snn: SnnNetwork, data, timesteps: int) -> dict:
    out = snn_predict(snn, data.x, timesteps)
    return {"accuracy": float((out.argmax(axis=1) == data.y).mean())}


# -- stage-2 variants -------------------------------------------------------------

ABLATION_VARIANTS = ("none", "lwc", "nwc", "both")


def apply_stage2(snn_base: SnnNetwork, ann: AnnModel, splits, cfg: CalibConfig,
                 variant: str, rng: Rng) -> tuple[SnnNetwork, list[dict]]:
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    net = snn_base.clone()
    if variant in ("lwc", "both"):
        net = lwc(net, cfg.alpha, cfg.beta)
    log: list[dict] = []
    if variant in ("nwc", "both"):
        net, log = nwc_calibrate(net, ann, splits.train, cfg, rng.split(f"nwc-{variant}"))
    return net, log
