"""Time-stepped integrate-and-fire simulation with reset-by-subtraction,
per-neuron thresholds and initial potentials, spike recording, and rate math.

This is the IF neuron's one home: its step ``if_step``, its surrogate
window and that window at a step's pre-reset potential
(``_pre_reset_window``), and neuron-wise calibration's unrolled window,
``_window_run``, with its reverse sweep, ``_window_grads``, which holds the
step's local derivatives in reset form. A change to the neuron edits these
and no other module. Ties (potential exactly at threshold) fire; membrane
potentials may go negative.

A spiking network is plain data: linear and IF layers in turn, with an
optional trailing linear, an order and widths checked once, when the
network is built. Each IF layer holds only its threshold and initial
potential, and a run keeps its membrane potentials to itself, so running
never changes the network. Every linear layer is applied by the analog
path's ``ann._apply_linear``.

A run is set up and stepped in one place, ``_if_steps``, on the drive that
``_drive`` forms: ``simulate`` records what it yields, and its replay and
``_window_run`` keep its frames, so all fire, reset and check for
non-finite potentials in the one ``if_step``, which writes each step's
firing mask into memory its caller owns.

``simulate`` runs one row block of the batch at a time (``_row_blocks``),
each block through every step, so the potentials, masks and currents it
holds at once are a block's, not the batch's. No row's steps read another
row; ``_row_blocks`` says on which shapes that keeps the whole batch's bits.

Spike frames are not stored: ``simulate`` keeps each layer's spike counts
over the whole horizon, and every reader of a ``SpikeRecord`` scores the
horizon from them. ``SpikeRecord.spikes`` replays ``_if_steps`` on first
access, from a snapshot that ``simulate`` took, and checks the frames
against the counts.

``_rate`` is the one place that turns spike counts into a threshold-weighted
rate: ``simulate``, ``_window_run`` and ``calibrate.activation_align_loss``
all call it.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .ann import Embedding, Linear, _apply_embedding, _apply_linear
from .tensor import Array

# neurons of the widest IF layer per row block of a simulation: 256 rows of
# a 1024-wide layer, so a block's potentials, masks and currents stay small
_BLOCK_NEURONS = 1 << 18
# the dtypes of one step's spikes and of a T-step run's counts, for a new neuron
_SPIKE = np.dtype(np.bool_)
_count_dtype = np.min_scalar_type


class SimulationError(RuntimeError):
    """Simulation produced a non-finite membrane potential."""


@dataclass
class IfLayer:
    """Integrate-and-fire population: per-neuron threshold and initial
    potential, as float32 vectors of one width. The layer holds its own
    copies, so neuron-wise calibration can update them in place."""

    threshold: Array
    v_init: Array

    def __post_init__(self):
        self.threshold = np.array(self.threshold, dtype=np.float32)
        self.v_init = np.array(self.v_init, dtype=np.float32)
        if self.threshold.ndim != 1 or self.v_init.shape != self.threshold.shape:
            raise ValueError(f"threshold/v_init must be matching vectors, got "
                             f"{self.threshold.shape} and {self.v_init.shape}")
        if not (np.isfinite(self.threshold).all() and np.isfinite(self.v_init).all()):
            raise ValueError("threshold and v_init must be finite")
        if not np.all(self.threshold > 0):
            raise ValueError("threshold must be positive elementwise")

    @property
    def width(self) -> int:
        return self.threshold.shape[0]


def if_step(layer: IfLayer, v: Array, input_current: Array, spikes: Array,
            step: int) -> tuple[Array, Array]:
    """Advance the float32 potentials ``v`` (batch, width) by one timestep,
    in place, and write the firing mask into the boolean array ``spikes``
    (batch, width); returns ``spikes`` and the threshold-weighted output
    ``spikes * threshold`` that the next linear layer reads. ``step`` is the
    timestep's index, for the error message. ``simulate`` passes the same
    mask at every step and adds it to the layer's spike counts.

    Reset is by subtraction: a firing neuron's potential drops by exactly
    its threshold. A potential exactly at threshold fires. Only ``v`` and
    ``spikes`` are written: ``input_current`` and the layer are left as they
    are.
    """
    cur = np.asarray(input_current, dtype=np.float32)
    if cur.shape[-1] != layer.width:
        raise ValueError(f"input current width {cur.shape[-1]} != layer width {layer.width}")
    v += cur
    # the finiteness test borrows the caller's mask, which the firing test
    # then overwrites
    if not np.isfinite(v, out=spikes).all():
        neuron = int(np.argwhere(~np.isfinite(v))[0][-1])
        raise SimulationError(f"non-finite membrane potential for neuron {neuron} at step {step}")
    np.greater_equal(v, layer.threshold, out=spikes)
    out = spikes * layer.threshold
    v -= out
    return spikes, out


SURROGATE_WINDOW = 0.5  # half-width of the surrogate rectangle, as a fraction of theta


def _surrogate_window(v, theta) -> Array:
    """Boolean mask of the surrogate rectangle, |v - theta| < SURROGATE_WINDOW
    * theta; ``theta`` must be positive, which the caller checks."""
    return np.abs(v - theta) < SURROGATE_WINDOW * theta


def surrogate_spike_grad(v, theta) -> Array:
    """Rectangular surrogate derivative of the spike indicator w.r.t. the
    membrane potential: (1/theta) inside ``_surrogate_window``, else 0."""
    v = np.asarray(v)
    theta = np.asarray(theta, dtype=v.dtype if v.dtype.kind == "f" else np.float64)
    if not np.all(theta > 0):
        raise ValueError("spike threshold must be positive elementwise")
    return _surrogate_window(v, theta) * (1 / theta)


def _pre_reset_window(layer: IfLayer, v: Array, out: Array) -> Array:
    """``_surrogate_window`` at the pre-reset potential of the ``if_step`` of
    ``layer`` that left ``v`` and returned ``out``, which is ``v + out`` bit
    for bit: out is 0 where nothing fired; v - theta is exact for theta <= v
    <= 2 theta (Sterbenz), so adding theta back restores v; above 2 theta
    both forms lie outside the window. ``_window_run`` records it for
    ``_window_grads``; ``simulate`` never calls it."""
    return _surrogate_window(v + out, layer.threshold)


class SnnNetwork:
    """Alternating linear/IF stack mirroring the analog model it came from:
    (linear, IF) pairs and an optional trailing linear, an order and widths
    checked once, by the constructor: ``layers`` is a tuple, so no write
    skips it.

    ``input_encoder`` (an embedding, when present) runs once on the raw
    input; its output is the analog drive injected at every step.
    """

    def __init__(self, layers: list, timesteps: int, input_encoder: Embedding | None = None):
        if timesteps < 1:
            raise ValueError(f"simulation horizon must be >= 1, got {timesteps}")
        self.layers = tuple(layers)
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, IfLayer if i % 2 else Linear):
                raise ValueError(f"layer {i}: expected {'an IF' if i % 2 else 'a linear'} "
                                 f"layer, got {type(layer).__name__}")
            prev = self.layers[i - 1] if i else None
            if i % 2 and prev.w.shape[1] != layer.width:
                raise ValueError(f"layer {i - 1} (linear): fan-out {prev.w.shape[1]} != "
                                 f"width {layer.width} of the IF layer after it")
            if i and i % 2 == 0 and layer.w.shape[0] != prev.width:
                raise ValueError(f"layer {i} (linear): fan-in {layer.w.shape[0]} != "
                                 f"width {prev.width} of the IF layer before it")
        self.timesteps = int(timesteps)
        self.input_encoder = input_encoder

    def if_layers(self) -> list[IfLayer]:
        return [l for l in self.layers if isinstance(l, IfLayer)]

    def linear_layers(self) -> list[Linear]:
        return [l for l in self.layers if isinstance(l, Linear)]

    def clone(self) -> "SnnNetwork":
        """A network with its own copy of each IF layer, which calibration
        writes, that shares the linear layers and the input encoder: their
        weights are frozen once converted. The IF layers are copied as they
        are, without ``IfLayer``'s checks; the constructor checks the
        stack's order and widths again."""
        layers = [copy.deepcopy(l) if isinstance(l, IfLayer) else l for l in self.layers]
        return SnnNetwork(layers, self.timesteps, self.input_encoder)


@dataclass
class SpikeRecord:
    """Per-layer spike counts of a run, plus enough state to audit it; the
    spike frames are recomputed by ``replay`` when first read."""

    counts: list[Array]            # per IF layer: (batch, width) spikes over all T steps,
                                   # dtype _count_dtype(T)
    thresholds: list[Array]        # per IF layer: (width,)
    output: Array                  # decoded prediction (batch, out_dim)
    timesteps: int
    replay: Callable[[], list[Array]]  # per IF layer: (T, batch, width) _SPIKE frames
    currents: list[Array] | None = None    # (T, batch, width) when recorded
    potentials: list[Array] | None = None  # post-step traces when recorded

    @cached_property
    def spikes(self) -> list[Array]:
        """Per IF layer: (T, batch, width) frames of each step's counts, uint8
        0/1 here, recomputed by ``replay`` once, on first access. Raises
        ``SimulationError`` if a layer's frames do not sum over time to its
        counts, as when the network's weights were written after the run."""
        frames = self.replay()
        for j, (f, c) in enumerate(zip(frames, self.counts)):
            if not np.array_equal(f.sum(axis=0, dtype=c.dtype), c):
                raise SimulationError(f"layer {j}: replayed spike frames do not sum to the "
                                      f"recorded counts; the network changed after simulate")
        return [f.view(_count_dtype(1)) for f in frames]

    @property
    def n_layers(self) -> int:
        return len(self.counts)

    @property
    def n_samples(self) -> int:
        return self.counts[0].shape[0] if self.counts else 0


def _split_stack(net: SnnNetwork):
    """The (linear, IF) pairs of the stack and its trailing linear, or None:
    slices of ``net.layers``, whose order the constructor checked."""
    layers = net.layers
    return list(zip(layers[::2], layers[1::2])), layers[-1] if len(layers) % 2 else None


def _drive(net: SnnNetwork, x: Array) -> Array:
    """The float32 analog drive of input ``x``, in an array of its own: 1-D
    input is one row, and the network's input encoder, if any, runs once."""
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    if net.input_encoder is not None:
        x = _apply_embedding(x, net.input_encoder, "encoder")
    return np.array(x, dtype=np.float32)


def _if_steps(pairs, drive: Array, spikes: list[Array], steps: int):
    """One run of the IF recurrence over ``pairs`` on the float32 ``drive``,
    for ``simulate``, its replay and neuron-wise calibration.

    The run starts from its own C-ordered copy of the initial potentials,
    (batch, width) per layer (``np.array`` of a broadcast view would come
    out Fortran-ordered, and slow), and computes the first linear's current
    once. For each step t and pair j, that current drives the pair's IF
    layer at j = 0, else the previous layer's output through the pair's
    linear, both by ``_apply_linear``; ``if_step`` advances the layer's
    potentials ``v`` in place and writes the firing mask into
    ``spikes[j][t]``, so ``spikes[j]`` is a boolean (steps, batch, width)
    array the caller owns. Yields ``(t, j, current, v, output)``.
    """
    v = [np.repeat(l.v_init[None, :], drive.shape[0], axis=0) for _, l in pairs]
    first_current = _apply_linear(drive, pairs[0][0], "0") if pairs else None
    for t in range(steps):
        for j, (linear, layer) in enumerate(pairs):
            cur = _apply_linear(carry, linear, str(2 * j)) if j else first_current
            # the benchmark tracer wraps the module's if_step and reads the
            # layer from its first argument
            _, carry = if_step(layer, v[j], cur, spikes[j][t], t)
            yield t, j, cur, v[j], carry


def simulate(net: SnnNetwork, analog_input: Array, timesteps: int | None = None,
             record_currents: bool = False, record_potentials: bool = False) -> SpikeRecord:
    """Run the network for ``timesteps`` steps on a batch of analog inputs.

    The first linear layer sees the same analog input at every step; deeper
    linears see threshold-weighted spikes. The decoded output is the firing
    rate of the last IF layer pushed through the trailing linear, if any.
    ``_if_steps`` runs once per row block of ``_row_blocks``, one block
    through all steps before the next. Each step's spikes are written into
    the layer's one reused mask, then added to the block's rows of the
    layer's counts; recorded currents and potentials go to the block's rows
    too. The trailing linear reads the rates of the whole batch at once.
    The record's ``replay`` reruns the recurrence over the same blocks, from
    copies of the IF layers and of the drive taken here.

    A non-finite potential raises ``SimulationError`` naming the step and
    the neuron: the earliest step at which one arises in the first block
    that has one, so a later block's earlier step is not reported.
    """
    T = net.timesteps if timesteps is None else int(timesteps)
    if T < 1:
        raise ValueError(f"simulation horizon must be >= 1, got {timesteps}")
    x = _drive(net, analog_input)  # the replay's own copy
    batch = x.shape[0]

    pairs, tail = _split_stack(net)
    layers = [iflayer for _, iflayer in pairs]
    counts = [np.zeros((batch, l.width), dtype=_count_dtype(T)) for l in layers]
    currents_rec = ([np.zeros((T, batch, l.width), dtype=np.float32) for l in layers]
                    if record_currents else None)
    potentials_rec = ([np.zeros((T, batch, l.width), dtype=np.float32) for l in layers]
                      if record_potentials else None)

    for rows in _row_blocks(batch, layers):
        masks = [np.zeros((rows.stop - rows.start, l.width), dtype=_SPIKE) for l in layers]
        # every step's destination is the same mask: a zero-stride view over T
        dests = [np.lib.stride_tricks.as_strided(m, (T,) + m.shape, (0,) + m.strides)
                 for m in masks]
        for t, j, cur, v, _ in _if_steps(pairs, x[rows], dests, T):
            counts[j][rows] += masks[j]
            if currents_rec is not None:
                currents_rec[j][t, rows] = cur
            if potentials_rec is not None:
                potentials_rec[j][t, rows] = v
        # dropped before the next block allocates its own
        masks = dests = cur = v = None

    rates = _rate(layers[-1].threshold, counts[-1], T) if pairs else x
    output = _apply_linear(rates, tail, str(2 * len(pairs))) if tail is not None else rates

    snapshot = [(linear, IfLayer(l.threshold, l.v_init)) for linear, l in pairs]
    return SpikeRecord(
        counts=counts,
        thresholds=[l.threshold for _, l in snapshot],
        output=output,
        timesteps=T,
        replay=partial(_replay, snapshot, x, T),
        currents=currents_rec,
        potentials=potentials_rec,
    )


def _row_blocks(batch: int, layers: list[IfLayer]) -> list[slice]:
    """The row blocks ``simulate`` and its replay run one at a time: the
    fewest, n, that hold at most ``_BLOCK_NEURONS`` neurons of the widest
    IF layer each, bounded at ``ceil(k * batch / n)``, so sizes differ by at
    most one row (1027 rows at 1024 wide: 206, 205, 206, 205, 205); another
    order would move rows into blocks of other shapes, and change their
    bits. No block is left with a few rows: BLAS takes other kernels for a
    single row and for small products, which round otherwise than the whole
    batch's. That keeps the whole batch's bits on every golden config, but
    not for a narrow layer after a very wide one: at 8-4096-4-4 and batch
    65, OpenBLAS takes its small-matrix kernel for the 33-row block's 4096
    -> 4 product and not for the whole batch's, so the layer's currents
    differ."""
    rows = max(1, _BLOCK_NEURONS // max([1] + [l.width for l in layers]))
    n = max(1, -(-batch // rows))
    bounds = [-(-k * batch // n) for k in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _replay(pairs, drive: Array, steps: int) -> list[Array]:
    """The spike frames of a ``simulate`` run, one boolean (steps, batch,
    width) array per IF layer, from the same recurrence over ``pairs`` and
    the same row blocks, started again from ``drive``."""
    layers = [l for _, l in pairs]
    frames = [np.zeros((steps, drive.shape[0], l.width), dtype=_SPIKE) for l in layers]
    for rows in _row_blocks(drive.shape[0], layers):
        for _ in _if_steps(pairs, drive[rows], [f[:, rows] for f in frames], steps):
            pass
    return frames


def _window_run(pairs, drive: Array, rho: int):
    """Neuron-wise calibration's forward pass, ``_if_steps`` over ``rho``
    steps: each IF layer's window rate, ``_rate`` of its rho-step spike
    counts as ``simulate`` forms them, and the record ``_window_grads``
    reads: the counts, and two booleans per neuron-step, the spike and
    ``_pre_reset_window``."""
    layers = [l for _, l in pairs]
    spikes = [np.empty((rho, drive.shape[0], l.width), dtype=_SPIKE) for l in layers]
    windows: list[list] = [[] for _ in range(rho)]
    for t, j, cur, v, out in _if_steps(pairs, drive, spikes, rho):
        windows[t].append(_pre_reset_window(layers[j], v, out))
    # the loop's last arrays; the run's potentials went with its generator
    del cur, v, out
    counts = [s.sum(axis=0, dtype=_count_dtype(rho)) for s in spikes]
    rates = [_rate(l.threshold, c, rho) for l, c in zip(layers, counts)]
    return rates, (spikes, windows, counts)


def _window_grads(pairs, record: tuple, g_align: list[Array],
                  g_logits: Array) -> list[tuple[Array, Array]]:
    """The reverse of ``_window_run`` over its record, which it only reads,
    newest step first: each IF layer's threshold and initial-potential
    gradients from two adjoints of its window rate, (batch, width) each:
    ``g_align[j]``, which no carry crosses, and the last layer's
    ``g_logits``, which crosses every layer below it through ``g @ W.T``.
    Each is divided by rho in place, as ``_rate`` divides the counts.

    The sweep is in reset form. Let a be a lane's rate adjoint over rho, g
    the adjoint of a step's post-reset potential and c that of its output
    theta * s. The spike's adjoint is theta * (a + c - g), which the
    surrogate's height 1/theta turns into a + c - g on the pre-reset
    potential inside the window; that potential also receives g. So a window
    step resets the adjoint of the pre-reset potential, and of the step's
    input current, to a + c, and a step outside the window passes g on. The
    surrogate's theta partial, minus its potential partial, telescopes over
    the steps to minus v_init's adjoint; theta also gains a * counts through
    the rate and s * (c - g) per step through the reset and the output.

    Where no output adjoint c enters (the alignment lane of every layer, and
    the logits lane of the last), g at a step is a if a window step comes
    later, else 0. Per neuron such a lane needs only ``seen``, whether a
    window step came later, and ``n``, the spikes that a later window step
    followed: theta's gradient is a * (counts - n - seen), v_init's
    a * seen, summed over rows. Only the logits lane below the last layer,
    where a is 0 and c is the carry from the layer above, keeps float
    state: g, and theta's per-step sum th. A surrogate of another height, or
    a spike of more than one unit, breaks this form.
    """
    spikes, windows, counts = record
    rho = len(windows)
    last = len(pairs) - 1
    for a in (*g_align, g_logits):
        a /= a.dtype.type(rho)
    w_t = [np.ascontiguousarray(linear.w.T) for linear, _ in pairs]
    seen = [np.zeros(c.shape, dtype=np.bool_) for c in counts]
    hit = [np.empty(c.shape, dtype=np.bool_) for c in counts]
    n = [np.zeros_like(c) for c in counts]
    g = [np.zeros_like(a) for a in g_align[:-1]]
    th = [np.zeros_like(a) for a in g_align[:-1]]
    for t in range(rho - 1, -1, -1):
        for j in range(last, -1, -1):
            s, w = spikes[j][t], windows[t][j]
            n[j] += np.logical_and(s, seen[j], out=hit[j]).view(np.uint8)
            seen[j] |= w
            if j < last:
                d = carry - g[j]
                g[j] += d * w
                th[j] += d * s
            if j:
                carry = (g_logits * seen[j] if j == last else g[j]) @ w_t[j]
    grads = []
    for j, a in enumerate(g_align):
        if j == last:
            a = a + g_logits
        k = (counts[j] - n[j]).astype(a.dtype)
        k -= seen[j]
        g_theta, g_v = (a * k).sum(axis=0), (a * seen[j]).sum(axis=0)
        if j < last:
            g_theta += (th[j] - g[j]).sum(axis=0)
            g_v += g[j].sum(axis=0)
        grads.append((g_theta, g_v))
    return grads


def _rate(threshold: Array, counts: Array, denom: int) -> Array:
    """theta * spike counts / denom, in the threshold's dtype; a count below
    2**24 converts to float32 exactly, so this equals the rate of the spike
    frames summed over time in that dtype."""
    dt = threshold.dtype
    return threshold * counts.astype(dt) / dt.type(denom)


def theoretical_spike_count(a: Array, ceiling, timesteps: int) -> Array:
    """Spikes needed to represent activation a in `timesteps` steps: a*T/ceiling,
    in a's float dtype (float64 for other inputs), in one buffer of the
    result's shape."""
    a = np.asarray(a)
    dt = a.dtype if a.dtype.kind == "f" else np.dtype(np.float64)
    shape = np.broadcast_shapes(a.shape, np.shape(ceiling))
    return _spike_count_into(a, ceiling, timesteps, np.empty(shape, dtype=dt))


def _spike_count_into(a: Array, ceiling, timesteps: int, out: Array) -> Array:
    """``theoretical_spike_count`` of a written into ``out``, in out's dtype."""
    dt = out.dtype
    ceiling = np.asarray(ceiling, dtype=dt)
    if not np.all(ceiling > 0):
        raise ValueError("activation ceiling must be positive")
    np.multiply(a, dt.type(timesteps), out=out, dtype=dt)
    return np.divide(out, ceiling, out=out)
