"""In-memory span tracing of the spikefit modules, installed from outside.

A `Tracer` wraps every public function of every `spikefit` module and
records one span per call: id, parent id, name, start and end (monotonic
nanoseconds, comparable across processes on one host) and a few counts.
Functions are patched wherever they are looked up: the home module, every
module that imported them by name, and module-level dicts that hold them
(such as the CLI's command table). The autodiff tape primitives (`add`,
`mul`, `spike`, ...) are left unwrapped: they run once per array operation,
so a span each would cost more than the operation. The tape's work is
counted instead, as `len(tape)` at each `backward`.

`layer_metrics` turns a list of spans into the per-module numbers that the
benchmark reports for a traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time

import numpy as np

AUTODIFF_WRAPPED = {"backward", "adam_step"}
LAYERS = 3  # IF layers reported per layer; the widest workloads have three

# A span is a list: [id, parent_id, name, start_ns, end_ns, attrs].
ID, PARENT, NAME, START, END, ATTRS = range(6)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _note_backward(attrs, args, kwargs, out):
    attrs["tape_ops"] = len(_arg(args, kwargs, 0, "tape"))


def _note_steps(index):
    def note(attrs, args, kwargs, out):
        attrs["steps"] = int(_arg(args, kwargs, index, "cfg").steps)
    return note


def _note_if_step(attrs, args, kwargs, out):
    attrs["layer"] = id(_arg(args, kwargs, 0, "layer"))


def _note_simulate(attrs, args, kwargs, out):
    net = _arg(args, kwargs, 0, "net")
    attrs["layers"] = [id(layer) for layer in net.if_layers()]
    attrs["neuron_steps"] = int(sum(s.size for s in out.spikes))
    frames = list(out.spikes) + list(out.currents or []) + list(out.potentials or [])
    attrs["record_bytes"] = int(sum(a.nbytes for a in frames))
    attrs["spikes"] = [int(np.count_nonzero(s)) for s in out.spikes]
    attrs["sizes"] = [int(s.size) for s in out.spikes]


def _note_count_ops(attrs, args, kwargs, out):
    attrs["ac"] = int(out.ac)


def _note_save(attrs, args, kwargs, out):
    out_dir = _arg(args, kwargs, 1, "out_dir")
    attrs["bytes"] = sum(os.path.getsize(os.path.join(out_dir, f))
                         for f in ("manifest.json", "weights.bin"))


NOTES = {
    "autodiff.backward": _note_backward,
    "ann.train_model": _note_steps(2),
    "calibrate.nwc_calibrate": _note_steps(3),
    "snn.if_step": _note_if_step,
    "snn.simulate": _note_simulate,
    "energy.count_ops": _note_count_ops,
    "checkpoint.save_checkpoint": _note_save,
}


class Tracer:
    """Collects spans in memory; `install` patches the package to feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []

    def open(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), parent, name, time.monotonic_ns(), 0, attrs or {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.monotonic_ns()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if note is not None:
                note(span[ATTRS], args, kwargs, out)
            return out

        return traced

    def adopt(self, spans: list[list], parent: list) -> None:
        """Append spans recorded by a child process under `parent`."""
        base = len(self.spans)
        for s in spans:
            s = list(s)
            s[ID] += base
            s[PARENT] = parent[ID] if s[PARENT] is None else s[PARENT] + base
            self.spans.append(s)

    def install(self, package):
        """Wrap the package's public functions; returns a function that undoes it."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m.name}")
                               for m in pkgutil.iter_modules(package.__path__)
                               if not m.name.startswith("_")]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")
                        and (short != "autodiff" or name in AUTODIFF_WRAPPED)):
                    wrappers[obj] = self.wrap(f"{short}.{name}", obj)

        undo = []
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    undo.append((vars(mod), name, obj))
                    setattr(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            undo.append((obj, key, value))
                            obj[key] = wrappers[value]

        def restore():
            for namespace, key, original in reversed(undo):
                namespace[key] = original

        return restore

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def load_spans(path: str) -> list[list]:
    with open(path) as f:
        return json.load(f)


# -- analysis --------------------------------------------------------------------

def _children(spans):
    kids: dict = {}
    for s in spans:
        kids.setdefault(s[PARENT], []).append(s)
    return kids


def self_times(spans) -> dict[int, int]:
    """Span duration minus the part of it that its children cover (ns)."""
    kids = _children(spans)
    return {s[ID]: (s[END] - s[START]) - sum(c[END] - c[START] for c in kids.get(s[ID], ()))
            for s in spans}


def subtree(spans, root_id: int) -> list[list]:
    kids = _children(spans)
    out, todo = [], [root_id]
    by_id = {s[ID]: s for s in spans}
    while todo:
        sid = todo.pop()
        out.append(by_id[sid])
        todo.extend(c[ID] for c in kids.get(sid, ()))
    return out


def check_self_times(spans, root_id: int, wall_s: float) -> tuple[bool, str]:
    """Self times under a root must be non-negative and add up to the wall
    time the caller measured around that root."""
    tree = subtree(spans, root_id)
    st = self_times(tree)
    negative = [s[NAME] for s in tree if st[s[ID]] < 0]
    total_s = sum(st.values()) / 1e9
    tol = max(1e-3, 1e-3 * wall_s)
    ok = not negative and abs(total_s - wall_s) <= tol
    return ok, (f"{len(tree)} spans, self-time sum {total_s:.6f} s vs wall {wall_s:.6f} s"
                + (f"; negative self time in {negative[:3]}" if negative else ""))


def layer_metrics(spans) -> dict[str, float]:
    """Per-module numbers from the spans of one set-up plus one repetition."""
    by_id = {s[ID]: s for s in spans}
    kids = _children(spans)

    def dur(s):
        return (s[END] - s[START]) / 1e9

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def total(name):
        return sum(dur(s) for s in named(name))

    def below(span, names):
        """Outermost descendants of `span` whose name is in `names`."""
        out, todo = [], list(kids.get(span[ID], ()))
        while todo:
            s = todo.pop()
            if s[NAME] in names:
                out.append(s)
            else:
                todo.extend(kids.get(s[ID], ()))
        return out

    def ancestor(span, name):
        pid = span[PARENT]
        while pid is not None:
            p = by_id[pid]
            if p[NAME] == name:
                return p
            pid = p[PARENT]
        return None

    nwc = named("calibrate.nwc_calibrate")
    nwc_steps = sum(s[ATTRS].get("steps", 0) for s in nwc)
    nwc_tape_ops = sum(b[ATTRS].get("tape_ops", 0) for s in nwc
                       for b in below(s, {"autodiff.backward"}))
    nwc_forward = sum(dur(s) - sum(dur(c) for c in below(
        s, {"autodiff.backward", "autodiff.adam_step", "ann.ann_forward"})) for s in nwc)

    train = named("ann.train_model")
    train_steps = sum(s[ATTRS].get("steps", 0) for s in train)
    train_time = sum(dur(s) - sum(dur(c) for c in below(s, {"ann.dataset_loss"}))
                     for s in train)

    sims = named("snn.simulate")
    if_time = [0.0] * LAYERS
    for s in named("snn.if_step"):
        sim = ancestor(s, "snn.simulate")
        if sim is not None and "layers" in sim[ATTRS]:
            j = sim[ATTRS]["layers"].index(s[ATTRS]["layer"])
            if j < LAYERS:
                if_time[j] += dur(s)
    spikes = [0] * LAYERS
    sizes = [0] * LAYERS
    for s in sims:
        for j, (k, n) in enumerate(zip(s[ATTRS].get("spikes", ()), s[ATTRS].get("sizes", ()))):
            if j < LAYERS:
                spikes[j] += k
                sizes[j] += n

    m = {
        "autodiff.tape_ops_per_nwc_step": nwc_tape_ops / nwc_steps if nwc_steps else 0.0,
        "autodiff.backward_s": total("autodiff.backward"),
        "autodiff.adam_s": total("autodiff.adam_step"),
        "calibrate.nwc_forward_s": nwc_forward,
        "calibrate.nwc_s": total("calibrate.nwc_calibrate"),
        "calibrate.lwc_s": total("calibrate.lwc"),
        "snn.simulate_s": total("snn.simulate"),
        "snn.simulate_calls": len(sims),
        "snn.neuron_steps": sum(s[ATTRS].get("neuron_steps", 0) for s in sims),
        "snn.record_mib": max((s[ATTRS].get("record_bytes", 0) for s in sims), default=0) / 2**20,
        "diagnostics.decompose_s": total("diagnostics.decompose_errors"),
        "energy.count_ops_s": total("energy.count_ops"),
        "energy.ac_ops": sum(s[ATTRS].get("ac", 0) for s in named("energy.count_ops")),
        "ann.train_step_ms": 1e3 * train_time / train_steps if train_steps else 0.0,
        "ann.forward_s": total("ann.ann_forward"),
        "ann.forward_calls": len(named("ann.ann_forward")),
        "checkpoint.save_s": total("checkpoint.save_checkpoint"),
        "checkpoint.load_s": total("checkpoint.load_checkpoint"),
        "checkpoint.bytes": sum(s[ATTRS].get("bytes", 0) for s in named("checkpoint.save_checkpoint")),
        "tensor.codec_s": total("tensor.encode_tensor") + total("tensor.decode_tensor"),
        "data.make_dataset_s": total("data.make_dataset"),
    }
    for j in range(LAYERS):
        m[f"snn.if_step_s.L{j}"] = if_time[j]
        m[f"snn.spike_rate.L{j}"] = spikes[j] / sizes[j] if sizes[j] else 0.0
    for stage in ("train", "convert", "calibrate", "eval", "analyze", "energy"):
        m[f"cli.{stage}_s"] = total(f"cli:{stage}")
    return m
