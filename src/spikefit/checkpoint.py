"""Directory checkpoints: a JSON manifest describing the layer stack plus a
single weights.bin holding every tensor in the wire format, with offsets and
a digest for integrity checking."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .ann import AnnModel, Embedding, Gelu, Linear, Qcfs, Relu
from .snn import IfLayer, SnnNetwork
from .tensor import Array, decode_tensor, encode_tensor

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"


class IntegrityError(RuntimeError):
    """Checkpoint contents do not match their manifest."""


def weight_hash(obj) -> str:
    """Digest of the synaptic weights only (linear layers and embeddings);
    thresholds, initial potentials, and staircase caps are excluded."""
    h = hashlib.sha256()
    layers = obj.layers
    if isinstance(obj, SnnNetwork) and obj.input_encoder is not None:
        layers = [obj.input_encoder, *layers]
    for layer in layers:
        if isinstance(layer, Linear):
            h.update(np.ascontiguousarray(layer.w, dtype=np.float32).tobytes())
            h.update(np.ascontiguousarray(layer.b, dtype=np.float32).tobytes())
        elif isinstance(layer, Embedding):
            h.update(np.ascontiguousarray(layer.table, dtype=np.float32).tobytes())
    return h.hexdigest()


class _TensorSink:
    def __init__(self):
        self.blobs: list[bytes] = []
        self.entries: list[dict] = []
        self.offset = 0

    def put(self, name: str, arr: Array) -> str:
        blob = encode_tensor(np.ascontiguousarray(arr, dtype=np.float32))
        self.entries.append({
            "name": name,
            "shape": [int(d) for d in np.shape(arr)],
            "offset": self.offset,
            "nbytes": len(blob),
        })
        self.blobs.append(blob)
        self.offset += len(blob)
        return name


# descriptor types each checkpoint kind may hold
_LAYER_TYPES = {"ann": {"linear", "relu", "gelu", "qcfs", "embedding"},
                "snn": {"linear", "if"}}


def _describe_layers(layers, sink: _TensorSink, kind: str) -> list[dict]:
    out = []
    for i, layer in enumerate(layers):
        if isinstance(layer, Linear):
            desc = {"type": "linear", "w": sink.put(f"{i}.w", layer.w),
                    "b": sink.put(f"{i}.b", layer.b)}
        elif isinstance(layer, IfLayer):
            desc = {"type": "if", "threshold": sink.put(f"{i}.threshold", layer.threshold),
                    "v_init": sink.put(f"{i}.v_init", layer.v_init)}
        elif isinstance(layer, Relu):
            desc = {"type": "relu"}
        elif isinstance(layer, Gelu):
            desc = {"type": "gelu"}
        elif isinstance(layer, Qcfs):
            desc = {"type": "qcfs", "ceiling": float(layer.ceiling), "levels": int(layer.levels)}
        elif isinstance(layer, Embedding):
            desc = {"type": "embedding", "table": sink.put(f"{i}.table", layer.table)}
        else:
            raise TypeError(f"cannot checkpoint layer type {type(layer).__name__}")
        if desc["type"] not in _LAYER_TYPES[kind]:
            raise TypeError(f"cannot checkpoint a {desc['type']!r} layer in an {kind} checkpoint")
        out.append(desc)
    return out


def save_checkpoint(obj, out_dir: str) -> None:
    """Write ``manifest.json`` and ``weights.bin`` for a model or a spiking
    network; loading restores bit-identical forward behavior."""
    os.makedirs(out_dir, exist_ok=True)
    sink = _TensorSink()
    if isinstance(obj, SnnNetwork):
        manifest = {"kind": "snn", "timesteps": obj.timesteps,
                    "layers": _describe_layers(obj.layers, sink, "snn")}
        manifest["encoder"] = (None if obj.input_encoder is None
                               else {"table": sink.put("encoder.table", obj.input_encoder.table)})
    elif isinstance(obj, AnnModel):
        manifest = {"kind": "ann", "layers": _describe_layers(obj.layers, sink, "ann")}
    else:
        raise TypeError(f"cannot checkpoint object of type {type(obj).__name__}")

    weights = b"".join(sink.blobs)
    manifest.update({"format": "spikefit-checkpoint", "version": 1, "tensors": sink.entries,
                     "weights_sha256": hashlib.sha256(weights).hexdigest()})
    with open(os.path.join(out_dir, WEIGHTS_NAME), "wb") as f:
        f.write(weights)
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)


class _TensorSource:
    def __init__(self, manifest: dict, weights: bytes):
        self.weights = weights
        self.entries = {e["name"]: e for e in manifest["tensors"]}
        total = sum(e["nbytes"] for e in manifest["tensors"])
        if total != len(weights):
            raise IntegrityError(
                f"weights.bin holds {len(weights)} bytes but the manifest expects {total}")
        digest = hashlib.sha256(weights).hexdigest()
        if digest != manifest.get("weights_sha256"):
            raise IntegrityError("weights.bin digest does not match the manifest")

    def get(self, name: str) -> Array:
        entry = self.entries.get(name)
        if entry is None:
            raise IntegrityError(f"manifest references unknown tensor {name!r}")
        blob = self.weights[entry["offset"]:entry["offset"] + entry["nbytes"]]
        arr = decode_tensor(blob)
        if list(arr.shape) != entry["shape"]:
            raise IntegrityError(
                f"tensor {name!r} decoded to shape {list(arr.shape)}, manifest says {entry['shape']}")
        return arr


def _build_layers(descs: list[dict], src: _TensorSource, kind: str) -> list:
    out = []
    for d in descs:
        t = d["type"]
        if t not in _LAYER_TYPES[kind]:
            raise IntegrityError(f"unknown layer descriptor type {t!r}")
        if t == "linear":
            out.append(Linear(src.get(d["w"]), src.get(d["b"])))
        elif t == "if":
            out.append(IfLayer(src.get(d["threshold"]), src.get(d["v_init"])))
        elif t == "relu":
            out.append(Relu())
        elif t == "gelu":
            out.append(Gelu())
        elif t == "qcfs":
            out.append(Qcfs(ceiling=d["ceiling"], levels=d["levels"]))
        else:
            out.append(Embedding(src.get(d["table"])))
    return out


def load_checkpoint(in_dir: str):
    """Read a checkpoint written by ``save_checkpoint``. Any manifest that
    does not describe a model this version can build, or whose tensors do
    not match ``weights.bin``, raises ``IntegrityError``."""
    manifest_path = os.path.join(in_dir, MANIFEST_NAME)
    weights_path = os.path.join(in_dir, WEIGHTS_NAME)
    if not os.path.exists(manifest_path) or not os.path.exists(weights_path):
        raise IntegrityError(f"no checkpoint at {in_dir}")
    with open(manifest_path) as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as e:
            raise IntegrityError(f"manifest at {in_dir} is not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise IntegrityError(f"manifest at {in_dir} is not a JSON object")
    with open(weights_path, "rb") as f:
        weights = f.read()
    try:
        return _build_checkpoint(manifest, weights)
    except KeyError as e:
        raise IntegrityError(f"manifest at {in_dir} lacks field {e}") from None
    except TypeError as e:
        raise IntegrityError(f"malformed manifest at {in_dir}: {e}") from None


def _build_checkpoint(manifest: dict, weights: bytes):
    src = _TensorSource(manifest, weights)
    kind = manifest["kind"]
    if kind not in _LAYER_TYPES:
        raise IntegrityError(f"unknown checkpoint kind {kind!r}")
    layers = _build_layers(manifest["layers"], src, kind)
    if kind == "ann":
        return AnnModel(layers)
    encoder = manifest.get("encoder")
    encoder = Embedding(src.get(encoder["table"])) if encoder else None
    return SnnNetwork(layers, manifest["timesteps"], input_encoder=encoder)
