import json

import numpy as np
import pytest

from spikefit.ann import (AnnModel, Embedding, Gelu, Linear, Qcfs, Relu, ann_forward,
                          char_lm, mlp, replace_activations)
from spikefit.calibrate import convert
from spikefit.checkpoint import IntegrityError, load_checkpoint, save_checkpoint, weight_hash
from spikefit.snn import IfLayer, SnnNetwork, simulate
from spikefit.tensor import Rng


def _tokens(n=6, window=3):
    return Rng(1).integers(0, 256, (n, window))


def _char_model():
    return char_lm(256, 3, 4, [8], Rng(0))


def _manifest(path):
    with open(path / "manifest.json") as f:
        return json.load(f)


def _rewrite(path, text):
    (path / "manifest.json").write_text(text)


def test_ann_with_embedding_round_trips(tmp_path):
    model = _char_model()
    save_checkpoint(model, str(tmp_path))
    loaded = load_checkpoint(str(tmp_path))
    assert weight_hash(loaded) == weight_hash(model)
    x = _tokens()
    np.testing.assert_array_equal(ann_forward(loaded, x).output, ann_forward(model, x).output)
    assert "record_activations" not in _manifest(tmp_path)


def test_snn_with_encoder_round_trips(tmp_path):
    staircase = replace_activations(_char_model(), 4, _tokens(32))
    net = convert(staircase, 4)
    assert net.input_encoder is not None
    save_checkpoint(net, str(tmp_path))
    loaded = load_checkpoint(str(tmp_path))
    assert weight_hash(loaded) == weight_hash(net) == weight_hash(staircase)
    x = _tokens()
    np.testing.assert_array_equal(simulate(loaded, x, 4).output, simulate(net, x, 4).output)


def _drop(key):
    def edit(m):
        del m[key]
    return edit


def _drop_layer_type(m):
    del m["layers"][0]["type"]


def _layers_not_a_list(m):
    m["layers"] = 5


def _if_in_ann(m):
    m["layers"][0]["type"] = "if"


def _qcfs_in_snn(m):
    m["kind"], m["timesteps"] = "snn", 4
    m["layers"][1] = {"type": "qcfs", "ceiling": 1.0, "levels": 4}


@pytest.mark.parametrize("edit, message", [
    (_drop("kind"), "lacks field 'kind'"),
    (_drop("tensors"), "lacks field 'tensors'"),
    (_drop_layer_type, "lacks field 'type'"),
    (_layers_not_a_list, "malformed manifest"),
    ("[1, 2]", "not a JSON object"),
    ("{not json", "not valid JSON"),
    (_if_in_ann, "unknown layer descriptor type 'if'"),
    (_qcfs_in_snn, "unknown layer descriptor type 'qcfs'"),
])
def test_malformed_manifest_raises_integrity_error(tmp_path, edit, message):
    save_checkpoint(mlp([3, 4, 2], Rng(0)), str(tmp_path))
    if callable(edit):
        manifest = _manifest(tmp_path)
        edit(manifest)
        edit = json.dumps(manifest)
    _rewrite(tmp_path, edit)
    with pytest.raises(IntegrityError, match=message):
        load_checkpoint(str(tmp_path))


def test_old_manifest_keys(tmp_path):
    model = mlp([3, 4, 2], Rng(0))
    save_checkpoint(model, str(tmp_path))
    manifest = _manifest(tmp_path)
    manifest["record_activations"] = False
    _rewrite(tmp_path, json.dumps(manifest))
    assert weight_hash(load_checkpoint(str(tmp_path))) == weight_hash(model)

    manifest["layers"].append({"type": "residual", "inner": []})
    _rewrite(tmp_path, json.dumps(manifest))
    with pytest.raises(IntegrityError, match="unknown layer descriptor type 'residual'"):
        load_checkpoint(str(tmp_path))


def _ramp(*shape):
    return (np.arange(np.prod(shape), dtype=np.float32).reshape(shape) - 3) / 8


# the exact manifest.json these two networks must produce: a change here is a
# change of the checkpoint format, which older checkpoints on disk rely on
GOLDEN_ANN = {
    "format": "spikefit-checkpoint", "kind": "ann", "version": 1,
    "layers": [
        {"table": "0.table", "type": "embedding"},
        {"b": "1.b", "type": "linear", "w": "1.w"},
        {"type": "relu"},
        {"b": "3.b", "type": "linear", "w": "3.w"},
        {"type": "gelu"},
        {"b": "5.b", "type": "linear", "w": "5.w"},
        {"ceiling": 1.5, "levels": 4, "type": "qcfs"},
        {"b": "7.b", "type": "linear", "w": "7.w"},
    ],
    "tensors": [
        {"name": "0.table", "nbytes": 48, "offset": 0, "shape": [4, 2]},
        {"name": "1.w", "nbytes": 64, "offset": 48, "shape": [4, 3]},
        {"name": "1.b", "nbytes": 24, "offset": 112, "shape": [3]},
        {"name": "3.w", "nbytes": 52, "offset": 136, "shape": [3, 3]},
        {"name": "3.b", "nbytes": 24, "offset": 188, "shape": [3]},
        {"name": "5.w", "nbytes": 40, "offset": 212, "shape": [3, 2]},
        {"name": "5.b", "nbytes": 20, "offset": 252, "shape": [2]},
        {"name": "7.w", "nbytes": 32, "offset": 272, "shape": [2, 2]},
        {"name": "7.b", "nbytes": 20, "offset": 304, "shape": [2]},
    ],
    "weights_sha256": "de7845c586891e6ba07c56a4a946148d66c867786c38f43562a3d98c01bd993f",
}
GOLDEN_SNN = {
    "format": "spikefit-checkpoint", "kind": "snn", "version": 1, "timesteps": 4,
    "encoder": {"table": "encoder.table"},
    "layers": [
        {"b": "0.b", "type": "linear", "w": "0.w"},
        {"threshold": "1.threshold", "type": "if", "v_init": "1.v_init"},
        {"b": "2.b", "type": "linear", "w": "2.w"},
    ],
    "tensors": [
        {"name": "0.w", "nbytes": 48, "offset": 0, "shape": [4, 2]},
        {"name": "0.b", "nbytes": 20, "offset": 48, "shape": [2]},
        {"name": "1.threshold", "nbytes": 20, "offset": 68, "shape": [2]},
        {"name": "1.v_init", "nbytes": 20, "offset": 88, "shape": [2]},
        {"name": "2.w", "nbytes": 32, "offset": 108, "shape": [2, 2]},
        {"name": "2.b", "nbytes": 20, "offset": 140, "shape": [2]},
        {"name": "encoder.table", "nbytes": 40, "offset": 160, "shape": [3, 2]},
    ],
    "weights_sha256": "625a15d096da65ad8628163171187e1148a7ddbec8f394db8c94bdaf0a4558a1",
}


def _golden_ann():
    return AnnModel([Embedding(_ramp(4, 2)), Linear(_ramp(4, 3), _ramp(3)), Relu(),
                     Linear(_ramp(3, 3), _ramp(3)), Gelu(), Linear(_ramp(3, 2), _ramp(2)),
                     Qcfs(ceiling=1.5, levels=4), Linear(_ramp(2, 2), _ramp(2))])


def _golden_snn():
    theta = np.array([1.0, 1.5], np.float32)
    return SnnNetwork([Linear(_ramp(4, 2), _ramp(2)), IfLayer(theta, theta / 2),
                       Linear(_ramp(2, 2), _ramp(2))],
                      timesteps=4, input_encoder=Embedding(_ramp(3, 2)))


@pytest.mark.parametrize("build, golden", [(_golden_ann, GOLDEN_ANN), (_golden_snn, GOLDEN_SNN)])
def test_manifest_text_is_unchanged(tmp_path, build, golden):
    save_checkpoint(build(), str(tmp_path))
    text = (tmp_path / "manifest.json").read_text()
    assert text == json.dumps(golden, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj, message", [
    (SnnNetwork([Linear(_ramp(2, 2), _ramp(2)), Relu()], timesteps=2), "'relu' layer in an snn"),
    (AnnModel([Linear(_ramp(2, 2), _ramp(2)), IfLayer(np.ones(2), np.zeros(2))]),
     "'if' layer in an ann"),
])
def test_cross_kind_layer_is_not_saved(tmp_path, obj, message):
    with pytest.raises(TypeError, match=message):
        save_checkpoint(obj, str(tmp_path))
