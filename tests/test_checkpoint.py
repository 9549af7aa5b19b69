import json

import numpy as np
import pytest

from spikefit.ann import ann_forward, char_lm, mlp, replace_activations
from spikefit.calibrate import convert
from spikefit.checkpoint import IntegrityError, load_checkpoint, save_checkpoint, weight_hash
from spikefit.snn import simulate
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


@pytest.mark.parametrize("edit, message", [
    (_drop("kind"), "lacks field 'kind'"),
    (_drop("tensors"), "lacks field 'tensors'"),
    (_drop_layer_type, "lacks field 'type'"),
    (_layers_not_a_list, "malformed manifest"),
    ("[1, 2]", "not a JSON object"),
    ("{not json", "not valid JSON"),
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
