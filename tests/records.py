"""Hand-built spike records: frames packed the way ``simulate`` stores them."""

import numpy as np


def pack_frames(frames) -> list[np.ndarray]:
    """Each (T, batch, width) frame array, of any dtype with nonzero for a
    spike, as ``SpikeRecord.spike_bits`` holds it: one bit per neuron-step,
    packed along the width."""
    return [np.packbits(np.asarray(f, dtype=np.bool_), axis=-1) for f in frames]
