"""Hand-built spike records: counts taken from hand-made frames, and a
replay that returns those frames."""

import numpy as np

from spikefit.snn import SpikeRecord


def record_from_frames(frames, thresholds, output, timesteps: int) -> SpikeRecord:
    """A record of the (T, batch, width) ``frames``, of any dtype with
    nonzero for a spike: each layer's counts are its frames summed over
    time, in the dtype ``simulate`` counts in, and ``replay`` returns the
    frames as booleans."""
    frames = [np.asarray(f, dtype=np.bool_) for f in frames]
    dtype = np.min_scalar_type(timesteps)
    return SpikeRecord(counts=[f.sum(axis=0, dtype=dtype) for f in frames],
                       thresholds=thresholds, output=output, timesteps=timesteps,
                       replay=lambda: frames)
