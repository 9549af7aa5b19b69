"""``simulate`` runs one row block of the batch at a time, and
``decompose_errors`` sums one leaf of values at a time: both hold only
block- and leaf-sized arrays beyond what they return. The leaves keep the
bits of the whole-array sums. The blocks keep the bits of the whole-batch
run on the golden configs here, but not on every shape: a layer of a few
neurons after a very wide one (8-4096-4-4 at batch 65) can get other
currents, because BLAS rounds a 33-row block's product otherwise."""

import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_spike_frames import _assert_counts_equal_frames, _net

from spikefit.ann import ActivationTrace, Linear
from spikefit.diagnostics import _LEAF, _pairwise_sums, decompose_errors
from spikefit.snn import (_BLOCK_NEURONS, IfLayer, SimulationError, SnnNetwork, _row_blocks,
                          simulate)
from spikefit.tensor import Rng


def _sha(arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def _sizes(batch: int, widths) -> list[int]:
    return [b.stop - b.start for b in _row_blocks(batch, [IfLayer(np.ones(w), np.zeros(w))
                                                           for w in widths])]


def test_row_blocks_cover_the_batch_in_near_equal_blocks():
    assert _BLOCK_NEURONS // 1024 == 256
    assert _sizes(1024, [1024, 1024, 1024]) == [256] * 4
    assert _sizes(1024, [512, 512]) == [512, 512]
    assert _sizes(4000, [64, 64]) == [4000]
    # a plain split would leave 256, 256 and 2 rows
    assert _sizes(514, [1024, 96, 1024]) == [172, 171, 171]
    assert _sizes(1027, [1024]) == [206, 205, 206, 205, 205]
    assert _sizes(1, [1 << 20]) == [1]
    assert _sizes(3, [1 << 20]) == [1, 1, 1]
    assert _sizes(0, [8]) == [0]
    assert _sizes(5, []) == [5]
    for batch in (1, 255, 257, 1000, 1023, 1026, 1027):
        sizes = _sizes(batch, [1024])
        assert sum(sizes) == batch and max(sizes) <= 256 and max(sizes) - min(sizes) <= 1


def test_multi_block_record_golden():
    # sha256 values written by the simulator when it ran the whole batch at
    # once: the widest layer takes three blocks (172, 171 and 171 rows), and
    # the 1024 -> 96 product of a two-row block would round otherwise
    net = _net([8, 1024, 96, 1024, 4], timesteps=6, seed=31, scale=0.3)
    rec = simulate(net, Rng(32).normal(0, 1, (514, 8)),
                   record_currents=True, record_potentials=True)
    assert len(_row_blocks(514, net.if_layers())) == 3
    _assert_counts_equal_frames(rec)
    got = {"counts": _sha(rec.counts), "output": _sha([rec.output]),
           "currents": _sha(rec.currents), "potentials": _sha(rec.potentials),
           "spikes": _sha(rec.spikes)}
    assert got == {
        "counts": "3dd6de32c76e7acac816f57178d2d518fd679884283dc0bbad1c0c2ec2981d61",
        "output": "42c56f60a215f9291e0ef2538865808d322933d71351412d954ad1e839ff464c",
        "currents": "050dd9a5840614c1516f7ef79abb91bc7288d964ab03ddbc462b41a036d09224",
        "potentials": "3273b5873705e54bf05ca555fad820295b5ca0f42abc17870c0e29be3fa513a7",
        "spikes": "44a357a921a2456c3f97a42bb96d3806a77135ff4156207d499efedc68db847e",
    }


def test_multi_block_simulate_peak_memory():
    # two 1024-wide layers, batch 768: three blocks of 256 rows, so a
    # block-sized array is 2**18 float32 values, 1 MiB. A block holds its
    # potentials, masks, first current and a few currents and carries: 8.0
    # such arrays were measured, where the whole batch at once took 22.5
    net = _net([8, 1024, 1024, 4], timesteps=4, seed=5, scale=0.05)
    x = Rng(6).normal(0, 1, (768, 8))
    block = _BLOCK_NEURONS * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rec = simulate(net, x)
        kept, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert any(c.any() for c in rec.counts)
    drive = x.size * np.dtype(np.float32).itemsize
    assert kept <= sum(c.nbytes for c in rec.counts) + rec.output.nbytes + drive + 64 * 2**10
    assert peak - kept <= 9 * block


def test_non_finite_potential_in_a_later_block():
    # one 8192-wide layer takes blocks of 32 rows. Neuron 5 of row 40 (block
    # 1) overflows at step 2 and neuron 9 of row 70 (block 2) at step 1; the
    # first failing block is reported, at its earliest step
    width = 8192
    w = np.zeros((2, width), np.float32)
    w[0, 5] = w[1, 9] = 1.0
    net = SnnNetwork([Linear(w, np.zeros(width, np.float32)),
                      IfLayer(np.ones(width), np.zeros(width)),
                      Linear(np.ones((width, 1), np.float32), np.zeros(1, np.float32))],
                     timesteps=4)
    x = np.zeros((80, 2), np.float32)
    x[40, 0] = 1.5e38
    x[70, 1] = 2.0e38
    assert [b.start for b in _row_blocks(80, net.if_layers())] == [0, 27, 54]
    with np.errstate(over="ignore"):
        with pytest.raises(SimulationError, match="neuron 5 at step 2"):
            simulate(net, x)
        x[40, 0] = 0.0
        with pytest.raises(SimulationError, match="neuron 9 at step 1"):
            simulate(net, x)


def test_decompose_errors_multi_leaf_golden():
    # sha256 of the report written by the error split when it held float64
    # arrays of every value: 301 x 333 values take four leaves, and the
    # in-range values two
    batch, width = 301, 333
    net = _net([8, width, 4], timesteps=12, seed=41)
    rec = simulate(net, Rng(42).normal(0, 1, (batch, 8)))
    pre = Rng(43).uniform(-0.5, 1.5, (batch, width)).astype(np.float32)
    assert pre.size > 3 * _LEAF and np.count_nonzero((pre >= 0) & (pre <= 1.25)) > _LEAF
    report = decompose_errors([ActivationTrace("0", pre, 1.25, 6)], rec, net).as_dict()
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == \
        "8ab530d07cc3083bd0b31619fa6f84e8f66870e628b65fd8f00edbe2b87a492e"


def test_blocks_and_leaves_leave_no_cyclic_garbage():
    # the block loop and the leaf callbacks are freed by reference counting
    # alone, so a repeated call does not hold the last call's arrays
    net = _net([8, 8192, 4], timesteps=2, seed=51)
    x = Rng(52).normal(0, 1, (70, 8))
    rec = simulate(net, x)
    pre = Rng(53).uniform(-0.5, 1.5, (70, 8192)).astype(np.float32)
    trace = ActivationTrace("0", pre, 1.0, 4)
    assert len(_row_blocks(70, net.if_layers())) == 3 and pre.size > 8 * _LEAF
    for call in (lambda: simulate(net, x).spikes, lambda: decompose_errors([trace], rec, net)):
        call()
        gc.disable()
        try:
            gc.collect()
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


def _leaf_reduce(values):
    def leaf_sums(lo, hi):
        assert hi - lo <= _LEAF
        calls.append((lo, hi))
        return (np.add.reduce(values[lo:hi]), np.add.reduce(np.abs(values[lo:hi])))
    calls = []
    return _pairwise_sums(leaf_sums, 0, values.size), calls


@settings(max_examples=40, deadline=None)
@given(width=st.one_of(st.integers(1, 9), st.integers(10, 4099)),
       rows=st.integers(1, 3_000_000), seed=st.integers(0, 2**32 - 1))
@example(width=1, rows=1, seed=0)
@example(width=1, rows=_LEAF, seed=1)
@example(width=1, rows=_LEAF + 1, seed=2)
@example(width=3, rows=1_000_003, seed=3)
def test_pairwise_sums_equal_add_reduce(width, rows, seed):
    # numpy sums a contiguous float64 array pairwise; the leaf-wise sums
    # must give its bits, over a 2-D array of any width too
    rows = max(1, min(rows, 3_000_000 // width))
    rng = np.random.default_rng(seed)
    shape = (rows, width)
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-5, 5, shape)
    (total, abs_total), calls = _leaf_reduce(values.ravel())
    assert total.tobytes() == np.add.reduce(values, axis=None).tobytes()
    assert abs_total.tobytes() == np.add.reduce(np.abs(values), axis=None).tobytes()
    assert (total / values.size).tobytes() == values.mean().tobytes()
    # every leaf is visited once, in order
    assert [lo for lo, _ in calls] == [0] + [hi for _, hi in calls[:-1]]
    assert calls[-1][1] == values.size
