"""Working-set tests: fit and the cascade hold one node's buffers at a time.

numpy reports its buffers to ``tracemalloc``, so the traced peak of a call
counts every array it forms. At m = n = 16, p = 6, s = 128 one node's Gram
buffers (about 86 KB each) are the size of the stacked inputs (98 KB), so a
buffer kept past its node, or a stacked copy kept past its use, shows plainly.
"""

import tracemalloc

import pytest

from iflt import SignalSequence, TrainingSet, cascade_map, fit
from iflt.bench import lag_specs
from iflt.interp import _node_cascade
from conftest import make_ensemble

N, P, S = 16, 6, 128


@pytest.fixture
def train(rng):
    # nodes past the lag warm-up, so that no stage collapses to zero
    ys = SignalSequence(tuple(make_ensemble(rng, N, S) for _ in range(2 * P)))
    nodes = tuple(range(P - 1, 2 * P - 1))
    return TrainingSet(tuple(make_ensemble(rng, N, S) for _ in nodes), ys, nodes)


@pytest.fixture
def traced():
    """Run a call under tracemalloc; return its result and the peak it
    reached above what was held before the call."""
    def run(fn, *args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        yield run
    finally:
        tracemalloc.stop()


def test_fit_holds_one_node_cascade_at_a_time(train, traced):
    specs = lag_specs(P)
    _, node_peak = traced(_node_cascade, train, specs, P - 1)
    _, fit_peak = traced(fit, train, specs)
    assert fit_peak <= 1.5 * node_peak


def test_cascade_map_frees_the_stacked_inputs_before_the_stage_loop(rng, traced):
    # twice the realizations of ``train``, so that one copy of V outweighs
    # the stage loop's temporaries clearly
    s = 2 * S
    vs = [make_ensemble(rng, N, s) for _ in range(P)]
    rows, cols = (P + 1) * N, P * N
    buffers = (2 * rows * cols + cols * cols) * 8  # G, the blocks C(u_i, w_l), K
    stacked = cols * s * 8  # one copy of the stacked inputs V
    cmap, peak = traced(cascade_map, vs, xs=(make_ensemble(rng, N, s),))
    assert not cmap.zero_indices
    # a copy of V kept through the stage loop would add its whole size to the
    # loop's stage-sized temporaries
    assert peak - buffers < stacked
