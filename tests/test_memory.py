"""Working-set tests: a cascade runs in one buffer, and fit and the node
diagnostics hold one node's cascade at a time.

numpy reports its buffers to ``tracemalloc``, so the traced peak of a call
counts every array it forms. At m = n = 16, p = 6, s = 128 one node's Gram
buffer (86 KB) is the size of the stacked inputs (98 KB) and six times one
stage's column block, so a second buffer, a buffer kept past its node, or a
stacked copy of the data shows plainly.
"""

import tracemalloc

import numpy as np
import pytest

from iflt import FilterContext, SignalSequence, TrainingSet, apply_filter, cascade_map, fit
from iflt.ortho import gram, position_cascade
from iflt.bench import lag_specs, node_bound_checks
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
    _, node_peak = traced(position_cascade, train.s_y_context, specs, train.s_y_indices[P - 1],
                          [train.s_x[P - 1].data])
    model, fit_peak = traced(fit, train, specs)
    # what fit keeps across nodes: T_j, the copies of K, and per node p
    # covariances C(w_j, w_k) and C(x_k, w_k); a tenth of a node's peak covers
    # the Python objects of these 63 arrays
    kept = sum(t.nbytes for t in model.t_mats) + sum(
        k.nbytes for row in model.r_mats for k in row) + P * (P + 1) * N * N * 8
    # a second node's buffer, (pn + m) x pn, would add 64% of a node's peak
    assert fit_peak <= 1.1 * node_peak + kept


def test_node_pass_holds_one_node_cascade_at_a_time(train, traced):
    # the node diagnostics of one model under two constant sets: a Gram cache
    # or an apply's buffers kept across nodes, or a second map of a node,
    # would add to the one map the pass holds
    specs = lag_specs(P)
    model = fit(train, specs)
    constants = {"eps_x": 1.0, "eps_y": 1.0, "lambda_e": 1.0, "lambda_q": 1.0,
                 "r_hat": [1.0] * P, "x_energy": 1.0}
    _, node_peak = traced(position_cascade, train.s_y_context, specs, train.s_y_indices[P - 1],
                          [x.data for x in train.s_x])
    _, pass_peak = traced(node_bound_checks, model, train, [0.0] * P,
                          [constants, constants])
    assert pass_peak <= 1.5 * node_peak


def test_cascade_map_runs_in_one_buffer(rng, traced):
    # twice the realizations of ``train``, so that one copy of the stacked
    # inputs V weighs 13 column blocks
    s = 2 * S
    win = np.stack([make_ensemble(rng, N, s).data for _ in range(P)])
    xs = [make_ensemble(rng, N, s).data]
    rows, cols = (P + 1) * N, P * N

    def gram_and_cascade():
        return cascade_map(gram(win, xs), [*win, *xs], P)

    cmap, peak = traced(gram_and_cascade)
    assert not cmap.zero_indices
    # the (pn + m) x pn buffer, and stage temporaries and the returned D_k and
    # D_k^+ within four of one stage's (pn + m) x n column blocks: a second
    # buffer or a copy of V would add six or more
    assert peak <= (rows * cols + 4 * rows * N) * 8


def test_apply_runs_in_one_buffer(train, traced):
    model = fit(train, lag_specs(P))
    ctx = FilterContext(train.s_y_context)
    apply_filter(model, ctx, 2 * P - 2)
    est, peak = traced(apply_filter, model, ctx, 2 * P - 1)
    # less the estimate and one temporary of its size, an apply holds less
    # than two pn x pn Gram buffers; separate G, C(u_i, w_l) and K would be three
    assert peak - 2 * est.data.nbytes < 2 * (P * N) ** 2 * 8
