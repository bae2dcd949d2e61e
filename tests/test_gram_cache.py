"""Property tests of the Gram block cache that ``FilterContext`` keeps for ``apply_filter``.

One context serves many calls. Whatever positions it served before, and in
whatever order, a call must give the bits a fresh context gives, must keep at
most p(p+1)/2 blocks, and must agree with the data-space cascade
``oracle.data_space_cascade`` for every kind of transform.
"""

import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from iflt import (
    Ensemble,
    FilterContext,
    FilterModel,
    QOperatorSpec,
    SignalSequence,
    apply_filter,
    apply_q,
    center,
)
from iflt.sigio import ManifestSequence, save_sequence
from oracle import data_space_cascade

REL_TOL = 1e-10
CACHE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def q_specs(draw, n: int):
    kind = draw(st.sampled_from(("identity", "sequence_lag", "component_shift",
                                 "weighted_prefix_sum")))
    if kind == "identity":
        return QOperatorSpec.identity()
    if kind == "sequence_lag":
        return QOperatorSpec.sequence_lag(draw(st.integers(0, 3)))
    if kind == "component_shift":
        return QOperatorSpec.component_shift(draw(st.integers(0, n + 1)))
    magnitudes = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=len(magnitudes),
                          max_size=len(magnitudes)))
    return QOperatorSpec.weighted_prefix_sum([a * b for a, b in zip(magnitudes, signs)])


@st.composite
def cache_cases(draw, mixed: bool):
    """(model, observation sequence, positions to apply at, in call order).

    Lag filters only unless ``mixed``, which also draws component shifts and
    weighted prefix sums.
    """
    p = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    s = draw(st.integers(p * n + 8, p * n + 40))
    if mixed:
        specs = [draw(q_specs(n)) for _ in range(p)]
    else:
        specs = [QOperatorSpec.sequence_lag(d) for d in range(p)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = p + 4
    items = tuple(center(Ensemble(10.0 ** rng.uniform(-1, 1) * rng.normal(size=(n, s))))
                  for _ in range(length))
    model = FilterModel(
        p=p,
        q_specs=specs,
        t_mats=[rng.normal(size=(m, n)) for _ in range(p)],
        r_mats=[[rng.normal(size=(n, n)) / n for _ in range(j)] for j in range(p)],
    )
    order = draw(st.sampled_from(("drawn", "reversed", "repeated")))
    if order == "reversed":
        positions = list(reversed(range(length)))
    elif order == "repeated":
        positions = [draw(st.integers(0, length - 1))] * 3
    else:
        positions = draw(st.lists(st.integers(0, length - 1), min_size=1, max_size=12))
    return model, SignalSequence(items), positions


def reference_apply(model, ys, i):
    """Sum of T_j w_j with the cascade run in data space, re-centered."""
    ws = data_space_cascade([apply_q(q, ys, i) for q in model.q_specs]).ws
    acc = sum(t @ w.data for t, w in zip(model.t_mats, ws))
    return acc - acc.mean(axis=1, keepdims=True)


def assert_shared_context_matches_fresh(model, history, fresh_history, positions):
    ctx = FilterContext(history)
    bound = model.p * (model.p + 1) // 2
    for i in positions:
        shared = apply_filter(model, ctx, i).data
        fresh = apply_filter(model, FilterContext(fresh_history), i).data
        assert np.array_equal(shared, fresh), f"position {i}"
        assert len(ctx._gram) <= bound


@CACHE_SETTINGS
@given(case=cache_cases(mixed=False))
def test_any_call_order_gives_the_bits_of_a_fresh_context(case):
    model, ys, positions = case
    assert_shared_context_matches_fresh(model, ys, ys, positions)


@CACHE_SETTINGS
@given(case=cache_cases(mixed=True))
def test_mixed_transforms_share_the_cache_and_match_the_reference(case):
    model, ys, positions = case
    assert_shared_context_matches_fresh(model, ys, ys, positions)
    ctx = FilterContext(ys)
    for i in positions:
        got = apply_filter(model, ctx, i).data
        want = reference_apply(model, ys, i)
        assert np.linalg.norm(got - want) <= REL_TOL * np.linalg.norm(want)


@settings(CACHE_SETTINGS, max_examples=20)
@given(case=cache_cases(mixed=True))
def test_manifest_history_gives_the_bits_of_an_in_memory_one(case):
    model, ys, positions = case
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_sequence(tmp, "obs", ys)
        assert_shared_context_matches_fresh(model, ManifestSequence(manifest), ys,
                                            positions)


def test_lag_filter_forms_only_the_new_blocks_at_the_next_position():
    rng = np.random.default_rng(5)
    p, n, s = 4, 3, 40
    ys = SignalSequence(tuple(center(Ensemble(rng.normal(size=(n, s)))) for _ in range(9)))
    model = FilterModel(p=p, q_specs=[QOperatorSpec.sequence_lag(d) for d in range(p)],
                        t_mats=[rng.normal(size=(2, n)) for _ in range(p)])
    ctx = FilterContext(ys)
    apply_filter(model, ctx, 5)
    before = dict(ctx._gram)
    apply_filter(model, ctx, 6)
    kept = [key for key in ctx._gram if ctx._gram[key] is before.get(key)]
    assert sorted(ctx._gram) == [(a, b) for a in range(3, 7) for b in range(3, a + 1)]
    assert sorted(kept) == [(a, b) for a in range(3, 6) for b in range(3, a + 1)]
