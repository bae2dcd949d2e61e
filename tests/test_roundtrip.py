"""Hypothesis round trips: model JSON and binary ensemble files are exact.

``load_model(save_model(m))`` gives back every array bit for bit, the same
``meta`` and transforms, and so the same ``fixed_r`` estimates;
the values ``write_ensemble_bin`` writes are the array's, bit for bit. Values
include subnormals, signed zeros and magnitudes up to the largest float.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from iflt import (Ensemble, FilterContext, FilterModel, SignalSequence, TrainingSet,
                  apply_filter, fit, load_model, save_model)
from iflt.bench import lag_specs
from iflt.sigio import write_ensemble_bin
from conftest import make_ensemble

ROUND_TRIP_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                               database=None)
EXTREMES = (5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
            1.7976931348623157e308, -0.0)
values = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True) \
    | st.sampled_from(EXTREMES)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes()


def matrices(shape):
    return arrays(np.float64, shape, elements=values)


@st.composite
def fitted_models(draw):
    """A model fitted on random data, and the observations it was fitted on."""
    p, n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = draw(st.integers(p * n + 4, p * n + 20))
    ys = SignalSequence(tuple(make_ensemble(rng, n, s) for _ in range(p + 3)))
    nodes = tuple(sorted(draw(st.permutations(range(p + 3)))[:p]))
    xs = tuple(make_ensemble(rng, m, s) for _ in nodes)
    a_mats = [rng.normal(size=(m, n)) for _ in range(p)] if draw(st.booleans()) else None
    return fit(TrainingSet(xs, ys, nodes), lag_specs(p), a_mats=a_mats), ys


def assert_same_model(back, model):
    assert back.p == model.p and back.q_specs == model.q_specs and back.meta == model.meta
    assert all(same_bits(a, b) for a, b in zip(back.t_mats, model.t_mats, strict=True))
    assert (back.a_mats is None) == (model.a_mats is None)
    assert all(same_bits(a, b) for a, b in zip(back.a_mats or [], model.a_mats or [],
                                               strict=True))
    for back_row, row in zip(back.r_mats, model.r_mats, strict=True):
        assert all(same_bits(a, b) for a, b in zip(back_row, row, strict=True))


@ROUND_TRIP_SETTINGS
@given(case=fitted_models())
def test_fitted_model_round_trip_is_exact(case):
    model, ys = case
    back = load_model(save_model(model))
    assert_same_model(back, model)
    ctx, back_ctx = FilterContext(ys), FilterContext(ys)
    for i in range(len(ys)):
        assert same_bits(apply_filter(back, back_ctx, i, fixed_r=True).data,
                         apply_filter(model, ctx, i, fixed_r=True).data)


@ROUND_TRIP_SETTINGS
@given(data=st.data(), p=st.integers(1, 3), n=st.integers(1, 3), m=st.integers(1, 3),
       free=st.booleans())
def test_model_round_trip_keeps_extreme_values(data, p, n, m, free):
    model = FilterModel(
        p=p, q_specs=lag_specs(p),
        t_mats=[data.draw(matrices((m, n))) for _ in range(p)],
        a_mats=[data.draw(matrices((m, n))) for _ in range(p)] if free else None,
        r_mats=[[data.draw(matrices((n, n))) for _ in range(j)] for j in range(p)],
        meta={"residuals": [data.draw(values) for _ in range(p)]},
    )
    assert_same_model(load_model(save_model(model)), model)


@ROUND_TRIP_SETTINGS
@given(arr=matrices(st.tuples(st.integers(1, 4), st.integers(2, 6))))
def test_binary_ensemble_round_trip_is_exact(arr):
    e = Ensemble(arr)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.iflt"
        write_ensemble_bin(path, e)
        back = np.frombuffer(path.read_bytes()[16:], dtype="<f8").reshape(e.data.shape)
    assert same_bits(back, e.data)
