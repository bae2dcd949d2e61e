from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iflt import (
    Ensemble,
    InvalidInput,
    NumericalError,
    WienerModel,
    empirical_error,
    pseudo_inverse,
    rls_apply,
    rls_init,
    rls_run,
    rls_step,
    wiener_apply,
    wiener_fit,
)
from conftest import make_ensemble


def test_wiener_self_estimation_identity(rng):
    y = make_ensemble(rng, 3, 40)
    model = wiener_fit(y, y)
    assert np.allclose(model.t, np.eye(3), atol=1e-8)


def test_wiener_orthogonal_pair_zero():
    x = Ensemble(np.array([[1.0, 1.0, -1.0, -1.0]]), centered=True)
    y = Ensemble(np.array([[1.0, -1.0, 1.0, -1.0]]), centered=True)
    assert np.array_equal(wiener_fit(x, y).t, np.zeros((1, 1)))


def test_wiener_perturbation_optimality(rng):
    x = make_ensemble(rng, 3, 30)
    y = make_ensemble(rng, 4, 30)
    model = wiener_fit(x, y)
    base = empirical_error(x, wiener_apply(model, y))
    for _ in range(100):
        delta = rng.normal(size=model.t.shape) * 10.0 ** rng.integers(-3, 1)
        perturbed = Ensemble((model.t + delta) @ y.data, centered=False)
        perturbed = Ensemble(
            perturbed.data - perturbed.data.mean(axis=1, keepdims=True),
            centered=True,
        )
        assert empirical_error(x, perturbed) >= base - 1e-10


def test_wiener_apply_matches_matrix_product(rng):
    x = make_ensemble(rng, 2, 20)
    y = make_ensemble(rng, 3, 20)
    model = wiener_fit(x, y)
    out = wiener_apply(model, y)
    direct = model.t @ y.data
    assert np.allclose(out.data, direct - direct.mean(axis=1, keepdims=True),
                       atol=1e-12)


def test_wiener_apply_identity_and_zero(rng):
    y = make_ensemble(rng, 3, 12)
    from iflt.baselines import WienerModel

    assert np.allclose(wiener_apply(WienerModel(np.eye(3)), y).data, y.data,
                       atol=1e-12)
    assert np.array_equal(
        wiener_apply(WienerModel(np.zeros((2, 3))), y).data, np.zeros((2, 12))
    )
    with pytest.raises(InvalidInput):
        wiener_apply(WienerModel(np.eye(4)), y)


def test_rls_init_validation():
    with pytest.raises(InvalidInput):
        rls_init(3, 3, forgetting=0.0)
    with pytest.raises(InvalidInput):
        rls_init(3, 3, forgetting=1.2)
    with pytest.raises(InvalidInput):
        rls_init(3, 3, delta=-1.0)
    state = rls_init(4, 2, forgetting=1.0, delta=10.0)
    assert np.array_equal(state.p_inv_corr, 10.0 * np.eye(4))
    assert state.weights.shape == (2, 4)
    assert state.steps == 0


def test_rls_zero_column_only_counts_step():
    state = rls_init(3, 2, forgetting=1.0, delta=5.0)
    w0, p0 = state.weights.copy(), state.p_inv_corr.copy()
    rls_step(state, np.zeros(3), np.ones(2))
    assert state.steps == 1
    assert np.array_equal(state.weights, w0)
    assert np.array_equal(state.p_inv_corr, p0)


def test_rls_one_step_hand_expansion(rng):
    # unit forgetting, unit input: P1 = delta (I - delta y y^T / (1 + delta)),
    # gain = delta y / (1 + delta), W1 = x gain^T
    delta = 4.0
    y = np.zeros(3)
    y[1] = 1.0
    x = np.array([2.0, -1.0])
    state = rls_init(3, 2, forgetting=1.0, delta=delta)
    rls_step(state, y, x)
    expected_p = delta * (np.eye(3) - delta * np.outer(y, y) / (1.0 + delta))
    expected_w = np.outer(x, delta * y / (1.0 + delta))
    assert np.allclose(state.p_inv_corr, expected_p, atol=1e-12)
    assert np.allclose(state.weights, expected_w, atol=1e-12)


def test_rls_converges_to_normal_equations(rng):
    x = make_ensemble(rng, 3, 60)
    y = make_ensemble(rng, 3, 60)
    state = rls_init(3, 3, forgetting=1.0, delta=1e8)
    rls_run(state, x, y)
    lsq = (x.data @ y.data.T) @ pseudo_inverse(y.data @ y.data.T)
    assert np.linalg.norm(state.weights - lsq) <= 1e-4 * np.linalg.norm(lsq)


def test_rls_p_stays_symmetric(rng):
    state = rls_init(4, 2, forgetting=0.97, delta=50.0)
    for _ in range(2000):
        rls_step(state, rng.normal(size=4), rng.normal(size=2))
        p = state.p_inv_corr
        assert np.linalg.norm(p - p.T) <= 1e-8 * np.linalg.norm(p)


def test_rls_apply_and_shapes(rng):
    x = make_ensemble(rng, 2, 30)
    y = make_ensemble(rng, 4, 30)
    state = rls_init(4, 2, forgetting=1.0, delta=1e6)
    rls_run(state, x, y)
    out = rls_apply(state, y)
    assert out.data.shape == (2, 30)
    direct = state.weights @ y.data
    assert np.allclose(out.data, direct - direct.mean(axis=1, keepdims=True),
                       atol=1e-12)
    with pytest.raises(InvalidInput):
        rls_apply(state, make_ensemble(rng, 3, 30))


@pytest.mark.filterwarnings("error")
def test_overflowing_estimates_raise_invalid_input(rng):
    # finite coefficients whose product with the data overflows
    y = make_ensemble(rng, 3, 30)
    with pytest.raises(InvalidInput, match="estimate from the Wiener coefficients overflows"):
        wiener_apply(WienerModel(np.full((2, 3), 1e308)), y)
    state = rls_init(3, 2)
    state.weights = np.full((2, 3), -1e308)
    with pytest.raises(InvalidInput, match="estimate from the RLS weights overflows"):
        rls_apply(state, y)


def test_rls_step_validates_columns():
    state = rls_init(3, 2)
    with pytest.raises(InvalidInput):
        rls_step(state, np.zeros(2), np.zeros(2))


def test_rls_nonfinite_update_raises():
    state = rls_init(2, 2, forgetting=1.0, delta=1e300)
    with pytest.raises(NumericalError):
        rls_step(state, np.full(2, 1e300), np.ones(2))


def test_rls_run_nonfinite_update_raises():
    state = rls_init(2, 2, forgetting=1.0, delta=1e300)
    y = Ensemble(np.full((2, 3), 1e300))
    with pytest.raises(NumericalError):
        rls_run(state, Ensemble(np.ones((2, 3))), y)


RLS_KINDS = ("full_rank", "repeated_row", "zero_columns")


@st.composite
def rls_cases(draw):
    """(state, x, y): a fresh or already-stepped state and one block of columns."""
    kind = draw(st.sampled_from(RLS_KINDS))
    n = draw(st.integers(2 if kind == "repeated_row" else 1, 8))
    m = draw(st.integers(1, 8))
    s = draw(st.integers(n + 2 if kind == "full_rank" else 2, n + 40))
    forgetting = draw(st.floats(0.9, 1.0))
    delta = 10.0 ** draw(st.floats(-1.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = rls_init(n, m, forgetting, delta)
    for _ in range(draw(st.integers(0, 3))):
        rls_step(state, rng.normal(size=n), rng.normal(size=m))
    y = rng.normal(size=(n, s))
    if kind == "repeated_row":
        y[1] = y[0]
    elif kind == "zero_columns":
        y[:, rng.random(s) < 0.5] = 0.0
    return state, Ensemble(rng.normal(size=(m, s))), Ensemble(y)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rls_cases())
def test_rls_run_matches_streaming_steps(case):
    state, x, y = case
    block = rls_run(replace(state), x, y)
    loop = replace(state)
    for r in range(y.s):
        rls_step(loop, y.data[:, r], x.data[:, r])
    assert block.steps == loop.steps == state.steps + y.s
    # Each streaming step subtracts from P a term nearly as large as P, so
    # the loop itself is only accurate to about eps * ||P0|| * ||Phi||, with
    # Phi = P^{-1} after the block: about 1e-8 relative at delta = 1e6, where
    # the block form still matches exact arithmetic to a few eps. Since
    # Phi >= lambda^s P0^{-1}, cond(Phi) <= kappa / lambda^s, so this also
    # covers the ill-conditioned Phi of rank-deficient blocks.
    kappa = np.linalg.norm(state.p_inv_corr, 2) * np.linalg.norm(
        np.linalg.inv(loop.p_inv_corr), 2)
    tol = 1e-12 * kappa
    for got, want in ((block.weights, loop.weights), (block.p_inv_corr, loop.p_inv_corr)):
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def test_rls_run_requires_aligned(rng):
    state = rls_init(3, 2)
    with pytest.raises(InvalidInput):
        rls_run(state, make_ensemble(rng, 2, 10), make_ensemble(rng, 3, 12))
    with pytest.raises(InvalidInput):
        rls_run(state, make_ensemble(rng, 2, 10), make_ensemble(rng, 4, 10))
