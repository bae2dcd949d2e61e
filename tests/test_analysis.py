import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from iflt import (
    Ensemble,
    InvalidInput,
    QOperatorSpec,
    SignalSequence,
    TrainingSet,
    empirical_error,
    energy,
    error_upper_bound,
    est_cov,
    fit,
    greedy_eps_net,
    net_radius,
    node_error_decomposition,
    optimal_error,
    orthogonalize,
    pseudo_inverse,
    sym_sqrt,
)
from iflt import analysis, bench
from iflt.analysis import ensemble_sq_distance
from iflt.bench import ExperimentConfig, gen_observations, gen_reference_sequence, lag_specs
from iflt.linalg import frob_norm
from conftest import make_ensemble


def ortho_set(rng, p, m=4, s=48):
    return list(orthogonalize([make_ensemble(rng, m, s) for _ in range(p)]).ws)


def test_empirical_error_basics(rng):
    x = make_ensemble(rng, 3, 10)
    assert empirical_error(x, x) == 0.0
    zero = Ensemble(np.zeros((3, 10)), centered=True)
    assert empirical_error(x, zero) == pytest.approx(energy(x), rel=1e-12)


def test_empirical_error_matches_per_realization_sum(rng):
    x = make_ensemble(rng, 3, 12)
    x_hat = make_ensemble(rng, 3, 12)
    brute = sum(
        float(np.sum((x.data[:, r] - x_hat.data[:, r]) ** 2)) for r in range(12)
    ) / 12
    assert empirical_error(x, x_hat) == pytest.approx(brute, rel=1e-12)


def test_empirical_error_shape_mismatch(rng):
    with pytest.raises(InvalidInput):
        empirical_error(make_ensemble(rng, 3, 10), make_ensemble(rng, 2, 10))


def test_optimal_error_independent_terms(rng):
    # references orthogonal to every term leave the full energy unexplained
    x = Ensemble(np.array([[1.0, 1.0, -1.0, -1.0]]), centered=True)
    w = Ensemble(np.array([[1.0, -1.0, 1.0, -1.0]]), centered=True)
    assert optimal_error(x, [w]) == pytest.approx(energy(x), rel=1e-12)


def test_optimal_error_perfect_single_term(rng):
    w = make_ensemble(rng, 3, 20)
    assert optimal_error(w, [w]) == pytest.approx(0.0, abs=1e-10)


def test_optimal_error_matches_explicit_filter(rng):
    # oracle: build the best per-term coefficients explicitly and realize them
    for p in (1, 2, 3):
        ws = ortho_set(rng, p)
        x = make_ensemble(rng, 3, 48)
        estimate = np.zeros_like(x.data)
        for w in ws:
            t = est_cov(x, w) @ pseudo_inverse(est_cov(w, w))
            estimate += t @ w.data
        realized = empirical_error(x, Ensemble(estimate, centered=True))
        value = optimal_error(x, ws)
        assert abs(value - realized) <= 1e-8 * max(realized, 1e-12)


def test_optimal_error_bounds(rng):
    ws = ortho_set(rng, 3)
    x = make_ensemble(rng, 3, 48)
    value = optimal_error(x, ws)
    assert -1e-8 <= value <= energy(x) + 1e-8


def test_optimal_error_monotone_in_terms(rng):
    vs = [make_ensemble(rng, 3, 60) for _ in range(4)]
    ws = list(orthogonalize(vs).ws)
    x = make_ensemble(rng, 3, 60)
    values = [optimal_error(x, ws[: p + 1]) for p in range(4)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-10


def test_optimal_error_rejects_non_orthogonal(rng):
    w = make_ensemble(rng, 3, 20)
    near = Ensemble(w.data + 0.1 * make_ensemble(rng, 3, 20).data, centered=True)
    with pytest.raises(InvalidInput):
        optimal_error(make_ensemble(rng, 3, 20), [w, near])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_optimal_error_checks_orthogonality_at_large_scales(rng):
    # covariances near 1e200, whose norms overflow unless they are scaled
    def big(e):
        return Ensemble(1e100 * e.data, centered=True)

    w, x = make_ensemble(rng, 3, 20), make_ensemble(rng, 3, 20)
    near = Ensemble(w.data + 0.1 * make_ensemble(rng, 3, 20).data, centered=True)
    with pytest.raises(InvalidInput):
        optimal_error(big(x), [big(w), big(near)])
    ws = orthogonalize([w, make_ensemble(rng, 3, 20)]).ws
    assert optimal_error(big(x), [big(v) for v in ws]) == pytest.approx(
        1e200 * optimal_error(x, ws), rel=1e-10)


def bench_training(rng, p=3, seed=7):
    cfg = ExperimentConfig(n_signals=24, m=4, n=4, s=96, p_values=(p,),
                           s_indices=(5, 12, 19, 8, 16), seed=seed)
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    nodes = sorted(i - 1 for i in cfg.s_indices[:p])
    train = TrainingSet(tuple(xs[k] for k in nodes), ys, tuple(nodes))
    return fit(train, lag_specs(p)), train, xs, ys


def test_node_decomposition_order_one(rng):
    x = make_ensemble(rng, 3, 40)
    y = make_ensemble(rng, 3, 40)
    train = TrainingSet((x,), SignalSequence((y,)), (0,))
    model = fit(train, [QOperatorSpec.identity()])
    rec = node_error_decomposition(model, train, 0)
    # single node: the mismatch sum is empty and lhs is the optimal error
    assert rec["gap"] <= 1e-10 * max(rec["lhs"], 1e-12)
    assert rec["rhs"] == pytest.approx(optimal_error(x, [y]), rel=1e-10)


def test_node_decomposition_synthetic_nodes(rng):
    model, train, xs, ys = bench_training(rng)
    for k in range(model.p):
        rec = node_error_decomposition(model, train, k)
        assert rec["gap"] <= 1e-6 * rec["lhs"]


def test_node_decomposition_orthogonal_reference():
    # references realization-orthogonal to every observation: nothing is
    # explained, so the error is the full reference energy on both sides
    x_rows = np.array([[1.0, 1.0, -1.0, -1.0]])
    y_rows = np.array([[1.0, -1.0, 1.0, -1.0]])
    x = Ensemble(x_rows, centered=True)
    y = Ensemble(y_rows, centered=True)
    train = TrainingSet((x,), SignalSequence((y,)), (0,))
    model = fit(train, [QOperatorSpec.identity()])
    rec = node_error_decomposition(model, train, 0)
    assert rec["lhs"] == pytest.approx(energy(x), rel=1e-12)
    assert rec["gap"] <= 1e-10 * rec["lhs"]


def test_node_decomposition_index_range(rng):
    model, train, _, _ = bench_training(rng)
    with pytest.raises(InvalidInput):
        node_error_decomposition(model, train, model.p)


def hand_bound_inputs(rng, p=2):
    ws = ortho_set(rng, p, m=3, s=36)
    xs = [make_ensemble(rng, 3, 36) for _ in range(p)]
    constants = {"eps_x": 0.3, "eps_y": 0.2, "lambda_e": 1.5, "lambda_q": 2.0,
                 "r_hat": [1.0 + 0.5 * k for k in range(p)], "x_energy": 4.0}
    d_mats = [est_cov(w, w) for w in ws]
    covs = (d_mats, [pseudo_inverse(d) for d in d_mats],
            [est_cov(x, w) for x, w in zip(xs, ws)])
    return constants, covs, ws


def test_bound_reduces_to_base_error_at_zero_radii(rng):
    constants, covs, ws = hand_bound_inputs(rng)
    zeroed = {**constants, "eps_x": 0.0, "eps_y": 0.0}
    assert error_upper_bound(1.25, zeroed, *covs) == 1.25


def test_bound_free_term_vanishes_at_full_rank(rng):
    constants, covs, ws = hand_bound_inputs(rng)
    zeroed = {**constants, "eps_x": 0.0, "eps_y": 0.0}
    # full-rank covariances annihilate the free-term leakage
    assert error_upper_bound(1.25, zeroed, *covs, [np.eye(3) for _ in ws]) == pytest.approx(
        1.25, abs=1e-12
    )


def test_bound_term_by_term_oracle(rng):
    # single-term instance recomputed with raw numpy operations
    ws = ortho_set(rng, 1, m=3, s=36)
    x = make_ensemble(rng, 3, 36)
    eww = est_cov(ws[0], ws[0])
    exw = est_cov(x, ws[0])
    constants = {"eps_x": 0.7, "eps_y": 0.11, "lambda_e": 1.3, "lambda_q": 0.9,
                 "r_hat": [2.0], "x_energy": 5.0}
    w_energy = energy(ws[0])
    half = sym_sqrt(eww)
    e_1 = float(np.sum(pseudo_inverse(half) ** 2))
    d_1 = 1.3 * 0.9 * 2.0 * (5.0 * e_1 + float(np.sum(exw**2))) * float(np.sum(half**2))
    expected = 0.5 + 0.7 * w_energy * e_1 + 0.11 * d_1
    got = error_upper_bound(0.5, constants, [eww], [pseudo_inverse(eww)], [exw])
    assert got == pytest.approx(expected, rel=1e-12)
    assert got >= 0.5


def exact_bound(optimal, constants, d_mats, d_pinvs, xw_covs, a_mats=None):
    """``error_upper_bound``'s formula in exact rational arithmetic on the same
    factors: the traces of D_k and D_k^+, and the entries of C(x_k, w_k)."""
    assert a_mats is None  # no leakage term
    c = constants
    total = Fraction(optimal)
    for k, (eww, eww_pinv, exw) in enumerate(zip(d_mats, d_pinvs, xw_covs)):
        e_k = Fraction(float(np.trace(eww_pinv)))
        w_energy = Fraction(float(np.trace(eww)))
        f_k = sum(Fraction(float(v)) ** 2 for v in exw.ravel())
        p_k = (Fraction(c["lambda_e"]) * Fraction(c["lambda_q"])
               * Fraction(c["r_hat"][k]) * (Fraction(c["x_energy"]) * e_k + f_k) * w_energy)
        total += Fraction(c["eps_x"]) * w_energy * e_k + Fraction(c["eps_y"]) * p_k
    return total


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("drift_scale", [1e80, 1e100])
def test_bound_forms_no_out_of_range_intermediate(monkeypatch, drift_scale):
    # at these scales ||C(x_k, w_k)||_F^2 and eps_x tr D_k overflow as floats;
    # with the probed constants the bound itself lies beyond the largest
    # float, without lambda_e it lies inside
    captured = []
    monkeypatch.setattr(analysis, "error_upper_bound",
                        lambda optimal, *args: captured.append((optimal, args)) or 0.0)
    bench.run_benchmark(bench.config_from_dict({
        "probe_constants": True, "drift_scale": drift_scale, "n_signals": 20,
        "m": 4, "n": 4, "s": 48, "p_values": [2], "s_indices": [3, 7]}))
    assert len(captured) == 2
    for optimal, (constants, *covs) in captured:
        assert exact_bound(optimal, constants, *covs) > Fraction(sys.float_info.max)
        assert error_upper_bound(optimal, constants, *covs) == math.inf
        constants = {**constants, "lambda_e": 0.0}
        want = exact_bound(optimal, constants, *covs)
        assert want < Fraction(sys.float_info.max)
        assert abs(Fraction(error_upper_bound(optimal, constants, *covs)) - want) <= 1e-12 * want


def test_bound_validates_inputs(rng):
    constants, covs, ws = hand_bound_inputs(rng)
    one_term = [c[:1] for c in covs]
    with pytest.raises(InvalidInput, match="eps_x"):
        error_upper_bound(0.0, {**constants, "eps_x": -0.1, "r_hat": [1.0]}, *one_term)
    with pytest.raises(InvalidInput):
        error_upper_bound(-1.0, constants, *covs)
    with pytest.raises(InvalidInput, match="r_hat"):  # one covariance pair for two terms
        error_upper_bound(0.0, constants, *one_term)


def rational_bound(optimal, constants, d_mats, d_pinvs, xw_covs, a_mats=None):
    """``error_upper_bound``'s formula in exact rationals on its float factors:
    the traces of D_k and D_k^+, the constants, and each squared norm taken as
    ``Fraction(frob_norm(.)) ** 2``."""
    def sq(a):
        return Fraction(frob_norm(a)) ** 2

    c = {key: Fraction(v) for key, v in constants.items() if key != "r_hat"}
    total = Fraction(optimal)
    for k, (d, d_pinv, exw) in enumerate(zip(d_mats, d_pinvs, xw_covs)):
        e_k, w_energy = Fraction(np.trace(d_pinv)), Fraction(np.trace(d))
        total += c["eps_x"] * w_energy * e_k + (
            c["eps_y"] * c["lambda_e"] * c["lambda_q"] * Fraction(constants["r_hat"][k])
            * (c["x_energy"] * e_k + sq(exw)) * w_energy)
        if a_mats is not None:
            total += sq(a_mats[k] @ (np.eye(len(d)) - d @ d_pinv)) * w_energy
    return total


@pytest.mark.parametrize("with_a_mats", [False, True])
def test_bound_is_the_exact_rational_of_its_factors_rounded_once(with_a_mats):
    # rank-deficient D_k (so the leakage is not zero) and constants spread
    # over many binades
    rng = np.random.default_rng(28)
    for _ in range(150):
        p, m = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        d_mats, xw_covs = [], []
        for _ in range(p):
            rank = int(rng.integers(1, m + 1))
            w = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, 24))
            d_mats.append(w @ w.T / 24)
            xw_covs.append(rng.normal(size=(m, m)) * 10.0 ** rng.uniform(-3, 3))
        constants = {key: float(10.0 ** rng.uniform(-4, 4)) for key in
                     ("eps_x", "eps_y", "lambda_e", "lambda_q", "x_energy")}
        constants["r_hat"] = [float(rng.uniform(0, 2)) for _ in range(p)]
        a_mats = [rng.normal(size=(m, m)) for _ in range(p)] if with_a_mats else None
        args = (float(rng.uniform(0, 10)), constants, d_mats,
                [pseudo_inverse(d) for d in d_mats], xw_covs, a_mats)
        assert error_upper_bound(*args) == float(rational_bound(*args))


@pytest.mark.filterwarnings("error")
def test_bound_refuses_a_factor_that_is_not_finite_naming_its_term(rng):
    constants, (d_mats, d_pinvs, xw_covs), _ = hand_bound_inputs(rng)
    big = np.full((3, 3), 1e308)  # finite, but its trace is not
    for covs in ((d_mats, [d_pinvs[0], d_pinvs[1] * np.nan], xw_covs),
                 ([d_mats[0], big], d_pinvs, xw_covs),
                 (d_mats, d_pinvs, [xw_covs[0], xw_covs[1] * np.inf])):
        with pytest.raises(InvalidInput, match="bound term 2: .* not finite"):
            error_upper_bound(1.0, constants, *covs)
    with pytest.raises(InvalidInput, match="bound term 1: .* not finite"):
        error_upper_bound(1.0, constants, d_mats, d_pinvs, xw_covs, [big * np.inf, big])


def collinear_pool():
    # squared distances from the first element: 0, 0.25, 1.0
    rows = [np.array([[0.0, 0.0]]), np.array([[0.5, -0.5]]), np.array([[1.0, -1.0]])]
    return [Ensemble(r, centered=True) for r in rows]


def test_eps_net_single_center(rng):
    pool = [make_ensemble(rng, 2, 8) for _ in range(5)]
    worst = max(ensemble_sq_distance(a, b) for a in pool for b in pool)
    net = greedy_eps_net(pool, worst + 1.0)
    assert net.center_indices == (0,)


def test_eps_net_all_centers(rng):
    pool = [make_ensemble(rng, 2, 8) for _ in range(5)]
    positive = [ensemble_sq_distance(a, b) for i, a in enumerate(pool)
                for b in pool[i + 1:]]
    net = greedy_eps_net(pool, min(positive) * 0.5)
    assert net.center_indices == tuple(range(5))


def test_eps_net_hand_traced_two_centers():
    net = greedy_eps_net(collinear_pool(), 0.3)
    assert net.center_indices == (0, 2)
    assert net.achieved_eps == pytest.approx(0.25, rel=1e-12)


def test_eps_net_coverage_exhaustive(rng):
    for trial in range(5):
        pool = [make_ensemble(rng, 2, 10, scale=1.0 + trial) for _ in range(12)]
        eps = 0.5 * max(
            ensemble_sq_distance(pool[0], other) for other in pool[1:]
        )
        net = greedy_eps_net(pool, eps)
        for cand in pool:
            assert min(
                ensemble_sq_distance(cand, pool[c]) for c in net.center_indices
            ) <= eps
        assert net.achieved_eps <= eps


def test_eps_net_validation(rng):
    with pytest.raises(InvalidInput):
        greedy_eps_net([], 1.0)
    with pytest.raises(InvalidInput):
        greedy_eps_net([make_ensemble(rng, 2, 8)], 0.0)


def test_net_radius(rng):
    pool = collinear_pool()
    assert net_radius(pool, (0,)) == pytest.approx(1.0, rel=1e-12)
    assert net_radius(pool, (0, 2)) == pytest.approx(0.25, rel=1e-12)


def test_load_bound_constants(tmp_path):
    import json

    from iflt import ParseError
    from iflt.analysis import load_bound_constants

    path = tmp_path / "c.json"
    doc = {"eps_x": 0.1, "eps_y": 0.2, "lambda_e": 1.0, "lambda_q": 2.0,
           "r_hat": [1.0, 3.0], "x_energy": 5.0}
    path.write_text(json.dumps(doc))
    assert load_bound_constants(path) == doc
    path.write_text(json.dumps({k: v for k, v in doc.items() if k != "lambda_q"}))
    with pytest.raises(ParseError):
        load_bound_constants(path)
    path.write_text(json.dumps({**doc, "eps_x": -1.0}))
    with pytest.raises(ParseError):
        load_bound_constants(path)
    path.write_text("{nope")
    with pytest.raises(ParseError):
        load_bound_constants(path)
    path.write_bytes(b"\xff{}")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_bound_constants(path)
    path.write_text("5")
    with pytest.raises(ParseError, match="must be a JSON object"):
        load_bound_constants(path)
    for key, value in [("r_hat", "12"), ("r_hat", [1.0, "2"]), ("eps_x", "0.1"),
                       ("lambda_q", True), ("x_energy", None), ("eps_y", 10**400)]:
        path.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(ParseError, match=f"{key} must be"):
            load_bound_constants(path)


def test_param_to_signal_eps_scaling_family(rng):
    # family x(alpha) = alpha * x0 has squared-distance Lipschitz constant
    # exactly energy(x0) in the scale parameter, so a parameter net of squared
    # radius d covers the signals at squared radius energy(x0) * d
    x0 = make_ensemble(rng, 3, 20)
    lam = energy(x0)
    alphas = np.linspace(-2.0, 2.0, 9)
    for a in alphas:
        for b in alphas:
            lhs = ensemble_sq_distance(
                Ensemble(a * x0.data, centered=True),
                Ensemble(b * x0.data, centered=True),
            )
            assert lhs <= lam * (a - b) ** 2 + 1e-12
