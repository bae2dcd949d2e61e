"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and asserts the criterion at its stated
tolerance.
"""

import time
from dataclasses import replace

import numpy as np

from iflt import (
    Ensemble,
    FilterContext,
    QOperatorSpec,
    SignalSequence,
    TrainingSet,
    apply_filter,
    empirical_error,
    error_upper_bound,
    est_cov,
    fit,
    greedy_eps_net,
    node_error_decomposition,
    optimal_error,
    orthogonalize,
    pseudo_inverse,
    rls_init,
    rls_run,
    rls_step,
    run_benchmark,
    wiener_fit,
)
from iflt.analysis import ensemble_sq_distance
from iflt.bench import (
    ExperimentConfig,
    fit_benchmark_models,
    gen_observations,
    gen_reference_sequence,
    lag_specs,
    node_bound_checks,
    nodes_for,
    probe_bound_constants,
    report_csv_text,
)
from conftest import make_ensemble
from oracle import data_space_cascade, matching_residuals, node_cascades, penrose_residuals


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def default_benchmark_training(p=3, seed=0):
    cfg = replace(ExperimentConfig(), seed=seed)
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    nodes = nodes_for(cfg, p)
    train = TrainingSet(tuple(xs[k] for k in nodes), ys, tuple(nodes))
    return cfg, xs, ys, train


def test_criterion_01_pseudo_inverse_identities():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(200):
        r, c = rng.integers(1, 11, size=2)
        if k % 2 == 0:
            rank = int(rng.integers(1, min(r, c) + 1))
            a = rng.normal(size=(r, rank)) @ rng.normal(size=(rank, c))
        else:
            a = rng.normal(size=(r, c))
        worst = max(worst, max(penrose_residuals(a, pseudo_inverse(a))))
    elapsed = time.perf_counter() - t0
    _report(1, "pseudo-inverse identities on 200 random matrices",
            worst <= 1e-8 and elapsed < 5.0,
            f"(max residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_cascade_orthogonality():
    # both cascades: the data-space reference of tests/oracle.py, and the
    # library's orthogonalize, whose outputs are formed from cascade_map
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_rel = worst_gram_rel = 0.0
    p_cycle = (2, 3, 5)
    for trial in range(50):
        p = p_cycle[trial % 3]
        m = int(rng.integers(2, 7))
        s = int(rng.integers(p * m + 2, p * m + 40)) if trial % 5 else int(rng.integers(6, 12))
        vs = [make_ensemble(rng, m, s, scale=float(1 + trial % 4)) for _ in range(p)]
        scale = max(np.linalg.norm(est_cov(v, v)) for v in vs)
        worst_rel = max(worst_rel, data_space_cascade(vs).max_cross_residual / scale)
        worst_gram_rel = max(worst_gram_rel, orthogonalize(vs).max_cross_residual / scale)
    elapsed = time.perf_counter() - t0
    _report(2, "deflation cascade orthogonality on 50 random sets",
            worst_rel <= 1e-8 and worst_gram_rel <= 1e-8 and elapsed < 10.0,
            f"(max relative residual {worst_rel:.2e} in data space, "
            f"{worst_gram_rel:.2e} from orthogonalize, {elapsed:.2f}s)")


def test_criterion_03_node_matching_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (3, 5):
        cfg, xs, ys, train = default_benchmark_training(p=p)
        model = fit(train, lag_specs(p))
        rhos, _ = matching_residuals(model.t_mats, train, node_cascades(train, model.q_specs))
        for rho, scale in zip(rhos, model.meta["residual_scales"]):
            worst = max(worst, rho / scale if scale > 0 else rho)
    elapsed = time.perf_counter() - t0
    _report(3, "node matching residuals on the default benchmark",
            worst <= 1e-6 and elapsed < 10.0,
            f"(max relative residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_04_wiener_reduction():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        s = int(rng.integers(12, 40))
        x = make_ensemble(rng, m, s)
        y = make_ensemble(rng, n, s)
        model = fit(TrainingSet((x,), SignalSequence((y,)), (0,)),
                    [QOperatorSpec.identity()])
        worst = max(worst, float(np.max(np.abs(model.t_mats[0] - wiener_fit(x, y).t))))
    _report(4, "order-1 filter equals the Wiener baseline",
            worst <= 1e-10, f"(max elementwise gap {worst:.2e})")


def test_criterion_05_node_error_decomposition():
    worst = 0.0
    for p in (3, 5):
        cfg, xs, ys, train = default_benchmark_training(p=p)
        model = fit(train, lag_specs(p))
        for k in range(p):
            rec = node_error_decomposition(model, train, k)
            worst = max(worst, rec["gap"] / rec["lhs"])
    _report(5, "error decomposition identity at every training node",
            worst <= 1e-6, f"(max relative gap {worst:.2e})")


def test_criterion_06_optimal_error_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(20):
        p = (1, 2, 3)[trial % 3]
        m = int(rng.integers(2, 6))
        s = int(rng.integers(p * m + 10, p * m + 60))
        ws = list(orthogonalize([make_ensemble(rng, m, s) for _ in range(p)]).ws)
        x = make_ensemble(rng, m, s)
        estimate = np.zeros_like(x.data)
        for w in ws:
            t = est_cov(x, w) @ pseudo_inverse(est_cov(w, w))
            estimate += t @ w.data
        realized = empirical_error(x, Ensemble(estimate, centered=True))
        value = optimal_error(x, ws)
        worst = max(worst, abs(value - realized) / max(realized, 1e-12))
    _report(6, "optimal error equals the realized best filter",
            worst <= 1e-8, f"(max relative gap {worst:.2e})")


def test_criterion_07_error_bound_sanity():
    cfg, xs, ys, train = default_benchmark_training(p=3)
    model = fit(train, lag_specs(3))
    constants = probe_bound_constants(xs, ys, model)
    ctx = FilterContext(ys)
    measured = [empirical_error(xs[pos], apply_filter(model, ctx, pos))
                for pos in train.s_y_indices]
    # the probed Lipschitz and gain constants are lower bounds: check ten times them
    inflated = {**constants, "lambda_e": 10.0 * constants["lambda_e"],
                "lambda_q": 10.0 * constants["lambda_q"],
                "r_hat": [10.0 * g for g in constants["r_hat"]]}
    checks = node_bound_checks(model, train, measured, [inflated])[1][0]
    dominates = all(c["bound"] >= c["measured"] for c in checks)

    # limit behaviour: shrink both covering radii along a 5-point grid
    from iflt.ortho import cascade_outputs, position_cascade

    pos = train.s_y_indices[0]
    ws = cascade_outputs(*position_cascade(ys, model.q_specs, pos))
    base = optimal_error(xs[pos], ws)
    bounds = []
    d_mats = [est_cov(w, w) for w in ws]
    covs = (d_mats, [pseudo_inverse(d) for d in d_mats],
            [est_cov(train.s_x[j], ws[j]) for j in range(3)])
    for t in (1.0, 0.5, 0.25, 0.1, 0.0):
        shrunk = {**inflated, "eps_x": t * constants["eps_x"], "eps_y": t * constants["eps_y"]}
        bounds.append(error_upper_bound(base, shrunk, *covs))
    monotone = all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))
    reaches_base = abs(bounds[-1] - base) <= 1e-12 * max(base, 1.0)
    ok = dominates and monotone and reaches_base
    margin = min(c["bound"] / max(c["measured"], 1e-300) for c in checks)
    _report(7, "error bound dominates node errors and shrinks to the optimum",
            ok, f"(min bound/measured {margin:.2f}, grid monotone {monotone})")


def test_criterion_08_order_trend_and_runtime():
    wins = 0
    n_seeds = 20
    trend_cfg = replace(ExperimentConfig(), include_baselines=False)
    for seed in range(n_seeds):
        report = run_benchmark(replace(trend_cfg, seed=seed))
        means = report.summary["methods"]
        if means["interp_p5"]["mean_err_e"] <= means["interp_p3"]["mean_err_e"]:
            wins += 1
    timed_cfg = replace(ExperimentConfig(), m=32, n=32, s=64, n_signals=100)
    t0 = time.perf_counter()
    run_benchmark(timed_cfg)
    elapsed = time.perf_counter() - t0
    _report(8, "order-5 beats order-3 across seeds; full run under a minute",
            wins >= 16 and elapsed < 60.0,
            f"(wins {wins}/{n_seeds}, timed full run {elapsed:.1f}s)")


def test_criterion_09_rls_oracle():
    rng = np.random.default_rng(909)
    x = make_ensemble(rng, 4, 60)
    y = make_ensemble(rng, 4, 60)
    state = rls_init(4, 4, forgetting=1.0, delta=1e8)
    rls_run(state, x, y)
    lsq = (x.data @ y.data.T) @ pseudo_inverse(y.data @ y.data.T)
    weight_gap = float(np.linalg.norm(state.weights - lsq) / np.linalg.norm(lsq))

    drift_state = rls_init(6, 3, forgetting=0.98, delta=25.0)
    worst_drift = 0.0
    for _ in range(10_000):
        rls_step(drift_state, rng.normal(size=6), rng.normal(size=3))
        p = drift_state.p_inv_corr
        worst_drift = max(worst_drift,
                          float(np.linalg.norm(p - p.T) / np.linalg.norm(p)))
    _report(9, "RLS matches normal equations and keeps its state symmetric",
            weight_gap <= 1e-4 and worst_drift <= 1e-8,
            f"(weight gap {weight_gap:.2e}, symmetry drift {worst_drift:.2e})")


def test_criterion_10_eps_net_correctness():
    rng = np.random.default_rng(1010)
    covered = True
    for trial in range(8):
        pool = [make_ensemble(rng, 3, 12, scale=float(1 + trial)) for _ in range(15)]
        eps = 0.5 * max(ensemble_sq_distance(pool[0], c) for c in pool[1:])
        net = greedy_eps_net(pool, eps)
        for cand in pool:
            if min(ensemble_sq_distance(cand, pool[c]) for c in net.center_indices) > eps:
                covered = False
    rows = [np.array([[0.0, 0.0]]), np.array([[0.5, -0.5]]), np.array([[1.0, -1.0]])]
    traced = greedy_eps_net([Ensemble(r, centered=True) for r in rows], 0.3)
    two_centers = traced.center_indices == (0, 2)
    _report(10, "greedy nets cover their pool; traced example has two centers",
            covered and two_centers,
            f"(coverage {covered}, centers {traced.center_indices})")


def test_criterion_11_bit_identical_reports():
    cfg = ExperimentConfig(n_signals=20, m=5, n=5, s=64, p_values=(2, 3),
                           s_indices=(4, 9, 14), seed=42)
    text_a = report_csv_text(run_benchmark(cfg).rows)
    text_b = report_csv_text(run_benchmark(cfg).rows)
    _report(11, "identical config and seed give bit-identical reports",
            text_a == text_b, f"({len(text_a)} bytes compared)")
