import json
from dataclasses import replace

import numpy as np
import pytest

from iflt import ConfigError, fit, greedy_eps_net, interp, run_benchmark, write_report
from iflt.analysis import ensemble_sq_distance, node_error_decomposition
from iflt.bench import (
    ExperimentConfig,
    NoiseSpec,
    config_from_dict,
    config_to_dict,
    evaluate,
    fit_benchmark_models,
    gen_observations,
    gen_reference_sequence,
    lag_specs,
    node_bound_checks,
    node_training_set,
    nodes_for,
    noise_matrix,
    probe_bound_constants,
    report_csv_text,
    validate_config,
)
from iflt.interp import FilterContext, apply_filter
from iflt.ortho import cascade_map
from iflt.signals import TrainingSet

SMALL = ExperimentConfig(n_signals=14, m=4, n=4, s=48, p_values=(2, 3),
                         s_indices=(3, 7, 11), seed=123)


def test_gen_is_deterministic():
    a = gen_reference_sequence(SMALL)
    b = gen_reference_sequence(SMALL)
    for x, y in zip(a.items, b.items):
        assert np.array_equal(x.data, y.data)
    oa = gen_observations(a, SMALL)
    ob = gen_observations(b, SMALL)
    for x, y in zip(oa.items, ob.items):
        assert np.array_equal(x.data, y.data)


def test_gen_zero_drift_constant_sequence():
    cfg = ExperimentConfig(n_signals=6, m=3, n=3, s=24, drift_scale=0.0,
                           p_values=(1,), s_indices=(2,), seed=1)
    xs = gen_reference_sequence(cfg)
    for item in xs.items[1:]:
        assert np.array_equal(item.data, xs[0].data)


def test_gen_adjacent_distance_monotone_in_drift():
    def mean_adjacent(scale):
        cfg = ExperimentConfig(n_signals=10, m=3, n=3, s=40, drift_scale=scale,
                               p_values=(1,), s_indices=(2,), seed=5)
        xs = gen_reference_sequence(cfg)
        return np.mean([
            ensemble_sq_distance(a, b) for a, b in zip(xs.items, xs.items[1:])
        ])

    dists = [mean_adjacent(s) for s in (0.0, 0.1, 0.5, 2.0)]
    assert all(a < b for a, b in zip(dists, dists[1:]))


def test_noise_matrix_range_and_construction():
    cfg = SMALL
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    for i in (0, 5, 13):
        u = noise_matrix(cfg, i)
        assert np.all((u >= cfg.noise.low) & (u <= cfg.noise.high))
        raw = xs[i].data * u
        recentered = raw - raw.mean(axis=1, keepdims=True)
        assert np.array_equal(ys[i].data, recentered)
        nz = xs[i].data != 0
        ratio = raw[nz] / xs[i].data[nz]
        assert np.all((ratio >= 0.0) & (ratio <= 1.0))


def test_noise_degenerate_ranges():
    ident = ExperimentConfig(n_signals=4, m=3, n=3, s=20, p_values=(1,),
                             s_indices=(2,), noise=NoiseSpec(low=1.0, high=1.0))
    xs = gen_reference_sequence(ident)
    ys = gen_observations(xs, ident)
    for x, y in zip(xs.items, ys.items):
        assert np.allclose(y.data, x.data, atol=1e-12)
    dead = ExperimentConfig(n_signals=4, m=3, n=3, s=20, p_values=(1,),
                            s_indices=(2,), noise=NoiseSpec(low=0.0, high=0.0))
    ys0 = gen_observations(gen_reference_sequence(dead), dead)
    for y in ys0.items:
        assert np.array_equal(y.data, np.zeros((3, 20)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_noise_benchmark_completes():
    # all-zero observations: every baseline estimate is zero, so RLS and
    # Wiener both score the energy of the references
    report = run_benchmark(ExperimentConfig(noise=NoiseSpec(low=0.0, high=0.0)))
    methods = report.summary["methods"]
    assert methods["rls"]["mean_err_e"] == methods["wiener"]["mean_err_e"] > 0.0


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="s_indices"):
        validate_config(ExperimentConfig(s_indices=(0, 5)))
    with pytest.raises(ConfigError, match="s_indices"):
        validate_config(ExperimentConfig(s_indices=(5, 5, 7, 9, 11)))
    with pytest.raises(ConfigError, match="p_values"):
        validate_config(ExperimentConfig(p_values=(9,)))
    with pytest.raises(ConfigError, match="noise.kind"):
        validate_config(ExperimentConfig(noise=NoiseSpec(kind="gaussian")))
    with pytest.raises(ConfigError, match="n:"):
        validate_config(ExperimentConfig(m=4, n=6))
    with pytest.raises(ConfigError, match="rls_forgetting"):
        validate_config(ExperimentConfig(rls_forgetting=0.0))
    with pytest.raises(ConfigError, match="noise.low"):
        validate_config(ExperimentConfig(noise=NoiseSpec(low=2.0, high=1.0)))


@pytest.mark.parametrize("doc, field", [
    ({"m": "16"}, "m"),
    ({"m": True}, "m"),
    ({"s": 256.0}, "s"),
    ({"p_values": 3}, "p_values"),
    ({"s_indices": [18, "57"]}, "s_indices"),
    ({"seed": -1}, "seed"),
    ({"drift_scale": "0.1"}, "drift_scale"),
    ({"rls_delta": [1.0]}, "rls_delta"),
    ({"noise": {"low": "0"}}, "noise.low"),
    ({"include_baselines": "yes"}, "include_baselines"),
])
def test_config_field_types_name_the_field(doc, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        config_from_dict(doc)


def test_config_round_trip_and_unknown_fields():
    cfg = config_from_dict(config_to_dict(SMALL))
    assert cfg == SMALL
    assert config_from_dict({}) == ExperimentConfig()
    with pytest.raises(ConfigError, match="frobnicate"):
        config_from_dict({"frobnicate": 1})
    with pytest.raises(ConfigError, match="noise.power"):
        config_from_dict({"noise": {"power": 2}})


def test_nodes_for_uses_first_p_sorted():
    cfg = ExperimentConfig(s_indices=(18, 57, 83, 31, 70))
    assert nodes_for(cfg, 3) == [17, 56, 82]
    assert nodes_for(cfg, 5) == [17, 30, 56, 69, 82]


def test_lag_specs_pattern():
    specs = lag_specs(3)
    assert [q.lag for q in specs] == [2, 1, 0]
    assert all(q.kind == "sequence_lag" for q in specs)


def test_run_benchmark_report_structure():
    report = run_benchmark(SMALL)
    methods = {r.method for r in report.rows}
    assert methods == {"interp_p2", "interp_p3", "wiener", "rls"}
    assert len(report.rows) == 4 * SMALL.n_signals
    assert all(r.err_e >= 0.0 and r.err_f >= 0.0 for r in report.rows)
    for r in report.rows:
        assert r.err_f == pytest.approx(r.err_e * SMALL.s, rel=1e-12)
    node_rows = [r for r in report.rows if r.method == "interp_p3" and r.is_node]
    assert sorted(r.signal_index for r in node_rows) == [3, 7, 11]
    for method in ("interp_p2", "interp_p3"):
        diag = report.diagnostics[method]
        assert diag["residual_ok"]
        for gap in diag["node_gaps"]:
            assert gap["rel_gap"] <= 1e-6
    assert set(report.summary["methods"]) == methods
    assert report.timings["total"] > 0


def test_run_benchmark_without_baselines():
    cfg = ExperimentConfig(n_signals=8, m=3, n=3, s=30, p_values=(2,),
                           s_indices=(3, 6), seed=9, include_baselines=False)
    report = run_benchmark(cfg)
    assert {r.method for r in report.rows} == {"interp_p2"}


def test_report_csv_deterministic(tmp_path):
    text_a = report_csv_text(run_benchmark(SMALL).rows)
    text_b = report_csv_text(run_benchmark(SMALL).rows)
    assert text_a == text_b
    paths = write_report(run_benchmark(SMALL), tmp_path)
    assert paths["report_csv"].read_text() == text_a
    summary = json.loads(paths["summary_json"].read_text())
    assert set(summary) == {"summary", "diagnostics", "timings"}


def test_probe_constants_and_bound(tmp_path):
    cfg = ExperimentConfig(n_signals=14, m=4, n=4, s=48, p_values=(2,),
                           s_indices=(3, 7), seed=123, probe_constants=True)
    report = run_benchmark(cfg)
    diag = report.diagnostics["interp_p2"]
    consts = diag["probed_constants_lower_bounds"]
    assert all(consts[k] >= 0 for k in ("eps_x", "eps_y", "lambda_e", "lambda_q"))
    assert len(consts["r_hat"]) == 2
    for check in diag["node_bound_checks"]:
        assert check["bound"] >= check["optimal"]


def test_evaluate_forms_one_reference_cascade_per_node(monkeypatch):
    """One node pass per model gives the node gaps and the checks under both
    constant sets: p cascades with reference rows per model, not p per set."""
    cfg = replace(SMALL, probe_constants=True)
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    models = fit_benchmark_models(cfg, xs, ys)
    supplied = {"eps_x": 0.5, "eps_y": 0.25, "lambda_e": 2.0, "lambda_q": 1.5,
                "r_hat": [0.9], "x_energy": 30.0}
    calls = []

    def counted(vs, g=None, xs=()):
        calls.extend([len(xs)] if xs else [])
        return cascade_map(vs, g, xs)

    monkeypatch.setattr(interp, "cascade_map", counted)
    report = evaluate(cfg, xs, ys, models, supplied)
    monkeypatch.undo()
    assert calls == [model.p for model in models.values() for _ in range(model.p)]
    for method, model in models.items():
        diag = report.diagnostics[method]
        train = node_training_set(xs, ys, nodes_for(cfg, model.p), "s_indices")
        err_e = {r.signal_index: r.err_e for r in report.rows if r.method == method}
        for key in ("node_bound_checks", "node_bound_checks_supplied"):
            assert [c["node"] for c in diag[key]] == [k + 1 for k in train.s_y_indices]
            assert all(c["measured"] == err_e[c["node"]] for c in diag[key])
        for k, rec in enumerate(diag["node_gaps"]):
            want = node_error_decomposition(model, train, k)
            assert {key: rec[key] for key in want} == want


@pytest.mark.parametrize("seed", [0, 1])
def test_probed_constants_hold_their_exact_values_at_the_default_config(seed):
    """At the default config (p = 3 and 5): w_0 is v_0, so r_hat[0] is exactly 1;
    deflation only removes energy, so every stage gain is at most 1; the lag-0
    input is the observation itself, so lambda_q is at least 1; and the sample
    positions are the ten evenly spread ones, 1, 12, ..., 100."""
    cfg = replace(ExperimentConfig(), seed=seed)
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    models = fit_benchmark_models(cfg, xs, ys)
    assert sorted(models) == ["interp_p3", "interp_p5"]
    for model in models.values():
        consts = probe_bound_constants(xs, ys, model)
        assert len(consts["r_hat"]) == model.p
        assert consts["r_hat"][0] == 1.0
        assert all(0.0 <= g <= 1.0 + 1e-12 for g in consts["r_hat"])
        assert consts["lambda_q"] >= 1.0
        assert consts["sample_positions"] == list(range(1, 101, 11))


def trend_errors(cfg_base, seed, node_sets):
    """Mean interp error per node set (order = set size), sharing one dataset."""
    cfg = replace(cfg_base, seed=seed)
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    means = []
    for nodes in node_sets:
        p = len(nodes)
        train = TrainingSet(tuple(xs[k] for k in nodes), ys, tuple(nodes))
        model = fit(train, lag_specs(p))
        ctx = FilterContext(ys)
        errs = [
            float(np.sum((xs[i].data - apply_filter(model, ctx, i).data) ** 2)) / cfg.s
            for i in range(cfg.n_signals)
        ]
        means.append(float(np.mean(errs)))
    return means


def test_net_radius_trend_over_seeds():
    # denser center sets (smaller covering radius) should not increase the
    # mean error, in a clear majority of seeds
    base = ExperimentConfig()
    n_seeds = 20
    not_worse = 0
    for seed in range(n_seeds):
        cfg = replace(base, seed=seed)
        xs = gen_reference_sequence(cfg)
        coarse = greedy_eps_net(xs.items, 0.5)
        fine = greedy_eps_net(xs.items, 0.1)
        if len(fine.center_indices) <= len(coarse.center_indices):
            not_worse += 1  # radii tied: nothing to compare
            continue
        assert fine.achieved_eps <= coarse.achieved_eps + 1e-12
        sets = [sorted(coarse.center_indices), sorted(fine.center_indices)]
        coarse_err, fine_err = trend_errors(base, seed, sets)
        if fine_err <= coarse_err:
            not_worse += 1
    assert not_worse >= int(0.8 * n_seeds)
