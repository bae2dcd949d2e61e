import json

import pytest

from iflt.cli import cli_main
from iflt.sigio import load_sequence, read_ensemble
from iflt.analysis import ensemble_sq_distance

SMALL_CFG = {
    "n_signals": 12,
    "m": 4,
    "n": 4,
    "s": 40,
    "p_values": [2, 3],
    "s_indices": [3, 7, 11],
    "seed": 77,
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CFG))
    return path


def test_bench_smoke(tmp_path, cfg_path, capsys):
    out = tmp_path / "bench"
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "report.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "model_interp_p2.json").exists()
    assert (out / "model_interp_p3.json").exists()
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "method,signal_index,err_E,err_F,is_node"


def test_missing_config_exit_1(tmp_path, capsys):
    code = cli_main(["bench", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 1


def test_unknown_flag_exit_1(tmp_path, capsys):
    assert cli_main(["bench", "--out", str(tmp_path), "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_invalid_config_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 4, "n": 5}))
    assert cli_main(["bench", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_no_command_prints_usage(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_gen_fit_eval_reproduces_bench(tmp_path, cfg_path, capsys):
    data = tmp_path / "data"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    refs = data / "refs_manifest.json"
    obs = data / "obs_manifest.json"
    models = []
    for p in (2, 3):
        model_path = tmp_path / f"m{p}.json"
        assert cli_main([
            "fit", "--config", str(cfg_path), "--refs", str(refs),
            "--obs", str(obs), "--p", str(p), "--out", str(model_path),
        ]) == 0
        models.append(model_path)
    evald = tmp_path / "evald"
    args = ["eval", "--config", str(cfg_path), "--refs", str(refs),
            "--obs", str(obs), "--baselines", "--out", str(evald)]
    for m in models:
        args.extend(["--model", str(m)])
    assert cli_main(args) == 0
    benchd = tmp_path / "benchd"
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(benchd)]) == 0
    assert (evald / "report.csv").read_bytes() == (benchd / "report.csv").read_bytes()


def test_bench_deterministic_bytes(tmp_path, cfg_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


def test_seed_override_changes_report(tmp_path, cfg_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["bench", "--config", str(cfg_path), "--seed", "99",
                     "--out", str(out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() != (out_b / "report.csv").read_bytes()


def test_apply_writes_readable_estimate(tmp_path, cfg_path, capsys):
    data = tmp_path / "data"
    cli_main(["gen", "--config", str(cfg_path), "--out", str(data)])
    model_path = tmp_path / "m2.json"
    cli_main(["fit", "--config", str(cfg_path), "--refs", str(data / "refs_manifest.json"),
              "--obs", str(data / "obs_manifest.json"), "--p", "2",
              "--out", str(model_path)])
    est = tmp_path / "est.iflt"
    assert cli_main(["apply", "--model", str(model_path),
                     "--obs", str(data / "obs_manifest.json"),
                     "--index", "5", "--out", str(est)]) == 0
    e = read_ensemble(est)
    assert (e.m, e.s) == (SMALL_CFG["m"], SMALL_CFG["s"])
    est_fixed = tmp_path / "est_fixed.csv"
    assert cli_main(["apply", "--model", str(model_path),
                     "--obs", str(data / "obs_manifest.json"),
                     "--index", "5", "--fixed-r", "--format", "csv",
                     "--out", str(est_fixed)]) == 0
    assert read_ensemble(est_fixed).m == SMALL_CFG["m"]


def test_eval_requires_something(tmp_path, cfg_path, capsys):
    data = tmp_path / "data"
    cli_main(["gen", "--config", str(cfg_path), "--out", str(data)])
    code = cli_main(["eval", "--config", str(cfg_path),
                     "--refs", str(data / "refs_manifest.json"),
                     "--obs", str(data / "obs_manifest.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 1


def test_epsnet_covers_pool(tmp_path, cfg_path, capsys):
    data = tmp_path / "data"
    cli_main(["gen", "--config", str(cfg_path), "--out", str(data)])
    out = tmp_path / "net.json"
    assert cli_main(["epsnet", "--data", str(data / "refs_manifest.json"),
                     "--eps", "0.4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["achieved_eps"] <= 0.4
    seq = load_sequence(data / "refs_manifest.json")
    centers = [p - 1 for p in doc["center_positions"]]
    for cand in seq.items:
        assert min(
            ensemble_sq_distance(cand, seq[c]) for c in centers
        ) <= 0.4


def test_gen_csv_format(tmp_path, cfg_path, capsys):
    data = tmp_path / "data_csv"
    assert cli_main(["gen", "--config", str(cfg_path), "--format", "csv",
                     "--out", str(data)]) == 0
    seq = load_sequence(data / "obs_manifest.json")
    assert len(seq) == SMALL_CFG["n_signals"]


def test_rls_flags_change_baseline_rows(tmp_path, cfg_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(out_b),
                     "--rls-lambda", "0.8", "--rls-delta", "3.0"]) == 0

    def rls_rows(path):
        return [l for l in (path / "report.csv").read_text().splitlines()
                if l.startswith("rls,")]

    def interp_rows(path):
        return [l for l in (path / "report.csv").read_text().splitlines()
                if l.startswith("interp")]

    assert rls_rows(out_a) != rls_rows(out_b)
    assert interp_rows(out_a) == interp_rows(out_b)


def test_bound_constants_file(tmp_path, cfg_path, capsys):
    consts = tmp_path / "consts.json"
    consts.write_text(json.dumps({
        "eps_x": 0.5, "eps_y": 0.5, "lambda_e": 2.0, "lambda_q": 2.0,
        "r_hat": [1.5], "x_energy": 10.0,
    }))
    out = tmp_path / "bench"
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(out),
                     "--bound-constants", str(consts)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    diag = summary["diagnostics"]["interp_p3"]
    assert diag["supplied_constants"]["eps_x"] == 0.5
    checks = diag["node_bound_checks_supplied"]
    assert len(checks) == 3
    for check in checks:
        assert check["bound"] >= check["optimal"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"eps_x": -1.0, "eps_y": 0, "lambda_e": 0,
                               "lambda_q": 0, "r_hat": [1.0], "x_energy": 1.0}))
    assert cli_main(["bench", "--config", str(cfg_path), "--out", str(out),
                     "--bound-constants", str(bad)]) == 1


def _gen_and_fit(tmp_path, cfg_path):
    data = tmp_path / "data"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    model_path = tmp_path / "m2.json"
    assert cli_main(["fit", "--config", str(cfg_path),
                     "--refs", str(data / "refs_manifest.json"),
                     "--obs", str(data / "obs_manifest.json"), "--p", "2",
                     "--out", str(model_path)]) == 0
    return data / "obs_manifest.json", model_path


def _apply_error(tmp_path, capsys, model_path, obs, index, *extra) -> str:
    """Run ``iflt apply``, require exit 1 without a traceback, return stderr."""
    capsys.readouterr()
    code = cli_main(["apply", "--model", str(model_path), "--obs", str(obs),
                     "--index", str(index), "--out", str(tmp_path / "est.iflt"),
                     *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    return err


def test_apply_rejects_model_of_other_component_count(tmp_path, cfg_path, capsys):
    obs, _ = _gen_and_fit(tmp_path, cfg_path)
    model_path = tmp_path / "m3.json"
    model_path.write_text(json.dumps({
        "version": 1, "p": 1, "q_specs": [{"kind": "identity"}],
        "t_mats": [[[1.0, 0.0, 0.0]] * 3],
    }))
    err = _apply_error(tmp_path, capsys, model_path, obs, 5)
    assert "t_mats have 3 columns" in err and "4 components" in err


def test_apply_index_out_of_range_reports_cli_positions(tmp_path, cfg_path, capsys):
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    n = SMALL_CFG["n_signals"]
    for index in (0, n + 1):
        err = _apply_error(tmp_path, capsys, model_path, obs, index)
        assert f"--index {index} out of range [1, {n}]" in err


def test_apply_fixed_r_rejects_missing_deflation_rows(tmp_path, cfg_path, capsys):
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    doc = json.loads(model_path.read_text())
    doc["r_mats"] = [[], []]
    model_path.write_text(json.dumps(doc))
    err = _apply_error(tmp_path, capsys, model_path, obs, 5, "--fixed-r")
    assert "r_mats[1]" in err


def test_apply_fixed_r_rejects_non_finite_deflation_matrix(tmp_path, cfg_path, capsys):
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    doc = json.loads(model_path.read_text())
    doc["r_mats"][1][0][0][0] = float("nan")
    model_path.write_text(json.dumps(doc))
    err = _apply_error(tmp_path, capsys, model_path, obs, 5, "--fixed-r")
    assert "r_mats[1][0] contains non-finite entries" in err
