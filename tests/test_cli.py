import json
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from iflt import cli, sigio
from iflt.bench import lag_specs
from iflt.cli import cli_main
from iflt.interp import FilterContext, apply_filter, fit, save_model
from iflt.signals import Ensemble, SignalSequence, TrainingSet
from iflt.sigio import load_sequence, read_ensemble, write_ensemble_bin
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
    evals = json.loads((evald / "summary.json").read_text())
    benchs = json.loads((benchd / "summary.json").read_text())
    assert set(evals) == set(benchs) == {"summary", "diagnostics", "timings"}
    for block in ("summary", "diagnostics"):
        assert evals[block] == benchs[block]


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


@pytest.mark.parametrize("eps, shown", [("inf", "inf"), ("nan", "nan"), ("1e400", "inf"),
                                         ("0", "0.0")])
def test_epsnet_refuses_an_eps_not_positive_and_finite(tmp_path, cfg_path, capsys, eps, shown):
    # the message used to say "eps must be positive" for inf as well
    data = tmp_path / "data"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    err = _cli_error(capsys, ["epsnet", "--data", str(data / "refs_manifest.json"),
                              "--eps", eps, "--out", str(tmp_path / "net.json")])
    assert f"error: --eps must be positive and finite, got {shown}" in err
    assert not (tmp_path / "net.json").exists()


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


def _cli_error(capsys, argv) -> str:
    """Run ``iflt``, require exit 1 without a traceback, return stderr."""
    capsys.readouterr()
    code = cli_main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    return err


def _apply_error(tmp_path, capsys, model_path, obs, index, *extra) -> str:
    """Run ``iflt apply``, require exit 1 without a traceback, return stderr."""
    return _cli_error(capsys, ["apply", "--model", str(model_path), "--obs", str(obs),
                               "--index", str(index), "--out", str(tmp_path / "est.iflt"),
                               *extra])


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


@pytest.mark.parametrize("doc, field", [
    ({"m": 4, "s": 40, "files": "abc"}, "files"),
    ({"m": "16", "s": 40, "files": ["a.csv"]}, "m"),
    ({"m": 4, "s": True, "files": ["a.csv"]}, "s"),
])
def test_manifest_field_errors_exit_1(tmp_path, capsys, doc, field):
    manifest = tmp_path / "obs_manifest.json"
    manifest.write_text(json.dumps(doc))
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps({
        "version": 1, "p": 1, "q_specs": [{"kind": "identity"}],
        "t_mats": [[[1.0, 0.0], [0.0, 1.0]]],
    }))
    for argv in (["epsnet", "--data", str(manifest), "--eps", "0.1"],
                 ["apply", "--model", str(model_path), "--obs", str(manifest),
                  "--index", "1"]):
        err = _cli_error(capsys, [*argv, "--out", str(tmp_path / "out")])
        assert f"manifest {field} must be" in err


@pytest.mark.parametrize("doc, field", [({"m": "16"}, "m"), ({"p_values": 3}, "p_values")])
def test_config_field_type_errors_exit_1(tmp_path, capsys, doc, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    err = _cli_error(capsys, ["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert f"error: {field}: must be" in err


@pytest.mark.parametrize("doc, field", [
    ({"noise": {"low": -1e308, "high": 1e308}}, "noise.low/high"),
    ({"drift_scale": float("nan")}, "drift_scale"),
    ({"drift_scale": float("inf")}, "drift_scale"),
    ({"rls_delta": float("nan")}, "rls_delta"),
    ({"rls_delta": float("inf")}, "rls_delta"),
    ({"residual_tol": float("nan")}, "residual_tol"),
    ({"residual_tol": float("inf")}, "residual_tol"),
])
def test_config_numbers_out_of_range_exit_1(tmp_path, capsys, doc, field):
    # NaN and Infinity are JSON extensions that Python's json reads and writes;
    # high - low of the noise overflows to Infinity
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _cli_error(capsys, ["bench", "--config", str(cfg),
                                  "--out", str(tmp_path / "o")])
    assert f"error: {field}: must be" in err
    assert not caught


@pytest.mark.parametrize("doc, field", [
    pytest.param({"noise": {"low": 0, "high": 10 ** 310}}, "noise.high", id="int-noise"),
    pytest.param({"drift_scale": 10 ** 310}, "drift_scale", id="int-drift"),
    pytest.param({"noise": {"low": 0, "high": 1e300}}, "noise.low/high", id="noise"),
    pytest.param({"drift_scale": 1e300}, "drift_scale", id="drift"),
])
def test_config_numbers_too_large_for_the_data_exit_1(tmp_path, capsys, doc, field):
    # a JSON integer no float holds, and finite numbers whose data have
    # covariances that overflow
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    err = _cli_error(capsys, ["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert f"error: {field}: " in err


@pytest.mark.parametrize("doc, field", [
    pytest.param({"base_rank": 10 ** 9}, "base_rank", id="base_rank"),
    pytest.param({"n_signals": 10 ** 6, "m": 1000, "n": 1000}, "n_signals/m/s", id="sequence"),
    pytest.param({"s": 10 ** 12}, "n_signals/m/s", id="realizations"),
])
def test_config_sizes_beyond_an_array_exit_1_before_allocating(tmp_path, capsys, doc, field):
    # each would ask for many GiB; the config is refused naming the field,
    # with nothing near that size allocated first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        err = _cli_error(capsys, ["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"error: {field}: " in err and "GiB" in err
    assert peak < 1 << 20


@pytest.mark.filterwarnings("error")
def test_bound_beyond_the_float_range_exits_1_naming_it(tmp_path, capsys):
    # at drift 1e100 the probed bound lies beyond the largest float: no
    # overflow warning, no Infinity in the summary, and nothing written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"probe_constants": True, "drift_scale": 1e100,
                               "n_signals": 20, "m": 4, "n": 4, "s": 48,
                               "p_values": [2], "s_indices": [3, 7]}))
    err = _cli_error(capsys, ["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert ("error: summary.json: diagnostics.interp_p2.node_bound_checks[0].bound "
            "is not finite") in err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("low", [1e-60, 1e-100])
def test_probed_lambda_e_beyond_the_float_range_exits_1_naming_it(tmp_path, capsys, low):
    # the probe's ||D_j^+ - D_j'^+||^2 / d(w_j, w_j') grows like the data
    # scale to the power -6: at these noise levels it passes the largest float
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"low": low, "high": 2 * low}, "n_signals": 30,
                               "m": 4, "n": 4, "s": 40, "s_indices": [3, 9, 17, 22, 28]}))
    err = _cli_error(capsys, ["bench", "--config", str(cfg), "--probe-constants",
                              "--out", str(tmp_path / "o")])
    assert "error: probed bound constant lambda_e is beyond the largest float" in err
    assert not (tmp_path / "o").exists()


_FIT_ARGS = ["--config", "{cfg}", "--refs", "{refs}", "--obs", "{obs}"]


@pytest.mark.parametrize("bad, argv", [
    pytest.param("cfg.json", ["bench", "--config", "{bad}"], id="bench-config"),
    pytest.param("c.json", ["bench", "--config", "{cfg}", "--bound-constants", "{bad}"],
                 id="bound-constants"),
    pytest.param("data/obs_manifest.json", ["epsnet", "--data", "{bad}", "--eps", "0.1"],
                 id="epsnet-manifest"),
    pytest.param("data/obs_0005.csv", ["epsnet", "--data", "{obs}", "--eps", "0.1"],
                 id="epsnet-csv"),
    pytest.param("data/refs_0002.csv", ["fit", *_FIT_ARGS, "--p", "2"], id="fit-csv"),
    pytest.param("data/obs_0004.csv", ["eval", *_FIT_ARGS, "--baselines"], id="eval-csv"),
    pytest.param("data/obs_0002.csv", ["apply", "--model", "{model}", "--obs", "{obs}",
                                       "--index", "3"], id="apply-csv"),
    pytest.param("m.json", ["apply", "--model", "{bad}", "--obs", "{obs}", "--index", "3"],
                 id="apply-model"),
])
def test_non_utf8_input_file_exits_1_naming_it(tmp_path, cfg_path, capsys, bad, argv):
    data, model = tmp_path / "data", tmp_path / "m.json"
    paths = {"bad": tmp_path / bad, "cfg": cfg_path, "model": model,
             "refs": data / "refs_manifest.json", "obs": data / "obs_manifest.json"}
    assert cli_main(["gen", "--config", str(cfg_path), "--format", "csv",
                     "--out", str(data)]) == 0
    assert cli_main(["fit", *[a.format(**paths) for a in _FIT_ARGS], "--p", "2",
                     "--out", str(model)]) == 0
    paths["bad"].write_bytes(b"\xff\xfe not UTF-8\n")
    err = _cli_error(capsys, [a.format(**paths) for a in argv]
                     + ["--out", str(tmp_path / "out")])
    assert str(paths["bad"]) in err


def test_fit_nodes_past_the_data_exit_1(tmp_path, cfg_path, capsys):
    data = tmp_path / "data"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    err = _cli_error(capsys, ["fit", "--refs", str(data / "refs_manifest.json"),
                              "--obs", str(data / "obs_manifest.json"), "--p", "2",
                              "--out", str(tmp_path / "m.json")])
    assert "s_indices: position 57 is past the end of the data (12 positions)" in err


@pytest.mark.parametrize("p", [0, -1, 4])
def test_fit_order_out_of_range_exits_1(tmp_path, cfg_path, capsys, p):
    data = tmp_path / "data"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    err = _cli_error(capsys, ["fit", "--config", str(cfg_path),
                              "--refs", str(data / "refs_manifest.json"),
                              "--obs", str(data / "obs_manifest.json"), "--p", str(p),
                              "--out", str(tmp_path / "m.json")])
    assert f"error: --p {p} out of range [1, 3]" in err
    assert not (tmp_path / "m.json").exists()


def test_manifest_file_name_with_a_nul_byte_exits_1(tmp_path, cfg_path, capsys):
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    doc = json.loads(obs.read_text())
    doc["files"][0] += "\0"
    obs.write_text(json.dumps(doc))
    for argv in (["epsnet", "--data", str(obs), "--eps", "0.1"],
                 ["apply", "--model", str(model_path), "--obs", str(obs), "--index", "1"]):
        err = _cli_error(capsys, [*argv, "--out", str(tmp_path / "out")])
        assert f"{obs}: manifest files[0] 'obs_0000.iflt\\x00' holds a NUL byte" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bench_with_subnormal_covariances_completes(tmp_path, capsys):
    # observation covariances near 1e-320: their subnormal singular values
    # count as zero, so every method estimates zero
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"low": 1e-160, "high": 1e-160}, "m": 4, "n": 4,
                               "s": 48, "p_values": [2], "s_indices": [3, 7]}))
    out = tmp_path / "bench"
    assert cli_main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    methods = json.loads((out / "summary.json").read_text())["summary"]["methods"]
    assert methods["interp_p2"]["mean_err_e"] == methods["wiener"]["mean_err_e"] \
        == methods["rls"]["mean_err_e"] > 0.0


def test_bench_probes_constants_when_observations_equal_the_references(tmp_path, capsys):
    # every reference lies in the span of its node's cascade outputs, so the
    # optimum is zero up to rounding, which can leave it slightly negative
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"low": 1.0, "high": 1.0}}))
    out = tmp_path / "bench"
    assert cli_main(["bench", "--config", str(cfg), "--probe-constants",
                     "--out", str(out)]) == 0
    diagnostics = json.loads((out / "summary.json").read_text())["diagnostics"]
    for method in ("interp_p3", "interp_p5"):
        checks = diagnostics[method]["node_bound_checks"]
        assert checks and all(c["bound"] >= c["optimal"] >= 0.0 for c in checks)


FIT_CFG = {**SMALL_CFG, "p_values": [5], "s_indices": [3, 5, 7, 9, 11]}


def test_fit_and_apply_read_only_the_files_they_use(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FIT_CFG))
    data = tmp_path / "data"
    assert cli_main(["gen", "--config", str(cfg_path), "--format", "csv",
                     "--out", str(data)]) == 0
    refs, obs = data / "refs_manifest.json", data / "obs_manifest.json"
    reads, in_library = [], []
    read_ensemble = sigio.read_ensemble

    def counting_read(path, *args, **kwargs):
        assert not in_library, f"{path.name} read inside fit/apply_filter"
        reads.append(path.name)
        return read_ensemble(path, *args, **kwargs)

    def without_io(fn):
        def wrapped(*args, **kwargs):
            in_library.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                in_library.pop()
        return wrapped

    monkeypatch.setattr(sigio, "read_ensemble", counting_read)
    monkeypatch.setattr(cli, "fit", without_io(cli.fit))
    monkeypatch.setattr(cli, "apply_filter", without_io(cli.apply_filter))
    model_path = tmp_path / "m5.json"
    assert cli_main(["fit", "--config", str(cfg_path), "--refs", str(refs),
                     "--obs", str(obs), "--p", "5", "--out", str(model_path)]) == 0
    nodes = [i - 1 for i in FIT_CFG["s_indices"]]
    windows = {max(0, k - lag) for k in nodes for lag in range(5)}
    assert sorted(reads) == sorted([f"refs_{k:04d}.csv" for k in nodes]
                                   + [f"obs_{i:04d}.csv" for i in windows])
    assert len(windows) <= 25

    estimates = {}
    for index, fixed_r, files in ((1, [], 1), (9, ["--fixed-r"], 5), (9, [], 5)):
        reads.clear()
        est = tmp_path / f"est_{index}_{len(fixed_r)}.iflt"
        assert cli_main(["apply", "--model", str(model_path), "--obs", str(obs),
                         "--index", str(index), "--out", str(est), *fixed_r]) == 0
        assert len(reads) == len(set(reads)) == files
        estimates[est] = (index - 1, bool(fixed_r))
    monkeypatch.undo()

    xs, ys = load_sequence(refs), load_sequence(obs)
    train = TrainingSet(tuple(xs[k] for k in nodes), ys, tuple(nodes))
    model = fit(train, lag_specs(5))
    assert model_path.read_bytes() == save_model(model)
    for est, (i, fixed_r) in estimates.items():
        write_ensemble_bin(tmp_path / "eager.iflt",
                           apply_filter(model, FilterContext(ys), i, fixed_r=fixed_r))
        assert est.read_bytes() == (tmp_path / "eager.iflt").read_bytes()


def _eval_argv(data, out, *models):
    argv = ["eval", "--refs", str(data / "refs_manifest.json"),
            "--obs", str(data / "obs_manifest.json"), "--out", str(out)]
    for model in models:
        argv.extend(["--model", str(model)])
    return argv


def test_eval_probes_constants_when_the_config_asks(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL_CFG, "probe_constants": True}))
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    out = tmp_path / "eval"
    assert cli_main([*_eval_argv(obs.parent, out, model_path),
                     "--config", str(cfg_path)]) == 0
    diag = json.loads((out / "summary.json").read_text())["diagnostics"]["interp_p2"]
    assert [c["node"] for c in diag["node_bound_checks"]] == [3, 7]
    assert set(diag["probed_constants_lower_bounds"]) == {
        "eps_x", "eps_y", "lambda_e", "lambda_q", "r_hat", "x_energy"}


def test_eval_rejects_two_models_of_one_order(tmp_path, cfg_path, capsys):
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    copy = tmp_path / "copy.json"
    copy.write_bytes(model_path.read_bytes())
    err = _cli_error(capsys, _eval_argv(obs.parent, tmp_path / "eval", model_path, copy))
    assert f"--model {model_path} and {copy} are both interp_p2" in err
    assert not (tmp_path / "eval").exists()


BAD_NODES = "meta.node_positions must be 2 strictly increasing nonnegative integers"


@pytest.mark.parametrize("nodes, message", [
    ([2, 20], "interp_p2 meta.node_positions: position 21 is past the end of the data "
              "(12 positions)"),
    ([2], BAD_NODES),
    (["a", "b"], BAD_NODES),
], ids=["past-the-end", "too-few", "strings"])
def test_eval_rejects_bad_node_positions(tmp_path, cfg_path, capsys, nodes, message):
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    doc = json.loads(model_path.read_text())
    doc["meta"]["node_positions"] = nodes
    model_path.write_text(json.dumps(doc))
    err = _cli_error(capsys, _eval_argv(obs.parent, tmp_path / "eval", model_path))
    assert message in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bench_at_tiny_scale_completes(tmp_path, capsys):
    # observations near 1e-170, whose squares underflow unless the centering
    # test scales each row first
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"low": 1e-170, "high": 1e-170}, "m": 4, "n": 4,
                               "s": 48, "n_signals": 12, "p_values": [2],
                               "s_indices": [3, 7]}))
    assert cli_main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0


def _truncated_manifest(path, keep: int):
    """A copy of the manifest at ``path`` listing only its first ``keep`` files."""
    doc = json.loads(path.read_text())
    doc["files"] = doc["files"][:keep]
    short = path.with_name(f"short_{path.name}")
    short.write_text(json.dumps(doc))
    return short


@pytest.mark.parametrize("short, extra", [
    ("obs", ["--baselines"]),
    ("obs", ["--model"]),
    ("refs", ["--model"]),
], ids=["fewer-observations-baselines", "fewer-observations-model", "fewer-references"])
def test_eval_rejects_sequences_of_unequal_length(tmp_path, cfg_path, capsys, short, extra):
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    refs = obs.with_name("refs_manifest.json")
    if short == "obs":
        obs = _truncated_manifest(obs, 10)
    else:
        refs = _truncated_manifest(refs, 10)
    if extra == ["--model"]:
        extra = ["--model", str(model_path)]
    err = _cli_error(capsys, ["eval", "--config", str(cfg_path), "--refs", str(refs),
                              "--obs", str(obs), "--out", str(tmp_path / "eval"), *extra])
    n_refs, n_obs = (12, 10) if short == "obs" else (10, 12)
    assert (f"--refs {refs} has {n_refs} positions but --obs {obs} has {n_obs}; "
            "they must have the same length") in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("edit, other, extra", [
    ({"m": 2, "n": 2}, "refs", "--model"),
    ({"m": 2, "n": 2}, "obs", "--model"),
    ({"s": 30}, "refs", "--model"),
    ({"s": 30}, "refs", "--baselines"),
], ids=["fewer-reference-components", "fewer-observation-components",
        "fewer-realizations-model", "fewer-realizations-baselines"])
def test_eval_rejects_sequences_of_another_shape(tmp_path, cfg_path, capsys, edit, other, extra):
    # one sequence from data of another shape: refused before any filter is
    # applied, naming the flags (and the model)
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    refs = obs.with_name("refs_manifest.json")
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps({**SMALL_CFG, **edit}))
    assert cli_main(["gen", "--config", str(other_cfg), "--out", str(tmp_path / "other")]) == 0
    if other == "refs":
        refs = tmp_path / "other" / "refs_manifest.json"
    else:
        obs = tmp_path / "other" / "obs_manifest.json"
    err = _cli_error(capsys, ["eval", "--config", str(cfg_path), "--refs", str(refs),
                              "--obs", str(obs), "--out", str(tmp_path / "eval"),
                              *(["--model", str(model_path)] if extra == "--model"
                                else ["--baselines"])])
    if "s" in edit:
        assert (f"--refs {refs} has 30 realizations but --obs {obs} has 40; "
                "they must have the same realization count") in err
    else:
        m_refs, m_obs = (2, 4) if other == "refs" else (4, 2)
        assert (f"interp_p2 maps 4 components to 4, but --obs {obs} has {m_obs} and "
                f"--refs {refs} has {m_refs}") in err
    assert not (tmp_path / "eval").exists()


def test_apply_on_a_history_shorter_than_the_lags(tmp_path, cfg_path):
    # an order-3 filter lags up to 2 positions, and lags clamp to the start:
    # at position 2 of a 2-position manifest it writes the bytes it writes
    # at position 2 of the whole sequence, in both modes
    data = tmp_path / "data"
    assert cli_main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    obs, model_path = data / "obs_manifest.json", tmp_path / "m3.json"
    assert cli_main(["fit", "--config", str(cfg_path), "--refs", str(data / "refs_manifest.json"),
                     "--obs", str(obs), "--p", "3", "--out", str(model_path)]) == 0
    short = _truncated_manifest(obs, 2)
    for flags in ([], ["--fixed-r"]):
        written = []
        for k, manifest in enumerate((short, obs)):
            out = tmp_path / f"est{k}.iflt"
            assert cli_main(["apply", "--model", str(model_path), "--obs", str(manifest),
                             "--index", "2", "--out", str(out), *flags]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


def test_epsnet_reads_csv_files_holding_a_constant_row(tmp_path, capsys):
    rng = np.random.default_rng(3)
    names = []
    for k in range(3):
        name = f"e{k}.csv"
        rows = [[0.1] * 6, rng.normal(size=6).tolist()]
        (tmp_path / name).write_text("\n".join(",".join(map(repr, r)) for r in rows) + "\n")
        names.append(name)
    manifest = tmp_path / "manifest.json"
    sigio.write_manifest(manifest, names, 2, 6)
    out = tmp_path / "net.json"
    assert cli_main(["epsnet", "--data", str(manifest), "--eps", "0.5",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["center_positions"][0] == 1


@pytest.mark.parametrize("fmt, data, message", [
    ("csv", [[0.0, float("nan")], [1.0, -1.0]], "non-finite entries"),
    ("csv", [[1.0], [2.0]], "at least two realizations"),
    ("bin", [[0.0, float("inf")], [1.0, -1.0]], "non-finite entries"),
    ("bin", [[1.0], [2.0]], "at least two realizations"),
])
def test_ensemble_file_errors_name_the_file(tmp_path, capsys, fmt, data, message):
    bad = tmp_path / f"bad.{fmt}"
    arr = np.asarray(data)
    if fmt == "csv":
        bad.write_text("\n".join(",".join(map(repr, row)) for row in arr.tolist()) + "\n")
    else:
        bad.write_bytes(sigio.MAGIC + sigio.struct.pack("<III", sigio.BIN_VERSION, *arr.shape)
                        + arr.astype("<f8").tobytes())
    manifest = tmp_path / "manifest.json"
    sigio.write_manifest(manifest, [bad.name], *arr.shape)
    err = _cli_error(capsys, ["epsnet", "--data", str(manifest), "--eps", "0.1",
                              "--out", str(tmp_path / "net.json")])
    assert f"error: {bad}: " in err and message in err


@pytest.mark.parametrize("argv", [
    ["epsnet", "--data", "{manifest}", "--eps", "0.1", "--out", "{tmp}/net.json"],
    ["apply", "--model", "{model}", "--obs", "{manifest}", "--index", "1",
     "--out", "{tmp}/est.iflt"],
], ids=["epsnet", "apply"])
def test_file_of_zero_components_exits_1_naming_it(tmp_path, cfg_path, capsys, argv):
    # a 16-byte file: the header, with m = 0 and s = 2, and no data
    _, model_path = _gen_and_fit(tmp_path, cfg_path)
    empty = tmp_path / "empty.iflt"
    empty.write_bytes(sigio.MAGIC + sigio.struct.pack("<III", sigio.BIN_VERSION, 0, 2))
    manifest = tmp_path / "manifest.json"
    sigio.write_manifest(manifest, [empty.name], 4, 2)
    err = _cli_error(capsys, [a.format(manifest=manifest, model=model_path, tmp=tmp_path)
                              for a in argv])
    assert "error: empty.iflt: shape (0, 2) does not match manifest (4, 2)" in err


def test_apply_of_gapped_lags_reads_only_their_files(tmp_path, capsys):
    # lags {3, 0} at --index 8 read obs_0004 and obs_0007: obs_0005 and
    # obs_0006 may be missing and unreadable, and the estimate is the same
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CFG, "m": 3, "n": 3, "s": 30}))
    data = tmp_path / "data"
    assert cli_main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    rng = np.random.default_rng(5)
    model_path = tmp_path / "gapped.json"
    model_path.write_text(json.dumps({
        "version": 1, "p": 2, "q_specs": [{"kind": "sequence_lag", "lag": 3},
                                          {"kind": "identity"}],
        "t_mats": [rng.normal(size=(3, 3)).tolist() for _ in range(2)],
        "r_mats": [[], [rng.normal(size=(3, 3)).tolist()]]}))
    obs = data / "obs_manifest.json"
    argv = ["apply", "--model", str(model_path), "--obs", str(obs), "--index", "8"]
    for fixed_r in ([], ["--fixed-r"]):
        assert cli_main([*argv, "--out", str(tmp_path / "want.iflt"), *fixed_r]) == 0
        (data / "obs_0005.iflt").write_bytes(b"not an ensemble")
        (data / "obs_0006.iflt").unlink(missing_ok=True)
        assert cli_main([*argv, "--out", str(tmp_path / "got.iflt"), *fixed_r]) == 0
        assert (tmp_path / "got.iflt").read_bytes() == (tmp_path / "want.iflt").read_bytes()
        assert cli_main(["gen", "--config", str(cfg), "--out", str(data)]) == 0


@pytest.mark.parametrize("spec", [5, "identity", None, [{"kind": "identity"}]])
def test_model_with_a_non_object_transform_spec_exits_1(tmp_path, cfg_path, capsys, spec):
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    doc = json.loads(model_path.read_text())
    doc["q_specs"][1] = spec
    model_path.write_text(json.dumps(doc))
    err = _apply_error(tmp_path, capsys, model_path, obs, 5)
    assert f"{model_path}: q_specs[1]: a transform spec must be an object" in err
    err = _cli_error(capsys, ["eval", "--refs", str(obs.with_name("refs_manifest.json")),
                              "--obs", str(obs), "--model", str(model_path),
                              "--out", str(tmp_path / "eval")])
    assert "q_specs[1]" in err


@pytest.mark.parametrize("spec, message", [
    ({"kind": "sequence_lag", "lag": 1.0}, "lag must be a nonnegative integer"),
    ({"kind": "sequence_lag", "lag": True}, "lag must be a nonnegative integer"),
    ({"kind": "sequence_lag", "lag": 1e300}, "lag must be a nonnegative integer"),
    ({"kind": "identity", "lag": 3}, "an identity transform has lag 0, got 3"),
], ids=["float", "bool", "huge-float", "identity-lag"])
def test_model_with_a_non_integer_lag_exits_1(tmp_path, cfg_path, capsys, spec, message):
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    doc = json.loads(model_path.read_text())
    doc["q_specs"][1] = spec
    model_path.write_text(json.dumps(doc))
    for extra in ([], ["--fixed-r"]):
        err = _apply_error(tmp_path, capsys, model_path, obs, 5, *extra)
        assert f"{model_path}: q_specs[1]: {message}" in err


@pytest.mark.parametrize("spec", [
    {"kind": "component_shift", "lag": 1},
    {"kind": "weighted_prefix_sum", "weights": [1e300, 1e300]},
], ids=["component_shift", "weighted_prefix_sum"])
def test_model_with_a_deleted_transform_kind_exits_1(tmp_path, cfg_path, capsys, spec):
    # every transform is a lag, so these kinds are rejected when the model loads
    obs, model_path = _gen_and_fit(tmp_path, cfg_path)
    doc = json.loads(model_path.read_text())
    doc["q_specs"][1] = spec
    model_path.write_text(json.dumps(doc))
    message = f"{model_path}: q_specs[1]: unknown transform kind '{spec['kind']}'"
    for extra in ([], ["--fixed-r"]):
        assert message in _apply_error(tmp_path, capsys, model_path, obs, 5, *extra)
    assert message in _cli_error(capsys, [
        "eval", "--refs", str(obs.with_name("refs_manifest.json")), "--obs", str(obs),
        "--model", str(model_path), "--out", str(tmp_path / "eval")])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_and_apply_on_overflowing_data_exit_1(tmp_path, capsys):
    # covariances of data scaled by 1e160 overflow; the cascade used to read
    # the infinite Gram matrix as zero outputs and give an all-zero filter
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CFG, "m": 3, "n": 3, "s": 30, "p_values": [2]}))
    obs, model_path = _gen_and_fit(tmp_path, cfg)
    for name in ("refs", "obs"):
        seq = load_sequence(obs.with_name(f"{name}_manifest.json"))
        sigio.save_sequence(tmp_path / "big", name, SignalSequence(
            tuple(Ensemble(1e160 * e.data, centered=True) for e in seq.items)))
    big = tmp_path / "big"
    err = _cli_error(capsys, ["fit", "--config", str(cfg), "--refs",
                              str(big / "refs_manifest.json"), "--obs",
                              str(big / "obs_manifest.json"), "--p", "2",
                              "--out", str(tmp_path / "big.json")])
    assert "covariance overflows" in err
    assert not (tmp_path / "big.json").exists()
    err = _apply_error(tmp_path, capsys, model_path, big / "obs_manifest.json", 5)
    assert "covariance overflows" in err


def test_apply_and_eval_of_an_overflowing_estimate_exit_1_naming_the_position(tmp_path,
                                                                            capsys):
    # t_mats of 1e308 are finite, so the model loads, but every estimate
    # overflows: numpy used to warn, and the error named no position
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CFG, "m": 3, "n": 3, "s": 30, "p_values": [2]}))
    obs, model_path = _gen_and_fit(tmp_path, cfg)
    doc = json.loads(model_path.read_text())
    doc["t_mats"] = [[[1e308] * 3] * 3] * 2
    model_path.write_text(json.dumps(doc))
    errs = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for extra in ((), ("--fixed-r",)):
            errs.append(_apply_error(tmp_path, capsys, model_path, obs, 5, *extra))
        errs.append(_cli_error(capsys, [*_eval_argv(obs.parent, tmp_path / "eval", model_path),
                                        "--config", str(cfg)]))
    assert not caught
    for err, i in zip(errs, (5, 5, 1), strict=True):  # 1-based, as --index
        assert f"the estimate at sequence position {i} from the model's t_mats overflows" in err
        assert "RuntimeWarning" not in err


def test_eval_of_an_overflowing_error_exits_1_naming_the_position_or_the_mean(tmp_path,
                                                                            capsys):
    # the estimates of a c * I model on the default data are finite, but at
    # c = 1e160 their squares overflow and at 3e152 their sum does (numpy
    # used to warn and the error named only the mean); at 1.5e152 each
    # position's error fits and only the mean of err_F overflows
    data = tmp_path / "data"
    assert cli_main(["gen", "--out", str(data)]) == 0
    model_path = tmp_path / "m1.json"
    assert cli_main(["fit", "--refs", str(data / "refs_manifest.json"), "--obs",
                     str(data / "obs_manifest.json"), "--p", "1",
                     "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    want = {1e160: "error: interp_p1: the squared error at sequence position 1 is beyond "
                   "the largest float",
            3e152: "error: interp_p1: the squared error at sequence position 1 is beyond "
                   "the largest float",
            1.5e152: "error: summary.json: summary.methods.interp_p1.mean_err_f is not finite"}
    for scale, message in want.items():
        model_path.write_text(json.dumps({**doc, "t_mats": [(scale * np.eye(16)).tolist()]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = _cli_error(capsys, _eval_argv(data, tmp_path / "eval", model_path))
        assert not caught
        assert message in err
        assert not (tmp_path / "eval").exists()


def test_apply_at_the_first_position_of_ill_conditioned_data_is_the_first_term(tmp_path):
    # noise [0.99, 1] leaves C(y_0, y_0) with condition number near 4e6; at
    # position 1 every lag of an order-3 filter reads y_0, so the two repeats
    # are zero stages and the estimate is T_0 y_0 (it scored 52.4 against
    # 0.081 when the repeats escaped the zero snap)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CFG, "m": 16, "n": 16, "s": 256,
                               "noise": {"low": 0.99, "high": 1.0}}))
    data = tmp_path / "data"
    assert cli_main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    model_path, est_path = tmp_path / "m3.json", tmp_path / "est.iflt"
    assert cli_main(["fit", "--config", str(cfg), "--refs", str(data / "refs_manifest.json"),
                     "--obs", str(data / "obs_manifest.json"), "--p", "3",
                     "--out", str(model_path)]) == 0
    assert cli_main(["apply", "--model", str(model_path), "--obs",
                     str(data / "obs_manifest.json"), "--index", "1", "--out", str(est_path)]) == 0
    x0, y0 = (load_sequence(data / f"{name}_manifest.json")[0].data for name in ("refs", "obs"))
    assert np.linalg.cond(y0 @ y0.T) > 1e6
    first = np.asarray(json.loads(model_path.read_text())["t_mats"][0]) @ y0
    first -= first.mean(axis=1, keepdims=True)
    want = np.sum((x0 - first) ** 2) / x0.shape[1]
    got = np.sum((x0 - read_ensemble(est_path).data) ** 2) / x0.shape[1]
    assert got == pytest.approx(want, rel=1e-10)


@pytest.fixture(scope="module")
def fitted_model(tmp_path_factory):
    """Generated data and the document of a model fitted on it, shared by the
    fuzz examples below."""
    root = tmp_path_factory.mktemp("fitted")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CFG))
    obs, model_path = _gen_and_fit(root, cfg)
    return root, obs, json.loads(model_path.read_text())


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)
def _replaced(doc, field, value) -> str:
    """The JSON text of ``doc`` with the entry at the key path ``field`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    return json.dumps(doc)


_MODEL_FIELDS = [("version",), ("p",), ("q_specs",), ("t_mats",), ("a_mats",), ("r_mats",),
                 ("meta",), ("q_specs", 0), ("q_specs", 1), ("q_specs", 0, "kind"),
                 ("q_specs", 1, "lag")]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_MODEL_FIELDS), _JSON_VALUES)
@example(("q_specs", 0), 5)
@example(("p", ), float("inf"))
@example(("q_specs", 1, "lag"), 1.0)
@example(("q_specs", 1), {"kind": "weighted_prefix_sum", "weights": [1e300, 1e300]})
def test_model_document_fuzz_exits_without_raising(fitted_model, field, value):
    """A model document with one top-level field, one q_specs entry or one field
    of an entry replaced by any JSON value: ``apply`` (both deflation modes) and
    ``eval`` return an exit code and never raise."""
    root, obs, doc = fitted_model
    model_path = root / "fuzzed.json"
    model_path.write_text(_replaced(doc, field, value))
    apply = ["apply", "--model", str(model_path), "--obs", str(obs), "--index", "5",
             "--out", str(root / "est.iflt")]
    for argv in (apply, [*apply, "--fixed-r"],
                 ["eval", "--refs", str(obs.with_name("refs_manifest.json")), "--obs",
                  str(obs), "--model", str(model_path), "--out", str(root / "eval")]):
        assert cli_main(argv) in (0, 1, 2)


# size fields are drawn small: a config asking for 10**9 of anything makes
# arrays that size before any check could refuse them
_SIZE_FIELDS = ("n_signals", "m", "n", "s", "base_rank")
_CONFIG_FIELDS = [(name,) for name in SMALL_CFG] + [
    ("base_rank",), ("drift_scale",), ("rls_forgetting",), ("rls_delta",), ("residual_tol",),
    ("include_baselines",), ("probe_constants",), ("noise",), ("noise", "kind"),
    ("noise", "low"), ("noise", "high"), ("p_values", 0), ("s_indices", 0)]


@st.composite
def config_edits(draw):
    field = draw(st.sampled_from(_CONFIG_FIELDS))
    if field[0] in _SIZE_FIELDS:
        value = draw(st.integers(-2, 12) | _JSON_VALUES.filter(
            lambda v: not isinstance(v, int) or isinstance(v, bool)))
    else:
        value = draw(_JSON_VALUES)
    return field, value


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(config_edits())
@example((("p_values",), [1, 1]))
@example((("noise",), {"low": 0, "high": 1e300}))
def test_config_document_fuzz_exits_without_raising(fitted_model, edit):
    """A small config with one field, one list entry or one noise field replaced
    by any JSON value: ``bench`` returns an exit code and never raises."""
    root, _, _ = fitted_model
    cfg = root / "fuzzed_cfg.json"
    cfg.write_text(_replaced({**SMALL_CFG, "noise": {"low": 0.0, "high": 1.0}}, *edit))
    with tempfile.TemporaryDirectory() as out:
        assert cli_main(["bench", "--config", str(cfg), "--out", out]) in (0, 1, 2)


_MANIFEST_FIELDS = [("m",), ("s",), ("files",), ("files", 0), ("files", 5)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_MANIFEST_FIELDS), _JSON_VALUES)
@example(("files", 0), "obs_0000.iflt\0")
@example(("files", 0), "")
@example(("m",), 2**70)
def test_manifest_fuzz_exits_without_raising(fitted_model, field, value):
    """An observation manifest with one field or one file name replaced by any
    JSON value: ``epsnet``, ``apply`` and ``eval`` return an exit code and never
    raise."""
    root, obs, doc = fitted_model
    manifest = obs.with_name("fuzzed_manifest.json")
    manifest.write_text(_replaced(json.loads(obs.read_text()), field, value))
    model_path = root / "model.json"
    model_path.write_text(json.dumps(doc))
    with tempfile.TemporaryDirectory() as out:
        for argv in (["epsnet", "--data", str(manifest), "--eps", "0.1"],
                     ["apply", "--model", str(model_path), "--obs", str(manifest),
                      "--index", "5"],
                     ["eval", "--refs", str(obs.with_name("refs_manifest.json")),
                      "--obs", str(manifest), "--model", str(model_path), "--baselines"]):
            assert cli_main([*argv, "--out", f"{out}/{argv[0]}"]) in (0, 1, 2)


def _exit_code(argv) -> int:
    """The status ``iflt`` exits with: what ``cli_main`` returns, or the code of
    the ``SystemExit`` that argparse raises after printing the help."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


_ARGV_TEXT = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\0"),
                     max_size=6)  # an operating system passes no NUL byte in argv
_NUMBERS = (st.integers(-3, 20) | st.integers(-2**70, 2**70)).map(str) | st.floats().map(repr)


@st.composite
def argvs(draw):
    """``iflt`` argv: a working command line whose values are replaced, whose
    flags are dropped and to which flags of any command or stray words are added.

    Paths start with ``{root}``, the fitted data's directory. Inputs are its
    files, a directory, a missing file or any text; outputs go under
    ``{root}/out``. ``gen`` and ``bench`` keep a ``--config`` flag, so they
    never run the default, full-size config.
    """
    cfg, model, out = "{root}/cfg.json", "{root}/model.json", "{root}/out/x"
    refs, obs = "{root}/data/refs_manifest.json", "{root}/data/obs_manifest.json"
    working = {
        "gen": [("--config", cfg), ("--out", out)],
        "fit": [("--config", cfg), ("--refs", refs), ("--obs", obs), ("--p", "2"),
                ("--out", out)],
        "apply": [("--model", model), ("--obs", obs), ("--index", "5"), ("--out", out)],
        "eval": [("--config", cfg), ("--refs", refs), ("--obs", obs), ("--model", model),
                 ("--out", out)],
        "bench": [("--config", cfg), ("--out", out)],
        "epsnet": [("--data", obs), ("--eps", "0.1"), ("--out", out)],
    }
    inputs = st.sampled_from([cfg, model, refs, obs, "{root}/data/obs_0000.iflt",
                              "{root}/data", "{root}/missing.json"]) | _ARGV_TEXT
    outputs = st.sampled_from(["x", "y.json", "", "missing/x", "file"]).map(
        lambda name: "{root}/out/" + name)
    values = {"--config": inputs, "--refs": inputs, "--obs": inputs, "--model": inputs,
              "--data": inputs, "--bound-constants": inputs, "--out": outputs,
              "--format": st.sampled_from(["bin", "csv"]) | _ARGV_TEXT,
              "--seed": _NUMBERS, "--p": _NUMBERS, "--index": _NUMBERS, "--eps": _NUMBERS,
              "--rls-lambda": _NUMBERS, "--rls-delta": _NUMBERS}
    command = draw(st.sampled_from(sorted(working)))
    argv = [command]
    for flag, value in working[command]:
        action = draw(st.sampled_from(["replace", "drop"] + ["keep"] * 6))
        if action == "drop" and not (flag == "--config" and command in ("gen", "bench")):
            continue
        argv += [flag, draw(values[flag]) if action == "replace" else value]
    for _ in range(draw(st.integers(0, 2))):
        flag = draw(st.sampled_from([*values, "--fixed-r", "--baselines", "--probe-constants",
                                     "-h", "stray"]))
        flag = draw(_ARGV_TEXT) if flag == "stray" else flag
        argv += [flag, draw(values[flag])] if flag in values else [flag]
    if draw(st.integers(0, 9)) == 0:
        argv[0] = draw(_ARGV_TEXT)
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argvs())
@example(["fit", "--config", "{root}/cfg.json", "--refs", "{root}/data/refs_manifest.json",
          "--obs", "{root}/data/obs_manifest.json", "--p", "0", "--out", "{root}/out/x"])
@example(["apply", "--model", "{root}/model.json", "--obs", "{root}/data/obs_manifest.json",
          "--index", "-1", "--out", "{root}/out/x", "-h"])
def test_argv_fuzz_exits_without_raising(fitted_model, argv):
    """Any command with any flags and values: ``iflt`` exits 0, 1 or 2."""
    root, _, doc = fitted_model
    (root / "model.json").write_text(json.dumps(doc))
    (root / "out").mkdir(exist_ok=True)
    (root / "out" / "file").write_text("")
    argv = [arg.replace("{root}", str(root)) for arg in argv]
    assert _exit_code(argv) in (0, 1, 2), argv
