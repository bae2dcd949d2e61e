"""The benchmark's span tracer still finds every name it patches in ``iflt``.

``perfbench/tracer.py`` wraps ``iflt`` functions by module and attribute name,
so a refactor that renames or removes one of them breaks
``perfbench/run.py --trace 1``. The tracer is loaded from its file as it is.
"""

import importlib.util
import json
from pathlib import Path

from iflt import bench, cli
from iflt.cli import cli_main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
CFG = {"n_signals": 8, "m": 3, "n": 3, "s": 30, "p_values": [2], "s_indices": [2, 5]}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_src_and_sees_the_eval_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    data, model = tmp_path / "data", tmp_path / "m.json"
    refs, obs = str(data / "refs_manifest.json"), str(data / "obs_manifest.json")
    originals = (cli._evaluate, bench.evaluate_interp, bench.run_benchmark)
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()  # raises if a patched name is gone
        assert cli_main(["gen", "--config", str(cfg), "--out", str(data)]) == 0
        assert cli_main(["fit", "--config", str(cfg), "--refs", refs, "--obs", obs,
                         "--p", "2", "--out", str(model)]) == 0
        assert cli_main(["eval", "--config", str(cfg), "--refs", refs, "--obs", obs,
                         "--model", str(model), "--baselines",
                         "--out", str(tmp_path / "eval")]) == 0
        assert cli_main(["bench", "--config", str(cfg), "--probe-constants",
                         "--out", str(tmp_path / "b")]) == 0
    finally:
        tracer.uninstall()
    assert (cli._evaluate, bench.evaluate_interp, bench.run_benchmark) == originals
    calls = tracer.summary()
    for name in ("cli.eval", "cli.evaluate", "bench.run_benchmark"):
        assert calls[f"{name}.calls"] == 1, name
    for name in ("bench.evaluate_interp", "bench.evaluate_wiener", "bench.evaluate_rls"):
        assert calls[f"{name}.calls"] == 2, name
    assert calls["analysis.node_error_decomposition.calls"] == 4
    # the bound path: one probe and one check per model, one bound per node
    assert calls["bench.probe_bound_constants.calls"] == 1
    assert calls["bench.node_bound_checks.calls"] == 1
    assert calls["analysis.error_upper_bound.calls"] == 2
