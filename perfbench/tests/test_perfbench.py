"""Tests of the benchmark itself: exact op counts, the tracer and the checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import iflt
import run
from iflt import bench, interp, linalg, ortho
from tracer import COUNTERS, SPAN_TARGETS, Tracer
from workloads import (
    FILTER_LARGE_P,
    BenchDefault,
    FilterLarge,
    Ops,
    check_reference,
    check_repeatable,
)

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent


def traced(fn, *args, **kwargs) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        fn(*args, **kwargs)
    finally:
        tracer.uninstall()
    return tracer.summary()


def test_interp_p5_over_default_positions_counts_svds_and_covariances():
    wl = BenchDefault()
    wl.setup(0)
    model = bench.fit_benchmark_models(wl.cfg, wl.xs, wl.ys)["interp_p5"]
    counts = traced(bench.evaluate_interp, model, wl.xs, wl.ys, "interp_p5")
    # p(p-1)/2 = 10 pseudo-inverses per position; 2 covariances per
    # deflation plus 10 for the cross-covariance residual
    assert counts["linalg.pseudo_inverse.calls"] == 1000
    assert counts["signals.est_cov.calls"] == 3000
    assert counts["ortho.orthogonalize.calls"] == 100


def test_filter_large_clamped_positions_zero_snap_28_stages():
    wl = FilterLarge()
    wl.setup(0)
    model = iflt.fit(wl.train, bench.lag_specs(FILTER_LARGE_P))
    ctx = iflt.FilterContext(wl.ys)

    def warm_up_positions():
        for i in range(FILTER_LARGE_P):
            iflt.apply_filter(model, ctx, i)

    counts = traced(warm_up_positions)
    # position i < p - 1 sees only i + 1 distinct inputs: 7 + 6 + ... + 1
    assert counts["ortho.zero_stages"] == 28
    assert counts["ortho.stages"] == FILTER_LARGE_P * FILTER_LARGE_P


def test_op_counts_repeat_exactly_for_one_seed(tmp_path):
    wl = BenchDefault()
    wl.setup(3)
    runs = []
    for k in range(2):
        ops = Ops()
        runs.append(traced(wl.run_pass, ops, tmp_path / f"pass{k}"))
        assert ops.failed == 0
    for name in ("linalg.pseudo_inverse.calls", "signals.est_cov.calls",
                 "ortho.zero_stages", "baselines.rls_step.calls"):
        assert runs[0][name] == runs[1][name]
    assert runs[0]["baselines.rls_step.calls"] == 100 * 256


def test_tracer_patches_every_importing_module_and_restores_them():
    originals = (interp.orthogonalize, ortho.pseudo_inverse, linalg.pseudo_inverse)
    tracer = Tracer()
    tracer.install()
    try:
        assert interp.orthogonalize is not originals[0]
        assert ortho.pseudo_inverse is linalg.pseudo_inverse is iflt.pseudo_inverse
        assert ortho.pseudo_inverse is not originals[1]
    finally:
        tracer.uninstall()
    assert (interp.orthogonalize, ortho.pseudo_inverse, linalg.pseudo_inverse) == originals


def test_self_times_add_up_to_the_top_level_spans():
    wl = BenchDefault()
    wl.setup(0)
    tracer = Tracer()
    tracer.install()
    try:
        bench.fit_benchmark_models(wl.cfg, wl.xs, wl.ys)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    top = sum(t1 - t0 for _, t0, t1, parent in tracer.spans if parent == -1)
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(top, rel=1e-9)
    assert summary["interp.fit.calls"] == 2


def test_benchmark_json_names_only_metrics_the_harness_reports():
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = {name for _, _, name in SPAN_TARGETS} | {"interp.apply_filter_fixed_r"}
    layer_names = {f"{s}.{stat}" for s in spans for stat in ("calls", "self_s", "total_s")}
    layer_names |= set(COUNTERS) | {"ortho.live_stage_frac", "trace.spans",
                                    "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= layer_names
    applies = [(5, False, 0.002), (5, False, 0.003), (5, True, 0.001), (3, False, 0.001)]
    rec = harness.Passes(walls=[1.0, 1.1], fits=[[0.01, 0.02], [0.02]], applies=applies,
                         setups=[(0.1, 0.2), (0.1, 0.3)])
    e2e = harness.end_to_end(BenchDefault(), rec, 50.0)
    for metric in spec["end_to_end"]:
        value, unit, count = e2e[metric["name"]]
        assert value > 0 and count > 0 and unit == metric["unit"]


def test_filter_large_set_up_peaks_below_a_pass():
    """Repeated set-ups must not raise the peak RSS above a single one, and
    ``fit`` alone must peak above set-up.

    Then peak_rss_mb shows the working set of a pass, and a pass that
    allocates more or less moves it.
    """
    script = (
        "import resource, iflt\n"
        "from iflt import bench\n"
        "from workloads import FILTER_LARGE_P, FilterLarge\n"
        "def peak(): return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "wl = FilterLarge()\n"
        "wl.setup(0)\n"
        "once = peak()\n"
        "for _ in range(3): wl.setup(0)\n"
        "repeated = peak()\n"
        "iflt.fit(wl.train, bench.lag_specs(FILTER_LARGE_P))\n"
        "print(once, repeated, peak())\n"
    )
    # A process started straight from this one would inherit its peak RSS
    # (Linux keeps it across fork and exec), so start it through a small
    # process, as run.py starts the harness.
    hop = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {script!r}], check=True)"
    env = {**run.child_env(), "PYTHONPATH": f"{ROOT / 'src'}:{PERFBENCH}"}
    proc = subprocess.run([sys.executable, "-c", hop], capture_output=True, text=True,
                          check=True, timeout=120, env=env)
    once, repeated, fitted = map(float, proc.stdout.split())
    assert repeated - once < 5
    assert fitted - repeated > 20


def test_runs_use_a_bytecode_cache_of_their_own():
    env = run.child_env()
    assert Path(env["PYTHONPYCACHEPREFIX"]).is_relative_to(ROOT / ".perfbench-out")
    assert "PYTHONDONTWRITEBYTECODE" not in env and "IFLT_THREADS" not in env


def test_checks_count_failures():
    ops = Ops()
    check_repeatable(ops, "outputs", [b"a", b"a", b"b"])
    check_reference(ops, "bench", {"rls": 1.0, "other": 5.0}, {"rls": 1.1}, 1e-6)
    check_reference(ops, "bench", {"rls": 1.0}, None, 1e-6)
    assert (ops.attempted, ops.failed) == (2, 2)
    assert ops.call("raises", lambda: 1 / 0) is None
    assert not ops.cli(["fit", "--p", "3"])  # missing required arguments: exit 1
    assert ops.failed == 4


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bench_default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
