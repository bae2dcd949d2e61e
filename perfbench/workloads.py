"""The benchmark workloads: set-up, one timed pass, and the output checks.

Every workload is generated from the seed alone and calls ``iflt`` only
through its public functions and ``cli_main``. Calls go through module
attributes (``iflt.fit``, ``cli.cli_main``) so that the stopwatch and tracer
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import iflt
from iflt import bench, cli

# Node-decomposition gap allowed at every training node: acceptance
# criterion 05's tolerance.
REL_GAP_TOL = 1e-6

FILTER_LARGE_P = 8
# 1-based training nodes spread over the sequence, all past the lag warm-up,
# so only the first p - 1 applied positions clamp their lags.
FILTER_LARGE_NODES = (8, 21, 34, 47, 61, 74, 87, 100)
CLI_APPLY_INDICES = (1, 12, 23, 34, 45, 56, 67, 78, 89, 100)
CLI_EPSNET_EPS = 0.05


class Ops:
    """Counts attempted operations and output checks, and which of them failed.

    A failure is an exception, a non-zero CLI exit or a failed output check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, label: str, fn, *args, **kwargs):
        """Run one library operation; return its result, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is a measured outcome
            self.failed += 1
            print(f"FAIL {label}", file=sys.stderr)
            traceback.print_exc()
            return None

    def cli(self, argv: list[str]) -> bool:
        """Run one CLI command in-process with its stdout discarded."""
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.call(f"iflt {argv[0]}", cli.cli_main, argv)
        if rc is None:
            return False
        return self.check(f"iflt {argv[0]} exit code", rc == 0, f"exit code {rc}")

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL check {label}: {detail}", file=sys.stderr)
        return bool(ok)


def check_node_gaps(ops: Ops, label: str, gaps) -> None:
    worst = max(g["rel_gap"] for g in gaps)
    ops.check(f"{label} node decomposition", worst <= REL_GAP_TOL,
              f"max rel_gap {worst:.3e} > {REL_GAP_TOL:.0e}")


def check_repeatable(ops: Ops, label: str, values) -> None:
    """Every pass of a run uses the same seed, so outputs must be bit-identical."""
    ops.check(f"{label} identical across passes", all(v == values[0] for v in values),
              "outputs differ between passes with the same seed")


def check_reference(ops: Ops, label: str, values: dict, expected: dict | None,
                    rtol: float) -> None:
    """Compare mean errors with the values recorded for this seed, if any."""
    if expected is None:
        return
    for key, value in values.items():
        if key not in expected:
            continue
        want = expected[key]
        ok = value is not None and abs(value - want) <= rtol * abs(want)
        ops.check(f"{label} {key} mean err_E", ok, f"{value!r} vs recorded {want!r}")


def _mean_err(errs) -> float | None:
    return None if any(e is None for e in errs) else float(np.mean(errs))


def _score(x, estimate) -> float | None:
    return None if estimate is None else iflt.empirical_error(x, estimate)


class BenchDefault:
    """``iflt bench --probe-constants`` at the default config.

    The run a researcher makes. The RLS baseline does most of its work, and
    no other workload runs the baselines.
    """

    name = "bench_default"
    top_p = 5
    reference_key = "bench_default"

    def setup(self, seed: int) -> None:
        self.xs = self.ys = None
        self.seed = seed
        self.cfg = replace(bench.ExperimentConfig(), seed=seed)
        self.xs = bench.gen_reference_sequence(self.cfg)
        self.ys = bench.gen_observations(self.xs, self.cfg)

    def run_pass(self, ops: Ops, workdir: Path) -> dict:
        out = workdir / "bench"
        ops.cli(["bench", "--probe-constants", "--seed", str(self.seed), "--out", str(out)])
        return {
            "report": ops.call("read report", (out / "report.csv").read_bytes),
            "summary": ops.call("read summary", lambda: json.loads(
                (out / "summary.json").read_text())),
        }

    def values(self, outputs: dict) -> dict:
        summary = outputs["summary"] or {"summary": {"methods": {}}}
        return {m: s["mean_err_e"] for m, s in summary["summary"]["methods"].items()}

    def check(self, ops: Ops, passes: list[dict]) -> None:
        for out in passes:
            if out["summary"] is None:
                continue
            for method, diag in out["summary"]["diagnostics"].items():
                ops.check(f"{method} residual_ok", diag["residual_ok"] is True)
                check_node_gaps(ops, method, diag["node_gaps"])
        check_repeatable(ops, "report.csv", [out["report"] for out in passes])


class FilterLarge:
    """Library fit/apply at m=n=64, s=1024, p=8 over 100 positions, no baselines.

    The filter user's path: the ortho + linalg cascade is most of each
    recomputed apply, and no file is read or written. The first p - 1
    positions clamp their lags, so the zero-snapped stages are timed too.
    """

    name = "filter_large"
    top_p = FILTER_LARGE_P
    reference_key = "filter_large"

    def setup(self, seed: int) -> None:
        # drop the previous inputs first, so that the peak memory of set-up
        # stays below that of a pass
        self.xs = self.ys = self.train = None
        cfg = replace(
            bench.ExperimentConfig(), n_signals=100, m=64, n=64, s=1024,
            p_values=(FILTER_LARGE_P,), s_indices=FILTER_LARGE_NODES,
            include_baselines=False, seed=seed,
        )
        bench.validate_config(cfg)
        self.xs = bench.gen_reference_sequence(cfg)
        self.ys = bench.gen_observations(self.xs, cfg)
        nodes = tuple(bench.nodes_for(cfg, FILTER_LARGE_P))
        self.train = iflt.TrainingSet(tuple(self.xs[k] for k in nodes), self.ys, nodes)

    def run_pass(self, ops: Ops, workdir: Path) -> dict:
        p = FILTER_LARGE_P
        model = ops.call("fit", iflt.fit, self.train, bench.lag_specs(p))
        if model is None:
            return {"model_ok": False, "errs": None, "fixed_r_errs": None, "gaps": []}
        ctx = iflt.FilterContext(self.ys)
        positions = range(len(self.ys))
        errs = [_score(self.xs[i], ops.call(f"apply {i}", iflt.apply_filter,
                                            model, ctx, i)) for i in positions]
        fixed = [_score(self.xs[i], ops.call(f"apply fixed_r {i}", iflt.apply_filter,
                                             model, ctx, i, fixed_r=True))
                 for i in positions]
        gaps = []
        for k in range(p):
            rec = ops.call(f"node decomposition {k}", iflt.node_error_decomposition,
                           model, self.train, k)
            if rec is not None:
                gaps.append({"rel_gap": rec["gap"] / rec["lhs"] if rec["lhs"] > 0
                             else rec["gap"]})
        return {"model_ok": model.meta["residual_ok"], "errs": errs,
                "fixed_r_errs": fixed, "gaps": gaps}

    def values(self, outputs: dict) -> dict:
        p = FILTER_LARGE_P
        return {f"interp_p{p}": _mean_err(outputs["errs"] or [None]),
                f"interp_p{p}_fixed_r": _mean_err(outputs["fixed_r_errs"] or [None])}

    def check(self, ops: Ops, passes: list[dict]) -> None:
        for out in passes:
            ops.check("fit residual_ok", out["model_ok"] is True)
            ops.check("node decompositions ran", len(out["gaps"]) == FILTER_LARGE_P)
            if out["gaps"]:
                check_node_gaps(ops, f"interp_p{FILTER_LARGE_P}", out["gaps"])
        check_repeatable(ops, "apply errors",
                         [(out["errs"], out["fixed_r_errs"]) for out in passes])


class CliCsvPipeline:
    """In-process CLI over the default data in CSV form.

    gen, fit p=3 and p=5, ten applies spread over the sequence (half with
    ``--fixed-r``), eval of both models and epsnet. CSV reads and writes are
    a large share, and the eval path is ``cli._evaluate`` rather than bench's.
    """

    name = "cli_csv_pipeline"
    top_p = 5
    reference_key = "bench_default"

    def setup(self, seed: int) -> None:
        self.xs = self.ys = None
        self.seed = seed
        self.cfg = replace(bench.ExperimentConfig(), seed=seed)
        self.xs = bench.gen_reference_sequence(self.cfg)
        self.ys = bench.gen_observations(self.xs, self.cfg)

    def run_pass(self, ops: Ops, workdir: Path) -> dict:
        seed = ["--seed", str(self.seed)]
        data = workdir / "data"
        refs, obs = str(data / "refs_manifest.json"), str(data / "obs_manifest.json")
        gen_s = _timed(ops.cli, ["gen", "--format", "csv", *seed, "--out", str(data)])
        models = [str(workdir / f"model_p{p}.json") for p in (3, 5)]
        for p, path in zip((3, 5), models):
            ops.cli(["fit", *seed, "--refs", refs, "--obs", obs, "--p", str(p),
                     "--out", path])
        apply_s, estimates = [], []
        for k, index in enumerate(CLI_APPLY_INDICES):
            est = workdir / f"estimate_{k}.iflt"
            fixed_r = ["--fixed-r"] if k % 2 else []
            apply_s.append(_timed(ops.cli, ["apply", "--model", models[1], "--obs", obs,
                                            "--index", str(index), "--out", str(est),
                                            *fixed_r]))
            estimates.append(ops.call("read estimate", est.read_bytes))
        ev = workdir / "eval"
        ops.cli(["eval", *seed, "--refs", refs, "--obs", obs, "--model", models[0],
                 "--model", models[1], "--out", str(ev)])
        net = workdir / "net.json"
        ops.cli(["epsnet", "--data", refs, "--eps", str(CLI_EPSNET_EPS), "--out", str(net)])
        return {
            "timings": {"cli_gen_s": [gen_s], "cli_apply_ms": [1e3 * t for t in apply_s]},
            "models": [ops.call("read model", Path(m).read_bytes) for m in models],
            "estimates": estimates,
            "report": ops.call("read report", (ev / "report.csv").read_bytes),
            "summary": ops.call("read summary", lambda: json.loads(
                (ev / "summary.json").read_text())),
            "net": ops.call("read net", lambda: json.loads(net.read_text())),
        }

    def values(self, outputs: dict) -> dict:
        summary = outputs["summary"] or {"summary": {"methods": {}}}
        return {m: s["mean_err_e"] for m, s in summary["summary"]["methods"].items()}

    def check(self, ops: Ops, passes: list[dict]) -> None:
        expected = bench.report_csv_text(bench.run_benchmark(
            replace(self.cfg, include_baselines=False)).rows).encode()
        for out in passes:
            for blob in out["models"]:
                if blob is not None:
                    model = iflt.load_model(blob)
                    ops.check(f"fit p={model.p} residual_ok",
                              model.meta["residual_ok"] is True)
            if out["summary"] is not None:
                for method, diag in out["summary"]["diagnostics"].items():
                    check_node_gaps(ops, method, diag["node_gaps"])
            ops.check("eval report.csv equals bench rows", out["report"] == expected,
                      "gen/fit/eval interp rows differ from bench for the same seed")
            net = out["net"]
            ops.check("epsnet covers", net is not None and net["center_positions"]
                      and net["achieved_eps"] <= CLI_EPSNET_EPS, f"{net}")
        self._check_estimates(ops, passes[0])
        check_repeatable(ops, "eval report and estimates",
                         [(out["report"], out["estimates"]) for out in passes])

    def _check_estimates(self, ops: Ops, out: dict) -> None:
        """The CLI's estimates equal library applies on the in-memory data."""
        if out["models"][1] is None:
            return
        model = iflt.load_model(out["models"][1])
        ctx = iflt.FilterContext(self.ys)
        for k, (index, blob) in enumerate(zip(CLI_APPLY_INDICES, out["estimates"])):
            est = iflt.apply_filter(model, ctx, index - 1, fixed_r=bool(k % 2))
            want = np.ascontiguousarray(est.data, dtype="<f8").tobytes()
            ops.check(f"apply --index {index} estimate",
                      blob is not None and blob[16:] == want,
                      "CLI estimate differs from the library apply")


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


WORKLOADS = {w.name: w for w in (BenchDefault, FilterLarge, CliCsvPipeline)}
