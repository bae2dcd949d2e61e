"""Run one workload in this process and print its metrics.

Started by ``run.py`` in a fresh process with a pinned environment; the last
line of standard output is the result as one JSON object. Exit code 0 means
every operation and output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import iflt

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from tracer import Stopwatch, Tracer  # noqa: E402
from workloads import WORKLOADS, Ops, check_reference  # noqa: E402

# Set-up rounds per run, spread evenly over the run's seconds: a round is
# due every ``seconds / SETUP_ROUNDS`` and runs before the next pass.
SETUP_ROUNDS = 10
# Times the import in a fresh interpreter, which reads the bytecode cache that
# this process's own import has already filled.
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, iflt, iflt.cli; "
                "print(time.perf_counter() - t0)")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "IFLT_THREADS")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


@dataclass
class Passes:
    """What the timed passes of one run recorded."""

    outputs: list = field(default_factory=list)
    setups: list = field(default_factory=list)  # (import, input generation) per round
    walls: list = field(default_factory=list)  # untraced passes
    traced_walls: list = field(default_factory=list)
    fits: list = field(default_factory=list)  # fit durations, one list per pass
    applies: list = field(default_factory=list)  # (p, fixed_r, duration)
    layers: list = field(default_factory=list)  # tracer summary per traced pass
    timings: dict = field(default_factory=dict)  # workload-specific samples


def end_to_end(wl, rec: Passes, peak_rss_mb: float) -> dict:
    """Every end-to-end metric as name -> (value, unit, sample count)."""
    top = [a for a in rec.applies if a[0] == wl.top_p]
    recomputed = [1e3 * d for p, fixed, d in top if not fixed]
    fixed_r = [1e3 * d for p, fixed, d in top if fixed]
    fit_s = [sum(f) for f in rec.fits]
    walls, timings, setups = rec.walls, rec.timings, rec.setups
    metrics = {
        "setup_s": (percentile([a + b for a, b in setups], 90), "s", len(setups)),
        "setup_import_s": (median([a for a, _ in setups]), "s", len(setups)),
        "setup_inputs_s": (median([b for _, b in setups]), "s", len(setups)),
        "wall_s": (median(walls), "s", len(walls)),
        "wall_s_p90": (percentile(walls, 90), "s", len(walls)),
        "fit_s": (median(fit_s), "s", len(fit_s)),
        "fit_s_p90": (percentile(fit_s, 90), "s", len(fit_s)),
        "apply_ms_p50": (median(recomputed), "ms", len(recomputed)),
        "apply_ms_p90": (percentile(recomputed, 90), "ms", len(recomputed)),
        "positions_per_s": (1e3 * len(recomputed) / sum(recomputed) if recomputed else 0.0,
                            "1/s", len(recomputed)),
        "apply_fixed_r_ms_p50": (median(fixed_r), "ms", len(fixed_r)),
        "apply_fixed_r_ms_p90": (percentile(fixed_r, 90), "ms", len(fixed_r)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    if "cli_gen_s" in timings:
        metrics["cli_gen_s"] = (median(timings["cli_gen_s"]), "s", len(timings["cli_gen_s"]))
        apply_ms = timings["cli_apply_ms"]
        metrics["cli_apply_ms_p50"] = (median(apply_ms), "ms", len(apply_ms))
    return metrics


def per_layer(summaries: list[dict], untraced_walls, traced_walls, ops: Ops) -> dict:
    """Median of each layer metric over the traced passes, plus tracing overhead.

    Counts must repeat exactly from pass to pass, since every pass runs the same
    inputs; a difference is a failed check.
    """
    names = sorted(set().union(*summaries))
    out = {}
    for name in names:
        values = [s.get(name, 0) for s in summaries]
        if name.endswith(("_s", "_frac")):
            out[name] = median(values)
        else:
            ops.check(f"{name} repeats exactly", len(set(values)) == 1, f"{values}")
            out[name] = values[0]
    out["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.startswith("sigio.bytes") or name == "interp.model_bytes":
        return "B"
    return "count"


def setup_round(wl, seed: int) -> tuple[float, float]:
    """Time one import in a fresh interpreter and one generation of the inputs."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    t0 = time.perf_counter()
    wl.setup(seed)
    return float(proc.stdout), time.perf_counter() - t0


def run_passes(wl, seed: int, ops: Ops, workdir: Path, seconds: float, trace: bool,
               tracer: Tracer) -> Passes:
    """Run passes until the next one would likely end past ``seconds``.

    Set-up rounds run on a clock between passes, so that they sample the same
    stretch of time as the passes. A traced run alternates traced and
    untraced passes, traced first, so that the untraced ones give the tracing
    overhead.
    """
    stopwatch = Stopwatch()
    stopwatch.install()
    rec = Passes()
    min_passes = 3 if trace else 2
    t_run = time.perf_counter()

    def set_up_until(rounds: int) -> None:
        while len(rec.setups) < rounds:
            rec.setups.append(setup_round(wl, seed))

    wall = 0.0
    try:
        while (len(rec.outputs) < min_passes
               or time.perf_counter() - t_run + wall <= seconds):
            elapsed = time.perf_counter() - t_run
            set_up_until(min(SETUP_ROUNDS, 1 + int(elapsed * SETUP_ROUNDS / seconds)))
            traced = trace and len(rec.outputs) % 2 == 0
            if traced:
                tracer.reset()
                tracer.install()
            pass_dir = workdir / f"pass{len(rec.outputs)}"
            pass_dir.mkdir()
            t0 = time.perf_counter()
            try:
                out = wl.run_pass(ops, pass_dir)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            shutil.rmtree(pass_dir)
            fits, applies = stopwatch.take()
            rec.outputs.append(out)
            if traced:
                rec.traced_walls.append(wall)
                rec.layers.append(tracer.summary())
                continue
            rec.walls.append(wall)
            rec.fits.append(fits)
            rec.applies.extend(applies)
            for key, values in out.get("timings", {}).items():
                rec.timings.setdefault(key, []).extend(values)
        set_up_until(SETUP_ROUNDS)
    finally:
        stopwatch.uninstall()
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not Path(iflt.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"iflt imported from {iflt.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((HERE / "reference.json").read_text())

    wl = WORKLOADS[args.workload]()
    ops = Ops()
    tracer = Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        rec = run_passes(wl, args.seed, ops, workdir, args.seconds, bool(args.trace), tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.check(ops, rec.outputs)
        expected = references["seeds"].get(str(args.seed), {}).get(wl.reference_key)
        if expected is None:
            print(f"no mean err_E recorded for seed {args.seed} in reference.json: "
                  f"not checked (recorded seeds: {', '.join(references['seeds'])})")
        check_reference(ops, wl.name, wl.values(rec.outputs[0]), expected,
                        references["rtol"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    layers = per_layer(rec.layers, rec.walls, rec.traced_walls, ops) if args.trace else {}
    print("env", json.dumps(environment(), sort_keys=True))
    print(f"{wl.name} seed={args.seed} passes={len(rec.outputs)} attempted={ops.attempted} "
          f"failed={ops.failed} fail_frac={ops.failed / ops.attempted}")
    print(f"  pass walls: untraced {[round(w, 3) for w in rec.walls]} "
          f"traced {[round(w, 3) for w in rec.traced_walls]}")
    print(f"  set-up rounds (import, inputs): "
          f"{[(round(i, 3), round(g, 3)) for i, g in rec.setups]}")
    if args.trace:
        for name in sorted(layers):
            print(f"  {name} {layers[name]!r} {layer_unit(name)}")
        spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.csv"
        tracer.write_spans(spans_path)
        print(f"  spans of the last traced pass: {spans_path}")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        e2e = end_to_end(wl, rec, peak_rss_mb)
        for name, (value, unit, count) in e2e.items():
            if count:
                print(f"  {name} {value!r} {unit} (n={count})")
        print(f"  fail_frac {ops.failed / ops.attempted!r} 1 (n={ops.attempted})")
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = ops.failed == 0
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
