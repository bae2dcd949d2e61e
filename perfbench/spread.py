"""Run a workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload filter_large --seeds 0-9 [--out FILE]

The spread is the distance between the first and third quartiles of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median, the figure each end-to-end bound in BENCHMARK.json is checked against.
``--out`` writes the medians, quartiles and spreads as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)

    summary = {}
    for m in metrics:
        vals = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        summary[m["name"]] = {"unit": m["unit"], "median": q2, "q1": q1, "q3": q3,
                              "spread": spread, "runs": len(vals)}
        bound = m.get("bound")
        verdict = "" if bound is None else (
            f" bound {bound} ({'ok' if spread <= bound / 3 else 'WIDE'})")
        print(f"{m['name']:24s} median {q2:.6g} {m['unit']} spread {spread:.3f}{verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps({args.workload: summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
