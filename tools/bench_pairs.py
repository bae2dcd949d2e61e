"""Alternate benchmark runs of a parent commit and the working tree, in pairs.

    python3 tools/bench_pairs.py --tag <name> --parent HEAD --workload bench_default \
        --seed 0 --seed 7 --pairs 10 --seconds 40

Each pair runs ``perfbench/run.py --trace 0`` once on each side, one workload
and seed at a time: odd pairs run the parent first, even pairs the working
tree first. The parent side is the tree of ``--parent`` exported with ``git
archive`` into a temporary directory (the repository itself is not touched);
the change side is the working tree as it stands. The result is written to
``BENCH_<tag>.json`` at the repository root: per workload and seed, every
pair's end-to-end metrics, each side's median and quartiles (numpy linear
percentiles 25 and 75), the median over pairs of change / parent - 1, the
count of pairs in which the change read lower, summed attempted and failed
operation counts, and the environment line ``perfbench`` prints. Each
end-to-end metric gets, with the bound ``BENCHMARK.json`` fixes for it, the
parent's spread (q3 - q1) / median and a verdict (see ``verdict``). Each
pair prints one line with every bounded metric, parent -> change. Medians
compare only within one file (see ``NOTE``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
NOTE = ("alternating pairs of runs: odd pairs run the parent first, even pairs the working "
        "tree first; quartiles are numpy linear percentiles 25 and 75; median_pair_change is "
        "the median over pairs of change / parent - 1; compare medians only within this "
        "file: the same code reads very differently in files measured at other times")


def export_tree(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` under ``dest``; return the commit's short hash."""
    commit = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = dest / "tree.tar"
    subprocess.run(["git", "archive", "--format=tar", f"--output={archive}", commit],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return commit


def run_once(root: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py --trace 0`` run in ``root``: its result and env."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{root}: no result from {workload} seed {seed}:\n{proc.stderr}")
    return json.loads(lines[-1]), env


def side_summary(results: list[dict]) -> dict:
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"median": float(np.median(values)),
                         "q1": float(np.percentile(values, 25)),
                         "q3": float(np.percentile(values, 75)), "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": metrics}


def load_bounds(path=ROOT / "BENCHMARK.json") -> dict:
    """{metric: (better, bound)} for the benchmark's end-to-end metrics."""
    return {m["name"]: (m["better"], m["bound"])
            for m in json.loads(Path(path).read_text())["end_to_end"]}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The parent's spread (q3 - q1) / median and the verdict on one metric,
    from the values of paired runs (``parent[k]`` and ``change[k]`` one pair).

    ``unresolved`` where the spread is above ``bound``, unless every change
    run reads better than every parent run; else ``better`` where the change
    reads better in at least nine tenths of the pairs (ties count for
    neither) and its median beats the parent's by more than the parent's
    q3 - q1; ``worse`` where its median is worse than the parent's by more
    than ``bound`` of it; else ``no worse``.
    """
    sign = 1.0 if better == "lower" else -1.0  # below: lower reads better
    p, c = sign * np.asarray(parent, dtype=float), sign * np.asarray(change, dtype=float)
    q1, med, q3 = np.percentile(p, [25, 50, 75])
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else np.inf)
    worse_by = np.median(c) - med
    if spread > bound and not c.max() < p.min():
        out = "unresolved"
    elif np.sum(c < p) >= 0.9 * len(p) and -worse_by > q3 - q1:
        out = "better"
    elif worse_by > bound * abs(med):
        out = "worse"
    else:
        out = "no worse"
    return {"bound": bound, "parent_spread": float(spread), "verdict": out}


def pair_line(label: str, pair: int, parent: dict, change: dict, bounds: dict) -> str:
    """One pair's line: each metric ``bounds`` names, parent then change."""
    return f"{label} pair {pair}: " + ", ".join(
        f"{name} {parent['metrics'][name]['value']:.4g} -> {change['metrics'][name]['value']:.4g}"
        for name in bounds if name in parent["metrics"])


def compare(parent: list[dict], change: list[dict], bounds: dict) -> dict:
    """Per metric over the pairs: the median change / parent - 1, the count of
    pairs where the change read lower, and the ``verdict`` of each metric
    ``bounds`` ({metric: (better, bound)}) names."""
    changes, lower, verdicts = {}, {}, {}
    for name in parent[0]["metrics"]:
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)]
        changes[name] = float(np.median([c / p - 1 for p, c in pairs]))
        lower[name] = sum(c < p for p, c in pairs)
        if name in bounds:
            verdicts[name] = verdict(*zip(*pairs), *bounds[name])
    return {"median_pair_change": changes, "change_lower_in_pairs": lower,
            "verdicts": verdicts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--parent", default="HEAD", help="commit of the parent side")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--append", action="store_true",
                        help="keep the workloads BENCH_<tag>.json already holds")
    args = parser.parse_args(argv)

    out = ROOT / f"BENCH_{args.tag}.json"
    doc = {"command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                      f"--seconds {args.seconds} --trace 0",
           "note": NOTE,
           "workloads": json.loads(out.read_text())["workloads"] if args.append else {}}
    bounds = load_bounds()
    with tempfile.TemporaryDirectory() as tmp:
        doc["parent_commit"] = export_tree(args.parent, Path(tmp))
        sides = {"parent": Path(tmp) / "tree", "change": ROOT}
        for workload in args.workload:
            for seed in args.seed:
                runs = {"parent": [], "change": []}
                for pair in range(1, args.pairs + 1):
                    order = ("parent", "change") if pair % 2 else ("change", "parent")
                    for side in order:
                        result, doc["env"] = run_once(sides[side], workload, seed, args.seconds)
                        runs[side].append(result)
                    print(pair_line(f"{workload} seed {seed}", pair, runs["parent"][-1],
                                    runs["change"][-1], bounds), flush=True)
                compared = compare(runs["parent"], runs["change"], bounds)
                for name, v in compared["verdicts"].items():
                    print(f"{workload} seed {seed} {name}: {v['verdict']} (parent spread "
                          f"{v['parent_spread']:.3f}, bound {v['bound']})", flush=True)
                doc["workloads"][f"{workload}_seed{seed}"] = {
                    "seed": seed, "pairs": args.pairs,
                    "parent": side_summary(runs["parent"]),
                    "change": side_summary(runs["change"]),
                    **compared,
                    "pairs_by_pair": [{
                        "pair": k + 1, "first": "parent" if (k + 1) % 2 else "change",
                        **{f"{name}_{side}": runs[side][k]["metrics"][name]["value"]
                           for name in runs["parent"][0]["metrics"]
                           for side in ("parent", "change")}}
                        for k in range(args.pairs)],
                }
                out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
