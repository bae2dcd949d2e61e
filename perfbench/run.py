"""Run the iflt benchmark: one workload, or all of them, each in a fresh process.

    python3 perfbench/run.py --workload filter_large --seed 0 --seconds 20 --trace 0

``--workload all`` (the default) runs every workload in turn. With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1`` the
per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bench_default", "filter_large", "cli_csv_pipeline")
# A run must end within 180 s; leave the harness time to report a timeout.
CHILD_TIMEOUT_S = 175
# One BLAS thread (at most nproc): on a small shared machine it gives the
# steadiest timings, and a fixed thread count keeps reductions in one order.
BLAS_THREADS = "1"


def child_env() -> dict:
    """The parent's environment with threads pinned and iflt taken from src/.

    Bytecode is read from and written to a cache of the benchmark's own, so a
    ``__pycache__`` left in the sources by other tools is never used.
    """
    env = {k: v for k, v in os.environ.items() if k not in ("IFLT_THREADS", "PYTHONPATH")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".perfbench-out" / "pycache")
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "iflt" / "__init__.py").is_file():
        print(f"no iflt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "harness.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        # The child inherits the peak RSS of the process that starts it, which
        # is this small one, so its peak_rss_mb is its own.
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 3
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
