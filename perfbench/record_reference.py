"""Record each workload's mean errors for a range of seeds in reference.json.

    python3 perfbench/record_reference.py --seeds 0-9

The harness compares a run's mean errors with these values (relative
tolerance ``rtol``) whenever its seed is recorded. Re-record only for a
change that is meant to alter results, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spread import parse_seeds  # noqa: E402
from workloads import BenchDefault, FilterLarge, Ops  # noqa: E402

RTOL = 1e-6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args(argv)
    seeds = {}
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        seeds[str(seed)] = {}
        for cls in (BenchDefault, FilterLarge):
            wl, ops = cls(), Ops()
            wl.setup(seed)
            workdir = Path(tempfile.mkdtemp(dir=out_dir))
            try:
                values = wl.values(wl.run_pass(ops, workdir))
            finally:
                shutil.rmtree(workdir)
            if ops.failed:
                print(f"seed {seed} {wl.name}: {ops.failed} failed operations", file=sys.stderr)
                return 1
            seeds[str(seed)][wl.reference_key] = values
        print(f"seed {seed}: {seeds[str(seed)]}", flush=True)
    doc = {"rtol": RTOL, "seeds": seeds}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
