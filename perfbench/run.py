"""Benchmark of the kgraphkms CLI and library on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times CLI subprocesses (``validate``, ``phase``,
``kms``, ``fuzz``) and in-process library passes in a closed loop, one call
at a time, for ``--seconds`` seconds, and prints the end-to-end metrics.
With ``--trace 1`` it makes one fixed pass of the same operations in
process (untraced, traced, untraced) and prints per-layer call counts and
self times. Every output is checked by ``oracle``; the last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import os

# At most one BLAS thread, set before numpy is imported here or in a child:
# the matrices are at most 90x90, where extra threads only add scheduling
# noise on a small machine.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kgraphkms" / "__init__.py").is_file():
        print(f"no kgraphkms sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # The launcher starts before numpy is imported; see launcher.py.
    launcher = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("launcher.py"))],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    try:
        sys.path.insert(0, str(SRC))
        from harness import Run, environment, measure
        from traced import traced_pass
        from workloads import WORKLOADS, check_shape, generate

        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        work = generate(args.workload, args.seed)
        check_shape(work)
        workdir.mkdir(parents=True)
        run = Run(work, workdir, SRC, launcher)
        print(f"# {environment(BLAS_THREADS)}")
        if args.trace:
            metrics = traced_pass(run, OUT_DIR / f"trace-{work.name}.jsonl")
        else:
            metrics = measure(run, args.seconds)
    finally:
        launcher.stdin.close()
        launcher.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
