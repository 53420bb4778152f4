"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload topic-fit --seed 1 --seconds 36 --trace 0

Run from the repository root.  The script generates the workload's
collection from the seed, then starts one worker process (``driver.py``)
that drives ``ldikit.cli.main`` in-process over the repository's ``src``
with BLAS pinned to one thread, so neither the generator's time nor its
memory is measured.  It prints every metric with its unit, then the
environment, and last one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-module
ones.  Spans, results and logs stay under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

from generate import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ldikit benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ldikit" / "cli.py").is_file():
        print(f"no ldikit sources under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    inputs = out / "inputs"
    generate(workload.shape, args.seed, inputs)

    env = {k: v for k, v in os.environ.items() if not k.startswith("LDIKIT_")}
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "driver.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", str(inputs), "--out", str(out)]
    with open(out / "driver.log", "w") as log:
        child = subprocess.Popen(cmd, env=env, stdout=log, stderr=log,
                                 cwd=str(ROOT))
        try:
            rc = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            rc = "timeout"
    shutil.rmtree(inputs, ignore_errors=True)
    shutil.rmtree(out / "work", ignore_errors=True)
    result_path = out / "result.json"
    if rc != 0 or not result_path.is_file():
        print(f"benchmark worker failed ({rc}); see {out / 'driver.log'}:",
              file=sys.stderr)
        print((out / "driver.log").read_text()[-3000:], file=sys.stderr)
        return 1

    result = json.loads(result_path.read_text())
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"passes {json.dumps(result['passes'])}")
    print(f"environment {json.dumps(result['environment'])}")
    for failure in result["failures"]:
        print(f"FAILED CHECK: {failure}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
