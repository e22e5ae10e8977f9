"""fedsim benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The measuring process (worker.py) is started
with single-threaded BLAS, so each workload runs in one process on one
thread, and it is stopped if it overruns. With ``--trace 0`` the last line
of output is a JSON object holding every end-to-end metric named in
BENCHMARK.json; with ``--trace 1``, every per-layer metric. Workloads,
metrics and the reasons for them are in perfbench/DESIGN.md.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *sys.argv[1:]],
            env=env, stdout=subprocess.PIPE, text=True, timeout=TIME_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIME_LIMIT_S} s and was stopped", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
