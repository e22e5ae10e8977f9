"""Self-test of the benchmark harness on a small scenario (about a second).

    python3 perfbench/selftest.py

Checks that tracing leaves no wrapper behind, also when the traced operation
raises, and that a log, accuracy or clock that does not match its pinned
value is reported as a failed operation instead of being raised.
"""

from __future__ import annotations

import sys

import worker
from tracer import Tracer, targets
from workloads import Pinned, Workload


def _small(seed: int) -> dict:
    from fedsim import scenarios

    doc = scenarios.kitti_sync(seed=seed)
    doc["rounds"] = 2
    return doc


SMALL = Workload(
    name="selftest",
    build=_small,
    events={"train_window": 8, "aggregate": 2, "eval": 2},
    pinned=Pinned(log_sha256="0" * 64, final_accuracy=0.0, clock=0.0),
    checkpoint_round=1,
)


def _entry_points(fs) -> list:
    return [vars(owner)[attr] for _, owner, attr in targets(fs)]


def main() -> int:
    _, fs, doc = worker.setup(SMALL, 0)
    worker.OUT.mkdir(exist_ok=True)
    log_path = worker.OUT / "selftest.jsonl"
    originals = _entry_points(fs)
    failures = []

    op = worker.run_op(fs, SMALL, doc, log_path, Tracer(fs))
    if op.problems:
        failures.append(f"traced operation failed: {op.problems}")
    if op.layers["task.local_train"]["calls"] != 8:
        failures.append("traced operation did not record 8 local_train spans")
    if any(now is not then for now, then in zip(_entry_points(fs), originals)):
        failures.append("a wrapper is still installed after a traced operation")

    broken = dict(doc, strategy="no-such-strategy")
    raised = worker.run_op(fs, SMALL, broken, log_path, Tracer(fs))
    if not raised.problems or raised.run_s is not None:
        failures.append("an operation that raised was not counted as failed")
    if any(now is not then for now, then in zip(_entry_points(fs), originals)):
        failures.append("a wrapper is still installed after a traced operation raised")

    worker.check_reference(op, SMALL.pinned)
    if len(op.problems) != 3:
        failures.append(f"pinned mismatches not all reported: {op.problems}")
    resumed = worker.checkpoint_resume_problems(fs, SMALL, doc, worker.OUT, SMALL.pinned)
    if not any("sha256" in p for p in resumed):
        failures.append("checkpoint/resume against a wrong pin was not reported")
    log_path.unlink(missing_ok=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
