"""One benchmark run of one workload, in the process that measures it.

run.py starts this file with single-threaded BLAS and a hard time limit:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Each operation drives the API that ``fedsim run`` and ``fedsim report`` use:
config_from_dict -> open_log_writer -> run_sync/run_async -> close ->
report_from_log -> render_report, writing a real log file. Every operation is
checked; a failed check counts as a failed operation. The last line printed
is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from tracer import Tracer
from workloads import WORKLOADS, Pinned

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up and reports are short, so each is repeated and the median
# reported. The counts are fixed, not timed: each fresh import of fedsim
# keeps about 0.3 MiB alive, and the number of reports shifts when the
# garbage collector runs, so counts that followed the host's speed would
# move peak_rss_mib.
SETUP_REPEATS = 15
REPORT_REPEATS = 4  # per untraced operation
MIN_UNTRACED_OPS = 3
MIN_TRACED_OPS = 2
ROOT_SPAN = "orchestrator.run"


@dataclass
class Op:
    traced: bool
    problems: list[str] = field(default_factory=list)
    run_s: float | None = None  # None when the operation raised
    first_eval_s: float = 0.0
    round_s: list[float] = field(default_factory=list)
    report_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0  # the operation with its checks, to plan the next
    digest: str = ""
    final_accuracy: float = float("nan")
    clock: float = float("nan")
    events: Counter = field(default_factory=Counter)
    log_bytes: int = 0
    layers: dict | None = None
    updates: int = 0
    speed: float = 1.0  # hostspeed.factor around the operation


def import_fedsim():
    """Import fedsim from this checkout's src/, never from site-packages."""
    if not (SRC / "fedsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fedsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "fedsim" or n.startswith("fedsim.")]:
        del sys.modules[name]
    import fedsim

    if Path(fedsim.__file__).resolve().parent != SRC / "fedsim":
        raise SystemExit(f"perfbench: imported fedsim from {fedsim.__file__}")
    return fedsim


def setup(workload, seed: int):
    """Import fedsim afresh, build the workload config, load calibration."""
    start = time.perf_counter()
    fedsim = import_fedsim()
    doc = workload.build(seed)
    fedsim.config.config_from_dict(doc)
    fedsim.costs.load_calibration()
    return time.perf_counter() - start, fedsim, doc


def _stamp_evals(sink, stamps: list[float]) -> None:
    """Timestamp every eval record once the sink has written it."""
    emit = sink.emit

    def stamped(record):
        emit(record)
        if record.event == "eval":
            stamps.append(time.perf_counter())

    sink.emit = stamped


def run_op(fs, workload, doc, log_path: Path, tracer: Tracer | None = None) -> Op:
    """One timed operation and its checks; never raises."""
    op = Op(traced=tracer is not None)
    log_path.unlink(missing_ok=True)
    stamps: list[float] = []
    try:
        with tracer.installed() if tracer else nullcontext():
            with tracer.span(ROOT_SPAN) if tracer else nullcontext():
                start = time.perf_counter()
                cfg = fs.config.config_from_dict(doc)
                sink, fh = fs.metrics.open_log_writer(log_path)
                _stamp_evals(sink, stamps)
                try:
                    if cfg.strategy == "fedasync":
                        result = fs.orchestrator.run_async(cfg, sink)
                    else:
                        result = fs.orchestrator.run_sync(cfg, sink)
                finally:
                    fh.close()
                end = time.perf_counter()
            for _ in range(1 if tracer else REPORT_REPEATS):
                report_start = time.perf_counter()
                report = fs.metrics.report_from_log(log_path)
                text = fs.metrics.render_report(report)
                op.report_s.append(time.perf_counter() - report_start)
        data = log_path.read_bytes()
        events = Counter(json.loads(line)["event"] for line in data.splitlines())
    except Exception as exc:  # a failed operation is counted, not raised
        op.problems.append(f"{type(exc).__name__}: {exc}")
        return op
    op.run_s = end - start
    if stamps:
        op.first_eval_s = stamps[0] - start
        op.round_s = [b - a for a, b in zip(stamps, stamps[1:])]
    op.digest = hashlib.sha256(data).hexdigest()
    op.final_accuracy = result.final_accuracy
    op.clock = result.clock
    op.events = events
    op.log_bytes = len(data)
    if tracer:
        op.layers = tracer.summary()
        op.updates = tracer.items["aggregate.fedavg_aggregate"] + op.layers[
            "aggregate.fedasync_update"]["calls"]
    for event, expected in workload.events.items():
        if events[event] != expected:
            op.problems.append(f"{events[event]} {event} records, expected {expected}")
    if len(stamps) != events["eval"]:
        op.problems.append(f"{len(stamps)} eval records reached the sink, log has {events['eval']}")
    if not report.complete:
        op.problems.append(f"report incomplete: {report.problems}")
    if report.final_accuracy != result.final_accuracy:
        op.problems.append("report and run disagree on final accuracy")
    if result.run_id not in text:
        op.problems.append("rendered report does not name the run")
    return op


def check_reference(op: Op, ref: Pinned) -> None:
    """Byte identity of the log, and the run's final accuracy and clock."""
    if op.digest != ref.log_sha256:
        op.problems.append(f"log sha256 {op.digest} != {ref.log_sha256}")
    if op.final_accuracy != ref.final_accuracy:
        op.problems.append(f"final accuracy {op.final_accuracy!r} != {ref.final_accuracy!r}")
    if op.clock != ref.clock:
        op.problems.append(f"clock {op.clock!r} != {ref.clock!r}")


def checkpoint_resume_problems(fs, workload, doc, work: Path, ref: Pinned) -> list[str]:
    """Stop after a round, checkpoint through a file, resume into the same
    log; the log must equal the uninterrupted one byte for byte."""
    log_path = work / f"{workload.name}-{os.getpid()}.resume.jsonl"
    cp_path = work / f"{workload.name}-{os.getpid()}.checkpoint.json"
    log_path.unlink(missing_ok=True)
    try:
        cfg = fs.config.config_from_dict(doc)
        sink, fh = fs.metrics.open_log_writer(log_path)
        try:
            partial = fs.orchestrator.run_sync(
                cfg, sink, stop_after_round=workload.checkpoint_round
            )
        finally:
            fh.close()
        fs.orchestrator.write_checkpoint(fs.orchestrator.checkpoint_save(partial, cfg), cp_path)
        cp = fs.orchestrator.read_checkpoint(cp_path)
        sink, fh = fs.metrics.open_log_writer(log_path)
        try:
            result = fs.orchestrator.checkpoint_resume(cp, cfg, sink)
        finally:
            fh.close()
        digest = hashlib.sha256(log_path.read_bytes()).hexdigest()
    except Exception as exc:  # a failed check is counted, not raised
        return [f"checkpoint/resume: {type(exc).__name__}: {exc}"]
    finally:
        cp_path.unlink(missing_ok=True)
        log_path.unlink(missing_ok=True)
    op = Op(traced=False, digest=digest, final_accuracy=result.final_accuracy,
            clock=result.clock)
    check_reference(op, ref)
    return [f"checkpoint/resume: {p}" for p in op.problems]


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def middle_mean(values) -> float:
    """Mean of the middle half: unlike the median it does not jump when the
    host flips between two speeds, and unlike the mean it ignores the
    operations that a neighbour stalled."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(setup_times, ops: list[Op]) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as (value, sample count). Each operation's
    times are scaled by the host speed around it (hostspeed.py) and then
    averaged over the middle half of the operations."""
    timed = [op for op in ops if op.run_s is not None and not op.traced]

    def over_ops(per_op) -> float:
        return middle_mean(per_op(op) * op.speed for op in timed)

    run_s = over_ops(lambda op: op.run_s)
    n_rounds = sum(len(op.round_s) for op in timed)
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "run_s": (run_s, len(timed)),
        "updates_per_s": (timed[0].events["train_window"] / run_s, len(timed)),
        "first_eval_s": (over_ops(lambda op: op.first_eval_s), len(timed)),
        # Each operation's median and p90 of its round intervals: a pooled
        # p90 would rest on a few samples on short runs.
        "round_s.p50": (over_ops(lambda op: statistics.median(op.round_s)), n_rounds),
        "round_s.p90": (over_ops(lambda op: p90(op.round_s)), n_rounds),
        "report_s": (over_ops(lambda op: statistics.median(op.report_s)),
                     sum(len(op.report_s) for op in timed)),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def median_layers(traced: list[Op]) -> dict[str, dict]:
    """Each span name's calls (they repeat exactly) and median seconds over
    the traced operations."""
    return {
        name: {
            "calls": v["calls"],
            "s": statistics.median(op.layers[name]["s"] for op in traced),
            "self_s": statistics.median(op.layers[name]["self_s"] for op in traced),
        }
        for name, v in traced[0].layers.items()
    }


def layer_shares(layers: dict) -> dict[str, tuple[float, float]]:
    """Self seconds and share of all traced time for each module."""
    total = sum(v["self_s"] for v in layers.values())
    per_module: dict[str, float] = Counter()
    for name, v in layers.items():
        per_module[name.split(".")[0]] += v["self_s"]
    return {m: (s, s / total) for m, s in sorted(per_module.items())}


def print_shares(layers: dict) -> None:
    total = sum(v["self_s"] for v in layers.values())
    ranked = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    for name, v in ranked:
        print(f"# self share {v['self_s'] / total:7.2%} {name} ({v['calls']} calls)")
    for module, (_, share) in layer_shares(layers).items():
        print(f"# layer share {share:7.2%} {module}")


def per_layer(ops: list[Op], layers: dict) -> dict[str, tuple[float, int]]:
    """Every per-layer metric as (value, sample count)."""
    traced = [op for op in ops if op.traced and op.run_s is not None]
    untraced = [op for op in ops if not op.traced and op.run_s is not None]
    n = len(traced)
    out: dict[str, tuple[float, int]] = {}
    for name, v in layers.items():
        for key in ("calls", "s", "self_s"):
            out[f"{name}.{key}"] = (v[key], n)
    for module, (self_s, share) in layer_shares(layers).items():
        out[f"layer.{module}.self_s"] = (self_s, n)
        out[f"layer.{module}.share"] = (share, n)
    out["orchestrator.self_s"] = out[f"{ROOT_SPAN}.self_s"]
    out["aggregate.updates"] = (traced[0].updates, n)
    out["metrics.log_bytes"] = (traced[0].log_bytes, n)
    events = traced[0].events
    attempts = events["train_window"] + events["dropout"]
    out["orchestrator.useful_attempt_ratio"] = (events["train_window"] / attempts, n)
    run_s = [statistics.median(op.run_s * op.speed for op in group)
             for group in (traced, untraced)]
    out["trace_overhead"] = (run_s[0] / run_s[1], n)
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    reference = hostspeed.Reference()
    # The reference kernel brackets every set-up and operation: kernel[i]
    # runs right before step i and kernel[i + 1] right after it.
    kernel = [reference.time()]
    raw_setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        elapsed, fs, doc = setup(workload, args.seed)
        raw_setups.append(elapsed)
        kernel.append(reference.time())
    setup_times = [t * hostspeed.factor(kernel[i], kernel[i + 1])
                   for i, t in enumerate(raw_setups)]
    import numpy

    print(
        f"# workload={workload.name} seed={args.seed} python={platform.python_version()} "
        f"numpy={numpy.__version__} nproc={len(os.sched_getaffinity(0))} "
        + " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    )

    OUT.mkdir(exist_ok=True)
    log_path = OUT / f"{workload.name}-{os.getpid()}.jsonl"
    ops: list[Op] = []
    # Ops alternate untraced and traced when tracing, so both see the same
    # machine conditions; the loop stops before an op would overrun.
    pattern = (False, True) if args.trace else (False,)
    last_tracer = None
    kernel = [reference.time()]
    start = time.perf_counter()
    try:
        while True:
            tracer = Tracer(fs) if pattern[len(ops) % len(pattern)] else None
            began = time.perf_counter()
            ops.append(run_op(fs, workload, doc, log_path, tracer))
            kernel.append(reference.time())
            ops[-1].speed = hostspeed.factor(kernel[-2], kernel[-1])
            ops[-1].wall_s = time.perf_counter() - began
            last_tracer = tracer or last_tracer
            n_traced = sum(op.traced for op in ops)
            enough = (len(ops) - n_traced >= MIN_UNTRACED_OPS
                      and n_traced >= (MIN_TRACED_OPS if args.trace else 0))
            next_wall = statistics.median(op.wall_s for op in ops)
            if enough and time.perf_counter() - start + next_wall > args.seconds:
                break
    finally:
        log_path.unlink(missing_ok=True)

    completed = [op for op in ops if op.run_s is not None]
    if not completed:
        print("\n".join(f"# failed: {p}" for op in ops for p in op.problems), file=sys.stderr)
        return 1
    ref = workload.pinned if args.seed == 0 else Pinned(
        completed[0].digest, completed[0].final_accuracy, completed[0].clock
    )
    for op in completed:
        check_reference(op, ref)
    traced = [op for op in completed if op.traced]
    for op in traced[1:]:
        calls = {k: v["calls"] for k, v in op.layers.items()}
        if calls != {k: v["calls"] for k, v in traced[0].layers.items()}:
            op.problems.append("traced call counts differ between traced runs")
    attempted, failed = len(ops), sum(bool(op.problems) for op in ops)
    if workload.checkpoint_round is not None:
        attempted += 1
        problems = checkpoint_resume_problems(fs, workload, doc, OUT, ref)
        failed += bool(problems)
        print("".join(f"# failed: {p}\n" for p in problems), end="")
    print(f"# log sha256 {ref.log_sha256} (seed {args.seed}), "
          f"final accuracy {ref.final_accuracy!r}, clock {ref.clock!r}")
    print("# operations (unscaled run_s, * traced): " + " ".join(
        f"{op.run_s:.3f}{'*' if op.traced else ''}" for op in completed))
    print("# host speed factors: " + " ".join(f"{op.speed:.3f}" for op in completed))
    print(f"# reference kernel: median {statistics.median(kernel):.4f} s over {len(kernel)} "
          f"passes, scale {hostspeed.REFERENCE_S} s; unscaled set-up median "
          f"{statistics.median(raw_setups):.4f} s")
    for op in ops:
        for p in op.problems:
            print(f"# failed op: {p}")

    if args.trace:
        last_tracer.write(OUT / f"{workload.name}-seed{args.seed}.spans.json")
        layers = median_layers(traced)
        print_shares(layers)
        values = per_layer(ops, layers)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(setup_times, ops)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, samples = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']:<40} {value:>14.6g} {m['unit']:<6} n={samples}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
