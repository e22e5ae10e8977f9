"""Structured metrics logging and report generation.

Runs emit one JSONL record per simulation event; reports are pure
functions of the log and can always be regenerated byte-identically.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, fields

from .errors import IncompleteLogError

EVENTS = ("train_window", "aggregate", "eval", "dropout", "oom", "stalled")

# Fixed serialization order for log lines.
_KEY_ORDER = (
    "run_id", "round", "event", "client_id", "t_start_s", "t_end_s",
    "mem_mib", "power_w", "util_pct", "energy_j", "n_samples", "loss",
    "accuracy", "staleness", "estimated",
)


@dataclass(frozen=True)
class MetricsRecord:
    run_id: str
    round: int
    event: str
    client_id: str | None = None
    t_start_s: float | None = None
    t_end_s: float | None = None
    mem_mib: float | None = None
    power_w: float | None = None
    util_pct: float | None = None
    energy_j: float | None = None
    n_samples: int | None = None
    loss: float | None = None
    accuracy: float | None = None
    staleness: int | None = None
    estimated: bool = False

    def __post_init__(self):
        if self.event not in EVENTS:
            raise ValueError(f"unknown event {self.event!r}")
        if self.t_start_s is not None and self.t_end_s is not None:
            if self.t_end_s < self.t_start_s:
                raise ValueError("t_end_s must be >= t_start_s")
            if self.power_w is not None and self.energy_j is not None:
                expect = self.power_w * (self.t_end_s - self.t_start_s)
                tol = 1e-6 * max(abs(expect), 1e-12)
                if abs(self.energy_j - expect) > tol:
                    raise ValueError(
                        f"energy_j {self.energy_j} inconsistent with "
                        f"power x duration {expect}"
                    )

    def to_line(self) -> str:
        doc = {k: getattr(self, k) for k in _KEY_ORDER}
        return json.dumps(doc)

    @staticmethod
    def from_line(line: str) -> "MetricsRecord":
        doc = json.loads(line)
        names = {f.name for f in fields(MetricsRecord)}
        return MetricsRecord(**{k: v for k, v in doc.items() if k in names})


class MetricsWriter:
    """Single-writer JSONL sink.

    The stream is flushed after every ``eval`` record, which closes each
    sync round and each async evaluation window: at those points the file
    on disk ends at a record boundary, so a checkpoint written after
    `run_sync` returns is never ahead of the log.  Lines in between reach
    the disk when the stream's buffer fills or it is closed.

    A writer over a stream keeps nothing in memory, so a long run's log
    costs no heap; read the stream back with `MetricsRecord.from_line`.
    A writer without a stream (``MetricsWriter(None)``) keeps every record
    in `records` instead, which is None for a streaming writer.
    """

    def __init__(self, stream):
        self._stream = stream
        self.records: list[MetricsRecord] | None = [] if stream is None else None

    def emit(self, record: MetricsRecord) -> None:
        if self._stream is None:
            self.records.append(record)
        else:
            self._stream.write(record.to_line() + "\n")
            if record.event == "eval":
                self._stream.flush()


def open_log_writer(path) -> tuple[MetricsWriter, io.TextIOBase]:
    fh = open(path, "a")
    return MetricsWriter(fh), fh


def read_log(path) -> tuple[list[MetricsRecord], list[str]]:
    """Parse a JSONL log; returns (records, problems).

    An unparseable tail marks the log truncated rather than failing the
    whole read.
    """
    records, problems = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(MetricsRecord.from_line(line))
            except (json.JSONDecodeError, TypeError, ValueError):
                problems.append(f"line {lineno}: unparseable record (truncated log?)")
    return records, problems


@dataclass
class ClientTotals:
    time_s: float = 0.0
    energy_j: float = 0.0
    rounds_participated: int = 0
    oom_count: int = 0


@dataclass
class RunReport:
    run_id: str
    round_accuracy: list[tuple[int, float]] = field(default_factory=list)
    final_accuracy: float | None = None
    clients: dict[str, ClientTotals] = field(default_factory=dict)
    total_energy_j: float = 0.0
    total_time_s: float = 0.0
    complete: bool = True
    problems: list[str] = field(default_factory=list)


def build_report(records: list[MetricsRecord], problems=()) -> RunReport:
    """Aggregate a metrics log into per-round and per-client summaries.

    The report is for one run: a log holding records of several run ids
    (two runs appended to one file) is reported as incomplete.
    """
    if not records:
        raise IncompleteLogError("empty metrics log")
    report = RunReport(run_id=records[0].run_id, problems=list(problems))
    train_rounds: set[int] = set()
    agg_rounds: set[int] = set()
    eval_counts: dict[int, int] = {}
    for rec in records:
        if rec.event == "train_window":
            ct = report.clients.setdefault(rec.client_id, ClientTotals())
            duration = rec.t_end_s - rec.t_start_s
            ct.time_s += duration
            ct.energy_j += rec.energy_j or 0.0
            ct.rounds_participated += 1
            report.total_energy_j += rec.energy_j or 0.0
            report.total_time_s += duration
            train_rounds.add(rec.round)
        elif rec.event == "oom":
            ct = report.clients.setdefault(rec.client_id, ClientTotals())
            ct.oom_count += 1
        elif rec.event == "aggregate":
            agg_rounds.add(rec.round)
            report.total_energy_j += rec.energy_j or 0.0
        elif rec.event == "eval":
            report.round_accuracy.append((rec.round, rec.accuracy))
            eval_counts[rec.round] = eval_counts.get(rec.round, 0) + 1
    report.round_accuracy.sort(key=lambda t: t[0])
    if report.round_accuracy:
        report.final_accuracy = report.round_accuracy[-1][1]

    missing_agg = train_rounds - agg_rounds
    if missing_agg:
        report.problems.append(
            f"rounds with training but no aggregation: {sorted(missing_agg)}"
        )
    over_eval = [r for r, c in eval_counts.items() if c != 1]
    if over_eval:
        report.problems.append(f"rounds without exactly one eval: {sorted(over_eval)}")
    if not eval_counts:
        report.problems.append("no eval events")
    run_ids = list(dict.fromkeys(rec.run_id for rec in records))
    if len(run_ids) > 1:
        report.problems.append(f"log mixes {len(run_ids)} runs: {run_ids}")
    report.complete = not report.problems
    return report


def report_from_log(path) -> RunReport:
    records, problems = read_log(path)
    if not records:
        raise IncompleteLogError(f"no parseable records in {path}")
    return build_report(records, problems)


def _fmt(x, digits=4):
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.{digits}f}" if math.isfinite(x) else str(x)
    return str(x)


def render_report(report: RunReport, fmt: str = "table") -> str:
    if fmt == "json":
        doc = {
            "run_id": report.run_id,
            "round_accuracy": report.round_accuracy,
            "final_accuracy": report.final_accuracy,
            "clients": {
                cid: vars(ct) for cid, ct in sorted(report.clients.items())
            },
            "total_energy_j": report.total_energy_j,
            "total_time_s": report.total_time_s,
            "complete": report.complete,
            "problems": report.problems,
        }
        return json.dumps(doc, indent=2)
    if fmt == "csv":
        lines = ["section,key,value"]
        for rnd, acc in report.round_accuracy:
            lines.append(f"round_accuracy,{rnd},{_fmt(acc)}")
        lines.append(f"summary,final_accuracy,{_fmt(report.final_accuracy)}")
        lines.append(f"summary,total_energy_j,{_fmt(report.total_energy_j, 6)}")
        lines.append(f"summary,total_time_s,{_fmt(report.total_time_s, 6)}")
        for cid, ct in sorted(report.clients.items()):
            lines.append(
                f"client,{cid},time_s={_fmt(ct.time_s, 6)};"
                f"energy_j={_fmt(ct.energy_j, 6)};"
                f"rounds={ct.rounds_participated};oom={ct.oom_count}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "table":
        lines = [f"run {report.run_id}"]
        lines.append(f"{'round':>6} {'accuracy':>9}")
        for rnd, acc in report.round_accuracy:
            lines.append(f"{rnd:>6} {_fmt(acc):>9}")
        lines.append(f"final accuracy: {_fmt(report.final_accuracy)}")
        lines.append(
            f"totals: time {_fmt(report.total_time_s, 2)} s, "
            f"energy {_fmt(report.total_energy_j, 2)} J"
        )
        lines.append(f"{'client':>8} {'time_s':>12} {'energy_j':>14} {'rounds':>7} {'oom':>4}")
        for cid, ct in sorted(report.clients.items()):
            lines.append(
                f"{cid:>8} {_fmt(ct.time_s, 2):>12} {_fmt(ct.energy_j, 2):>14} "
                f"{ct.rounds_participated:>7} {ct.oom_count:>4}"
            )
        if not report.complete:
            lines.append("INCOMPLETE LOG:")
            lines.extend(f"  {p}" for p in report.problems)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def render_comparison(reports: list[RunReport], fmt: str = "table") -> str:
    """Side-by-side final-accuracy comparison, best run first."""
    rows = sorted(
        reports, key=lambda r: (-(r.final_accuracy or 0.0), r.run_id)
    )
    if fmt == "json":
        return json.dumps(
            [
                {"run_id": r.run_id, "final_accuracy": r.final_accuracy,
                 "total_energy_j": r.total_energy_j}
                for r in rows
            ],
            indent=2,
        )
    if fmt == "csv":
        lines = ["run_id,final_accuracy,total_energy_j"]
        for r in rows:
            lines.append(f"{r.run_id},{_fmt(r.final_accuracy)},{_fmt(r.total_energy_j, 6)}")
        return "\n".join(lines) + "\n"
    lines = [f"{'run_id':>20} {'final_acc':>10} {'energy_j':>14}"]
    for r in rows:
        lines.append(
            f"{r.run_id:>20} {_fmt(r.final_accuracy):>10} {_fmt(r.total_energy_j, 2):>14}"
        )
    return "\n".join(lines) + "\n"
