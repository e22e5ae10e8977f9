"""Structured metrics logging and report generation.

Runs emit one JSONL record per simulation event; reports are pure
functions of the log and can always be regenerated byte-identically.

`SCHEMA` is the log format: each event's fields with their types.  Every
line holds all of `MetricsRecord`'s keys in its field order, null (false
for ``estimated``) where the event has no such field.  The writer renders
each line from its event's one template, built from the table, a window of
records per call, every value as `json.dumps` writes it; `read_log`
reports and leaves out a line that is not a JSON object and a record whose
required field is missing or of a type the table does not admit, or that
breaks a record check, so `build_report` reads those fields unguarded.
`read_log` decodes the log a block of lines at a time and builds each
record, a tuple, straight from its line's object when the keys are the
record's own in order, as they are on every line the writer produces.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from itertools import islice, product
from operator import itemgetter
from typing import NamedTuple

from .errors import IncompleteLogError

# Each event's fields in key order, with their types (a float field takes
# an int too).  The fields the report reads are required, and so is
# `estimated`, which is never null; every other type admits None, so a
# record may leave that field null.  The engines write every field of
# `train_window`, `eval` and `oom`; a sync aggregate carries no client or
# staleness and an async one no power, and only async dropouts are timed.
SCHEMA: dict[str, dict[str, type]] = {
    "train_window": {
        "client_id": str, "t_start_s": float, "t_end_s": float, "mem_mib": float | None,
        "power_w": float | None, "util_pct": float | None, "energy_j": float,
        "n_samples": int | None, "loss": float | None, "estimated": bool,
    },
    "aggregate": {
        "client_id": str | None, "t_start_s": float | None, "t_end_s": float | None,
        "power_w": float | None, "util_pct": float | None, "energy_j": float | None,
        "n_samples": int | None, "staleness": int | None, "estimated": bool,
    },
    "eval": {
        "t_start_s": float | None, "t_end_s": float | None, "n_samples": int | None,
        "accuracy": float,
    },
    "dropout": {"client_id": str | None, "t_start_s": float | None, "t_end_s": float | None},
    "oom": {"client_id": str, "mem_mib": float | None, "estimated": bool},
    "stalled": {"t_start_s": float | None, "t_end_s": float | None},
}


# How far a record's energy_j may stray from power x duration, relative to it.
ENERGY_RTOL = 1e-6


def _check(event: str, t_start_s=None, t_end_s=None, power_w=None, energy_j=None) -> None:
    """The checks every record passes, on whichever path it is written."""
    if event not in SCHEMA:
        raise ValueError(f"unknown event {event!r}")
    if t_start_s is not None and t_end_s is not None:
        if t_end_s < t_start_s:
            raise ValueError("t_end_s must be >= t_start_s")
        if power_w is not None and energy_j is not None:
            expect = power_w * (t_end_s - t_start_s)
            tol = ENERGY_RTOL * max(abs(expect), 1e-12)
            if abs(energy_j - expect) > tol:
                raise ValueError(
                    f"energy_j {energy_j} inconsistent with power x duration {expect}"
                )


class _Fields(NamedTuple):
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


class MetricsRecord(_Fields):
    """One log record; the field order is the key order of its log line.

    Constructing one runs the record checks; `_make` builds one from its
    field values without them, for a caller that has run them itself.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        rec = super().__new__(cls, *args, **kwargs)
        _check(rec.event, rec.t_start_s, rec.t_end_s, rec.power_w, rec.energy_j)
        return rec


_KEY_ORDER = MetricsRecord._fields
_WINDOW = ("t_start_s", "t_end_s", "power_w", "energy_j")
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(x) -> str:
    """A number's or a flag's JSON text, as `json.dumps` writes it; None is null."""
    if isinstance(x, float):  # np.float64 too, whose own repr names its type
        text = float.__repr__(x)
        return _NON_FINITE.get(text, text)
    if x is None:
        return "null"
    if type(x) is bool:
        return "true" if x else "false"
    return int.__repr__(x)


def _string(x) -> str:
    """A string's JSON text, as `json.dumps` writes it; None is null."""
    return "null" if x is None else encode_basestring_ascii(x)


def _values_at(positions: list[int]):
    """A callable giving a row's values at `positions`, as a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda values: tuple(values[i] for i in positions)


def _form(event: str, types: dict[str, type]) -> tuple:
    """How one event's rows become lines: its template, each slot's type
    and renderer, a getter of the row's `_WINDOW` values (a prefix of
    `_WINDOW`, so `_check`'s leading arguments), a getter of its floats,
    and the position and renderer of each string and flag slot.

    A row is the round, then the event's fields in key order.  The
    template's slots are the run id and the row's values, all `%s`; every
    other key holds its record default.  Each slot has one type: int for
    the round, each field's type other than None.  A row whose values are
    each exactly of their slot's type, with finite floats, fills the
    template with its numbers as they are: `%s` writes a float as
    `float.__repr__` and an int as `int.__repr__`, as `json.dumps` does.
    Any other row (a None, an np.float64, a NaN or infinity, an int in a
    float field, a bool or float round, a bool in a number field) has every
    value rendered by its slot's renderer, which writes it as `json.dumps`
    does.
    """
    names = [k for k in _KEY_ORDER if k in types]
    kinds = (int, *(next(kind for kind in getattr(types[k], "__args__", (types[k],))
                         if kind is not type(None)) for k in names))
    renderers = tuple(_string if kind is str else _number for kind in kinds)
    fill = {"run_id": "%s", "round": "%s", "event": json.dumps(event), **dict.fromkeys(names, "%s")}
    defaults = MetricsRecord._field_defaults
    template = "{" + ", ".join(f'"{k}": {fill.get(k) or json.dumps(defaults[k])}'
                               for k in _KEY_ORDER) + "}\n"
    window = [k for k in _WINDOW if k in names]
    assert window == list(_WINDOW[:len(window)]), event
    return (template, kinds, renderers, _values_at([1 + names.index(k) for k in window]),
            _values_at([i for i, kind in enumerate(kinds) if kind is float]),
            tuple((i, renderers[i]) for i, kind in enumerate(kinds) if kind in (str, bool)))


_FORMS = {event: _form(event, types) for event, types in SCHEMA.items()}
# Lines joined into one stream write: a window of many clients is written
# in pieces of this many, so its text never all sits in memory at once.
_PIECE_LINES = 256


def _line(run_id: str, event: str, row: list) -> str:
    """One row's line: the record checks, then its event's template, filled
    with the row's numbers as they are if the row's types allow (see `_form`)."""
    if event not in _FORMS:
        raise ValueError(f"unknown event {event!r}")
    template, kinds, renderers, window, floats, texts = _FORMS[event]
    _check(event, *window(row))
    if tuple(map(type, row)) == kinds and all(map(math.isfinite, floats(row))):
        for i, render in texts:
            row[i] = render(row[i])
        return template % (run_id, *row)
    return template % (run_id, *[render(v) for render, v in zip(renderers, row)])


class _Void:
    """A stream that keeps nothing: `write` hands its text back, so a writer over
    it drops each line once rendered and `csv.writer.writerow` returns its row."""

    def write(self, text: str) -> str:
        return text

    def flush(self) -> None:
        pass


class MetricsWriter:
    """Single-writer JSONL sink: `write_rows` renders every line from its
    event's one template, after the record checks, each value as
    `json.dumps` writes it.  The engines hand it a window's rows at once
    and each `eval` record through `emit`, which hands it the record's
    values as one row.

    The stream is flushed after every ``eval`` record, which closes each
    sync round and each async evaluation window: at those points the file
    on disk ends at a record boundary, so a checkpoint written after
    `run_sync` returns is never ahead of the log.  Lines in between reach
    the disk when the stream's buffer fills or it is closed.

    The writer keeps nothing in memory, so a long run's log costs no heap;
    read a log file back with `read_log`.  A writer without a stream
    (``MetricsWriter(None)``) checks and renders every record and drops
    it, so a run given no sink fails at the record a logged run fails at.
    """

    def __init__(self, stream):
        self._stream = _Void() if stream is None else stream

    def emit(self, record: MetricsRecord) -> None:
        """`write_rows` of `record`'s `SCHEMA` fields, refusing a value its event lacks."""
        # Kept for perfbench's `_stamp_evals`, which wraps it to time evaluations (ROADMAP item 1).
        values = record._asdict()
        run_id = values.pop("run_id")
        row = tuple(values.pop(k) for k in ("event", "round", *SCHEMA[record.event]))
        if stray := [k for k, v in values.items() if v is not MetricsRecord._field_defaults[k]]:
            raise ValueError(f"{record.event} record sets {', '.join(stray)}, which its event lacks")
        self.write_rows(run_id, [row])

    def write_rows(self, run_id: str, rows) -> None:
        """Write one record of run `run_id` per row, (event, round, values
        of the event's `SCHEMA` fields in key order), in order: the line
        `json.dumps` writes of the record, and a newline, whatever the
        values' types (a bool or float round, a bool in a number field).
        A row that fails the record checks or that `json.dumps` would not
        write (an np.int64, a client id that is no string) raises, after
        every row before it is written and with nothing of its own."""
        run_id = encode_basestring_ascii(run_id)
        lines: list[str] = []
        try:
            for event, *row in rows:
                lines.append(_line(run_id, event, row))
                if event == "eval" or len(lines) == _PIECE_LINES:
                    self._stream.write("".join(lines))
                    lines.clear()
                    if event == "eval":
                        self._stream.flush()
        finally:
            if lines:
                self._stream.write("".join(lines))


class _LogFile:
    """An append-mode text file opened at its first write, so a run that
    fails before its first record leaves no file behind."""

    def __init__(self, path):
        self._path = path
        self._fh = None

    def write(self, text: str) -> None:
        if self._fh is None:
            self._fh = open(self._path, "a")
        self._fh.write(text)

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def open_log_writer(path) -> tuple[MetricsWriter, _LogFile]:
    """A writer appending to the log at `path` and the file to close after
    the run; the file is created at the first record."""
    fh = _LogFile(path)
    return MetricsWriter(fh), fh


# Per event: the run id, the round, the required fields and, for aggregates,
# the nullable energy the report sums, each with the JSON types it admits (a
# float field takes an int, a bool is no number), and every admitted sequence.
_REQUIRED = {
    event: {
        "run_id": (str,), "round": (int,),
        **{k: (float, int) if typ is float else (typ,)
           for k, typ in types.items() if not isinstance(None, typ)},
    }
    for event, types in SCHEMA.items()
}
_REQUIRED["aggregate"]["energy_j"] = (float, int, type(None))
_REQUIRED_VALUES = {event: itemgetter(*map(_KEY_ORDER.index, names))
                    for event, names in _REQUIRED.items()}
# Per event, each admitted type signature of the required values, with the positions
# of its ints in float fields, which must convert to floats (the writer writes none).
_SIGNATURES = {event: {sig: tuple(i for i, (typ, admits) in enumerate(zip(sig, fields.values()))
                                  if typ is int and float in admits)
                       for sig in product(*fields.values())}
               for event, fields in _REQUIRED.items()}
_CHECK_ARGS = itemgetter(*map(_KEY_ORDER.index, ("event", *_WINDOW)))
_DEFAULTS = tuple(MetricsRecord._field_defaults.get(k) for k in _KEY_ORDER)
_UNPARSEABLE = "unparseable record (truncated log?)"
# Lines decoded at once: enough to spread one `json.loads` over many
# records, few enough that the block's text and objects stay small next to
# the records read.
_BLOCK_LINES = 128


def _misfit(event: str, values: tuple) -> str:
    """Why a record's required `values` do not fit its event."""
    bad = [(k, v) for (k, admits), v in zip(_REQUIRED[event].items(), values)
           if type(v) not in admits]
    lacks = [k for k, v in bad if v is None]
    return f"lacks {', '.join(lacks)}" if lacks else f"has mistyped {', '.join(k for k, _ in bad)}"


def _record(doc):
    """The record a decoded log line holds, or why it holds none.

    An object whose keys are the record's, in order, gives its values as
    they stand; any other object drops the keys the record lacks and takes
    the record's defaults.  The required fields' types are checked before
    the record checks, so a mistyped value is reported as mistyped.
    """
    if not isinstance(doc, dict):
        return _UNPARSEABLE
    if tuple(doc) == _KEY_ORDER:
        values = tuple(doc.values())
    else:
        values = tuple(map(doc.get, _KEY_ORDER, _DEFAULTS))
    event = values[2]
    try:
        admits = _SIGNATURES[event]
    except (KeyError, TypeError):  # an unknown or unhashable event
        return _UNPARSEABLE
    required = _REQUIRED_VALUES[event](values)
    int_floats = admits.get(tuple(map(type, required)))
    if int_floats is None:
        return f"{event} record {_misfit(event, required)}"
    try:
        _check(*_CHECK_ARGS(values))
        for i in int_floats:
            float(required[i])
    except ValueError as exc:
        return f"{event} record breaks a rule: {exc}"
    except (TypeError, OverflowError):  # a type the checks cannot use, or past float range
        return _UNPARSEABLE
    return MetricsRecord._make(values)


def _utf8(text: str) -> bool:
    """Whether `text` was read from UTF-8 alone: `read_log` reads any other
    byte as a lone surrogate, which does not encode back."""
    if text.isascii():
        return True
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def _line_record(line: str):
    """`_record` of one stripped line; a line holding a byte that is not
    UTF-8 or no JSON value holds no record."""
    if not _utf8(line):
        return _UNPARSEABLE
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError):  # RecursionError: nested past the interpreter's limit
        return _UNPARSEABLE
    return _record(doc)


def _block_docs(lines: list[str]) -> list | None:
    """The JSON values of a block's stripped, non-blank lines, one a line,
    from one decode of the whole block; None when one decode cannot tell
    that each line holds exactly one value.

    The lines are joined with a newline and a comma.  A strict decode
    admits no raw newline in a string, so no string crosses a joiner.  When
    no line holds a ``[`` and every line after the first starts with ``{``,
    no object crosses a joiner either, since after the joiner's comma an
    object wants a key.  Each line then holds whole values, at least one,
    and as many values as lines means one a line.
    """
    text = "[" + "\n,".join(lines) + "]"
    if not _utf8(text) or text.count("[") != 1 or text.count("\n,{") != len(lines) - 1:
        return None
    try:
        docs = json.loads(text)
    except (ValueError, RecursionError):
        return None
    return docs if len(docs) == len(lines) else None


def read_log(path) -> tuple[list[MetricsRecord], list[str]]:
    """Parse a JSONL log; returns (records, problems).

    An unparseable tail marks the log truncated rather than failing the
    whole read.  A line that is not a JSON object or holds a byte that is
    not UTF-8, a record whose required field (`SCHEMA`) is missing, of
    another JSON type or an int past float range, an aggregate whose energy
    is neither a number nor null, and a record that breaks a record check
    are reported and left out.  Problems name their line, counting blank ones.

    The file is read `_BLOCK_LINES` lines at a time and each block decoded
    at once (`_block_docs`); a block that does not decode into one value a
    line is decoded line by line, so that the bad lines are named.
    """
    records, problems = [], []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        first = 1
        while block := list(islice(fh, _BLOCK_LINES)):
            stripped = [line.strip() for line in block]
            lines = list(filter(None, stripped))
            docs = _block_docs(lines)
            parsed = map(_record, docs) if docs is not None else map(_line_record, lines)
            numbers = None
            for i, rec in enumerate(parsed):
                if type(rec) is MetricsRecord:
                    records.append(rec)
                    continue
                if numbers is None:
                    numbers = [n for n, line in enumerate(stripped, first) if line]
                problems.append(f"line {numbers[i]}: {rec}")
            first += len(block)
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
            ct.energy_j += rec.energy_j
            ct.rounds_participated += 1
            report.total_energy_j += rec.energy_j
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


def _csv(rows) -> str:
    """`rows` as CSV text, a field quoted where it holds a comma, a quote, a
    LF or a CR.  The writer quotes a field holding a character of its line
    terminator, so each row is rendered ending in CR LF, then ends in LF."""
    writer = csv.writer(_Void(), lineterminator="\r\n")
    return "".join(writer.writerow(row)[:-2] + "\n" for row in rows)


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
        return _csv([
            ("section", "key", "value"),
            *(("round_accuracy", rnd, _fmt(acc)) for rnd, acc in report.round_accuracy),
            ("summary", "final_accuracy", _fmt(report.final_accuracy)),
            ("summary", "total_energy_j", _fmt(report.total_energy_j, 6)),
            ("summary", "total_time_s", _fmt(report.total_time_s, 6)),
            *(("client", cid, f"time_s={_fmt(ct.time_s, 6)};energy_j={_fmt(ct.energy_j, 6)};"
                              f"rounds={ct.rounds_participated};oom={ct.oom_count}")
              for cid, ct in sorted(report.clients.items())),
            *(("problem", i, p) for i, p in enumerate(report.problems, start=1)),
        ])
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
        return _csv([("run_id", "final_accuracy", "total_energy_j"), *(
            (r.run_id, _fmt(r.final_accuracy), _fmt(r.total_energy_j, 6)) for r in rows)])
    lines = [f"{'run_id':>20} {'final_acc':>10} {'energy_j':>14}"]
    for r in rows:
        lines.append(
            f"{r.run_id:>20} {_fmt(r.final_accuracy):>10} {_fmt(r.total_energy_j, 2):>14}"
        )
    return "\n".join(lines) + "\n"
