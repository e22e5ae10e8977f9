"""Metrics records, JSONL logs, and report generation."""

import csv
import functools
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import FLOAT_OVERFLOW, from_line, read_back, reference_line, written
from reference import read_log as reference_read_log

from fedsim.config import config_from_dict
from fedsim.errors import IncompleteLogError
from fedsim.metrics import (
    SCHEMA,
    MetricsRecord,
    MetricsWriter,
    build_report,
    open_log_writer,
    read_log,
    render_comparison,
    render_report,
    report_from_log,
)
from fedsim.orchestrator import run
from fedsim.partition import builtin_plan
from fedsim.scenarios import SCENARIOS, kitti_sync


def rec(**kw):
    base = dict(run_id="r1", round=1, event="eval")
    base.update(kw)
    return MetricsRecord(**base)


def train_rec(rnd, cid, t0, dur, power=300.0, **kw):
    return rec(
        round=rnd, event="train_window", client_id=cid,
        t_start_s=t0, t_end_s=t0 + dur, power_w=power, util_pct=90.0,
        energy_j=power * dur, n_samples=10, loss=1.0, **kw
    )


class TestRecord:
    def test_line_round_trip(self):
        r = train_rec(2, "C1", 0.0, 5.0, mem_mib=1024.0)
        buf = io.StringIO()
        MetricsWriter(buf).emit(r)
        [again] = read_back(buf)
        assert again == r

    def test_key_order_fixed(self):
        line = written(train_rec(1, "C1", 0.0, 1.0))
        keys = list(json.loads(line).keys())
        assert keys == [
            "run_id", "round", "event", "client_id", "t_start_s", "t_end_s",
            "mem_mib", "power_w", "util_pct", "energy_j", "n_samples", "loss",
            "accuracy", "staleness", "estimated",
        ]

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            rec(event="reboot")

    def test_time_ordering_enforced(self):
        with pytest.raises(ValueError):
            rec(event="train_window", t_start_s=5.0, t_end_s=4.0)

    def test_energy_must_equal_power_times_duration(self):
        with pytest.raises(ValueError):
            rec(event="train_window", t_start_s=0.0, t_end_s=2.0,
                power_w=100.0, energy_j=150.0)
        # consistent value is accepted
        rec(event="train_window", t_start_s=0.0, t_end_s=2.0,
            power_w=100.0, energy_j=200.0)

    def test_energy_recompute_oracle(self):
        r = train_rec(1, "C1", 3.5, 7.25, power=312.5)
        assert r.energy_j == pytest.approx(r.power_w * (r.t_end_s - r.t_start_s))


class TestWriterReader:
    def test_writer_flushes_lines(self):
        buf = io.StringIO()
        w = MetricsWriter(buf)
        emitted = [rec(accuracy=0.5), train_rec(1, "C1", 0.0, 2.0)]
        for r in emitted:
            w.emit(r)
        assert read_back(buf) == emitted
        assert not hasattr(w, "records")  # a writer keeps nothing in memory

    def test_round_on_disk_once_eval_emitted(self, tmp_path):
        path = tmp_path / "m.jsonl"
        sink, fh = open_log_writer(path)
        try:
            for rnd in (1, 2):
                emitted = [train_rec(rnd, "C1", 0.0, 2.0), train_rec(rnd, "C2", 0.0, 3.0)]
                for r in emitted:
                    sink.emit(r)
                sink.emit(rec(round=rnd, accuracy=0.5))
                # read through a separate handle: what the file holds now
                lines = path.read_text().splitlines()
                assert len(lines) == 3 * rnd
                assert [from_line(x) for x in lines[-3:]] == emitted + [
                    rec(round=rnd, accuracy=0.5)
                ]
        finally:
            fh.close()

    def test_lines_between_evals_are_buffered(self, tmp_path):
        path = tmp_path / "m.jsonl"
        sink, fh = open_log_writer(path)
        try:
            sink.emit(train_rec(1, "C1", 0.0, 2.0))
            assert path.read_text() == ""  # no flush per line
        finally:
            fh.close()
        assert len(path.read_text().splitlines()) == 1  # close flushes the rest

    def test_read_log_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        records = [train_rec(1, "C1", 0.0, 2.0), rec(accuracy=0.4)]
        path.write_text(written(*records))
        got, problems = read_log(path)
        assert got == records
        assert problems == []

    def test_read_log_reports_record_lacking_its_fields(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"run_id": "x", "round": 1, "event": "train_window", "client_id": "C1"}\n'
            + written(rec(run_id="x", accuracy=0.4))
            + '{"run_id": "x", "round": null, "event": "eval", "accuracy": 0.5}\n'
        )
        got, problems = read_log(path)
        assert got == [rec(run_id="x", accuracy=0.4)]
        assert problems == [
            "line 1: train_window record lacks t_start_s, t_end_s, energy_j",
            "line 3: eval record lacks round",
        ]
        assert not build_report(got, problems).complete

    def test_read_log_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(written(rec(accuracy=0.4)) + '{"run_id": "r1", "rou')
        got, problems = read_log(path)
        assert len(got) == 1
        assert len(problems) == 1
        assert "line 2" in problems[0]

    @pytest.mark.parametrize("line", ['"abc"', "[1, 2]", "7", "null"])
    def test_read_log_reports_line_that_is_not_an_object(self, tmp_path, line):
        path = tmp_path / "m.jsonl"
        path.write_text(line + "\n" + written(rec(accuracy=0.4)))
        got, problems = read_log(path)
        assert got == [rec(accuracy=0.4)]
        assert problems == ["line 1: unparseable record (truncated log?)"]

    @pytest.mark.parametrize("fields, problem", [
        ({"t_start_s": "0", "t_end_s": "5"}, "has mistyped t_start_s, t_end_s"),
        ({"energy_j": True}, "has mistyped energy_j"),
        ({"client_id": 7}, "has mistyped client_id"),
        ({"estimated": 0}, "has mistyped estimated"),
        ({"round": True}, "has mistyped round"),
        ({"round": 1.0}, "has mistyped round"),
        ({"run_id": None}, "lacks run_id"),
        ({"energy_j": None, "client_id": 7}, "lacks energy_j"),
    ])
    def test_read_log_reports_mistyped_field(self, tmp_path, fields, problem):
        # No power, so that no record check reads the times or the energy.
        doc = json.loads(written(rec(event="train_window", client_id="C1", t_start_s=0.0,
                                     t_end_s=2.0, energy_j=5.0, n_samples=10, loss=1.0)))
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({**doc, **fields}) + "\n" + written(rec(accuracy=0.4)))
        got, problems = read_log(path)
        assert got == [rec(accuracy=0.4)]
        assert problems == [f"line 1: train_window record {problem}"]

    def test_read_log_reports_mistyped_value_a_record_check_trips_on(self, tmp_path):
        doc = json.loads(written(train_rec(1, "C1", 0.0, 2.0)))
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({**doc, "t_start_s": "0", "t_end_s": "5"}) + "\n")
        assert read_log(path) == (
            [], ["line 1: train_window record has mistyped t_start_s, t_end_s"]
        )

    @pytest.mark.parametrize("energy", ["5", True, [5.0]])
    def test_read_log_reports_aggregate_energy_that_is_no_number(self, tmp_path, energy):
        # the report adds aggregate energies up, so this one nullable field
        # is type-checked too
        doc = json.loads(written(rec(event="aggregate", energy_j=5.0)))
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({**doc, "energy_j": energy}) + "\n"
                        + written(rec(accuracy=0.4)))
        assert read_log(path) == ([rec(accuracy=0.4)],
                                  ["line 1: aggregate record has mistyped energy_j"])

    def test_read_log_admits_int_in_float_field_and_null_in_nullable_one(self, tmp_path):
        records = [train_rec(1, "C1", 0, 2, power=300, mem_mib=9113),
                   rec(event="aggregate", energy_j=None), rec(event="aggregate", energy_j=3),
                   rec(accuracy=1)]
        path = tmp_path / "m.jsonl"
        path.write_text(written(*records))
        assert read_log(path) == (records, [])

    def test_read_log_reports_byte_that_is_not_utf8(self, tmp_path):
        lines = [written(train_rec(1, f"C{i}", 0.0, 2.0))[:-1].encode() for i in range(4)]
        lines[2] = lines[2].replace(b'"C2"', b'"C\xff2"')  # inside a JSON string
        path = tmp_path / "m.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        got, problems = read_log(path)
        assert [r.client_id for r in got] == ["C0", "C1", "C3"]
        assert problems == ["line 3: unparseable record (truncated log?)"]

    @pytest.mark.parametrize("fields, rule", [
        ({"t_start_s": 5.0, "t_end_s": 3.0}, "t_end_s must be >= t_start_s"),
        ({"energy_j": 150.0},
         "energy_j 150.0 inconsistent with power x duration 600.0"),
    ])
    def test_read_log_reports_record_that_breaks_a_rule(self, tmp_path, fields, rule):
        doc = json.loads(written(train_rec(1, "C1", 0.0, 2.0)))
        path = tmp_path / "m.jsonl"
        path.write_text(json.dumps({**doc, **fields}) + "\n" + written(rec(accuracy=0.4)))
        assert read_log(path) == ([rec(accuracy=0.4)],
                                  [f"line 1: train_window record breaks a rule: {rule}"])

    @pytest.mark.parametrize("fields", [
        {"power_w": 10**400},
        {"power_w": None, "energy_j": 10**400},
        {"power_w": None, "t_end_s": 10**400},
        {"power_w": None, "energy_j": -FLOAT_OVERFLOW},
    ], ids=["power", "energy", "end", "least-energy"])
    @pytest.mark.parametrize("path", ["block", "line"])
    def test_read_log_reports_int_past_float_range(self, tmp_path, fields, path):
        """The report would add these to floats: each line is named, on the
        block path and on the line path (a line holding a list sends its
        block there)."""
        lines = [written(train_rec(1, f"C{i}", 0.0, 2.0))[:-1] for i in range(4)]
        lines[1] = json.dumps({**json.loads(lines[1]), **fields})
        if path == "line":
            lines[3] = "[1, 2]"
        log = tmp_path / "m.jsonl"
        log.write_text("\n".join(lines) + "\n")
        got, problems = read_log(log)
        assert [r.client_id for r in got] == (["C0", "C2", "C3"] if path == "block"
                                              else ["C0", "C2"])
        assert problems[0] == "line 2: unparseable record (truncated log?)"
        assert (got, problems) == reference_read_log(log)

    def test_read_log_admits_int_just_inside_float_range(self, tmp_path):
        doc = json.loads(written(train_rec(1, "C1", 0.0, 2.0)))
        log = tmp_path / "m.jsonl"
        log.write_text(json.dumps({**doc, "power_w": None, "energy_j": FLOAT_OVERFLOW - 1}) + "\n")
        got, problems = read_log(log)
        assert problems == [] and got[0].energy_j == FLOAT_OVERFLOW - 1

    @pytest.mark.parametrize("opener", ["[", '{"a": '])
    @pytest.mark.parametrize("path", ["block", "line"])
    def test_read_log_reports_line_nested_past_the_recursion_limit(self, tmp_path, opener, path):
        lines = [written(rec(accuracy=0.4))[:-1]] * 4
        lines[2] = opener * 100_000
        if path == "line":
            lines[0] = "[1, 2]"
        log = tmp_path / "m.jsonl"
        log.write_text("\n".join(lines) + "\n")
        got, problems = read_log(log)
        assert len(got) == (3 if path == "block" else 2)
        assert problems[-1] == "line 3: unparseable record (truncated log?)"

    def test_read_log_numbers_lines_across_blocks_and_blanks(self, tmp_path):
        good = written(rec(accuracy=0.4))[:-1]
        lines = [good] * 300
        lines[10] = "  "
        lines[127] = lines[299] = '{"run_id": "r1", "rou'
        path = tmp_path / "m.jsonl"
        path.write_text("\r\n".join(lines) + "\r\n")
        got, problems = read_log(path)
        assert len(got) == 297
        assert problems == [f"line {n}: unparseable record (truncated log?)" for n in (128, 300)]


_TEXT = st.text(st.sampled_from(["C", "7", '"', "\\", "%", "s", "\u00e9", "\u4e2d",
                                  "\U0001f697", "\n", "\x00", "\x7f"])) | st.text(max_size=6)
_INT = st.integers(min_value=-(2**70), max_value=2**70)
_FLOAT = st.floats() | st.sampled_from([-0.0, 2.0**53 + 1, 1e300]) | st.floats().map(np.float64)
_BY_TYPE = {str: _TEXT, bool: st.booleans(), int: _INT, float: _FLOAT | _INT}


def _field_values(types):
    """One value per field; a field whose type admits None may be None."""
    values = {}
    for key, typ in types.items():
        kinds = getattr(typ, "__args__", (typ,))
        base = next(k for k in kinds if k is not type(None))
        values[key] = (st.none() | _BY_TYPE[base]) if type(None) in kinds else _BY_TYPE[base]
    return st.fixed_dictionaries(values).map(lambda d: {k: d[k] for k in types})


@st.composite
def _records(draw):
    """(run id, round, event, fields) of any event; most timed records are
    made consistent, so that the line and not a check is compared."""
    event = draw(st.sampled_from(sorted(SCHEMA)))
    values = draw(_field_values(SCHEMA[event]))
    t0, t1 = values.get("t_start_s"), values.get("t_end_s")
    if t0 is not None and t1 is not None and draw(st.integers(0, 3)):
        t0, t1 = sorted((t0, t1))
        values.update(t_start_s=t0, t_end_s=t1)
        if values.get("power_w") is not None and "energy_j" in values:
            values["energy_j"] = values["power_w"] * (t1 - t0)
    return draw(_TEXT), draw(_INT), event, values


# Real logs the equivalence test injects faults into: sync and async runs,
# dropouts, a log of several read blocks, and one whose losses are NaN.
_LOGS = {name: SCENARIOS[name][0] for name in
         ("kitti-sync", "bdd-dropout-dual", "bdd-async-hetero", "overlap-60")}


def _diverged(seed):
    doc = kitti_sync(seed)
    doc["train"]["learning_rate"] = 1e300
    return doc


_LOGS["diverged"] = _diverged


@functools.cache
def _log_lines(name: str) -> tuple[bytes, ...]:
    buf = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run(config_from_dict(_LOGS[name](seed=0)), MetricsWriter(buf))
    return tuple(line.encode() for line in buf.getvalue().splitlines())


_NOT_OBJECTS = (b'"abc"', b"[1, 2]", b"7", b"null", b"{}")
_WRONG_TYPES = ("5", True, None, [1], 1.5, 2, {"a": 1}, [{}, {}])
_NON_FINITE = (math.nan, math.inf, -math.inf)
_HUGE_INTS = (10**400, -(10**400), FLOAT_OVERFLOW, FLOAT_OVERFLOW - 1)


def _edit_object(kind: str, doc: dict, arg: int) -> dict:
    """`doc` with one fault of `kind` that leaves it a JSON object."""
    keys = list(doc)
    key = keys[arg % len(keys)] if keys else "run_id"
    if kind == "unknown_key":
        at = arg % (len(keys) + 1)
        return dict([*doc.items()][:at] + [("extra", 1)] + [*doc.items()][at:])
    if kind == "reorder" and keys:
        a, b = arg % len(keys), (arg // len(keys)) % len(keys)
        keys[a], keys[b] = keys[b], keys[a]
        return {k: doc[k] for k in keys}
    if kind == "drop_key":
        return {k: v for k, v in doc.items() if k != key}
    if kind == "mistype":
        return {**doc, key: _WRONG_TYPES[arg % len(_WRONG_TYPES)]}
    if kind == "swap_times":
        return {**doc, "t_start_s": doc.get("t_end_s"), "t_end_s": doc.get("t_start_s")}
    if kind == "energy":
        try:
            energy = (doc.get("energy_j") or 0.0) * 1.5 + 1.0
        except (TypeError, OverflowError):  # mistyped, or an int past float range
            energy = 1.0
        return {**doc, "energy_j": energy, "power_w": doc.get("power_w") or 1.0}
    if kind == "non_finite":
        return {**doc, key: _NON_FINITE[arg % len(_NON_FINITE)]}
    if kind == "huge_int":
        return {**doc, key: _HUGE_INTS[arg % len(_HUGE_INTS)]}
    return doc


def _inject(lines: list, fault: tuple) -> None:
    """Apply one (kind, line index, argument) fault to `lines`, a list of
    [line bytes, terminator] pairs; the index wraps around."""
    kind, index, arg = fault
    i = index % len(lines)
    line, end = lines[i]
    if kind == "blank":
        lines.insert(i, [(b"", b"  \t ", b"\t")[arg % 3], (b"\n", b"\r\n")[arg % 2]])
    elif kind in ("crlf", "cr"):
        lines[i][1] = b"\r\n" if kind == "crlf" else b"\r"
    elif kind == "truncate":
        del lines[i + 1:]
        lines[i] = [line[:arg % max(len(line), 1)], b""]
    elif kind == "merge" and i + 1 < len(lines):
        lines[i:i + 2] = [[line + b", " + lines[i + 1][0], lines[i + 1][1]]]
    elif kind == "split":
        cut = arg % (len(line) + 1)
        lines[i:i + 1] = [[line[:cut], b"\n"], [line[cut:], end]]
    elif kind == "wrap" and b"," in line:  # split at a comma, dropping it
        commas = [k for k, c in enumerate(line) if c == ord(",")]
        cut = commas[arg % len(commas)]
        lines[i:i + 1] = [[line[:cut], b"\n"], [line[cut + 1:], end]]
    elif kind == "not_object":
        lines[i][0] = _NOT_OBJECTS[arg % len(_NOT_OBJECTS)]
    elif kind == "byte":
        cut = arg % (len(line) + 1)
        lines[i][0] = line[:cut] + b"\xff" + line[cut:]
    elif kind == "deep":  # nested past the interpreter's recursion limit
        lines[i][0] = (b"[", b'{"a": ')[arg % 2] * 100_000
    else:
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError):
            return
        if isinstance(doc, dict):
            lines[i][0] = json.dumps(_edit_object(kind, doc, arg)).encode()


_KINDS = ("blank", "crlf", "cr", "truncate", "merge", "split", "wrap", "not_object", "byte",
          "unknown_key", "reorder", "drop_key", "mistype", "swap_times", "energy",
          "non_finite", "huge_int", "deep")
_FAULT = st.tuples(st.sampled_from(_KINDS), st.integers(0, 10**6), st.integers(0, 10**6))


class TestReadLogMatchesReference:
    """The block reader against the line-by-line reference, on real logs
    with injected faults: equal records and equal problems."""

    @pytest.fixture(scope="class")
    def log_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("faulted") / "m.jsonl"

    # overlap-60's 620 lines span five 128-line blocks: faults at the first
    # block boundary (lines 128 and 129), at line 256 and on the last line
    @example(case=("overlap-60", [("merge", 127, 0)]))
    @example(case=("overlap-60", [("split", 127, 40)]))
    @example(case=("overlap-60", [("split", 255, 0), ("reorder", 128, 17)]))
    @example(case=("overlap-60", [("byte", 255, 30), ("not_object", 256, 1)]))
    @example(case=("overlap-60", [("truncate", 619, 100)]))
    @example(case=("overlap-60", [("merge", 618, 0)]))
    @example(case=("kitti-sync", [("blank", 59, 1), ("truncate", 60, 50)]))
    # an object wrapped over two lines next to two objects on one line, in
    # the same block: as many values as lines, but not one a line; then the
    # same with the wrap inside a list of objects
    @example(case=("overlap-60", [("wrap", 5, 0), ("merge", 10, 0)]))
    @example(case=("overlap-60", [("mistype", 5, 103), ("wrap", 5, 13), ("merge", 10, 0)]))
    @given(case=st.tuples(st.sampled_from(sorted(_LOGS)), st.lists(_FAULT, max_size=6)))
    @settings(max_examples=200, deadline=None)
    def test_read_log_equals_reference(self, log_path, case):
        name, faults = case
        lines = [[line, b"\n"] for line in _log_lines(name)]
        for fault in faults:
            _inject(lines, fault)
        log_path.write_bytes(b"".join(line + end for line, end in lines))
        assert read_log(log_path) == reference_read_log(log_path)


class TestDirectWrite:
    @given(_records())
    @settings(max_examples=400, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_line_equals_json_dumps(self, record):
        run_id, rnd, event, values = record
        buf = io.StringIO()
        try:
            MetricsRecord(run_id=run_id, round=rnd, event=event, **values)
        except ValueError:
            with pytest.raises(ValueError):
                MetricsWriter(buf).write(event, run_id, rnd, *values.values())
            assert buf.getvalue() == ""
            return
        MetricsWriter(buf).write(event, run_id, rnd, *values.values())
        assert buf.getvalue() == reference_line(run_id, rnd, event, **values)

    @pytest.mark.parametrize("event, values, message", [
        ("reboot", (), "unknown event"),
        ("stalled", (5.0, 4.0), "t_end_s must be >= t_start_s"),
        ("train_window", ("C1", 0.0, 2.0, 1.0, 100.0, 90.0, 150.0, 10, 1.0, False),
         "inconsistent with power x duration"),
        ("aggregate", (None, 1.0, 0.5, None, None, None, 3, None, False),
         "t_end_s must be >= t_start_s"),
    ])
    def test_each_record_check_raises(self, event, values, message):
        fields = dict(zip(SCHEMA.get(event, {}), values))
        with pytest.raises(ValueError, match=message):
            MetricsRecord(run_id="r1", round=1, event=event, **fields)
        buf = io.StringIO()
        with pytest.raises(ValueError, match=message):
            MetricsWriter(buf).write(event, "r1", 1, *values)
        assert buf.getvalue() == ""

    # values off their field's type, which no engine writes: a bool in a
    # number field, a float round and a bool round
    @pytest.mark.parametrize("event, round_idx, values", [
        ("oom", 1, ("C1", True, False)),
        ("stalled", 2.7, (0.0, 1.0)),
        ("stalled", True, (0.0, 1.0)),
        ("aggregate", 3, (None, 1.0, 2.0, None, None, None, True, None, False)),
    ], ids=["bool-mem", "float-round", "bool-round", "bool-samples"])
    def test_off_type_value_written_as_json_dumps(self, event, round_idx, values):
        buf = io.StringIO()
        MetricsWriter(buf).write(event, "r1", round_idx, *values)
        assert buf.getvalue() == reference_line(
            "r1", round_idx, event, **dict(zip(SCHEMA[event], values)))

    def test_writer_without_stream_checks_renders_and_keeps_nothing(self):
        sink = MetricsWriter(None)
        sink.write("oom", "r1", 2, "C1", 9113, True)
        assert not hasattr(sink, "records")
        with pytest.raises(ValueError, match="t_end_s must be >= t_start_s"):
            sink.write("stalled", "r1", 2, 5.0, 4.0)
        with pytest.raises(TypeError):  # a client id that is no string does not render
            sink.write("oom", "r1", 2, 7, 9113, True)

    @given(_records())
    @settings(max_examples=400, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_emitted_line_equals_json_dumps(self, record):
        run_id, rnd, event, values = record
        try:
            emitted = MetricsRecord(run_id=run_id, round=rnd, event=event, **values)
        except ValueError:  # the record checks, which `test_line_equals_json_dumps` covers
            return
        buf = io.StringIO()
        MetricsWriter(buf).emit(emitted)
        assert buf.getvalue() == reference_line(run_id, rnd, event, **values)

    @pytest.mark.parametrize("fields, stray", [
        ({"event": "eval", "accuracy": 0.5, "client_id": "C1"}, "client_id"),
        ({"event": "stalled", "loss": math.nan, "estimated": True}, "loss, estimated"),
        ({"event": "oom", "client_id": "C1", "staleness": 0}, "staleness"),
    ])
    def test_emit_refuses_value_off_its_schema(self, fields, stray):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=f"sets {stray}, which its event lacks"):
            MetricsWriter(buf).emit(MetricsRecord(run_id="r1", round=1, **fields))
        assert buf.getvalue() == ""

    # every value kind the direct template must leave to the renderers: an
    # np.float64, NaN, both infinities, ints in float fields and None, then
    # a row that fails a check and one after it
    @example(run_id="r1", records=[
        ("", 1, "train_window", dict(zip(SCHEMA["train_window"], (
            "C1", 0.0, 2.0, np.float64(1.5), 3.0, math.nan, 6.0, 10, math.inf, True)))),
        ("", 1, "aggregate", dict(zip(SCHEMA["aggregate"], (
            None, 1, 2, None, None, None, 5, None, False)))),
        ("", 2, "eval", dict(zip(SCHEMA["eval"], (0.0, 0.0, None, np.float64(0.25))))),
        ("", 2, "oom", dict(zip(SCHEMA["oom"], ("C2", -math.inf, False)))),
        ("", 3, "stalled", dict(zip(SCHEMA["stalled"], (3.0, 2.0)))),
        ("", 3, "dropout", dict(zip(SCHEMA["dropout"], ("C3", None, None)))),
    ])
    @given(run_id=_TEXT, records=st.lists(_records(), max_size=8))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_window_lines_equal_json_dumps(self, run_id, records):
        """`write_rows` of a window of mixed events: each line is the one
        `json.dumps` writes, up to the first row that fails the record
        checks, which raises with nothing of its own written."""
        expected, fails = [], False
        for _, rnd, event, values in records:
            try:
                MetricsRecord(run_id=run_id, round=rnd, event=event, **values)
            except ValueError:
                fails = True
                break
            expected.append(reference_line(run_id, rnd, event, **values))
        rows = [(event, rnd, *values.values()) for _, rnd, event, values in records]
        buf = io.StringIO()
        if fails:
            with pytest.raises(ValueError):
                MetricsWriter(buf).write_rows(run_id, rows)
        else:
            MetricsWriter(buf).write_rows(run_id, rows)
        assert buf.getvalue() == "".join(expected)

    def test_long_window_written_in_pieces(self):
        """A window of many rows reaches the stream in bounded pieces; a
        failing row leaves the rows before it written, across pieces."""
        writes = []

        class Stream(io.StringIO):
            def write(self, text):
                writes.append(text.count("\n"))
                return super().write(text)

        rows = [("dropout", 1, f"C{k}", float(k), float(k)) for k in range(600)]
        buf = Stream()
        MetricsWriter(buf).write_rows("r1", rows)
        assert buf.getvalue() == "".join(
            reference_line("r1", 1, "dropout", client_id=f"C{k}", t_start_s=float(k),
                           t_end_s=float(k)) for k in range(600))
        assert sum(writes) == 600 and max(writes) < 600
        writes.clear()
        buf = Stream()
        rows[500] = ("dropout", 1, "C500", 2.0, 1.0)
        with pytest.raises(ValueError, match="t_end_s must be >= t_start_s"):
            MetricsWriter(buf).write_rows("r1", rows)
        assert buf.getvalue().count("\n") == sum(writes) == 500

    def test_eval_write_is_flushed(self, tmp_path):
        path = tmp_path / "m.jsonl"
        sink, fh = open_log_writer(path)
        try:
            sink.write("eval", "r1", 1, 2.0, 2.0, 40, 0.5)
            assert path.read_text() == reference_line(
                "r1", 1, "eval", t_start_s=2.0, t_end_s=2.0, n_samples=40, accuracy=0.5)
        finally:
            fh.close()

    def test_log_file_created_at_first_record(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _, fh = open_log_writer(path)
        fh.close()
        assert not path.exists()


class TestReport:
    def full_log(self):
        out = []
        for rnd in (1, 2):
            out.append(train_rec(rnd, "C1", 10.0 * rnd, 4.0))
            out.append(train_rec(rnd, "C2", 10.0 * rnd, 2.0))
            out.append(rec(round=rnd, event="aggregate", t_start_s=10.0 * rnd + 4,
                           t_end_s=10.0 * rnd + 5, power_w=60.0, energy_j=60.0,
                           estimated=True))
            out.append(rec(round=rnd, event="eval", accuracy=0.3 + 0.1 * rnd))
        return out

    def test_per_round_accuracy_and_final(self):
        report = build_report(self.full_log())
        assert report.round_accuracy == [(1, 0.4), (2, 0.5)]
        assert report.final_accuracy == 0.5
        assert report.complete

    def test_client_totals_recomputed(self):
        report = build_report(self.full_log())
        assert report.clients["C1"].time_s == pytest.approx(8.0)
        assert report.clients["C1"].energy_j == pytest.approx(300.0 * 8.0)
        assert report.clients["C2"].rounds_participated == 2
        assert report.total_time_s == pytest.approx(12.0)
        assert report.total_energy_j == pytest.approx(300.0 * 12.0 + 120.0)

    def test_oom_counted(self):
        log = self.full_log() + [rec(round=3, event="oom", client_id="C1",
                                     mem_mib=50892.0)]
        report = build_report(log)
        assert report.clients["C1"].oom_count == 1

    def test_incomplete_when_training_lacks_aggregate(self):
        log = [train_rec(1, "C1", 0.0, 1.0), rec(round=1, event="eval", accuracy=0.5)]
        report = build_report(log)
        assert not report.complete
        assert any("no aggregation" in p for p in report.problems)

    def test_incomplete_on_duplicate_eval(self):
        log = self.full_log() + [rec(round=2, event="eval", accuracy=0.6)]
        assert not build_report(log).complete

    def test_incomplete_when_runs_are_mixed(self):
        # a second run appended a round the first never logged: every round
        # is aggregated and evaluated once, so only the run ids tell
        log = self.full_log() + [
            train_rec(3, "C1", 30.0, 4.0, run_id="r2"),
            rec(run_id="r2", round=3, event="aggregate"),
            rec(run_id="r2", round=3, event="eval", accuracy=0.7),
        ]
        report = build_report(log)
        assert not report.complete
        assert "log mixes 2 runs: ['r1', 'r2']" in report.problems

    def test_incomplete_without_eval(self):
        log = [train_rec(1, "C1", 0.0, 1.0),
               rec(round=1, event="aggregate", t_start_s=1.0, t_end_s=2.0)]
        assert not build_report(log).complete

    def test_empty_log_raises(self):
        with pytest.raises(IncompleteLogError):
            build_report([])

    def test_report_from_log_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        with pytest.raises(IncompleteLogError):
            report_from_log(path)


class TestRendering:
    def report(self):
        return build_report(TestReport().full_log())

    def test_table(self):
        text = render_report(self.report(), "table")
        assert "final accuracy: 0.5000" in text
        assert "C1" in text and "C2" in text

    def test_csv(self):
        text = render_report(self.report(), "csv")
        assert "round_accuracy,1,0.4000" in text
        assert "summary,final_accuracy,0.5000" in text

    def test_json(self):
        doc = json.loads(render_report(self.report(), "json"))
        assert doc["final_accuracy"] == 0.5
        assert doc["clients"]["C2"]["rounds_participated"] == 2
        assert doc["complete"] is True

    def test_incomplete_flagged_in_table(self):
        log = [train_rec(1, "C1", 0.0, 1.0), rec(round=1, event="eval", accuracy=0.5)]
        text = render_report(build_report(log), "table")
        assert "INCOMPLETE" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(self.report(), "xml")

    def test_csv_rows_read_back_with_csv_reader(self):
        """Client and run ids holding a comma, a quote or a carriage return
        stay one field."""
        ids = ["C,1", 'C"2', "C3", "C4", "C\r1"]
        plan = builtin_plan("kitti-4").scaled(16).to_json_dict()
        del plan["scenario_mix"], plan["class_totals"]
        doc = kitti_sync(0)
        doc["plan"] = {"inline": {**plan, "client_ids": ids,
                                  "counts": plan["counts"] + plan["counts"][-1:]}}
        doc["clients"] = [{"client_id": cid} for cid in ids]
        buf = io.StringIO()
        run(config_from_dict(doc), MetricsWriter(buf))
        records = read_back(buf)
        report = build_report(records, ["line 9: a, \"quoted\" problem"])
        rows = list(csv.reader(io.StringIO(render_report(report, "csv"))))
        assert {len(row) for row in rows} == {3}
        assert [row[1] for row in rows if row[0] == "client"] == sorted(ids)
        assert rows[-1] == ["problem", "1", 'line 9: a, "quoted" problem']
        other = build_report([r._replace(run_id='r,"2"') for r in records])
        rows = list(csv.reader(io.StringIO(render_comparison([report, other], "csv"))))
        assert {len(row) for row in rows} == {3}
        assert sorted(row[0] for row in rows[1:]) == sorted([report.run_id, 'r,"2"'])

    def test_comparison_sorted_best_first(self):
        a = build_report(TestReport().full_log())
        b = build_report(
            [rec(run_id="r2", round=1, event="eval", accuracy=0.9)]
            + [train_rec(1, "C1", 0.0, 1.0, run_id="r2"),
               rec(run_id="r2", round=1, event="aggregate")]
        )
        text = render_comparison([a, b], "csv")
        lines = text.splitlines()
        assert lines[1].startswith("r2,")
        assert lines[2].startswith("r1,")
