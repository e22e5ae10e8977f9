"""Metrics records, JSONL logs, and report generation."""

import io
import json

import pytest

from fedsim.errors import IncompleteLogError
from fedsim.metrics import (
    MetricsRecord,
    MetricsWriter,
    build_report,
    open_log_writer,
    read_log,
    render_comparison,
    render_report,
    report_from_log,
)


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
        again = MetricsRecord.from_line(r.to_line())
        assert again == r

    def test_key_order_fixed(self):
        line = train_rec(1, "C1", 0.0, 1.0).to_line()
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
        lines = buf.getvalue().splitlines()
        assert [MetricsRecord.from_line(line) for line in lines] == emitted
        assert w.records is None  # a streaming writer keeps nothing in memory

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
                assert [MetricsRecord.from_line(x) for x in lines[-3:]] == emitted + [
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
        path.write_text("".join(r.to_line() + "\n" for r in records))
        got, problems = read_log(path)
        assert got == records
        assert problems == []

    def test_read_log_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(rec(accuracy=0.4).to_line() + "\n" + '{"run_id": "r1", "rou')
        got, problems = read_log(path)
        assert len(got) == 1
        assert len(problems) == 1
        assert "line 2" in problems[0]


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
