"""Command-line interface: subcommands, outputs, exit codes."""

import json
import math
from importlib import resources

import numpy as np
import pytest

from fedsim import scenarios
from fedsim.cli import EXIT_CONFIG, EXIT_INCOMPLETE, EXIT_OK, EXIT_RUNTIME, main
from fedsim.costs import load_calibration, lookup
from reference import from_line


CALIBRATION_JSON = resources.files("fedsim.data").joinpath("cost_calibration.json").read_text()


def run_cli(*argv):
    return main(list(argv))


class TestPartitionCommand:
    def test_builtin_to_stdout(self, capsys):
        assert run_cli("partition", "--plan", "kitti-4") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["client_ids"] == ["C1", "C2", "C3", "C4"]
        assert doc["counts"][0][0] == 11508

    def test_scale_divisor(self, capsys):
        assert run_cli("partition", "--plan", "kitti-4", "--scale-divisor", "16") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"][0][0] == 719

    @pytest.mark.parametrize("extra", [
        ["--plan", "kitti-4", "--scale-divisor", "0"],
        ["--plan", "kitti-4", "--scale-divisor", "-4"],
        ["--plan", "overlap", "--clients", "8", "--window", "5", "--scale-divisor", "4"],
    ], ids=["zero", "negative", "overlap"])
    def test_bad_scale_divisor(self, capsys, extra):
        assert run_cli("partition", *extra) == EXIT_CONFIG
        assert "divisor" in capsys.readouterr().err

    def test_overlap_requires_arguments(self):
        assert run_cli("partition", "--plan", "overlap") == EXIT_CONFIG

    def test_overlap_to_file(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = run_cli("partition", "--plan", "overlap", "--clients", "8",
                       "--window", "5", "--out", str(out))
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["assignment"]["C6"] == [6, 7, 8, 1, 2]

    def test_bad_plan_name(self, capsys):
        assert run_cli("partition", "--plan", "waymo-3") == EXIT_CONFIG


class TestRunResumeReport:
    def test_full_cycle_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        assert run_cli("scenarios", "--emit", "kitti-sync", "--out", str(cfg)) == EXIT_OK

        full = tmp_path / "full.jsonl"
        assert run_cli("run", "--config", str(cfg), "--seed", "1",
                       "--log", str(full)) == EXIT_OK

        part = tmp_path / "part.jsonl"
        cp = tmp_path / "cp.json"
        assert run_cli("run", "--config", str(cfg), "--seed", "1",
                       "--log", str(part), "--stop-after-round", "5",
                       "--checkpoint", str(cp)) == EXIT_OK
        assert run_cli("resume", "--config", str(cfg), "--checkpoint", str(cp),
                       "--seed", "1", "--log", str(part)) == EXIT_OK
        assert part.read_bytes() == full.read_bytes()

    def test_run_requires_config_or_scenario(self):
        assert run_cli("run") == EXIT_CONFIG

    def test_run_missing_config_file(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.json")) == EXIT_CONFIG

    def test_run_scenario_writes_log(self, tmp_path, capsys):
        log = tmp_path / "m.jsonl"
        assert run_cli("run", "--scenario", "kitti-sync", "--seed", "0",
                       "--log", str(log)) == EXIT_OK
        lines = log.read_text().splitlines()
        assert lines
        from_line(lines[0])  # parseable
        assert "final accuracy" in capsys.readouterr().out

    def test_report_table(self, tmp_path, capsys):
        log = tmp_path / "m.jsonl"
        run_cli("run", "--scenario", "kitti-sync", "--seed", "0", "--log", str(log))
        capsys.readouterr()
        assert run_cli("report", str(log)) == EXIT_OK
        out = capsys.readouterr().out
        assert "final accuracy" in out

    def test_report_comparison(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_cli("run", "--scenario", "kitti-sync", "--seed", "0", "--log", str(a))
        run_cli("run", "--scenario", "kitti-sync", "--seed", "1", "--log", str(b))
        capsys.readouterr()
        assert run_cli("report", str(a), str(b), "--format", "csv") == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("run_id,final_accuracy")

    def test_report_incomplete_exit_code(self, tmp_path, capsys):
        log = tmp_path / "cut.jsonl"
        full = tmp_path / "full.jsonl"
        run_cli("run", "--scenario", "kitti-sync", "--seed", "0", "--log", str(full))
        lines = full.read_text().splitlines()
        # drop everything from the last aggregate onwards: training without
        # aggregation marks the log incomplete
        cut = [ln for ln in lines if '"round": 10, "event": "aggregate"' not in ln
               and '"round": 10, "event": "eval"' not in ln]
        log.write_text("\n".join(cut) + "\n")
        assert run_cli("report", str(log)) == EXIT_INCOMPLETE

    def test_report_names_line_with_byte_that_is_not_utf8(self, tmp_path, capsys):
        log = tmp_path / "m.jsonl"
        run_cli("run", "--scenario", "kitti-sync", "--seed", "0", "--log", str(log))
        lines = log.read_bytes().split(b"\n")
        lines[2] = lines[2][:40] + b"\xff" + lines[2][40:]
        log.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert run_cli("report", str(log)) == EXIT_INCOMPLETE
        out = capsys.readouterr().out
        assert "final accuracy" in out
        assert out.endswith("INCOMPLETE LOG:\n  line 3: unparseable record (truncated log?)\n")

    @pytest.mark.parametrize("fields", [
        {"power_w": 10**400},
        {"power_w": None, "energy_j": 10**400},
        {"power_w": None, "t_end_s": 10**400},
    ], ids=["power", "energy", "end"])
    def test_report_names_line_with_int_past_float_range(self, tmp_path, capsys, fields):
        log = tmp_path / "m.jsonl"
        run_cli("run", "--scenario", "kitti-sync", "--seed", "0", "--log", str(log))
        lines = log.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), **fields})
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("report", str(log)) == EXIT_INCOMPLETE
        out = capsys.readouterr().out
        assert out.endswith("INCOMPLETE LOG:\n  line 3: unparseable record (truncated log?)\n")

    def test_report_names_line_nested_past_the_recursion_limit(self, tmp_path, capsys):
        log = tmp_path / "m.jsonl"
        run_cli("run", "--scenario", "kitti-sync", "--seed", "0", "--log", str(log))
        lines = log.read_text().splitlines()
        lines[2] = "[" * 100_000
        log.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("report", str(log)) == EXIT_INCOMPLETE
        assert "  line 3: unparseable record (truncated log?)\n" in capsys.readouterr().out

    def test_report_csv_lists_problems(self, tmp_path, capsys):
        log = tmp_path / "m.jsonl"
        run_cli("run", "--scenario", "kitti-sync", "--seed", "0", "--log", str(log))
        complete = tmp_path / "complete.csv"
        assert run_cli("report", str(log), "--format", "csv") == EXIT_OK
        complete.write_text(capsys.readouterr().out)
        lines = log.read_text().splitlines()
        doc = json.loads(lines[0])
        lines[0] = json.dumps({**doc, "t_start_s": "0", "t_end_s": "5"})
        log.write_text("\n".join(lines) + "\n")
        assert run_cli("report", str(log), "--format", "csv") == EXIT_INCOMPLETE
        rows = capsys.readouterr().out.splitlines()
        assert "problem" not in complete.read_text()
        assert rows[-1] == 'problem,1,"line 1: train_window record has mistyped t_start_s, t_end_s"'

    def test_report_flags_log_appended_by_two_runs(self, tmp_path, capsys):
        log = tmp_path / "m.jsonl"
        for seed in ("0", "1"):
            assert run_cli("run", "--scenario", "kitti-sync", "--seed", seed,
                           "--log", str(log)) == EXIT_OK
        run_ids = list(dict.fromkeys(
            from_line(ln).run_id for ln in log.read_text().splitlines()
        ))
        assert len(run_ids) == 2
        capsys.readouterr()
        assert run_cli("report", str(log)) == EXIT_INCOMPLETE
        assert f"log mixes 2 runs: {run_ids}" in capsys.readouterr().out

    def test_report_resumed_log_is_complete(self, tmp_path, capsys):
        log = tmp_path / "m.jsonl"
        cp = tmp_path / "cp.json"
        assert run_cli("run", "--scenario", "kitti-sync", "--seed", "2",
                       "--log", str(log), "--stop-after-round", "4",
                       "--checkpoint", str(cp)) == EXIT_OK
        cfg = tmp_path / "cfg.json"
        assert run_cli("scenarios", "--emit", "kitti-sync", "--out", str(cfg)) == EXIT_OK
        assert run_cli("resume", "--config", str(cfg), "--checkpoint", str(cp),
                       "--seed", "2", "--log", str(log)) == EXIT_OK
        capsys.readouterr()
        assert run_cli("report", str(log)) == EXIT_OK
        assert "INCOMPLETE" not in capsys.readouterr().out

    def test_report_missing_file(self, capsys):
        assert run_cli("report", "/no/such/file.jsonl") == EXIT_RUNTIME

    def test_report_record_lacking_its_fields_exit_code(self, tmp_path, capsys):
        log = tmp_path / "m.jsonl"
        log.write_text(
            '{"run_id": "x", "round": 1, "event": "train_window", "client_id": "C1"}\n'
            '{"run_id": "x", "round": 1, "event": "eval", "accuracy": 0.5}\n'
        )
        assert run_cli("report", str(log)) == EXIT_INCOMPLETE
        assert "line 1: train_window record lacks t_start_s" in capsys.readouterr().out

    @pytest.mark.parametrize("bad_line, problem", [
        ('"abc"', "line 1: unparseable record"),
        ('{"run_id": "x", "round": 1, "event": "train_window", "client_id": "C1", '
         '"t_start_s": "0", "t_end_s": "5", "energy_j": 1.0, "estimated": false}',
         "line 1: train_window record has mistyped t_start_s, t_end_s"),
        ('{"run_id": "x", "round": 1, "event": "aggregate", "energy_j": "5", '
         '"estimated": false}',
         "line 1: aggregate record has mistyped energy_j"),
    ], ids=["string-line", "string-times", "string-aggregate-energy"])
    def test_report_malformed_line_exit_code(self, tmp_path, capsys, bad_line, problem):
        log = tmp_path / "m.jsonl"
        log.write_text(bad_line + '\n{"run_id": "x", "round": 1, "event": "eval", '
                       '"accuracy": 0.5}\n')
        assert run_cli("report", str(log)) == EXIT_INCOMPLETE
        assert problem in capsys.readouterr().out


class TestResumeRejectsMalformedCheckpoint:
    @pytest.mark.parametrize("mangle, field", [
        (lambda doc: {"checkpoint_version": 1}, "'config_digest'"),
        (lambda doc: [1, 2], "checkpoint_version"),
        (lambda doc: dict(doc, clock="0x1.zzp+3"), "'clock'"),
        (lambda doc: dict(doc, round=doc["round"] + 0.7), "'round'"),
        (lambda doc: dict(doc, params="abc"), "'params'"),
        (lambda doc: dict(doc, clock="inf"), "'clock'"),
        (lambda doc: dict(doc, clock="nan"), "'clock'"),
        (lambda doc: dict(doc, clock=(-1.0).hex()), "'clock'"),
        (lambda doc: dict(doc, round=-3), "'round'"),
        (lambda doc: dict(doc, version=-1), "'version'"),
        (lambda doc: dict(doc, params=["nan"] + doc["params"][1:]), "'params'"),
        (lambda doc: dict(doc, round=99, version=99), "'round'"),
        (lambda doc: dict(doc, version=doc["round"] + 1), "'version'"),
        (lambda doc: dict(doc, params=doc["params"][:-3]), "'params'"),
        (lambda doc: dict(doc, params=doc["params"] + ["0x0.0p+0"]), "'params'"),
        (lambda doc: dict(doc, history=[[1, "nan"]]), "'history'"),
        (lambda doc: dict(doc, history=[[1, (1.5).hex()]]), "'history'"),
        (lambda doc: dict(doc, history=[[0, (0.5).hex()]]), "'history'"),
        (lambda doc: dict(doc, history=[[1, (0.5).hex(), 2]]), "'history'"),
        (lambda doc: dict(doc, history=[[]]), "'history'"),
    ], ids=["only-version", "list", "bad-hex-clock", "float-round", "string-params",
            "inf-clock", "nan-clock", "negative-clock", "negative-round",
            "negative-version", "nan-param", "round-past-config", "version-not-round",
            "short-params", "long-params", "nan-accuracy", "accuracy-past-one",
            "round-zero-evaluation", "history-triple", "empty-history-entry"])
    @pytest.mark.parametrize("log_exists", [False, True], ids=["new-log", "existing-log"])
    def test_exit_2_and_log_untouched(self, tmp_path, capsys, mangle, field, log_exists):
        self.check(tmp_path, capsys, lambda text: json.dumps(mangle(json.loads(text))), field,
                   log_exists)

    @pytest.mark.parametrize("rewrite", [
        lambda text: "not json",
        lambda text: text[:len(text) // 2],
    ], ids=["not-json", "cut-in-half"])
    @pytest.mark.parametrize("log_exists", [False, True], ids=["new-log", "existing-log"])
    def test_raw_text_exit_2_and_log_untouched(self, tmp_path, capsys, rewrite, log_exists):
        self.check(tmp_path, capsys, rewrite, "checkpoint is not valid JSON", log_exists)

    @pytest.mark.parametrize("log_exists", [False, True], ids=["new-log", "existing-log"])
    def test_missing_checkpoint_exit_2_and_log_untouched(self, tmp_path, capsys, log_exists):
        cfg, cp, log = tmp_path / "cfg.json", tmp_path / "absent.json", tmp_path / "m.jsonl"
        assert run_cli("scenarios", "--emit", "kitti-sync", "--out", str(cfg)) == EXIT_OK
        if log_exists:
            log.write_text("earlier run\n")
        capsys.readouterr()
        code = run_cli("resume", "--config", str(cfg), "--checkpoint", str(cp), "--log", str(log))
        assert code == EXIT_CONFIG
        assert f"checkpoint file not found: {cp}" in capsys.readouterr().err
        if log_exists:
            assert log.read_text() == "earlier run\n"
        else:
            assert not log.exists()

    @staticmethod
    def check(tmp_path, capsys, rewrite, message, log_exists):
        """Resume from a sync checkpoint whose text `rewrite` changed: exit 2
        with `message` on stderr, and no byte of the log written."""
        cfg, cp, log = tmp_path / "cfg.json", tmp_path / "cp.json", tmp_path / "m.jsonl"
        assert run_cli("scenarios", "--emit", "kitti-sync", "--out", str(cfg)) == EXIT_OK
        assert run_cli("run", "--config", str(cfg), "--log", str(tmp_path / "first.jsonl"),
                       "--stop-after-round", "1", "--checkpoint", str(cp)) == EXIT_OK
        cp.write_text(rewrite(cp.read_text()))
        if log_exists:
            log.write_text("earlier run\n")
        capsys.readouterr()
        code = run_cli("resume", "--config", str(cfg), "--checkpoint", str(cp), "--log", str(log))
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        if log_exists:
            assert log.read_text() == "earlier run\n"
        else:
            assert not log.exists()


class TestSyncOnlyFlags:
    @pytest.mark.parametrize("flags", [
        ["--checkpoint", "cp.json"],
        ["--stop-after-round", "2"],
        ["--stop-after-round", "2", "--checkpoint", "cp.json"],
    ])
    def test_async_run_rejects_flag(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        code = run_cli("run", "--scenario", "bdd-async-hetero", "--log", "m.jsonl", *flags)
        assert code == EXIT_CONFIG
        assert "sync runs only" in capsys.readouterr().err
        assert not (tmp_path / "m.jsonl").exists()
        assert not (tmp_path / "cp.json").exists()

    def test_sync_checkpoint_without_stop_covers_the_whole_run(self, tmp_path, capsys):
        cp = tmp_path / "cp.json"
        assert run_cli("run", "--scenario", "kitti-sync", "--log", str(tmp_path / "m.jsonl"),
                       "--checkpoint", str(cp)) == EXIT_OK
        assert json.loads(cp.read_text())["round"] == 10


class TestStopRound:
    @pytest.mark.parametrize("stop", ["0", "-3"])
    def test_non_positive_stop_round_rejected_before_the_log(self, tmp_path, capsys, stop):
        log, cp = tmp_path / "m.jsonl", tmp_path / "cp.json"
        code = run_cli("run", "--scenario", "kitti-sync", "--log", str(log),
                       "--stop-after-round", stop, "--checkpoint", str(cp))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"stop_after_round must be at least 1, got {stop}" in err
        assert not log.exists()
        assert not cp.exists()


class TestRunBudgets:
    @pytest.mark.parametrize("strategy, section, key, value", [
        ("fedasync", "async", "applications", -5),
        ("fedasync", "async", "applications", 2.5),
        ("fedasync", "async", "applications", "10"),
        ("fedasync", "async", "eval_every", 0),
        ("fedasync", "async", "eval_every", -1),
        ("fedavg", None, "aggregate_time_s", -1.0),
        ("fedavg", None, "aggregate_time_s", math.nan),
    ])
    def test_bad_budget_rejected_before_the_log(self, tmp_path, capsys,
                                                strategy, section, key, value):
        doc = scenarios.kitti_sync(strategy=strategy)
        (doc.setdefault(section, {}) if section else doc)[key] = value
        config, log = tmp_path / "cfg.json", tmp_path / "m.jsonl"
        config.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(config), "--log", str(log)) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not log.exists()


def _renamed_overlap_client(doc):
    doc["clients"][0]["client_id"] = "X1"


def _overlap_counts(counts):
    def mutate(doc):
        doc["plan"]["overlap"]["per_partition_counts"] = counts
    return mutate


def _overlap_client_mix(doc):
    doc["task"]["scenario_tags"] = ["night"]
    for client in doc["clients"]:
        client["scenario_mix"] = {"night": 1.0}


def _set(section, key, value):
    def mutate(doc):
        (doc.setdefault(section, {}) if section else doc)[key] = value
    return mutate


def _set_client(index, key, value):
    def mutate(doc):
        doc["clients"][index][key] = value
    return mutate


def _string_absent_rounds(doc):
    doc["clients"][0]["dropout"] = {"mode": "absent_rounds", "rounds": ["2", "3"]}


def _float_inline_count(doc):
    doc["plan"]["inline"]["counts"][0][0] = 2.9


def _inline_plan_mix(doc):
    doc["plan"]["inline"]["scenario_mix"] = {"C1": {"nosuch": 1.0}}


def _client_mix_weight(weight):
    def mutate(doc):
        doc["clients"][0]["scenario_mix"] = {"night": weight}
    return mutate


def _class_means(value):
    def mutate(doc):
        doc["task"] = {"n_classes": 8, "n_features": 16, "class_means": [[value] * 16] * 8}
    return mutate


class TestRunRejectsBadConfig:
    """Configs that would otherwise fail mid-run, or run with a field
    ignored or truncated: each is a configuration error, raised before
    the log is opened."""

    @pytest.mark.parametrize("make_doc, mutate, expected", [
        (scenarios.overlap_60, _renamed_overlap_client, "client_ids"),
        (scenarios.overlap_60, _overlap_counts([0] * 8), "no samples"),
        (scenarios.overlap_60, _overlap_counts([6] * 7 + [-1]), "negative"),
        (scenarios.overlap_60, _overlap_client_mix, "scenario_mix"),
        (lambda: scenarios.kitti_sync(strategy="fedasync"), _set("async", "alpha", 2.0),
         "async.alpha"),
        (scenarios.kitti_sync, _set("train", "batch_size", 2.9), "train.batch_size"),
        (scenarios.kitti_sync, _set(None, "rounds", True), "rounds"),
        (scenarios.kitti_sync, _string_absent_rounds, "dropout.rounds"),
        (scenarios.kitti_sync, _set("train", "learning_rate", "0.5"), "train.learning_rate"),
        (scenarios.kitti_sync, _set("train", "prox_mu", True), "train.prox_mu"),
        (scenarios.scale_800, _float_inline_count, "inline plan.counts"),
        (scenarios.kitti_sync, _set("plan", "scale_divisor", 0), "scale divisor"),
        (scenarios.overlap_60, _set("plan", "scale_divisor", 4), "plan.scale_divisor"),
        (scenarios.scale_800, _inline_plan_mix, "inline plan.scenario_mix"),
        (scenarios.kitti_sync, _set("train", "prox_mu", 5.0), "train.prox_mu"),
        (lambda: scenarios.kitti_sync(strategy="fedasync"), _set("train", "prox_mu", 0.5),
         "train.prox_mu"),
        (scenarios.lighting_crossdomain, _client_mix_weight("1"), "scenario_mix"),
        (scenarios.lighting_crossdomain, _client_mix_weight(True), "scenario_mix"),
        (scenarios.kitti_sync, _set("eval", "scenario", 3), "eval.scenario"),
        (scenarios.kitti_sync, _set("task", "scenario_tags", "fog"), "task.scenario_tags"),
        (scenarios.kitti_sync, _class_means("1.5"), "class_means"),
        (scenarios.kitti_sync, _class_means(True), "class_means"),
        (scenarios.kitti_sync, _set("async", "alpha", 0.5), "async.alpha"),
        (lambda: scenarios.kitti_sync(strategy="fedasync"), _set(None, "aggregate_time_s", 2.0),
         "aggregate_time_s"),
        (scenarios.kitti_sync, _set("task", "n_features", 0), "n_features must be >= 1, got 0"),
        (scenarios.kitti_sync, _set("task", "means_seed", -1), "means_seed must be >= 0, got -1"),
        (scenarios.kitti_sync, _set_client(0, "batch", 0), "client C1 batch must be >= 1, got 0"),
        (scenarios.kitti_sync, _set_client(0, "batch", -4),
         "client C1 batch must be >= 1, got -4"),
        (scenarios.kitti_sync, _set_client(2, "resolution", 0),
         "client C3 resolution must be >= 1, got 0"),
    ], ids=["renamed-overlap-client", "zero-overlap-counts", "negative-overlap-count",
            "overlap-client-mix", "alpha", "float-batch", "bool-rounds",
            "string-absent-rounds", "string-learning-rate", "bool-prox-mu",
            "float-inline-count", "zero-divisor", "divisor-beside-overlap",
            "inline-plan-mix", "fedavg-prox-mu", "fedasync-prox-mu",
            "string-mix-weight", "bool-mix-weight", "number-eval-scenario",
            "string-scenario-tags", "string-class-means", "bool-class-means",
            "fedavg-async-key", "fedasync-aggregate-time", "no-features",
            "negative-means-seed", "zero-batch", "negative-batch", "zero-resolution"])
    def test_exit_2_and_no_log(self, tmp_path, capsys, make_doc, mutate, expected):
        doc = make_doc()
        mutate(doc)
        config, log = tmp_path / "cfg.json", tmp_path / "m.jsonl"
        config.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(config), "--log", str(log)) == EXIT_CONFIG
        assert expected in capsys.readouterr().err
        assert not log.exists()


def _set_device(key, value):
    def mutate(doc):
        doc["clients"][0].setdefault("device", {})[key] = value
    return mutate


class TestRunRejectsNonFiniteNumbers:
    """A NaN or infinite number in the config, which Python's JSON reader
    accepts, is a configuration error, raised before the log is opened."""

    @pytest.mark.parametrize("make_doc, mutate, key", [
        (scenarios.kitti_sync, lambda x: _set_device("speed_factor", x), "speed_factor"),
        (scenarios.kitti_sync, lambda x: _set_device("mem_capacity_mib", x), "mem_capacity_mib"),
        (scenarios.kitti_sync, lambda x: _set("train", "learning_rate", x), "learning_rate"),
        (lambda: scenarios.kitti_sync(strategy="fedprox"), lambda x: _set("train", "prox_mu", x),
         "prox_mu"),
        (scenarios.kitti_sync, lambda x: _set("task", "noise_sigma", x), "noise_sigma"),
        (scenarios.kitti_sync, lambda x: _set("resolution_noise", "640", x), "resolution_noise"),
    ], ids=["speed-factor", "mem-capacity", "learning-rate", "prox-mu", "noise-sigma",
            "resolution-noise"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_exit_2_and_no_log(self, tmp_path, capsys, make_doc, mutate, key, bad):
        doc = make_doc()
        mutate(bad)(doc)
        config, log = tmp_path / "cfg.json", tmp_path / "m.jsonl"
        config.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(config), "--log", str(log)) == EXIT_CONFIG
        assert f"{key}: expected a finite number" in capsys.readouterr().err
        assert not log.exists()


def _every_client_at_960(doc):
    for client in doc["clients"]:
        client["resolution"] = 960


class TestRunFailsAtSetUp:
    """Runs that fail before their first record exit 3 and leave no log at a
    new path and an existing log as it was."""

    @pytest.mark.parametrize("mutate, expected", [
        (_every_client_at_960, "no client fits its device memory"),
        (_set("train", "learning_rate", 1e308), "non-finite parameters"),
    ], ids=["no-client-fits", "diverged-training"])
    def test_exit_3_and_no_log(self, tmp_path, capsys, mutate, expected):
        doc = scenarios.kitti_sync()
        mutate(doc)
        config, log = tmp_path / "cfg.json", tmp_path / "m.jsonl"
        config.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            assert run_cli("run", "--config", str(config), "--log", str(log)) == EXIT_RUNTIME
            assert expected in capsys.readouterr().err
            assert not log.exists()
            log.write_text("kept\n")
            assert run_cli("run", "--config", str(config), "--log", str(log)) == EXIT_RUNTIME
        assert log.read_text() == "kept\n"


class TestCostsCommand:
    def test_calibrated_query(self, capsys):
        assert run_cli("costs", "--arch", "v8", "--res", "960", "--batch", "8") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["train_time_s"] == 2052.0
        assert doc["peak_mem_mib"] == 16290.0
        assert doc["estimated"] is False

    def test_uncalibrated_needs_flag(self, capsys):
        assert run_cli("costs", "--arch", "v8", "--res", "640", "--batch", "8") == EXIT_CONFIG
        assert run_cli("costs", "--arch", "v8", "--res", "640", "--batch", "8",
                       "--allow-extrapolation") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimated"] is True

    def test_validate(self, capsys):
        assert run_cli("costs", "--validate") == EXIT_OK

    def test_query_requires_all_parts(self):
        assert run_cli("costs", "--arch", "v8", "--res", "640") == EXIT_CONFIG

    def test_query_output_pinned(self, capsys):
        # The exact bytes: key order, range lists and float formatting.
        assert run_cli("costs", "--arch", "v8", "--res", "960", "--batch", "8") == EXIT_OK
        assert capsys.readouterr().out == (
            '{\n  "architecture": "v8",\n  "resolution": 960,\n  "batch": 8,\n'
            '  "train_time_s": 2052.0,\n  "peak_mem_mib": 16290.0,\n'
            '  "power_w_range": [\n    350.0,\n    375.0\n  ],\n'
            '  "util_pct_range": [\n    85.0,\n    95.0\n  ],\n'
            '  "estimated": false\n}\n'
        )

    def test_estimated_query_lists_every_entry_field(self, capsys):
        assert run_cli("costs", "--arch", "v11", "--res", "960", "--batch", "12") == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        entry = lookup(load_calibration().profile("v11"), 960, 12)
        assert list(doc) == ["architecture", "resolution", "batch", "train_time_s",
                             "peak_mem_mib", "power_w_range", "util_pct_range", "estimated"]
        assert doc == {
            "architecture": "v11", "resolution": 960, "batch": 12,
            "train_time_s": entry.train_time_s, "peak_mem_mib": entry.peak_mem_mib,
            "power_w_range": list(entry.power_w_range),
            "util_pct_range": list(entry.util_pct_range), "estimated": True,
        }


    @pytest.mark.parametrize("text, problem", [
        ("not json", "Expecting value"),
        ('{"profiles": {}}', "missing key 'architectures'"),
        (CALIBRATION_JSON.replace('"power_w_range": [335.0, 360.0]', '"power_w_range": "abc"'),
         "expected a [low, high] pair of finite numbers, got 'abc'"),
    ], ids=["not-json", "missing-section", "mistyped-range"])
    @pytest.mark.parametrize("validate", [[], ["--validate"]], ids=["query", "validate"])
    def test_malformed_calibration_exits_2(self, tmp_path, capsys, text, problem, validate):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = run_cli("costs", "--calibration", str(path), *validate,
                       "--arch", "v8", "--res", "960", "--batch", "8")
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"calibration file {path} is malformed: {problem}" in captured.err

    @pytest.mark.parametrize("mangle, problem", [
        (lambda doc: doc["architectures"]["v8"]["entries"]["640x32"].update(peak_mem_mib=True),
         "expected a number, got True"),
        (lambda doc: doc.update(fedprox_time_factor=-2.0),
         "fedprox_time_factor must be positive, got -2.0"),
        (lambda doc: doc.update(idle_util_pct_range=[10, 0]), "idle_util_pct_range"),
        (lambda doc: doc["architectures"]["v5"].update(util_pct_range=[85.0, 105.0]),
         "util_pct_range"),
        (lambda doc: doc["architectures"]["v8"]["entries"]["640x32"].update(train_time_s=0),
         "division by zero"),
    ], ids=["bool-memory", "negative-fedprox-factor", "reversed-idle-util", "util-past-100",
            "zero-reference-time"])
    def test_mistyped_or_out_of_range_calibration_fails_validate(self, tmp_path, capsys,
                                                                  mangle, problem):
        doc = json.loads(CALIBRATION_JSON)
        mangle(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("costs", "--validate", "--calibration", str(path)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"calibration file {path} is malformed: " in captured.err
        assert problem in captured.err

    @pytest.mark.parametrize("validate", [[], ["--validate"]], ids=["query", "validate"])
    def test_missing_calibration_exits_2(self, tmp_path, capsys, validate):
        path = tmp_path / "absent.json"
        code = run_cli("costs", "--calibration", str(path), *validate,
                       "--arch", "v8", "--res", "960", "--batch", "8")
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"calibration file not found: {path}" in captured.err


class TestScenariosCommand:
    def test_listing(self, capsys):
        assert run_cli("scenarios") == EXIT_OK
        out = capsys.readouterr().out
        assert "kitti-sync" in out
        assert "bdd-dropout-dual" in out

    def test_emit_round_trips(self, tmp_path, capsys):
        out = tmp_path / "cfg.json"
        assert run_cli("scenarios", "--emit", "overlap-60", "--out", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["plan"]["overlap"]["window"] == 5


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("launch") == EXIT_CONFIG

    def test_no_arguments(self, capsys):
        assert run_cli() == EXIT_CONFIG
