"""Experiment configuration: parsing, validation, canonical digests."""

import dataclasses
import io
import json
import math

import pytest
from reference import read_back

from fedsim import scenarios
from fedsim.aggregate import AsyncConfig
from fedsim.config import (
    _ASYNC_KEYS,
    _DEVICE_KEYS,
    _EVAL_KEYS,
    _TRAIN_KEYS,
    DEFAULT_PROX_MU,
    DEFAULT_RESOLUTION_NOISE,
    ClientSpec,
    DropoutRule,
    EvalSpec,
    _client_keys,
    config_from_dict,
    load_config,
    save_config,
)
from fedsim.costs import DeviceSpec
from fedsim.errors import ConfigError
from fedsim.metrics import MetricsWriter
from fedsim.orchestrator import run_async
from fedsim.partition import OverlapPlan, builtin_plan
from fedsim.task import TrainConfig, default_task

# Every built-in scenario, plus the strategy variants its builder offers.
VARIANTS = {name: builder for name, (builder, _) in scenarios.SCENARIOS.items()}
VARIANTS["kitti-sync-fedprox"] = lambda seed: scenarios.kitti_sync(seed, strategy="fedprox")
VARIANTS["kitti-sync-fedasync"] = lambda seed: scenarios.kitti_sync(seed, strategy="fedasync")
VARIANTS["bdd-async-hetero-fedavg"] = (
    lambda seed: scenarios.bdd_async_hetero(seed, strategy="fedavg")
)

# Full seed-0 config digests.  Logs carry only digest[:10] in their run id,
# but a checkpoint is refused unless the full digest matches, so a digest
# changes only with a schema version bump.
CONFIG_SHA256 = {
    "kitti-sync": "8f8e55192d98f01b03bf18b5f6e4f14db42f92d33ea5757eae3d2f5aefa04076",
    "bdd-dropout-dual": "26bd9b10631f63e08c337f42310e4ab77f51fc95f77651196151bace89766774",
    "bdd-async-hetero": "f8377593a815727d93d864950e1dac0f21a938fcefa9352705c51f6f513e78a1",
    "overlap-60": "e017e58468c4da8e91918e1cfbe5a85510b5f6309339728ad200092f9811c01e",
    "hetero-resolution": "498266f866d079a1841aab7a775f580555c7add61545fc9ab097cfc7950836dc",
    "lighting-crossdomain": "f2498c8b65cf5c14805ec1685e66c2b251e02ac5d3081a4abf8c5b35955f1c2d",
    "scale-800": "d2144419326efd74cfcbdefa6a5a50766cb02b9fbd8c01bb7cd84a5ad60a7450",
    "kitti-sync-fedprox": "10358862760e55a2ad2313f68ec10ec6f3997056a0e66a0d59fada25e369843f",
    "kitti-sync-fedasync": "319a34d1a7ac8a7900878c479a5278cb2fe770b2639cb3bea58e68627da3a190",
    "bdd-async-hetero-fedavg": "bb305e4533ecb54a389cd9ed46ebb5eff033637b60e5be96364a1c35d2592496",
}


def async_counts(doc) -> dict[str, int]:
    """The aggregate and eval records of a fedasync run of `doc`."""
    buf = io.StringIO()
    sink = MetricsWriter(buf)
    run_async(config_from_dict(doc), sink)
    events = [r.event for r in read_back(buf)]
    return {event: events.count(event) for event in ("aggregate", "eval")}


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "strategy": "fedavg",
        "rounds": 3,
        "master_seed": 0,
        "train": {"local_epochs": 1, "batch_size": 8, "learning_rate": 0.05},
        "task": {"n_classes": 8, "n_features": 16, "noise_sigma": 1.0},
        "plan": {"builtin": "kitti-4", "scale_divisor": 64},
        "eval": {"per_class": 50},
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_minimal_config(self):
        cfg = config_from_dict(minimal_doc())
        assert cfg.strategy == "fedavg"
        assert cfg.n_clients == 4
        assert [c.client_id for c in cfg.clients] == ["C1", "C2", "C3", "C4"]
        assert cfg.resolution_noise == DEFAULT_RESOLUTION_NOISE

    def test_clients_default_from_plan(self):
        cfg = config_from_dict(minimal_doc())
        for c in cfg.clients:
            assert c.resolution == 640
            assert c.architecture == "v8"
            assert c.dropout.mode == "always_on"

    def test_fedprox_defaults_mu(self):
        cfg = config_from_dict(minimal_doc(strategy="fedprox"))
        assert cfg.train.prox_mu == DEFAULT_PROX_MU
        cfg = config_from_dict(minimal_doc())
        assert cfg.train.prox_mu == 0.0

    def test_null_takes_the_default(self):
        doc = minimal_doc(strategy="fedprox", resolution_noise=None)
        doc["train"]["prox_mu"] = None
        cfg = config_from_dict(doc)
        assert cfg.train.prox_mu == DEFAULT_PROX_MU
        assert cfg.resolution_noise == DEFAULT_RESOLUTION_NOISE
        doc = minimal_doc(strategy="fedasync")
        doc["async"] = {"applications": None, "eval_every": None}
        assert async_counts(doc) == {"aggregate": 3 * 4, "eval": 3}

    def test_explicit_mu_kept(self):
        doc = minimal_doc(strategy="fedprox")
        for mu in (1.5, 0.0):
            doc["train"]["prox_mu"] = mu
            assert config_from_dict(doc).train.prox_mu == mu

    @pytest.mark.parametrize("strategy", ["fedavg", "fedasync"])
    def test_mu_refused_unless_fedprox(self, strategy):
        # only FedProx trains with a proximal term, so a nonzero mu would be ignored
        doc = minimal_doc(strategy=strategy)
        doc["train"]["prox_mu"] = 5.0
        with pytest.raises(ConfigError,
                           match=f"train.prox_mu applies to fedprox only, not {strategy}"):
            config_from_dict(doc)
        doc["train"]["prox_mu"] = 0.0
        assert config_from_dict(doc).train.prox_mu == 0.0

    def test_overlap_plan(self):
        doc = minimal_doc(
            plan={"overlap": {"n_clients": 6, "window": 2,
                              "per_partition_counts": [3] * 8}}
        )
        cfg = config_from_dict(doc)
        assert isinstance(cfg.plan, OverlapPlan)
        assert cfg.plan.n_clients == 6
        assert cfg.plan.per_partition_counts == (3,) * 8
        assert cfg.plan.total_samples == 24 * 6
        assert cfg.n_clients == 6
        assert [c.client_id for c in cfg.clients] == [f"C{i}" for i in range(1, 7)]

    def test_inline_plan(self):
        doc = minimal_doc(
            plan={"inline": {
                "client_ids": ["C1", "C2"],
                "class_names": [f"k{i}" for i in range(8)],
                "counts": [[2] * 8, [3] * 8],
            }}
        )
        cfg = config_from_dict(doc)
        assert cfg.plan.client_total("C2") == 24

    def test_inline_plan_mix_only_null(self):
        # a pasted `fedsim partition` file carries "scenario_mix": null
        plan = builtin_plan("kitti-4").scaled(64).to_json_dict()
        assert plan["scenario_mix"] is None
        assert config_from_dict(minimal_doc(plan={"inline": plan})).plan.client_ids == (
            "C1", "C2", "C3", "C4")
        plan["scenario_mix"] = {"C1": {"reference": 1.0}}
        with pytest.raises(ConfigError, match="set a client's scenario_mix"):
            config_from_dict(minimal_doc(plan={"inline": plan}))

    def test_inline_plan_test_client_only_null(self):
        # a plan file written before plans lost their test client carries one
        plan = builtin_plan("kitti-4").scaled(64).to_json_dict()
        assert "test_client" not in plan
        plan["test_client"] = None
        assert config_from_dict(minimal_doc(plan={"inline": plan})).plan.client_ids == (
            "C1", "C2", "C3", "C4")
        plan["test_client"] = "C3"
        with pytest.raises(ConfigError, match="no run reads inline plan.test_client"):
            config_from_dict(minimal_doc(plan={"inline": plan}))

    def test_explicit_task_means(self):
        doc = minimal_doc(
            task={
                "n_classes": 2, "n_features": 2, "noise_sigma": 0.5,
                "class_means": [[0.0, 1.0], [1.0, 0.0]],
            },
            plan={"inline": {
                "client_ids": ["C1"], "class_names": ["a", "b"], "counts": [[4, 4]],
            }},
        )
        cfg = config_from_dict(doc)
        assert cfg.task.n_classes == 2
        assert cfg.task.class_means[0, 1] == 1.0


class TestValidation:
    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match="warp_speed"):
            config_from_dict(minimal_doc(warp_speed=9))

    def test_unknown_nested_key_named(self):
        doc = minimal_doc()
        doc["train"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="momentum"):
            config_from_dict(doc)

    def test_train_seed_rejected(self):
        doc = minimal_doc()
        doc["train"]["seed"] = 123
        with pytest.raises(ConfigError, match="'seed'"):
            config_from_dict(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("train", "batch_size", "eight"),
        ("train", "learning_rate", [0.1]),
        ("eval", "per_class", "many"),
        ("task", "noise_sigma", "loud"),
        ("async", "alpha", "half"),
    ])
    def test_bad_value_names_its_section(self, section, key, value):
        doc = minimal_doc()
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            config_from_dict(doc)

    def test_bad_client_value_names_the_client(self):
        doc = minimal_doc(clients=[
            {"client_id": "C1", "device": {"speed_factor": "fast"}},
            {"client_id": "C2"}, {"client_id": "C3"}, {"client_id": "C4"},
        ])
        with pytest.raises(ConfigError, match="client C1 device.speed_factor"):
            config_from_dict(doc)

    @pytest.mark.parametrize("task", [
        {"scenario_shifts": {"fog": [0.0] * 16}},
        {"class_means": [[0.0]], "means_seed": 3},
        {"class_means": [[0.0]], "scenario_tags": ["fog"]},
        {"class_means": [[0.0]], "shift_scale": 1.0},
    ])
    def test_task_keys_its_form_ignores_rejected(self, task):
        ignored = next(k for k in task if k != "class_means")
        doc = minimal_doc(task=task, plan={"inline": {
            "client_ids": ["C1"], "class_names": ["a"], "counts": [[4]],
        }})
        with pytest.raises(ConfigError, match=ignored):
            config_from_dict(doc)

    def test_bad_strategy(self):
        with pytest.raises(ConfigError):
            config_from_dict(minimal_doc(strategy="fedsgd"))

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError):
            config_from_dict(minimal_doc(schema_version=2))

    def test_plan_required(self):
        doc = minimal_doc()
        del doc["plan"]
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_plan_needs_exactly_one_kind(self):
        doc = minimal_doc()
        doc["plan"]["inline"] = {"client_ids": ["C1"], "class_names": ["a"], "counts": [[1]]}
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_class_count_mismatch(self):
        doc = minimal_doc(task={"n_classes": 9, "n_features": 16, "noise_sigma": 1.0})
        with pytest.raises(ConfigError, match="classes"):
            config_from_dict(doc)

    def test_clients_must_match_plan(self):
        doc = minimal_doc(clients=[{"client_id": "C9"}])
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_duplicate_clients(self):
        doc = minimal_doc(clients=[{"client_id": "C1"}] * 2)
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_clients_sharing_a_stream_key(self):
        # crc32("plumless") == crc32("buckeroo"): the two would draw
        # identical datasets, seeds, power and dropout coins.
        doc = scenarios.scale_800()
        ids = doc["plan"]["inline"]["client_ids"]
        for i, cid in enumerate(("plumless", "buckeroo")):
            ids[i] = doc["clients"][i]["client_id"] = cid
        with pytest.raises(ConfigError, match="'plumless' and 'buckeroo' share the stream key"):
            config_from_dict(doc)

    def test_scenario_mix_tag_must_exist(self):
        doc = minimal_doc(clients=[
            {"client_id": "C1", "scenario_mix": {"fog": 1.0}},
            {"client_id": "C2"}, {"client_id": "C3"}, {"client_id": "C4"},
        ])
        with pytest.raises(ConfigError, match="fog"):
            config_from_dict(doc)

    def test_scenario_mix_must_sum_to_one(self):
        doc = minimal_doc()
        doc["task"]["scenario_tags"] = ["day"]
        doc["clients"] = [
            {"client_id": "C1", "scenario_mix": {"day": 0.5}},
            {"client_id": "C2"}, {"client_id": "C3"}, {"client_id": "C4"},
        ]
        with pytest.raises(ConfigError, match="sums"):
            config_from_dict(doc)

    def test_eval_scenario_checked(self):
        doc = minimal_doc(eval={"per_class": 10, "scenario": "fog"})
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_eval_mixture_checked(self):
        doc = minimal_doc()
        doc["task"]["scenario_tags"] = ["day", "night"]
        doc["eval"] = {"per_class": 10, "scenario": {"day": 0.5, "night": 0.3}}
        with pytest.raises(ConfigError, match="sum"):
            config_from_dict(doc)
        doc["eval"]["scenario"]["night"] = 0.5
        assert config_from_dict(doc).eval.scenario_mix() == {"day": 0.5, "night": 0.5}

    def test_each_mix_check_names_its_owner(self):
        doc = minimal_doc()
        doc["task"]["scenario_tags"] = ["day"]
        doc["clients"] = [
            {"client_id": "C2", "scenario_mix": {"fog": 1.0}},
            {"client_id": "C1"}, {"client_id": "C3"}, {"client_id": "C4"},
        ]
        with pytest.raises(ConfigError, match="client C2 scenario_mix names unknown "
                                              "scenario tag 'fog'"):
            config_from_dict(doc)
        doc["clients"][0]["scenario_mix"] = {"day": 0.25}
        with pytest.raises(ConfigError, match="client C2 scenario_mix sums to 0.25"):
            config_from_dict(doc)
        doc["clients"][0]["scenario_mix"] = None
        doc["eval"]["scenario"] = "fog"
        with pytest.raises(ConfigError, match="eval scenario names unknown scenario tag"):
            config_from_dict(doc)
        doc["eval"]["scenario"] = {"day": 0.5}
        with pytest.raises(ConfigError, match="eval scenario sums to 0.5"):
            config_from_dict(doc)

    def test_eval_per_class_positive(self):
        with pytest.raises(ConfigError):
            config_from_dict(minimal_doc(eval={"per_class": 0}))

    def test_dropout_validation(self):
        with pytest.raises(ConfigError):
            DropoutRule(mode="sometimes")
        with pytest.raises(ConfigError):
            DropoutRule(mode="stochastic", p=1.5)

    def test_dropout_round_trip(self):
        rule = DropoutRule(mode="absent_rounds", absent_rounds=frozenset({2, 5}))
        again = DropoutRule.from_dict(rule.to_dict(), "test")
        assert again == rule
        rule = DropoutRule(mode="stochastic", p=0.3, q=0.7)
        assert DropoutRule.from_dict(rule.to_dict(), "test") == rule

    def test_overlap_counts_length_checked(self):
        doc = minimal_doc(
            plan={"overlap": {"n_clients": 4, "window": 2,
                              "per_partition_counts": [3] * 7}}
        )
        with pytest.raises(ConfigError):
            config_from_dict(doc)


def overlap_doc(counts=(3,) * 8, **overrides):
    return minimal_doc(plan={"overlap": {"n_clients": 4, "window": 2,
                                         "per_partition_counts": list(counts)}}, **overrides)


class TestOverlapPlanChecks:
    def test_clients_checked_against_the_plan(self):
        clients = [{"client_id": cid} for cid in ("C1", "C2", "C3", "X4")]
        with pytest.raises(ConfigError, match="client_ids"):
            config_from_dict(overlap_doc(clients=clients))

    def test_clients_in_any_order(self):
        clients = [{"client_id": cid} for cid in ("C3", "C1", "C4", "C2")]
        cfg = config_from_dict(overlap_doc(clients=clients))
        assert [c.client_id for c in cfg.clients] == ["C3", "C1", "C4", "C2"]

    @pytest.mark.parametrize("counts, match", [
        ([0] * 8, "no samples"), ([3] * 7 + [-1], "negative"),
    ])
    def test_bad_counts_rejected(self, counts, match):
        with pytest.raises(ConfigError, match=match):
            config_from_dict(overlap_doc(counts))

    def test_no_class_no_counts_rejected(self):
        # An empty count list has no sample either; the task refuses it.
        doc = minimal_doc(task={"n_classes": 0, "n_features": 4},
                          plan={"overlap": {"n_clients": 2, "window": 1,
                                            "per_partition_counts": []}})
        with pytest.raises(ConfigError, match="n_classes"):
            config_from_dict(doc)

    def test_client_scenario_mix_rejected(self):
        doc = overlap_doc()
        doc["task"]["scenario_tags"] = ["night"]
        doc["clients"] = [{"client_id": f"C{i}", "scenario_mix": {"night": 1.0}}
                          for i in range(1, 5)]
        with pytest.raises(ConfigError, match="client C1 has a scenario_mix"):
            config_from_dict(doc)


class TestIntegerKeys:
    """Every integer key takes a JSON integer only: `int()` would truncate
    a float, read a bool as 0 or 1 and parse a string."""

    @pytest.mark.parametrize("path", [
        ("rounds",), ("master_seed",), ("train", "local_epochs"), ("train", "batch_size"),
        ("task", "n_classes"), ("task", "n_features"), ("task", "means_seed"),
        ("eval", "per_class"), ("eval", "seed"), ("plan", "scale_divisor"),
        ("clients", 0, "resolution"), ("clients", 0, "batch"),
    ])
    @pytest.mark.parametrize("bad", [2.9, 8.0, True, "8"])
    def test_non_integer_rejected(self, path, bad):
        doc = minimal_doc(clients=[{"client_id": f"C{i}"} for i in range(1, 5)])
        *parents, key = path
        section = doc
        for step in parents:
            section = section[step]
        section[key] = bad
        with pytest.raises(ConfigError, match=str(key)):
            config_from_dict(doc)

    @pytest.mark.parametrize("key, bad", [
        ("n_clients", 4.0), ("window", True), ("per_partition_counts", [3.5] + [3] * 7),
        ("per_partition_counts", ["3"] * 8),
    ])
    def test_overlap_non_integer_rejected(self, key, bad):
        doc = overlap_doc()
        doc["plan"]["overlap"][key] = bad
        with pytest.raises(ConfigError, match=key):
            config_from_dict(doc)

    @pytest.mark.parametrize("rounds", [["2", "3"], [2.0, 3], [True]])
    def test_absent_rounds_take_integers_only(self, rounds):
        doc = minimal_doc(clients=[
            {"client_id": "C1", "dropout": {"mode": "absent_rounds", "rounds": rounds}},
            {"client_id": "C2"}, {"client_id": "C3"}, {"client_id": "C4"},
        ])
        with pytest.raises(ConfigError, match="client C1 dropout.rounds"):
            config_from_dict(doc)


class TestResolutionNoise:
    """Each `resolution_noise` key names one resolution in canonical
    decimal, and each factor is nonnegative; `int()` would read "6_40",
    " 320" and "+960", and let "640" and "0640" collide."""

    @pytest.mark.parametrize("key", ["6_40", " 320", "+960", "0640", "0", "-640", "", "640.0",
                                     "\u0666\u0664\u0660"])
    def test_non_canonical_key_rejected(self, key):
        with pytest.raises(ConfigError, match=r"^experiment config\.resolution_noise: .*decimal"):
            config_from_dict(minimal_doc(resolution_noise={"320": 1.5, key: 1.0}))

    def test_colliding_keys_rejected(self):
        with pytest.raises(ConfigError, match="resolution_noise"):
            config_from_dict(minimal_doc(resolution_noise={"640": 1.0, "0640": 2.0}))

    @pytest.mark.parametrize("factor", [-1.0, -1e-300, -2])
    def test_negative_factor_rejected_at_load(self, factor):
        match = r"^experiment config\.resolution_noise: .*nonnegative"
        with pytest.raises(ConfigError, match=match):
            config_from_dict(minimal_doc(resolution_noise={"640": factor}))

    def test_canonical_keys_load(self):
        cfg = config_from_dict(minimal_doc(resolution_noise={"320": 0.0, "1280": 2}))
        assert cfg.resolution_noise == {320: 0.0, 1280: 2.0}
        assert config_from_dict(cfg.to_dict()).digest() == cfg.digest()


class TestNumberKeys:
    """Every float key takes a JSON integer or float, stored as a float:
    `float()` would parse a string and read a bool as 0.0 or 1.0."""

    PATHS = [
        ("train", "learning_rate"), ("train", "prox_mu"), ("task", "noise_sigma"),
        ("task", "shift_scale"), ("async", "alpha"), ("async", "staleness_exponent"),
        ("aggregate_time_s",), ("resolution_noise", "640"),
        ("clients", 0, "device", "speed_factor"), ("clients", 0, "device", "mem_capacity_mib"),
        ("clients", 0, "dropout", "p"), ("clients", 0, "dropout", "q"),
    ]

    @staticmethod
    def doc_with(path, value):
        doc = minimal_doc(
            strategy="fedasync" if path[0] == "async" else "fedprox",
            clients=[{"client_id": f"C{i}", "device": {}, "dropout": {"mode": "stochastic"}}
                     for i in range(1, 5)],
            resolution_noise={"640": 1.0},
        )
        *parents, key = path
        section = doc
        for step in parents:
            section = section.setdefault(step, {}) if isinstance(section, dict) else section[step]
        section[key] = value
        return doc

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("bad", ["0.5", True, [0.5]])
    def test_non_number_rejected(self, path, bad):
        key = "resolution_noise" if path[0] == "resolution_noise" else path[-1]
        with pytest.raises(ConfigError, match=rf"\.{key}: expected a number"):
            config_from_dict(self.doc_with(path, bad))

    # Python's JSON reader takes NaN, Infinity and -Infinity.
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "int-past-float"])
    def test_non_finite_rejected(self, path, bad):
        key = "resolution_noise" if path[0] == "resolution_noise" else path[-1]
        doc = json.loads(json.dumps(self.doc_with(path, bad)))
        with pytest.raises(ConfigError, match=rf"\.{key}: expected a finite number"):
            config_from_dict(doc)

    # Each is checked so that NaN fails it, for a caller that builds the
    # dataclasses without `config_from_dict`.
    @pytest.mark.parametrize("build", [
        lambda x: TrainConfig(learning_rate=x), lambda x: TrainConfig(prox_mu=x),
        lambda x: AsyncConfig(staleness_exponent=x), lambda x: DeviceSpec(speed_factor=x),
        lambda x: DeviceSpec(mem_capacity_mib=x), lambda x: default_task(noise_sigma=x),
    ], ids=["learning_rate", "prox_mu", "staleness_exponent", "speed_factor",
            "mem_capacity_mib", "noise_sigma"])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf], ids=["nan", "-inf"])
    def test_dataclass_refuses_nan(self, build, bad):
        with pytest.raises(ConfigError):
            build(bad)

    # The task section is hashed as written, so it is left out here.
    @pytest.mark.parametrize("path", [p for p in PATHS if p[0] != "task"])
    def test_integer_stored_as_float(self, path):
        whole, point = (config_from_dict(self.doc_with(path, v)) for v in (1, 1.0))
        assert whole.canonical_json() == point.canonical_json()


class TestPlanKeys:
    @pytest.mark.parametrize("divisor", [0, -4])
    def test_divisor_below_one_rejected(self, divisor):
        doc = minimal_doc(plan={"builtin": "kitti-4", "scale_divisor": divisor})
        with pytest.raises(ConfigError, match="scale divisor must be >= 1"):
            config_from_dict(doc)

    def test_divisor_one_is_the_unscaled_plan(self):
        doc = minimal_doc(plan={"builtin": "kitti-4", "scale_divisor": 1})
        assert config_from_dict(doc).plan == builtin_plan("kitti-4")

    @pytest.mark.parametrize("plan", [
        {"inline": {"client_ids": ["C1"], "class_names": ["a"], "counts": [[4]]}},
        {"overlap": {"n_clients": 4, "window": 2, "per_partition_counts": [3] * 8}},
    ])
    def test_divisor_beside_another_kind_rejected(self, plan):
        with pytest.raises(ConfigError, match="scale_divisor applies to a builtin plan"):
            config_from_dict(minimal_doc(plan={**plan, "scale_divisor": 2}))

    @pytest.mark.parametrize("count", [2.9, 3.0, "3", True])
    def test_inline_counts_take_integers_only(self, count):
        inline = {"client_ids": ["C1"], "class_names": ["a"], "counts": [[count]]}
        doc = minimal_doc(task={"n_classes": 1}, plan={"inline": inline})
        with pytest.raises(ConfigError, match="inline plan.counts"):
            config_from_dict(doc)

    def test_inline_unknown_key_rejected(self):
        inline = {"client_ids": ["C1"], "class_names": ["a"], "counts": [[4]], "weights": [1]}
        doc = minimal_doc(task={"n_classes": 1}, plan={"inline": inline})
        with pytest.raises(ConfigError, match="weights"):
            config_from_dict(doc)

    def test_partition_plan_file_pastes_in_as_inline(self, capsys):
        from fedsim.cli import main

        assert main(["partition", "--plan", "kitti-4", "--scale-divisor", "64"]) == 0
        inline = json.loads(capsys.readouterr().out)
        cfg = config_from_dict(minimal_doc(plan={"inline": inline}))
        assert cfg.plan == config_from_dict(minimal_doc()).plan


class TestDigestAndRoundTrip:
    def test_digest_stable_and_sensitive(self):
        a = config_from_dict(minimal_doc())
        b = config_from_dict(minimal_doc())
        assert a.digest() == b.digest()
        c = config_from_dict(minimal_doc(rounds=4))
        assert a.digest() != c.digest()

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_to_dict_round_trips(self, name):
        for seed in (0, 7):
            cfg = config_from_dict(VARIANTS[name](seed=seed))
            again = config_from_dict(cfg.to_dict())
            assert again.to_dict() == cfg.to_dict()
            assert again.digest() == cfg.digest()

    @pytest.mark.parametrize("name", sorted(CONFIG_SHA256))
    def test_config_digest_pinned(self, name):
        assert config_from_dict(VARIANTS[name](seed=0)).digest() == CONFIG_SHA256[name]

    def test_with_seed(self):
        cfg = config_from_dict(minimal_doc())
        reseeded = cfg.with_seed(42)
        assert reseeded.master_seed == 42
        assert reseeded.digest() != cfg.digest()
        assert reseeded.rounds == cfg.rounds

    def test_save_and_load(self, tmp_path):
        cfg = config_from_dict(minimal_doc())
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded.digest() == cfg.digest()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(path)


class TestBudgets:
    def test_async_defaults(self):
        # rounds x clients applications, one evaluation per client count
        assert async_counts(minimal_doc(strategy="fedasync")) == {"aggregate": 3 * 4, "eval": 3}

    def test_async_overrides(self):
        doc = minimal_doc(strategy="fedasync")
        doc["async"] = {"alpha": 0.5, "staleness_exponent": 1.0,
                        "applications": 10, "eval_every": 3}
        assert config_from_dict(doc).async_cfg.alpha == 0.5
        # evaluations after 3, 6 and 9 applications, and at the last one
        assert async_counts(doc) == {"aggregate": 10, "eval": 4}

    @pytest.mark.parametrize("key, value", [
        ("applications", 0), ("applications", -5), ("eval_every", 0), ("eval_every", -1),
    ])
    def test_async_config_names_the_budget_it_refuses(self, key, value):
        with pytest.raises(ConfigError, match=f"async.{key} must be >= 1, got {value}"):
            AsyncConfig(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("applications", 0), ("applications", -5), ("applications", 2.5),
        ("applications", "10"), ("applications", True),
        ("eval_every", 0), ("eval_every", -1), ("eval_every", 1.5),
    ])
    def test_bad_async_budget_rejected(self, key, value):
        doc = minimal_doc(strategy="fedasync")
        doc["async"] = {key: value}
        with pytest.raises(ConfigError, match=key):
            config_from_dict(doc)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_bad_aggregate_time_rejected(self, value):
        with pytest.raises(ConfigError, match="aggregate_time_s"):
            config_from_dict(minimal_doc(aggregate_time_s=value))

    def test_zero_aggregate_time_allowed(self):
        assert config_from_dict(minimal_doc(aggregate_time_s=0)).aggregate_time_s == 0.0

    def test_eval_spec_string_mix(self):
        assert EvalSpec(scenario="reference").scenario_mix() == {"reference": 1.0}


class TestStrategyKeys:
    """A key the strategy never reads is refused unless it holds its
    default, as `train.prox_mu` is: it would change the digest and nothing
    else."""

    @pytest.mark.parametrize("strategy", ["fedavg", "fedprox"])
    @pytest.mark.parametrize("key, value", [
        ("alpha", 0.5), ("staleness_exponent", 1.0), ("applications", 10), ("eval_every", 2),
    ])
    def test_async_key_refused_under_sync(self, strategy, key, value):
        doc = minimal_doc(strategy=strategy)
        doc["async"] = {key: value}
        with pytest.raises(ConfigError, match=f"async.{key} applies to fedasync only, "
                                              f"not {strategy}"):
            config_from_dict(doc)

    @pytest.mark.parametrize("value", [0.0, 2.5])
    def test_aggregate_time_refused_under_fedasync(self, value):
        with pytest.raises(ConfigError, match="aggregate_time_s applies to fedavg and fedprox"):
            config_from_dict(minimal_doc(strategy="fedasync", aggregate_time_s=value))

    @pytest.mark.parametrize("strategy", ["fedavg", "fedprox", "fedasync"])
    def test_defaults_accepted_and_round_trip(self, strategy):
        doc = minimal_doc(strategy=strategy, aggregate_time_s=1,
                          **{"async": {"alpha": 0.6, "applications": None}})
        cfg = config_from_dict(doc)
        assert config_from_dict(cfg.to_dict()).digest() == cfg.digest()
        assert cfg.with_seed(7).master_seed == 7


class TestKeyTables:
    """Each section's key table is its dataclass's fields, so every parsed
    key lands on the object that section builds."""

    @pytest.mark.parametrize("table, cls", [
        (_TRAIN_KEYS, TrainConfig),
        (_ASYNC_KEYS, AsyncConfig),
        (_EVAL_KEYS, EvalSpec),
        (_DEVICE_KEYS, DeviceSpec),
        (_client_keys("client C1"), ClientSpec),
    ], ids=["train", "async", "eval", "device", "client"])
    def test_table_is_the_dataclass(self, table, cls):
        assert set(table) == {f.name for f in dataclasses.fields(cls)}
