"""Partitioning: exact rounding, embedded plan data, splits, serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.errors import ConfigError
from fedsim.partition import (
    BDD_CLASSES,
    BDD_COUNTS,
    KITTI_CLASSES,
    KITTI_COUNTS,
    LIGHTING_WEATHER_COUNTS,
    NUSCENES_FRACTIONS,
    OverlapPlan,
    PartitionPlan,
    WEATHER_FRACTIONS,
    builtin_plan,
    fraction_split,
    largest_remainder,
    overlap_split,
    scenario_split,
)


def lr_oracle(total, fractions):
    """Independent largest-remainder computation in exact rational arithmetic."""
    quotas = [total * Fraction(str(f)) for f in fractions]
    base = [int(q) for q in quotas]
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[: total - sum(base)]:
        base[i] += 1
    return base


def json_round_trip(plan):
    """The plan as a `fedsim partition` file, read back."""
    return PartitionPlan.from_json_dict(json.loads(json.dumps(plan.to_json_dict(), indent=2)))


class TestLargestRemainder:
    def test_hand_worked_weather_cell(self):
        # 14218 * (.30,.25,.20,.15,.10): floors 4265/3554/2843/2132/1421
        # leave 3 units; remainders .4/.5/.6/.7/.8 put them on the last
        # three slots.
        assert largest_remainder(14218, WEATHER_FRACTIONS) == [
            4265, 3554, 2844, 2133, 1422,
        ]

    def test_hand_worked_small_cell(self):
        assert largest_remainder(90, WEATHER_FRACTIONS) == [27, 23, 18, 13, 9]

    def test_exact_halves(self):
        assert largest_remainder(1000, NUSCENES_FRACTIONS) == [500, 250, 125, 125]

    def test_tie_goes_to_lower_index(self):
        # 1 * (.5, .5): both remainders are .5, the single unit lands first.
        assert largest_remainder(1, (0.5, 0.5)) == [1, 0]

    def test_zero_total(self):
        assert largest_remainder(0, WEATHER_FRACTIONS) == [0, 0, 0, 0, 0]

    @given(
        total=st.integers(min_value=0, max_value=10**6),
        weights=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8),
    )
    @settings(max_examples=200)
    def test_matches_rational_oracle_and_conserves(self, total, weights):
        s = sum(weights)
        fractions = [w / s for w in weights]
        got = largest_remainder(total, fractions)
        assert sum(got) == total
        assert all(g >= 0 for g in got)
        # within one unit of the real quota
        for g, f in zip(got, fractions):
            assert abs(g - total * f) < 1.0 + 1e-9


class TestBuiltinPlans:
    def test_kitti_counts_verbatim(self):
        plan = builtin_plan("kitti-4")
        assert plan.class_names == KITTI_CLASSES
        assert plan.row("C1") == tuple(KITTI_COUNTS[c][0] for c in KITTI_CLASSES)
        assert plan.row("C1")[0] == 11508
        assert plan.row("C2")[0] == 5920
        assert plan.row("C3")[0] == 2925
        assert plan.row("C4")[0] == 2823
        assert plan.class_totals[0] == 11508 + 5920 + 2925 + 2823

    def test_kitti_full_matrix(self):
        plan = builtin_plan("kitti-4")
        for j, cls in enumerate(KITTI_CLASSES):
            column = tuple(plan.row(f"C{i}")[j] for i in range(1, 5))
            assert column == KITTI_COUNTS[cls]

    def test_bdd_counts_verbatim(self):
        plan = builtin_plan("bdd-8")
        assert plan.class_names == BDD_CLASSES
        for j, cls in enumerate(BDD_CLASSES):
            column = tuple(plan.row(f"C{i}")[j] for i in range(1, 9))
            assert column == BDD_COUNTS[cls]
        car = plan.class_names.index("Car")
        assert plan.row("C1")[car] == 356110
        assert plan.row("C8")[car] == 5403

    def test_bdd_excludes_train_class(self):
        assert "Train" not in builtin_plan("bdd-8").class_names
        assert len(BDD_CLASSES) == 9

    def test_bdd_heavy_skew(self):
        plan = builtin_plan("bdd-8")
        totals = [plan.client_total(c) for c in plan.client_ids]
        assert totals == sorted(totals, reverse=True)
        assert totals[0] / totals[-1] > 60

    def test_nuscenes_fraction_plan(self):
        plan = builtin_plan("nuscenes-frac-4")
        assert len(plan.client_ids) == 4
        assert len(plan.class_names) == 20
        for cid, frac in zip(plan.client_ids, NUSCENES_FRACTIONS):
            assert plan.client_total(cid) == round(20 * 1000 * frac)

    def test_weather_plan_shape(self):
        plan = builtin_plan("weather-5")
        assert len(plan.client_ids) == 5
        assert len(plan.class_names) == 15
        assert "test_client" not in plan.to_json_dict()  # no client is held out
        assert plan.total_samples == sum(LIGHTING_WEATHER_COUNTS.values())
        assert [plan.client_total(c) for c in plan.client_ids] == [
            21132, 17613, 14090, 10565, 7042,
        ]

    def test_weather_cell_rounding(self):
        plan = builtin_plan("weather-5")
        j = plan.class_names.index("Daytime|Clear")
        assert tuple(plan.row(f"C{i}")[j] for i in range(1, 6)) == (
            4265, 3554, 2844, 2133, 1422,
        )
        j = plan.class_names.index("Night|Overcast")
        assert tuple(plan.row(f"C{i}")[j] for i in range(1, 6)) == (27, 23, 18, 13, 9)

    def test_unknown_plan_name(self):
        with pytest.raises(ConfigError):
            builtin_plan("cityscapes-3")


class TestPlanOperations:
    def test_scaled_keeps_floor_one(self):
        plan = builtin_plan("kitti-4").scaled(16)
        assert [plan.client_total(c) for c in plan.client_ids] == [1017, 521, 253, 251]
        # tiny positive cells survive scaling
        j = plan.class_names.index("PersonSitting")
        assert plan.row("C3")[j] == 1

    def test_scaled_rejects_bad_divisor(self):
        with pytest.raises(ConfigError):
            builtin_plan("kitti-4").scaled(0)

    def test_row_unknown_client(self):
        with pytest.raises(ConfigError):
            builtin_plan("kitti-4").row("C9")

    def test_row_matches_position(self):
        plan = builtin_plan("bdd-8")
        for i, cid in enumerate(plan.client_ids):
            assert plan.row(cid) == plan.counts[i]

    def test_row_index_is_not_part_of_the_plan(self):
        # the id -> row map is derived: equality, repr and JSON ignore it
        plan = builtin_plan("kitti-4")
        again = PartitionPlan(plan.client_ids, plan.class_names, plan.counts)
        assert again == plan
        assert "_index" not in repr(plan)
        assert "_index" not in plan.to_json_dict()
        assert json_round_trip(plan).row("C3") == plan.row("C3")

    def test_json_round_trip(self):
        plan = builtin_plan("weather-5")
        again = json_round_trip(plan)
        assert again == plan

    def test_declared_totals_checked(self):
        doc = builtin_plan("kitti-4").to_json_dict()
        doc["class_totals"][0] += 1
        with pytest.raises(ConfigError):
            PartitionPlan.from_json_dict(json.loads(json.dumps(doc)))

    def test_rejects_duplicate_clients(self):
        with pytest.raises(ConfigError):
            PartitionPlan(("C1", "C1"), ("a",), ((1,), (2,)))

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ConfigError):
            PartitionPlan(("C1",), ("a",), ((-1,),))
        with pytest.raises(ConfigError):
            PartitionPlan(("C1", "C2"), ("a",), ((1,), (0,)))


class TestFractionSplit:
    def test_columns_conserve_totals(self):
        totals = {"a": 101, "b": 999, "c": 7}
        plan = fraction_split(totals, (0.6, 0.25, 0.15))
        for cls, total in totals.items():
            j = plan.class_names.index(cls)
            assert sum(row[j] for row in plan.counts) == total

    def test_matches_oracle(self):
        plan = fraction_split({"x": 14218}, WEATHER_FRACTIONS)
        assert [row[0] for row in plan.counts] == lr_oracle(14218, WEATHER_FRACTIONS)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ConfigError):
            fraction_split({"a": 10}, (0.5, 0.4))
        with pytest.raises(ConfigError):
            fraction_split({"a": 10}, (1.5, -0.5))


class TestOverlapSplit:
    def test_window_five_enumerated(self):
        plan = overlap_split(8, 5)
        assert plan.assignment["C1"] == (1, 2, 3, 4, 5)
        assert plan.assignment["C6"] == (6, 7, 8, 1, 2)
        assert plan.assignment["C8"] == (8, 1, 2, 3, 4)

    def test_every_partition_held_window_times(self):
        for window in (1, 3, 5):
            plan = overlap_split(12, window)
            holders = {}
            for parts in plan.assignment.values():
                for p in parts:
                    holders[p] = holders.get(p, 0) + 1
            assert set(holders) == set(range(1, 13))
            assert all(v == window for v in holders.values())

    def test_window_one_is_disjoint(self):
        plan = overlap_split(6, 1)
        held = [p for parts in plan.assignment.values() for p in parts]
        assert sorted(held) == list(range(1, 7))

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            overlap_split(4, 0)
        with pytest.raises(ConfigError):
            overlap_split(4, 5)

    def test_multiplicity_validation(self):
        with pytest.raises(ConfigError):
            OverlapPlan(2, 2, 1, {"C1": (1,), "C2": (1,)})

    def test_client_ids_and_total_samples(self):
        plan = overlap_split(5, 2, [3, 0, 4])
        assert plan.client_ids == ("C1", "C2", "C3", "C4", "C5")
        assert plan.per_partition_counts == (3, 0, 4)
        assert plan.total_samples == 7 * 5

    @pytest.mark.parametrize("counts, match", [
        ([2, -1, 3], "negative"), ([0, 0, 0], "no samples"),
    ])
    def test_rejects_bad_counts(self, counts, match):
        with pytest.raises(ConfigError, match=match):
            overlap_split(4, 2, counts)

    def test_plan_file_carries_no_counts(self):
        # `fedsim partition --plan overlap` writes the assignment alone
        assert overlap_split(4, 2, [3] * 8).to_json_dict() == overlap_split(4, 2).to_json_dict()


class TestScenarioSplit:
    def test_full_table(self):
        plan = scenario_split(LIGHTING_WEATHER_COUNTS, WEATHER_FRACTIONS)
        assert not hasattr(plan, "test_client")  # no share is held out for evaluation
        for cell, total in LIGHTING_WEATHER_COUNTS.items():
            name = f"{cell[0]}|{cell[1]}"
            j = plan.class_names.index(name)
            column = [row[j] for row in plan.counts]
            assert column == lr_oracle(total, WEATHER_FRACTIONS)
