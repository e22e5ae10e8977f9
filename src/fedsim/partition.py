"""Client data partitioning: built-in plans, fraction splits, overlapping
windows, and lighting/weather scenario splits.

Built-in plans embed published per-client class counts verbatim; splits use
largest-remainder rounding so column sums are conserved exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigError

# Per-client object counts for the 4-client KITTI split.
KITTI_CLASSES = (
    "Car", "Van", "Truck", "Pedestrian", "PersonSitting", "Cyclist", "Tram", "Misc",
)
KITTI_COUNTS = {
    "Car": (11508, 5920, 2925, 2823),
    "Van": (1173, 615, 264, 280),
    "Truck": (434, 228, 105, 114),
    "Pedestrian": (1814, 934, 425, 426),
    "PersonSitting": (117, 29, 7, 17),
    "Cyclist": (636, 321, 170, 162),
    "Tram": (210, 92, 28, 92),
    "Misc": (395, 207, 91, 89),
}

# 8-client BDD100K split; the rare "train" class is excluded.
BDD_CLASSES = (
    "Pedestrian", "Rider", "Car", "Truck", "Bus", "Motor", "Bike",
    "TrafficLight", "TrafficSign",
)
BDD_COUNTS = {
    "Pedestrian": (46279, 22441, 11381, 5805, 2690, 1385, 703, 665),
    "Rider": (2325, 1088, 577, 291, 138, 48, 20, 30),
    "Car": (356110, 178724, 88719, 45365, 21885, 11284, 5721, 5403),
    "Truck": (14909, 7507, 3705, 1935, 976, 476, 228, 235),
    "Bus": (5780, 2968, 1441, 727, 347, 214, 105, 90),
    "Motor": (1449, 736, 403, 225, 118, 32, 17, 22),
    "Bike": (3820, 1698, 926, 446, 164, 76, 35, 45),
    "TrafficLight": (92792, 46558, 23342, 11796, 5659, 3040, 1495, 1435),
    "TrafficSign": (120510, 59410, 30131, 14896, 7307, 3812, 1787, 1833),
}

# Image counts per (lighting, weather) cell.  The Dawn/Dusk row is carried
# for completeness; default experiments use Daytime and Night only.
LIGHTING_WEATHER_COUNTS = {
    ("Daytime", "Clear"): 14218,
    ("Daytime", "Overcast"): 8590,
    ("Daytime", "Cloudy"): 4900,
    ("Daytime", "Rainy"): 2930,
    ("Daytime", "Snowy"): 3284,
    ("Dawn/Dusk", "Clear"): 2314,
    ("Dawn/Dusk", "Overcast"): 1329,
    ("Dawn/Dusk", "Cloudy"): 665,
    ("Dawn/Dusk", "Rainy"): 384,
    ("Dawn/Dusk", "Snowy"): 510,
    ("Night", "Clear"): 26158,
    ("Night", "Overcast"): 90,
    ("Night", "Cloudy"): 54,
    ("Night", "Rainy"): 2494,
    ("Night", "Snowy"): 2522,
}

WEATHER_FRACTIONS = (0.30, 0.25, 0.20, 0.15, 0.10)
NUSCENES_FRACTIONS = (0.5, 0.25, 0.125, 0.125)
# 24 categories minus 4 excluded rare ones.
NUSCENES_CLASS_SLOTS = 20
NUSCENES_DEFAULT_TOTAL_PER_CLASS = 1000

BUILTIN_PLAN_NAMES = ("kitti-4", "bdd-8", "nuscenes-frac-4", "weather-5")


def largest_remainder(total: int, fractions) -> list[int]:
    """Split an integer by fractions, conserving the total exactly.

    Each slot gets floor(total * f); leftover units go to the largest
    fractional remainders, ties broken toward the lower index.
    """
    fractions = list(fractions)
    quotas = [total * f for f in fractions]
    base = [int(q) for q in quotas]
    short = total - sum(base)
    order = sorted(
        range(len(fractions)), key=lambda i: (-(quotas[i] - base[i]), i)
    )
    for i in order[:short]:
        base[i] += 1
    return base


@dataclass(frozen=True)
class PartitionPlan:
    """Per-client, per-class sample counts with exact column totals."""

    # Each client's dataset is drawn for that client alone, so its
    # resolution noise and scenario mix apply (see `OverlapPlan`).
    draws_per_client = True

    client_ids: tuple[str, ...]
    class_names: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]  # row per client, column per class
    # client id -> row index; derived, so out of equality, repr and JSON.
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {cid: i for i, cid in enumerate(self.client_ids)}
        if len(index) != len(self.client_ids):
            raise ConfigError("client_ids must be unique")
        object.__setattr__(self, "_index", index)
        for cid, row in zip(self.client_ids, self.counts):
            if len(row) != len(self.class_names):
                raise ConfigError(f"row for {cid} has wrong length")
            if any(c < 0 for c in row):
                raise ConfigError(f"negative count in row for {cid}")
            if sum(row) == 0:
                raise ConfigError(f"client {cid} holds no samples")

    @property
    def class_totals(self) -> tuple[int, ...]:
        return tuple(
            sum(row[j] for row in self.counts) for j in range(len(self.class_names))
        )

    def row(self, client_id: str) -> tuple[int, ...]:
        try:
            return self.counts[self._index[client_id]]
        except KeyError:
            raise ConfigError(f"unknown client {client_id!r}") from None

    def client_total(self, client_id: str) -> int:
        return sum(self.row(client_id))

    @property
    def total_samples(self) -> int:
        return sum(sum(row) for row in self.counts)

    def scaled(self, divisor: int) -> "PartitionPlan":
        """Shrink every count by an integer divisor (rounded, floor 1).

        Keeps the skew shape of a large plan at desk scale; column totals
        are recomputed from the scaled rows.
        """
        if divisor < 1:
            raise ConfigError(f"scale divisor must be >= 1, got {divisor}")
        rows = tuple(
            tuple(max(1, round(c / divisor)) if c > 0 else 0 for c in row)
            for row in self.counts
        )
        return PartitionPlan(self.client_ids, self.class_names, rows)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "client_ids": list(self.client_ids),
            "class_names": list(self.class_names),
            "class_totals": list(self.class_totals),
            "counts": [list(r) for r in self.counts],
            "scenario_mix": None,  # a client's mix is set in its config entry
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "PartitionPlan":
        try:
            plan = PartitionPlan(
                client_ids=tuple(doc["client_ids"]),
                class_names=tuple(doc["class_names"]),
                counts=tuple(map(tuple, doc["counts"])),
            )
        except KeyError as exc:
            raise ConfigError(f"partition plan missing field {exc}") from None
        declared = doc.get("class_totals")
        if declared is not None and tuple(declared) != plan.class_totals:
            raise ConfigError(
                "declared class totals do not match the counts matrix"
            )
        return plan


@dataclass(frozen=True)
class OverlapPlan:
    """Sliding-window shard assignment: client i holds `window` consecutive
    partition indices of 1..n_partitions with wraparound, and each partition
    has `window` holders; any other assignment is a `ConfigError`.

    Each partition holds `per_partition_counts` samples per class, drawn
    once at the task's own noise and shared by its holders, so no client's
    resolution noise or scenario mix applies.  Plan files carry no counts.
    """

    draws_per_client = False

    n_clients: int
    n_partitions: int
    window: int
    assignment: dict[str, tuple[int, ...]] = field(default_factory=dict)
    per_partition_counts: tuple[int, ...] = ()

    def __post_init__(self):
        counts = self.per_partition_counts
        if any(c < 0 for c in counts):
            raise ConfigError("negative count in per_partition_counts")
        if counts and sum(counts) == 0:
            raise ConfigError("per_partition_counts hold no samples")
        n = self.n_partitions
        for cid, parts in self.assignment.items():
            if len(parts) != self.window:
                raise ConfigError(f"client {cid} does not hold exactly window partitions")
            if n < 1 or any(p != (parts[0] + k - 1) % n + 1 for k, p in enumerate(parts)):
                raise ConfigError(
                    f"client {cid} does not hold {self.window} consecutive partitions of 1..{n}")
        holders = Counter(p for parts in self.assignment.values() for p in parts)
        if holders and any(v != self.window for v in holders.values()):
            raise ConfigError("partition multiplicity violated")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "overlap",
            "n_clients": self.n_clients,
            "n_partitions": self.n_partitions,
            "window": self.window,
            "assignment": {cid: list(p) for cid, p in self.assignment.items()},
        }

    @property
    def client_ids(self) -> tuple[str, ...]:
        return tuple(self.assignment)

    @property
    def total_samples(self) -> int:
        return sum(self.per_partition_counts) * self.n_partitions


def client_name(i: int) -> str:
    return f"C{i}"


def builtin_plan(name: str) -> PartitionPlan:
    """Return one of the embedded plans: kitti-4, bdd-8, nuscenes-frac-4,
    weather-5."""
    if name == "kitti-4":
        clients = tuple(client_name(i) for i in range(1, 5))
        counts = tuple(
            tuple(KITTI_COUNTS[cls][i] for cls in KITTI_CLASSES) for i in range(4)
        )
        return PartitionPlan(clients, KITTI_CLASSES, counts)
    if name == "bdd-8":
        clients = tuple(client_name(i) for i in range(1, 9))
        counts = tuple(
            tuple(BDD_COUNTS[cls][i] for cls in BDD_CLASSES) for i in range(8)
        )
        return PartitionPlan(clients, BDD_CLASSES, counts)
    if name == "nuscenes-frac-4":
        totals = {
            f"class{j:02d}": NUSCENES_DEFAULT_TOTAL_PER_CLASS
            for j in range(NUSCENES_CLASS_SLOTS)
        }
        return fraction_split(totals, NUSCENES_FRACTIONS)
    if name == "weather-5":
        return scenario_split(LIGHTING_WEATHER_COUNTS, WEATHER_FRACTIONS)
    raise ConfigError(
        f"unknown plan {name!r}; expected one of {', '.join(BUILTIN_PLAN_NAMES)}"
    )


def _check_fractions(fractions) -> list[float]:
    fractions = [float(f) for f in fractions]
    if any(f <= 0 for f in fractions):
        raise ConfigError("every fraction must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions sum to {sum(fractions)}, expected 1")
    return fractions


def fraction_split(total_per_class: dict[str, int], fractions) -> PartitionPlan:
    """Split per-class totals across clients by fixed fractions.

    Counts come from largest-remainder rounding, so each class column sums
    to its declared total exactly; no randomness is involved.
    """
    fractions = _check_fractions(fractions)
    classes = tuple(total_per_class)
    clients = tuple(client_name(i) for i in range(1, len(fractions) + 1))
    columns = {
        cls: largest_remainder(int(total_per_class[cls]), fractions) for cls in classes
    }
    counts = tuple(
        tuple(columns[cls][i] for cls in classes) for i in range(len(fractions))
    )
    return PartitionPlan(clients, classes, counts)


def overlap_split(n_clients: int, window: int, per_partition_counts=()) -> OverlapPlan:
    """Client i (1-based) holds partitions {i, ..., i+window-1} mod n_clients."""
    if window < 1:
        raise ConfigError("window must be >= 1")
    if window > n_clients:
        raise ConfigError("window cannot exceed n_clients")
    assignment = {
        client_name(i): tuple((i - 1 + k) % n_clients + 1 for k in range(window))
        for i in range(1, n_clients + 1)
    }
    return OverlapPlan(n_clients, n_clients, window, assignment, tuple(per_partition_counts))


def scenario_split(table: dict, fractions) -> PartitionPlan:
    """Split each (lighting, weather) cell across clients by fractions: the
    `fraction_split` whose classes are the cells, named "lighting|weather"."""
    return fraction_split({f"{light}|{weather}": n for (light, weather), n in table.items()},
                          fractions)
