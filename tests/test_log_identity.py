"""Seed-0 metrics logs are pinned byte for byte.

A run is a pure function of its config and seed, so a change that keeps
every log below identical cannot have changed behaviour.  A digest here
changes only with a deliberate, documented change to what a run does.
Two more pins run at master seeds of 2**32 and above, which enter every
random key as two 32-bit entropy words instead of one.
"""

import hashlib
import io

import pytest

from fedsim.config import config_from_dict
from fedsim.metrics import MetricsWriter
from fedsim.orchestrator import run
from fedsim.scenarios import SCENARIOS, bdd_async_hetero, hetero_resolution, kitti_sync


def _stochastic(doc, rounds, p, q):
    doc["rounds"] = rounds
    doc["train"]["local_epochs"] = 1
    for client in doc["clients"]:
        client["dropout"] = {"mode": "stochastic", "p": p, "q": q}
    return doc


def _oom_midround(seed):
    """C2 at 960 px keeps batch 32, over the device budget: every round logs
    C1 trained, C2 out of memory, then C3 and C4 trained, and the trained
    clients hold three different sample counts."""
    doc = hetero_resolution(upgrade="C2", resolution=960, seed=seed)
    for client in doc["clients"]:
        if client["client_id"] == "C2":
            client["batch"] = 32
    return doc


def _async_oom(seed):
    """C2 at 960 px and batch 32 does not fit its device: the async run logs
    one round-0 `oom` for C2 and runs the other seven clients."""
    doc = bdd_async_hetero(seed=seed)
    for client in doc["clients"]:
        if client["client_id"] == "C2":
            client["resolution"] = 960
            client["batch"] = 32
    return doc


CONFIGS = {name: builder for name, (builder, _) in SCENARIOS.items()}
CONFIGS["kitti-sync-stochastic"] = lambda seed: _stochastic(kitti_sync(seed), 30, 0.3, 0.4)
CONFIGS["bdd-async-stochastic"] = lambda seed: _stochastic(bdd_async_hetero(seed), 6, 0.2, 0.5)
CONFIGS["hetero-resolution-oom"] = _oom_midround
CONFIGS["bdd-async-oom"] = _async_oom
CONFIGS["kitti-sync-fedprox"] = lambda seed: kitti_sync(seed, strategy="fedprox")

DIGESTS = {
    "bdd-async-hetero": "1164e65bc19955c7d5db042790c916609066d25a0e41a056c62b793e778131d4",
    "bdd-async-oom": "e9bfef3a9e14b981e478b4a05305df009e65df254235e369a056d222269e87ba",
    "bdd-async-stochastic": "29cf49b16b193449dc05bb03823ceac7444bf780407844e5d5c0c5384357e534",
    "bdd-dropout-dual": "e76aacc0807c84a9d8cc56795b7df2d258096388cb3f4b77ef846a6d9a40c89e",
    "hetero-resolution": "0bb52723cf35a016a0685a6bc11845b8b9470a58b23f35129009e7aaab2d2989",
    "hetero-resolution-oom": "6c08e6e68c893aadc41d7cfbe0b95b898ceef1e2bd06e96aba6cd49cccded2d1",
    "kitti-sync": "8ffd1beb0fa06f8aa51a3f3db61a943903f5f16e3e175d237e887af7a873b70a",
    "kitti-sync-fedprox": "d5e6de17998e344208dcc566d21d1dcd078e35520ed19b23bc76b954509f8430",
    "kitti-sync-stochastic": "b0caf9f018bb604d3d1bbecd384e227898b03a705f1525c346d134c2e932f752",
    "lighting-crossdomain": "dee42e5b8a886bd2af3f41b85a3b31d62f5fc1b147360556199b70eef1320521",
    "overlap-60": "fe6857da1b4ef91b94c00eb1d9b74dbd618d3a2429758e49274fad402af463ca",
    "scale-800": "8e2414867efd665f987e0a78266ffb5875137e37b072460e70851a663fc9c0cb",
}


# (scenario, master seed) -> digest.  scale-800 derives its keys in large
# batches, kitti-sync (4 clients) one numpy SeedSequence at a time.
WIDE_MASTER_DIGESTS = {
    ("scale-800", 2**40 + 3): "d9c6f2fcf14158f1a4b39d7014c4526fc060ca431733c13e957cb2d701ab643a",
    ("kitti-sync", 2**32): "9d21b58693e2df314fc9f2a367dc6ec5022d8c10290b04fe857087699afff7ca",
}


def _log_digest(doc) -> str:
    buf = io.StringIO()
    run(config_from_dict(doc), MetricsWriter(buf))
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_seed0_log_digest(name):
    assert _log_digest(CONFIGS[name](seed=0)) == DIGESTS[name]


@pytest.mark.parametrize("name, seed", sorted(WIDE_MASTER_DIGESTS))
def test_two_word_master_log_digest(name, seed):
    assert _log_digest(CONFIGS[name](seed=seed)) == WIDE_MASTER_DIGESTS[name, seed]
