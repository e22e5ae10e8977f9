"""The demos' printed output is pinned byte for byte.

Each demo runs built-in scenarios end to end and prints a table, so an
unchanged sha256 of its stdout shows that the scenarios, the engines and
the cost model still give the same numbers.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "async_vs_sync.py": "22aa778beea753215838bffedebb46f3dfa054d1083187e840acfb082f8ba94d",
    "convergence_study.py": "04ffc254e1de10dd606228d7f814d84748a533f85711905d14ed1a380ae75ae5",
    "cost_exploration.py": "b65aad91c7ac639476a872199049c160f493b3118abb1da3b909fe6b373e75b5",
    "dropout_study.py": "1b560e620f5eb268da63e9218baf1c9a0503aad7a01b879881944938f101e03b",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_pinned(name):
    src = str(Path(fedsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
