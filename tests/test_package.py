"""The package namespace: `import fedsim` loads every submodule."""

import os
import subprocess
import sys
from pathlib import Path

import fedsim

MODULES = ("aggregate", "config", "costs", "errors", "metrics", "orchestrator",
           "partition", "scenarios", "streams", "task")


def test_import_exposes_submodules():
    # A fresh interpreter, so no other test's imports can bind the names.
    script = (
        "import types, fedsim\n"
        f"for name in {MODULES!r}:\n"
        "    assert isinstance(getattr(fedsim, name), types.ModuleType), name\n"
        "print(fedsim.__version__)\n"
    )
    src = str(Path(fedsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == fedsim.__version__
