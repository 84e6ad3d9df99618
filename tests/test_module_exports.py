"""Every public function and class of a library module is in its ``__all__``,
and the package itself re-exports nothing.

The benchmark's per-layer tracer wraps exactly the names in ``__all__``;
a public function left out of it is not timed as its own layer's work but
charged to its callers.  Each public name has one home, the module that
defines it, so importing one layer loads only what that layer imports.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import skeinalg

# ``cli`` is the command line, not a library layer; ``__main__`` runs it.
_LIBRARY = sorted(
    info.name
    for info in pkgutil.iter_modules(skeinalg.__path__)
    if info.name not in ("cli", "__main__")
)


def test_library_modules_found():
    assert {"elements", "laurent", "skein_s04"} <= set(_LIBRARY)


@pytest.mark.parametrize("name", _LIBRARY)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(f"skeinalg.{name}")
    missing = [
        key
        for key, value in vars(module).items()
        if not key.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
        and key not in module.__all__
    ]
    assert missing == []


def test_package_loads_no_submodule():
    # A fresh interpreter: this one has imported every layer already.
    script = (
        "import json, sys, skeinalg; print(json.dumps({"
        "'loaded': sorted(m for m in sys.modules if m.startswith('skeinalg.')),"
        "'public': sorted(k for k in vars(skeinalg) if not k.startswith('_')),"
        "'version': skeinalg.__version__}))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(skeinalg.__file__).parents[1])]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == []
    assert out["public"] == []
    assert out["version"] == skeinalg.__version__
