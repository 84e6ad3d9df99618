"""Every public function and class of a library module is in its ``__all__``.

The benchmark's per-layer tracer wraps exactly the names in ``__all__``;
a public function left out of it is not timed as its own layer's work but
charged to its callers.
"""

import importlib
import inspect
import pkgutil

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
