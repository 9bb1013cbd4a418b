"""The package's public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import torusnls

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(torusnls.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", ["torusnls"] + [f"torusnls.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
