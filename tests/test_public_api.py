"""Every advertised public name exists, and importing the package stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import vlcmimo

MODULES = [importlib.import_module(f"vlcmimo.{info.name}")
           for info in pkgutil.iter_modules(vlcmimo.__path__)]


def test_every_exported_name_resolves():
    exported = set()
    for module in MODULES:
        names = getattr(module, "__all__", ())
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"
        exported.update(names)
    # the package re-exports only names some module still exports
    reexported = {name for name, value in vars(vlcmimo).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert reexported <= exported, sorted(reexported - exported)


def loaded_after_import(package: str) -> str:
    """Modules of ``package`` loaded by importing vlcmimo's entry points afresh."""
    src = str(Path(vlcmimo.__file__).resolve().parents[1])
    code = ("import sys, vlcmimo, vlcmimo.runner, vlcmimo.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # scipy is a test oracle only; importing it would double the start-up time
    assert loaded_after_import("scipy") == "[]"


def test_import_leaves_mpmath_unloaded():
    # mpmath is a test oracle only; lambertian_order uses the standard decimal module
    assert loaded_after_import("mpmath") == "[]"


def test_import_leaves_yaml_unloaded():
    # only load_config reads YAML; presets, JSON configs and library callers never do
    assert loaded_after_import("yaml") == "[]"
