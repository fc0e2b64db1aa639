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


def test_import_leaves_scipy_unloaded():
    # scipy is a test oracle only; importing it would double the start-up time
    src = str(Path(vlcmimo.__file__).resolve().parents[1])
    code = ("import sys, vlcmimo, vlcmimo.runner, vlcmimo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]", out.stdout
