"""Every advertised public name exists."""

import importlib
import pkgutil
import types

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
