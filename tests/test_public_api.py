"""Every advertised public name exists and is used, and importing the package stays light."""

import ast
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
ROOT = Path(vlcmimo.__file__).resolve().parents[2]


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


def test_device_optics_are_spec_fields_not_helpers():
    # Luminaire and PhotoDetector compute their Lambertian order and concentrator gain
    for name in ("lambertian_order", "concentrator_gain"):
        assert not hasattr(vlcmimo, name) and not hasattr(vlcmimo.channel, name)


def identifiers_used(path: Path) -> set[str]:
    """Names a module reads as a Name, an Attribute or an import.

    A name used inside the ``def`` or ``class`` that defines it does not count;
    ``__all__`` holds strings, so listing a name there does not count either.
    """
    used = set()

    def visit(node, inside: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        names = []
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        used.update(name for name in names if name not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return used


def test_every_exported_name_has_a_caller_outside_the_tests(monkeypatch):
    """Each ``__all__`` name is used by the program, its scripts or its benchmark.

    The package ``__init__`` only re-exports, and test files do not count.  A
    name the benchmark tracer wraps (``perfbench/tracing.py::WRAP_POINTS``)
    counts as used.
    """
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    wrapped = {(module, attr) for module, attr, *_ in tracing.WRAP_POINTS}
    used = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            if not path.name.startswith("test_") and path != Path(vlcmimo.__file__).resolve():
                used |= identifiers_used(path)
    unused = [f"{module.__name__}.{name}" for module in MODULES
              for name in getattr(module, "__all__", ())
              if name not in used and (module.__name__, name) not in wrapped]
    assert not unused, unused


def loaded_after_import(package: str, then: str = "") -> str:
    """Modules of ``package`` loaded by importing vlcmimo's entry points afresh,
    then running the statement ``then``."""
    src = str(Path(vlcmimo.__file__).resolve().parents[1])
    code = ("import sys, vlcmimo, vlcmimo.runner, vlcmimo.cli\n"
            f"{then}\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # scipy is a test oracle only; importing it would double the start-up time
    assert loaded_after_import("scipy") == "[]"


def test_import_leaves_mpmath_unloaded():
    # mpmath is a test oracle only; the Lambertian order is computed with the decimal module
    assert loaded_after_import("mpmath") == "[]"


def test_import_leaves_yaml_unloaded():
    # only load_config reads YAML; presets, JSON configs and library callers never do
    assert loaded_after_import("yaml") == "[]"


def test_json_config_leaves_yaml_unloaded(tmp_path):
    # a JSON config is parsed by the json module alone
    path = tmp_path / "ok.json"
    path.write_text('{"name": "ok"}', encoding="utf-8")
    assert loaded_after_import("yaml", f"vlcmimo.load_config({str(path)!r})") == "[]"
