import importlib
import importlib.util
import inspect
from pathlib import Path
import re
import typing

import pytest


MODULES = ["grids", "manybody", "indicators", "effective", "scattering", "config", "harness",
           "checks", "cli"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"becmix.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"becmix.{module}.__all__ names undefined {missing}"


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_annotation_resolves(module):
    # the annotations are strings (postponed evaluation); each name in them must
    # be bound in its module, or typing.get_type_hints raises NameError
    mod = importlib.import_module(f"becmix.{module}")
    unresolved = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        members = vars(obj).items() if inspect.isclass(obj) else ()
        for label, fn in [(name, obj), *((f"{name}.{k}", v) for k, v in members)]:
            # a property's getter, a cached_property's function, a classmethod's function
            for attr in ("fget", "func", "__func__"):
                fn = getattr(fn, attr, None) or fn
            if not (inspect.isfunction(fn) or inspect.isclass(fn)):
                continue
            try:
                typing.get_type_hints(fn)
            except NameError as exc:
                unresolved.append(f"{label}: {exc}")
    assert not unresolved, f"becmix.{module} annotations unresolved {unresolved}"


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


# the attributes `install` in perfbench/tracer.py patches by name, beside SPANS
_TRACER_DIRECT = [("becmix.effective", "periodic_convolve"), ("becmix.harness", "build_basis"),
                  ("becmix.harness", "Hamiltonian"), ("becmix.cli", "csv")]


def test_every_tracer_hook_resolves():
    # a traced run patches these names; one that a refactor removes breaks it
    tracer = _tracer()
    hooks = [(module, attr) for module, attr, _ in tracer.SPANS]
    hooks += tracer.SOLVER_ENTRIES + _TRACER_DIRECT
    missing = []
    for module, attr in hooks:
        target = importlib.import_module(module)
        for name in attr.split("."):
            target = getattr(target, name, None)
        if target is None:
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench/tracer.py hooks undefined {missing}"


def test_readme_states_the_package_line_count():
    # the package size is the design's health metric; README states it, and went stale
    root = Path(__file__).resolve().parents[1]
    stated = re.search(r"The package itself is ([\d,]+) lines \(`wc -l src/becmix/\*\.py`\)",
                       (root / "README.md").read_text(encoding="utf-8"))
    assert stated, "README no longer states the package line count"
    counted = sum(p.read_bytes().count(b"\n") for p in (root / "src" / "becmix").glob("*.py"))
    assert int(stated[1].replace(",", "")) == counted
