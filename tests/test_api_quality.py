"""Repository-wide API quality gates.

Every public module, class, and function in ``repro`` — and in the scalar
oracles under ``tests/oracles`` — must carry a docstring, and the package
must import cleanly without side effects beyond registration.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from tests import oracles

SKIP_PREFIXES = ("_",)


def walk_modules():
    out = []
    for package, prefix in ((repro, "repro."), (oracles, "tests.oracles.")):
        for info in pkgutil.walk_packages(package.__path__, prefix=prefix):
            if any(part.startswith("_") for part in info.name.split(".")):
                continue
            out.append(info.name)
    return out


MODULES = walk_modules()


def test_package_has_modules():
    assert len(MODULES) > 30


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), \
        f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith(SKIP_PREFIXES):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-exports are documented at their definition
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, \
        f"{module_name}: missing docstrings on {undocumented}"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_version_string():
    major, minor, patch = repro.__version__.split(".")
    assert int(major) >= 1
