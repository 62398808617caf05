"""Public names: every export must resolve, so a deletion cannot leave a stale one."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import dfindex

MODULES = sorted(info.name for info in pkgutil.iter_modules(dfindex.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dfindex.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"duplicate names in dfindex.{name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"dfindex.{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_resolve():
    tree = ast.parse(open(dfindex.__file__).read())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    for module_name, attr in reexports:
        module = importlib.import_module(f"dfindex.{module_name}")
        assert getattr(dfindex, attr) is getattr(module, attr)
        assert attr in getattr(module, "__all__", [attr]), \
            f"dfindex re-exports {attr} but dfindex.{module_name}.__all__ does not list it"


def test_evaluators_take_a_frame():
    # every pointwise evaluator takes the frame it evaluates on as a required argument
    optional = []
    for name in ("forms", "geometry", "boundary", "estimator"):
        module = importlib.import_module(f"dfindex.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if not inspect.isfunction(obj):
                continue
            frame = inspect.signature(obj).parameters.get("frame")
            if frame is not None and frame.default is not inspect.Parameter.empty:
                optional.append(f"{name}.{attr}")
    assert not optional, f"evaluators with an optional frame: {optional}"
    assert not hasattr(importlib.import_module("dfindex.boundary"), "frame_at")


def test_dual_bound_is_importable_from_the_package():
    from dfindex import dual_bound
    from dfindex.estimator import dual_bound as estimator_dual_bound

    assert dual_bound is estimator_dual_bound


def test_no_private_scipy_module_is_imported():
    # a private binding (a dotted segment under scipy. that starts with _)
    # can change or vanish in any SciPy release
    private = []
    for path in sorted(Path(dfindex.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            private += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] == "scipy"
                        and any(part.startswith("_") for part in name.split(".")[1:])]
    assert not private, f"private SciPy imports: {private}"
