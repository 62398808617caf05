"""Public names: every export must resolve, so a deletion cannot leave a stale one."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
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


def _absolute_imports(nodes):
    """(node, dotted name) for each absolute import among ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from ((node, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node, node.module
            yield from ((node, f"{node.module}.{alias.name}") for alias in node.names)


def _run_on_import(tree):
    """The nodes of a module that run when it is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


SOURCES = sorted(Path(dfindex.__file__).parent.glob("*.py"))


def test_no_private_scipy_module_is_imported():
    # a private binding (a dotted segment under scipy. that starts with _)
    # can change or vanish in any SciPy release
    private = [f"{path.name}:{node.lineno} {name}" for path in SOURCES
               for node, name in _absolute_imports(ast.walk(ast.parse(path.read_text())))
               if name.split(".")[0] == "scipy"
               and any(part.startswith("_") for part in name.split(".")[1:])]
    assert not private, f"private SciPy imports: {private}"


def test_no_module_imports_scipy_on_import():
    # SciPy loads on the first ODE integration, so a cold start pays for NumPy only
    eager = [f"{path.name}:{node.lineno} {name}" for path in SOURCES
             for node, name in _absolute_imports(_run_on_import(ast.parse(path.read_text())))
             if name.split(".")[0] == "scipy"]
    assert not eager, f"module-level SciPy imports: {eager}"


def test_only_the_normal_transport_imports_scipy():
    # the normal transport is the one ODE the package integrates, and nothing else needs SciPy
    def importers(tree, where):
        for node in ast.iter_child_nodes(tree):
            inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if any(name.split(".")[0] == "scipy" for _, name in _absolute_imports([node])):
                yield inner
            yield from importers(node, inner)

    found = {f"{path.name}:{fn}" for path in SOURCES for fn in importers(ast.parse(path.read_text()), "<module>")}
    assert found == {"boundary.py:transport_along_normal"}


def _called_name(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_metric_jets_are_inverted_in_chern_frame_only():
    # a frame inverts its metric's jets once: the jets of L reuse the connection's inverse
    callers = [f"{path.name}:{fn.name}" for path in SOURCES
               for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and _called_name(node.func) == "jet_matrix_inverse"]
    assert callers == ["geometry.py:chern_frame"]


def test_wirtinger_tables_call_no_einsum():
    # the tables add only the nonzero terms of Q (x) Q (x) Q; a dense einsum multiplies
    # 12 zeros in every 16 order-2 products and 56 in every 64 order-3 products
    tree = ast.parse((Path(dfindex.__file__).parent / "fields.py").read_text())
    calls = [f"fields.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called_name(node.func) == "einsum"]
    assert not calls, f"einsum calls: {calls}"


WORM_KEYS = {"gamma", "worm"}
WORM_NAMES = {"worm_reduction_basis", "sgamma_points"}


def _params_key(node):
    """The key node of ``params[key]`` or ``params.get(key, ...)``, else None."""
    if isinstance(node, ast.Subscript) and _is_params(node.value):
        return node.slice
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get" \
            and _is_params(node.func.value) and node.args:
        return node.args[0]
    return None


def _is_params(node):
    return (isinstance(node, ast.Name) and node.id == "params") or \
        (isinstance(node, ast.Attribute) and node.attr == "params")


def _worm_reads(tree, exempt=()):
    """Nodes that read params["gamma"|"worm"] or name a worm-only function, outside ``exempt`` functions."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            continue
        stack.extend(ast.iter_child_nodes(node))
        key = _params_key(node)
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if (isinstance(key, ast.Constant) and key.value in WORM_KEYS) or name in WORM_NAMES:
            yield node


def test_generic_modules_read_no_worm_parameter():
    # a domain supplies its own h-basis and degenerate-set sampler through its DomainSpec;
    # only worm-bench, the worm's own command, knows the worm
    probe = ast.parse('d.params["worm"]; d.params.get("gamma"); params["gamma"]; f(worm_reduction_basis)\n'
                      'from .worm import sgamma_points\nd.params["axes"]; d.params.get("n")')
    assert len(list(_worm_reads(probe))) == 5
    reads = [f"{name}.py:{node.lineno} {ast.unparse(node).splitlines()[0]}" for name in ("cli", "estimator", "forms")
             for node in _worm_reads(ast.parse((Path(dfindex.__file__).parent / f"{name}.py").read_text()),
                                     exempt={"cmd_worm_bench"})]
    assert not reads, f"generic code reads the worm: {reads}"


def test_every_run_setting_is_read_by_some_command_and_every_flag_sets_one():
    # the _COMMANDS table is the one record of which settings a command reads
    from dfindex import cli

    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert {field for _, _, reads in cli._COMMANDS.values() for field in reads} == fields - {"out", "format"}
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for p in subparsers.choices.values() for a in p._actions} - {"help", "config"}
    assert dests <= fields
    assert not hasattr(cli, "_READS_ETA")


def test_cli_builds_sites_in_problem_of_only():
    # one builder turns a run config into the constraint sites of check and estimate
    from dfindex import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    callers = [fn.name for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and _called_name(node.func) == "collect_sites"]
    assert callers == ["problem_of"]
    assert not hasattr(cli, "_basis_of")


# eta / (1 - eta), spelled with 1 or 1.0
ETA_WEIGHT = {ast.dump(ast.parse(f"eta / ({one} - eta)", mode="eval").body) for one in ("1", "1.0")}


def test_only_estimator_weight_computes_eta_over_one_minus_eta():
    # estimator._weight owns k = eta/(1 - eta) and its range check
    package = Path(dfindex.__file__).parent
    hits = [(path.stem, node.lineno) for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if ast.dump(node) in ETA_WEIGHT]
    lines, first = inspect.getsourcelines(dfindex.estimator._weight)
    assert len(hits) == 1 and hits[0][0] == "estimator" and first <= hits[0][1] < first + len(lines), hits


COLD_START = """
import json, math, sys
import dfindex, dfindex.cli
config, out = sys.argv[1:]
code = dfindex.cli.main(["estimate", "--config", config, "--out", out])
after_estimate = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
diagnostics = "dfindex.diagnostics" in sys.modules
from dfindex.worm import riccati_threshold
eta = riccati_threshold(math.pi)
after_riccati = "scipy.integrate" in sys.modules
bench = dfindex.cli.main(["worm-bench", "--domain", f"worm({math.pi!r})", "--samples", "4", "--out", out])
after_bench = "scipy.integrate" in sys.modules
from dfindex.boundary import levi_data, normal_frame, sample_boundary, transport_along_normal
from dfindex.domains import ball_domain
base = normal_frame(ball_domain(), sample_boundary(ball_domain(), 1, 0)[0])
transport_along_normal(base, levi_data(base).basis[0], 0.1, steps=4)
print(json.dumps({"code": code, "after_estimate": after_estimate, "diagnostics": diagnostics, "eta": eta,
                  "after_riccati": after_riccati, "bench": bench, "after_bench": after_bench,
                  "after_transport": "scipy.integrate" in sys.modules}))
"""


def test_cold_estimate_loads_no_scipy_until_an_ode_is_integrated(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"domain": f"worm({math.pi!r})", "samples": 10, "basis_degree": 8}))
    src = str(Path(dfindex.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(config), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout.splitlines()[-1])
    assert facts["code"] == 0
    assert facts["after_estimate"] == []
    # the invariant suites load with selftest only
    assert not facts["diagnostics"]
    assert facts["eta"] == pytest.approx(0.5, abs=1e-6)
    # the Riccati threshold and worm-bench are closed forms; SciPy loads with the first normal transport
    assert not facts["after_riccati"]
    assert facts["bench"] == 0 and not facts["after_bench"]
    assert facts["after_transport"]


def _defaulted_params(tree, module):
    """(label, names a call uses, parameter, index among the call's positional arguments or None)
    for each parameter with a default of each ``def`` in ``tree``; lambdas have no ``def``."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, cls
                yield from walk(child, None)
            else:
                yield from walk(child, cls)

    for fn, cls in walk(tree, None):
        label = f"{module}.{cls}.{fn.name}" if cls else f"{module}.{fn.name}"
        # a class name stands for its __init__; a method's first argument is bound
        names = {cls} if cls and fn.name == "__init__" else {fn.name}
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        bound = 1 if cls and not static else 0
        args = fn.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield label, names, positional[i].arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield label, names, arg.arg, None


def _calls(tree):
    """(name, positional arguments before any splat, keyword names, whether it splats) per call;
    ``cls(...)`` inside a class is a call of that class."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = _called_name(child.func)
                starred = [i for i, a in enumerate(child.args) if isinstance(a, ast.Starred)]
                keywords = {k.arg for k in child.keywords}
                yield (cls if name == "cls" and cls else name, starred[0] if starred else len(child.args),
                       keywords, bool(starred) or None in keywords)
            yield from walk(child, child.name if isinstance(child, ast.ClassDef) else cls)

    yield from walk(tree, None)


def _unpassed_defaults(definitions, callers):
    """Labels ``module.function(param)`` of the defaults that no call in ``callers`` passes."""
    calls = [call for tree in callers for call in _calls(tree)]
    return [f"{label}({param})" for module, tree in definitions
            for label, names, param, index in _defaulted_params(tree, module)
            if not any(name in names and (splat or param in keywords or (index is not None and npos > index))
                       for name, npos, keywords, splat in calls)]


def test_every_default_is_passed_by_some_caller():
    # a parameter with a default stays only where some call sets it; one that no call in the
    # package, the tests, the benchmark or the scripts passes is a constant, and belongs at its use
    probe = ast.parse("def f(a, b=1, *, c=2): pass\n"
                      "def g(a=1): pass\n"
                      "def h(a=1): pass\n"
                      "class K:\n"
                      "    def __init__(self, a=1, b=2): pass\n"
                      "    def m(self, a=1): pass\n"
                      "    @classmethod\n"
                      "    def make(cls): return cls(b=3)\n"
                      "    @staticmethod\n"
                      "    def s(a=1): pass\n"
                      "q = lambda a=1: a\n")
    probe_calls = ast.parse("f(0, 1)\ng(*x)\nmod.h(**kw)\nK(5)\nobj.m()\nK.s(1)\n")
    assert _unpassed_defaults([("p", probe)], [probe, probe_calls]) == ["p.f(c)", "p.K.m(a)"]
    root = Path(dfindex.__file__).parents[2]
    callers = [ast.parse(path.read_text()) for folder in ("src", "tests", "bench", "scripts")
               for path in sorted((root / folder).rglob("*.py"))]
    unpassed = _unpassed_defaults([(path.stem, ast.parse(path.read_text())) for path in SOURCES], callers)
    assert not unpassed, f"defaults that no call passes: {unpassed}"
