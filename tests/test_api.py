"""The package's public names: ``foldlab.__all__`` lists exactly what
``foldlab/__init__.py`` imports, and a star import provides all of it.
The bench tracer's entry points, which it wraps by name, all resolve."""

import ast
import importlib
import inspect
import pathlib

import foldlab

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"
# entry point -> the parameter whose argument the tracer reads
TRACED_ARGUMENTS = {"count_fixed": "q", "verify_jacobi": "sc"}


def test_all_lists_exactly_the_imported_public_names():
    init = pathlib.Path(foldlab.__file__).read_text()
    imported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(foldlab.__all__) == len(set(foldlab.__all__))
    assert set(foldlab.__all__) == public


def test_star_import():
    namespace = {}
    exec("from foldlab import *", namespace)
    assert set(foldlab.__all__) <= set(namespace)


def _tracer_tables():
    """The tracer's literal tables, read from its source without running it."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("ENTRY_POINTS", "TIMED", "CALLS", "NEEDS_ARGUMENTS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_tracer_entry_points_resolve():
    tables = _tracer_tables()
    located = {}
    for layer, names in tables["ENTRY_POINTS"].items():
        module = importlib.import_module(f"foldlab.{layer}")
        for name in names:
            target = module
            for part in name.split("."):
                assert hasattr(target, part), f"foldlab.{layer} has no {name}"
                target = getattr(target, part)
            located[name] = target
    assert set(tables["TIMED"]) | set(tables["CALLS"]) <= set(located)
    assert set(tables["NEEDS_ARGUMENTS"]) == set(TRACED_ARGUMENTS)
    for name, parameter in TRACED_ARGUMENTS.items():
        assert parameter in inspect.signature(located[name]).parameters, name
