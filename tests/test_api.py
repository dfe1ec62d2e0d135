"""The package's public names: ``foldlab.__all__`` lists exactly what
``foldlab/__init__.py`` imports, and a star import provides all of it."""

import ast
import pathlib

import foldlab


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
