"""Rules on the package source itself, read with ast."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "locglob"


def _internal_failure_offences(tree):
    """(line, what) for each assert statement and each raise of
    AssertionError or ValueError."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("AssertionError", "ValueError"):
                yield node.lineno, "raise " + exc.id


def test_offence_finder():
    tree = ast.parse("assert x\nraise AssertionError('y')\nraise AssertionError\n"
                     "raise SelfCheckError('z')\nraise ValueError('w')\n"
                     "raise InputError('v')\n")
    assert list(_internal_failure_offences(tree)) == [
        (1, "assert statement"), (2, "raise AssertionError"),
        (3, "raise AssertionError"), (5, "raise ValueError")]


def test_internal_failures_raise_self_check_error():
    # python -O strips assert statements, the command line reports only
    # SelfCheckError and PrecisionError as internal failures (exit 3), and
    # input errors raise InputError (exit 2), so a bare ValueError is neither
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = ["%s:%d: %s" % (path.name, line, what)
             for path in paths
             for line, what in _internal_failure_offences(ast.parse(path.read_text()))]
    assert found == []


# the two constructors that build results of arithmetic without the checks;
# every input, restrictions included, goes through a checking constructor
_OBJECT_NEW_ALLOWED = {("cohomology.py", "CocycleClass._unchecked"),
                       ("padics.py", "PadicNumber._unchecked")}


def _object_new_sites(tree, scope=()):
    """(line, qualified name of the enclosing definitions) for each
    reference to object.__new__."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (node.name,)
        elif (isinstance(node, ast.Attribute) and node.attr == "__new__"
              and isinstance(node.value, ast.Name) and node.value.id == "object"):
            yield node.lineno, ".".join(scope)
        yield from _object_new_sites(node, inner)


def test_object_new_finder():
    tree = ast.parse("x = object.__new__(A)\nclass A:\n    def f(self):\n"
                     "        return object.__new__(A)\n    y = object.__new__\n"
                     "def g():\n    return other.__new__(A)\n")
    assert list(_object_new_sites(tree)) == [(1, ""), (4, "A.f"), (5, "A")]


def test_object_new_only_in_the_arithmetic_constructors():
    found = ["%s:%d: object.__new__ in %s" % (path.name, line, where or "module scope")
             for path in sorted(SRC.glob("*.py"))
             for line, where in _object_new_sites(ast.parse(path.read_text()))
             if (path.name, where) not in _OBJECT_NEW_ALLOWED]
    assert found == []


def _imported_modules(tree):
    """(line, name) for each module an import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.lineno, node.module


def test_imported_modules_finder():
    tree = ast.parse("import a.b, c\nfrom d import e\nfrom . import f\nfrom .g import h\n")
    assert list(_imported_modules(tree)) == [(1, "a.b"), (1, "c"), (2, "d")]


def test_no_module_imports_dataclasses():
    # value classes derive from value.Value, whose equality and hash are
    # closures, so no command pays for generating class code at import
    found = ["%s:%d: imports %s" % (path.name, line, name)
             for path in sorted(SRC.glob("*.py"))
             for line, name in _imported_modules(ast.parse(path.read_text()))
             if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_no_module_imports_typing():
    # annotations are strings under `from __future__ import annotations`,
    # so annotation-only imports sit under a local TYPE_CHECKING = False
    # and no command pays for importing typing
    found = ["%s:%d: imports %s" % (path.name, line, name)
             for path in sorted(SRC.glob("*.py"))
             for line, name in _imported_modules(ast.parse(path.read_text()))
             if name.split(".")[0] == "typing"]
    assert found == []
