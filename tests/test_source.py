"""Rules on the package source itself, read with ast."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "locglob"


def _internal_failure_offences(tree):
    """(line, what) for each assert statement and each raise AssertionError."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_offence_finder():
    tree = ast.parse("assert x\nraise AssertionError('y')\nraise AssertionError\n"
                     "raise SelfCheckError('z')\n")
    assert list(_internal_failure_offences(tree)) == [
        (1, "assert statement"), (2, "raise AssertionError"),
        (3, "raise AssertionError")]


def test_internal_failures_raise_self_check_error():
    # python -O strips assert statements, and the command line reports only
    # SelfCheckError and PrecisionError as internal failures (exit 3)
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = ["%s:%d: %s" % (path.name, line, what)
             for path in paths
             for line, what in _internal_failure_offences(ast.parse(path.read_text()))]
    assert found == []
