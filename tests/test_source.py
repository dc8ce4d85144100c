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
