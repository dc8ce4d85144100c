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


def _compare_fields(cls):
    """The names a class body assigns to _compare, or None."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_compare" for t in stmt.targets):
            return tuple(ast.literal_eval(stmt.value))
    return None


def _stored_field(stmt, self_name, params):
    """The field a statement sets on self to one of the parameters, by
    object.__setattr__ or by assignment, or None."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func, args = stmt.value.func, stmt.value.args
        if (isinstance(func, ast.Attribute) and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name) and func.value.id == "object"
                and len(args) == 3 and isinstance(args[0], ast.Name)
                and args[0].id == self_name and isinstance(args[1], ast.Constant)
                and isinstance(args[2], ast.Name) and args[2].id in params):
            return args[1].value
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                and target.value.id == self_name and isinstance(stmt.value, ast.Name)
                and stmt.value.id in params):
            return target.attr
    return None


def _store_only_inits(tree):
    """(line, class name) for each __init__ of a Value subclass whose body,
    docstring aside, only stores the _compare fields from its parameters,
    in _compare order."""
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef)
                and any(isinstance(b, ast.Name) and b.id == "Value" for b in cls.bases)):
            continue
        names = _compare_fields(cls)
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__init__" and names):
                continue
            body = fn.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            self_name, *params = [a.arg for a in fn.args.args]
            stored = [_stored_field(stmt, self_name, params) for stmt in body]
            if stored == list(names):
                yield fn.lineno, cls.name


def test_store_only_init_finder():
    tree = ast.parse(
        "class A(Value):\n"
        "    __slots__ = _compare = ('x', 'y')\n"
        "    def __init__(self, x, y):\n"
        "        '''doc'''\n"
        "        object.__setattr__(self, 'x', x)\n"
        "        object.__setattr__(self, 'y', y)\n"
        "class B(Value):\n"
        "    _compare = ('x', 'y')\n"
        "    def __init__(self, x, y):\n"
        "        object.__setattr__(self, 'y', y)\n"
        "        object.__setattr__(self, 'x', x)\n"
        "class C(Value):\n"
        "    _compare = ('x',)\n"
        "    def __init__(self, x):\n"
        "        if x < 0:\n"
        "            raise InputError('x')\n"
        "        object.__setattr__(self, 'x', x)\n"
        "class D(Value):\n"
        "    __slots__ = _compare = ('x',)\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "class E:\n"
        "    _compare = ('x',)\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "class F(Value):\n"
        "    _compare = ('x',)\n"
        "    def __init__(self, x):\n"
        "        object.__setattr__(self, 'x', tuple(x))\n"
        "class G(Value):\n"
        "    __slots__ = ('x', 'y')\n"
        "    _compare = ('x',)\n"
        "    def __init__(self, x, y):\n"
        "        object.__setattr__(self, 'x', x)\n"
        "        object.__setattr__(self, 'y', y)\n")
    assert list(_store_only_inits(tree)) == [(3, "A"), (20, "D")]


def test_no_value_class_writes_a_store_only_init():
    # value.Value builds the positional constructor of a class that only
    # stores its _compare fields, so such a class declares them once
    found = ["%s:%d: %s.__init__ only stores its fields" % (path.name, line, name)
             for path in sorted(SRC.glob("*.py"))
             for line, name in _store_only_inits(ast.parse(path.read_text()))]
    assert found == []


# restriction to a subgroup is read off the coboundary lattice of its
# generators (H1Group.restriction); a restricted module, its subgroup table
# and the restricted cocycle are the reference in tests/search_oracles.py
_RESTRICTED_MODULE_PATH = {"restrict", "restrict_class", "subgroup_table"}


def _definitions(tree):
    """(line, name) for each function or method a module defines."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.lineno, node.name


def test_definitions_finder():
    tree = ast.parse("def f():\n    def g():\n        pass\nclass A:\n"
                     "    def restrict(self):\n        pass\n")
    assert sorted(_definitions(tree)) == [(1, "f"), (2, "g"), (5, "restrict")]


def test_no_module_builds_a_restricted_module():
    found = ["%s:%d: defines %s" % (path.name, line, name)
             for path in sorted(SRC.glob("*.py"))
             for line, name in _definitions(ast.parse(path.read_text()))
             if name in _RESTRICTED_MODULE_PATH]
    assert found == []


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _container_bindings(tree):
    """(line, name) for each name that module-level code binds to a dict,
    list or set display or comprehension, or to a dict(), list() or set()
    call: state that outlives the call that fills it.  A tuple of values
    that holds one binds every name it is unpacked into.  The bodies of
    functions and classes are not module-level code."""
    def container(value):
        return isinstance(value, _CONTAINERS) or isinstance(value, ast.Call) and isinstance(
            value.func, ast.Name) and value.func.id in ("dict", "list", "set")
    stack = list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (container(value) or isinstance(
                value, ast.Tuple) and any(map(container, value.elts))):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id
        stack[:0] = [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]


def test_container_binding_finder():
    tree = ast.parse("A = {}\nB: dict = {}\nC, D = [], set()\nE = (1, 2)\n"
                     "F = {k: 1 for k in E}\nif E:\n    G = list(E)\n    H = tuple(E)\n"
                     "def f():\n    I = []\nclass K:\n    J = {}\n")
    assert list(_container_bindings(tree)) == [
        (1, "A"), (2, "B"), (3, "C"), (3, "D"), (5, "F"), (7, "G")]


def test_module_state_is_the_export_tables_and_the_h1_cache():
    # ROADMAP aim 2 asks for no module-level state that outlives a call: the
    # export tables are filled once, at import, and _H1_CACHE is the one
    # process-wide cache (ROADMAP item 8), so an H1 kept elsewhere lives on
    # its module object (GModule._h1)
    found = sorted("%s.%s" % (path.stem, name)
                   for path in SRC.glob("*.py")
                   for _, name in _container_bindings(ast.parse(path.read_text())))
    assert found == ["__init__._EXPORTS", "__init__._HOME", "__init__.__all__",
                     "cohomology._H1_CACHE"]
