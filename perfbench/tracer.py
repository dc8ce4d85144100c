"""Layer spans recorded from outside the program.

`Tracer.install` rebinds each named `locglob` function to a wrapper that
records a span (name, start, end, parent span, op id).  Every loaded
`locglob.*` module that binds the same function object gets the wrapper,
which covers `from .linalg import ...` bindings and imports done lazily
inside a function body.  Spans stay in memory until `dump` writes them out.
A name that does not resolve is recorded as absent instead of failing, so
the benchmark keeps running when a layer is renamed, moved or removed.

`layer_metrics` turns loaded spans into per-layer calls and self time:
a span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter_ns

# (dotted name under locglob, note taken from the call arguments)
LAYERS = (
    "schema.parse_model",
    "groups.cyclic_subgroups",
    "linalg.smith_normal_form",
    "cohomology.h1",
    "cohomology.joint_restriction_kernel",
    "cohomology.h1_star",
    "oracles.brute_force_h1",
    "models.sha_of_model",
    "models.verdict",
    "models.finite_support_bound",
    "models.gw_decision",
    "padics.is_nth_power",
    "padics.hilbert_symbol",
    "padics.product_formula_check",
    "padics.PadicNumber.from_rational",
    "elliptic.divisible_by_2k",
    "elliptic.halve_point",
    "arith.is_prime",
    "arith.factorize",
    "cli.main",
)


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _matrix_shape(args, kwargs):
    mat = _arg(args, kwargs, 0, "mat", ())
    return (len(mat), len(mat[0]) if len(mat) else 0)


def _group_order(args, kwargs):
    return (_arg(args, kwargs, 0, "module", None).group.order,)


# Default precision of the elliptic layer; a call that names none uses it.
DEFAULT_PRECISION = 64

NOTES = {
    "linalg.smith_normal_form": _matrix_shape,
    "cohomology.h1": _group_order,
    "elliptic.divisible_by_2k":
        lambda a, k: (_arg(a, k, 4, "precision", DEFAULT_PRECISION),),
    "elliptic.halve_point":
        lambda a, k: (_arg(a, k, 3, "precision", DEFAULT_PRECISION),),
}


class Tracer:
    def __init__(self, names=LAYERS):
        self.names = list(names)
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.op_ids = array("q")
        self.notes = {}
        self.stack = []
        self.op = 0
        self.absent = []
        self._undo = []

    # -- rebinding

    def install(self):
        for idx, name in enumerate(self.names):
            target = self._resolve(name)
            if target is None:
                self.absent.append(name)
                continue
            owner, attr, raw = target
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(idx, name, raw.__func__))
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(idx, name, raw)
            for mod in list(sys.modules.values()):
                modname = getattr(mod, "__name__", "")
                if modname != "locglob" and not modname.startswith("locglob."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._undo.append((mod, key, raw))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    @staticmethod
    def _resolve(name):
        """(owner, attribute, raw object) for 'module.func' or
        'module.Class.method' under locglob, or None if it does not exist."""
        parts = name.split(".")
        try:
            owner = importlib.import_module("locglob." + parts[0])
        except ImportError:
            return None
        for part in parts[1:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        raw = vars(owner).get(parts[-1]) if isinstance(owner, type) \
            else getattr(owner, parts[-1], None)
        if raw is None or not (callable(raw) or isinstance(raw, classmethod)):
            return None
        return owner, parts[-1], raw

    def _wrap(self, idx, name, fn):
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, op_ids, stack, notes = self.parents, self.op_ids, self.stack, self.notes
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(idx)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self.op)
            ends.append(0)
            stack.append(sid)
            if note is not None:
                notes[sid] = note(args, kwargs)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter_ns()
                stack.pop()
        return wrapper

    # -- output

    def dump(self, path):
        header = {"names": self.names, "absent": self.absent, "count": len(self.starts),
                  "notes": {str(k): v for k, v in self.notes.items()}}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ids, self.starts, self.ends, self.parents, self.op_ids):
                arr.tofile(fh)


class Spans:
    """Spans of one or more dumps, concatenated, with parent indices kept
    pointing into the combined arrays."""

    def __init__(self, names):
        self.names = list(names)
        self.absent = set()
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.op_ids = array("q")
        self.notes = {}

    def add(self, name_ids, starts, ends, parents, op_ids=None, notes=None, absent=()):
        base = len(self.starts)
        self.name_ids.extend(name_ids)
        self.starts.extend(starts)
        self.ends.extend(ends)
        self.parents.extend(p + base if p >= 0 else -1 for p in parents)
        self.op_ids.extend(op_ids if op_ids is not None else [0] * len(starts))
        for k, v in (notes or {}).items():
            self.notes[int(k) + base] = tuple(v)
        self.absent.update(absent)

    def load(self, path):
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            if header["names"] != self.names:
                raise ValueError("span file %s traced other names" % path)
            n = header["count"]
            arrays = [array(code) for code in "iqqqq"]
            for arr in arrays:
                arr.fromfile(fh, n)
        self.add(*arrays, notes=header["notes"], absent=header["absent"])


def self_times(starts, ends, parents):
    """Per span: duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    n = len(starts)
    order = sorted(range(n), key=starts.__getitem__)
    covered = [0] * n
    reach = {}          # parent -> end of the covered region so far
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def layer_metrics(spans):
    """Per traced name: calls and self_ms, plus the derived counts and
    ratios named in the benchmark's per-layer list."""
    names = spans.names
    n = len(spans.starts)
    selfs = self_times(spans.starts, spans.ends, spans.parents)
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for i in range(n):
        k = spans.name_ids[i]
        calls[k] += 1
        self_ns[k] += selfs[i]
    out = {}
    for k, name in enumerate(names):
        out[name + ".calls"] = (calls[k], "count")
        out[name + ".self_ms"] = (self_ns[k] / 1e6, "ms")

    idx = {name: k for k, name in enumerate(names)}
    snf, h1 = idx.get("linalg.smith_normal_form"), idx.get("cohomology.h1")
    brute = idx.get("oracles.brute_force_h1")
    div, halve = idx.get("elliptic.divisible_by_2k"), idx.get("elliptic.halve_point")
    ids, parents, notes = spans.name_ids, spans.parents, spans.notes

    shapes = [notes[i] for i in range(n) if ids[i] == snf and i in notes]
    out["linalg.smith_normal_form.max_rows"] = (max((s[0] for s in shapes), default=0), "count")
    out["linalg.smith_normal_form.max_cols"] = (max((s[1] for s in shapes), default=0), "count")

    # h1 calls that ran an SNF below them, and those that ran the oracle
    ran_snf, ran_check = set(), set()
    for i in range(n):
        if ids[i] in (snf, brute):
            mark = ran_snf if ids[i] == snf else ran_check
            p = parents[i]
            while p >= 0:
                if ids[p] == h1:
                    mark.add(p)
                    break
                p = parents[p]
    h1_spans = [i for i in range(n) if ids[i] == h1]
    out["cohomology.h1.snf_free_calls"] = (
        sum(1 for i in h1_spans if i not in ran_snf), "count")
    nontrivial = [i for i in ran_snf if notes.get(i, (0,))[0] > 1]
    checked = sum(1 for i in nontrivial if i in ran_check)
    out["oracles.coverage_ratio"] = (checked / len(nontrivial) if nontrivial else 0.0, "ratio")

    retries = 0
    halve_calls = div_calls = 0
    for i in range(n):
        if ids[i] == div:
            div_calls += 1
        elif ids[i] == halve:
            halve_calls += 1
            requested = DEFAULT_PRECISION
            p = parents[i]
            while p >= 0:
                if ids[p] == div:
                    requested = notes.get(p, (DEFAULT_PRECISION,))[0]
                    break
                p = parents[p]
            if notes.get(i, (DEFAULT_PRECISION,))[0] > requested:
                retries += 1
    out["elliptic.halve_point.retry_calls"] = (retries, "count")
    out["elliptic.halve_point.per_decision"] = (
        halve_calls / div_calls if div_calls else 0.0, "ratio")

    root_ns = sum(spans.ends[i] - spans.starts[i] for i in range(n) if parents[i] < 0)
    out["trace.absent_names"] = (len(spans.absent), "count")
    return out, root_ns
