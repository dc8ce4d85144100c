"""The three workloads: their ops, the timed call, and the checks.

An op's answer is judged against invariants that hold whatever the
implementation: `judge` returns None for a correct answer, ("failed", why)
for an op that did not complete as a user needs it to, and ("wrong", why)
for an answer that breaks an invariant.  `digest` gives the canonical text
of an answer for answers_sha256.
"""

from __future__ import annotations

import gc
import itertools
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import gen

import locglob as lg
import locglob.schema


class Workload:
    """A seeded batch of ops, taken in order and from the start again if a
    run outlasts it (batch_passes > 1 in the report).

    The machine the benchmark runs on is shared, and its speed drifts by
    tens of percent within a minute.  The measure loop therefore times a
    fixed piece of reference work every `calibrate_every_ns` of op time;
    reported timings are rescaled to a machine on which that reference takes
    `reference_ns`."""

    batch: list
    reference_ns = 1_500_000
    calibrate_every_ns = 50_000_000

    def op(self, i):
        return self.batch[i % len(self.batch)]

    @staticmethod
    def reference():
        """Nanoseconds of a fixed amount of pure-Python work of the kinds
        the program does: building tuples, lists and a dict, and a sort.
        It took 1.3 to 2.3 ms on the 2-vCPU shared machine the benchmark
        was written on, depending on the load of its neighbours.  It tracked
        the speed of the modules and local ops there better than Fraction
        arithmetic, whose time swung twice as far as theirs.  The garbage
        collector is off meanwhile: a collection would scan the whole heap,
        whose size depends on the program and its inputs."""
        gc.disable()
        t0 = time.perf_counter_ns()
        table = {}
        for i in range(1500):
            key = (i % 7, i % 11, i * 31 % 13, i)
            table[key] = [key[0], key[1], i]
        sorted(table, key=lambda k: (k[2], k[1]))
        t1 = time.perf_counter_ns()
        gc.enable()
        return t1 - t0

    def finish(self):
        """Invariants over several answers; a list of violations."""
        return []

    def peak_rss_mib(self):
        """The largest resident set the ops have needed so far."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Modules(Workload):
    """parse_model -> h1 -> h1_star -> verdict over every label subset ->
    finite_support_bound, for one place-model document."""

    name = "modules"
    tail_q = 99
    min_ops = 1000          # p99 leaves at least 10 samples beyond it
    rounds = 720            # about 2500 documents, twice what a run uses today

    def __init__(self, seed):
        self.batch = gen.modules_inputs(seed, self.rounds)

    def call(self, op):
        doc, _ = op
        model = lg.schema.parse_model(doc)
        h = lg.h1(model.module)
        star = lg.h1_star(model.module)
        labels = sorted(model.labels)
        queries = [frozenset(c) for r in range(len(labels) + 1)
                   for c in itertools.combinations(labels, r)]
        return h, star, lg.verdict(model, queries), lg.finite_support_bound(model)

    def judge(self, op, answer):
        h, star, v, support = answer
        if not v.hasse:
            return "wrong", "Hasse fails although a place has the full group"
        if v.strong_hasse != star.is_trivial():
            return "wrong", "strong_hasse disagrees with H1_* = 0"
        if h.order % star.order:
            return "wrong", "|H1_*| does not divide |H1|"
        for labels, singular in v.t_singular:
            if singular and not set(labels) & support:
                return "wrong", "T=%s is singular but misses the support bound" % (labels,)
        return None

    @staticmethod
    def digest(answer):
        h, star, v, support = answer
        return repr((h.structure.invariant_factors, star.structure.invariant_factors,
                     v.hasse, v.strong_hasse, v.t_singular,
                     [(kind, labels, c.values) for kind, labels, c in v.witnesses],
                     sorted(support)))

    def properties(self, n):
        props = [self.op(i)[1] for i in range(n)]
        return {key: _share(p[key] for p in props)
                for key in ("under_check_limit", "trivial_action")}


class Local(Workload):
    """One call of divisible_by_2k, is_nth_power, product_formula_check or
    gw_decision."""

    name = "local"
    tail_q = 99
    min_ops = 2000          # p99 leaves at least 20 samples beyond it
    rounds = 120            # 47040 ops, about five times what a run uses today

    def __init__(self, seed):
        self.places = {p: lg.Place.finite(p) for p in gen.PRIMES}
        self.places["inf"] = lg.Place.real()
        self.places["global"] = None
        self.points = {}
        self.batch = [(kind, self._build(kind, args), label, args)
                      for ops in gen.local_rounds(seed, self.rounds)
                      for kind, args, label in ops]
        self.div = {}       # (round, k, place) -> verdict

    def _build(self, kind, args):
        if kind == "div":
            r, roots, (x, y), k, place = args
            if (roots, x, y) not in self.points:
                curve = lg.Curve(*(Fraction(e) for e in roots))
                self.points[roots, x, y] = curve, curve.point(x, y)
            return (*self.points[roots, x, y], k, self.places[place])
        if kind == "pow":
            a, n, place = args
            return a, n, self.places[place]
        return args

    def call(self, op):
        kind, args, _, _ = op
        if kind == "div":
            return lg.divisible_by_2k(*args, 64)
        if kind == "pow":
            return lg.is_nth_power(*args)
        if kind == "pf":
            return lg.product_formula_check(*args)
        return lg.gw_decision(args[0], set(args[1]))

    def judge(self, op, answer):
        kind, args, label, raw = op
        if kind == "div":
            r, _, _, k, place = raw
            self.div[r, k, place] = answer
            if label in ("2Q", "4Q") and k == 1 and answer is not True:
                return "wrong", "2Q is not divisible by 2 at %s" % place
            if label == "4Q" and answer is not True:
                return "wrong", "4Q is not divisible by 4 at %s" % place
            if label == "dz" and answer != (k == 1 or place not in (2, "global")):
                return "wrong", "Dvornicich-Zannier point: k=%d at %s gave %s" % (k, place, answer)
            return None
        if kind == "pow":
            a, n, place = raw
            want = {"search": False, "power": True, "sixteen": place != 2}[label]
            if answer is not want:
                return "wrong", "%s is_nth_power(%s, %d, %s) gave %s" % (label, a, n, place, answer)
            return None
        if kind == "pf":
            a, b = raw
            prod = 1
            for s in answer.symbols:
                if s not in (1, -1):
                    return "wrong", "Hilbert symbol %r" % (s,)
                prod *= s
            real = answer.symbols[[str(v) for v in answer.places].index("inf")]
            if prod != 1 or answer.product != 1 or real != (-1 if a < 0 and b < 0 else 1):
                return "wrong", "product formula fails for (%s, %s)" % (a, b)
            return None
        n, t = raw
        want = 2 if n % 8 == 0 and 2 in t else 1
        if answer.kernel_order != want:
            return "wrong", "GW kernel for n=%d, T=%s is %d" % (n, t, answer.kernel_order)
        return None

    def finish(self):
        """Global divisibility implies local divisibility, and 4 | P implies
        2 | P, over the verdicts the run reached."""
        by_point = {}
        for (r, k, place), verdict in self.div.items():
            by_point.setdefault((r, k), {})[place] = verdict
        wrong = []
        for (r, k), verdicts in sorted(by_point.items()):
            if verdicts.get("global") and not all(verdicts.values()):
                wrong.append("round %d: divisible by 2^%d over Q but not locally" % (r, k))
            if k == 2:
                halves = by_point.get((r, 1), {})
                for place, verdict in verdicts.items():
                    if verdict and halves.get(place) is False:
                        wrong.append("round %d: divisible by 4 but not by 2 at %s"
                                     % (r, place))
        return wrong

    @staticmethod
    def digest(answer):
        if isinstance(answer, bool):
            return repr(answer)
        if hasattr(answer, "symbols"):
            return repr(([str(v) for v in answer.places], answer.symbols))
        return repr((answer.kernel_order, str(answer.witness), answer.checked_places))

    def properties(self, n):
        ops = [self.op(i) for i in range(n)]
        points = [op[2] for op in ops if op[0] == "div"]
        powers = [op for op in ops if op[0] == "pow"]
        return {
            "divisible_points": _share(label != "random" for label in points),
            "p_divides_n_power_queries": _share(
                place != "inf" and n % place == 0 for _, _, _, (_, n, place) in powers),
            "residue_search_queries": _share(op[2] == "search" for op in powers),
        }


class Cli(Workload):
    """One `python -m locglob ...` invocation, timed from spawn to exit."""

    name = "cli"
    tail_q = 90
    min_ops = 100           # p90 leaves at least 10 samples beyond it
    plan_ops = 1000         # about ten times what a run uses today

    def __init__(self, seed, workdir, src, trace_dir=None):
        """Writes the documents into `workdir`.  With `trace_dir`, each
        invocation runs under the tracer instead and leaves its spans there."""
        docs, self.batch = gen.cli_plan(seed, self.plan_ops)
        for name, text in docs.items():
            with open(os.path.join(workdir, name + ".json"), "w") as fh:
                fh.write(text)
        # invocations run in workdir and name documents relative to it, so
        # reports (which echo the input path) do not depend on the workdir
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.trace_dir = trace_dir
        self.span_files = []
        self.first_output = {}
        self.out_path = os.path.join(workdir, "stdout.txt")
        self.err_path = os.path.join(workdir, "stderr.txt")
        self.peak_rss_kib = 0

    def argv(self, item):
        return [a[1:-1] + ".json" if a.startswith("{") else a for a in item["args"]]

    # an interpreter start that imports stdlib modules and numpy: process
    # creation, byte-code loading and extension loading, the work that
    # dominates an invocation.  It tracks the invocations' speed across the
    # shared machine's load patterns better than a bare or stdlib-only start
    # (whose time moved by 22% against the invocations', this one's by 8 to
    # 14%).
    # numpy is a dependency, so no change to locglob moves it.
    reference_ns = 200_000_000
    calibrate_every_ns = 1_000_000_000
    REFERENCE_CODE = "import argparse, dataclasses, decimal, fractions, json, statistics, numpy"

    @staticmethod
    def reference():
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", Cli.REFERENCE_CODE], capture_output=True,
                       timeout=60, check=True)
        return time.perf_counter_ns() - t0

    def warm_up(self):
        """One untimed invocation, so the byte-code cache is written."""
        subprocess.run([sys.executable, "-m", "locglob", "h1", "--input", "mu8.json"],
                       capture_output=True, env=self.env, cwd=self.workdir, timeout=120)

    def call(self, op):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "locglob"]
        else:
            span_file = os.path.join(self.trace_dir, "%d.spans" % len(self.span_files))
            self.span_files.append(span_file)
            cmd = [sys.executable, CLI_CHILD, "cli-child", span_file, "--"]
        # the output goes to files, so the invocation can be reaped with
        # wait4, which gives its own peak RSS and no other process's.  A
        # hung invocation is killed with the worker's process group (run.py)
        with open(self.out_path, "w+") as out, open(self.err_path, "w+") as err:
            proc = subprocess.Popen(cmd + self.argv(op), stdout=out, stderr=err,
                                    env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()

    def peak_rss_mib(self):
        """The largest resident set of any invocation; the reference
        processes and the worker itself are not counted."""
        return self.peak_rss_kib / 1024

    def judge(self, op, answer):
        code, out, err = answer
        if "Traceback" in err:
            return "failed", "traceback, exit %d: %s" % (code, err.strip().splitlines()[-1])
        if op["expect"] == "reject":
            if code != 2 or out:
                return "failed", "malformed input gave exit %d" % code
            return None
        if code not in (0, 1):
            return "failed", "valid input gave exit %d: %s" % (code, err.strip()[:200])
        key = tuple(op["args"])
        first = self.first_output.setdefault(key, out)
        if first != out:
            return "wrong", "repeated invocation printed different bytes: %s" % " ".join(key)
        passed = "\nchecks_failed: 0\n" in "\n" + out
        if passed != (code == 0):
            return "wrong", "exit %d disagrees with the report" % code
        if op["expect"] != "any" and code != (0 if op["expect"] == "yes" else 1):
            return "wrong", "exit %d for %s" % (code, " ".join(op["args"]))
        return None

    @staticmethod
    def digest(answer):
        code, out, _ = answer
        return repr((code, out))

    def properties(self, n):
        ops = [self.op(i) for i in range(n)]
        seen = set()
        repeats = 0
        for item in ops:
            key = tuple(item["args"])
            repeats += key in seen
            seen.add(key)
        return {
            "malformed_invocations": _share(item["expect"] == "reject" for item in ops),
            "known_crash_invocations": _share(item["known_crash"] for item in ops),
            "repeated_invocations": repeats / n if n else 0.0,
        }


WORKLOADS = {w.name: w for w in (Modules, Local, Cli)}
CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")


def _share(flags):
    flags = list(flags)
    return sum(1 for f in flags if f) / len(flags) if flags else 0.0

