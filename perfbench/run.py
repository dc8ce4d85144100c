"""The locglob benchmark.

    python3 perfbench/run.py --workload {modules,local,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
Each workload is a closed loop with one client, in fresh processes, so the
program's module-level caches start empty as they do for a user's batch.

--trace 0 prints the end-to-end metrics: the workload is set up
SETUP_REPEATS times in separate processes, then once more and measured for
S seconds.  --trace 1 prints the per-layer metrics: the first TRACE_OPS ops (fewer if
S seconds run out first) run untraced and then traced, each in a fresh
process, and the spans of the traced pass give calls and self time per
layer.

Human-readable lines come first; the last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import stats
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_REPEATS = 4
PROBE_REPEATS = 5
# ops of the traced run: a fixed prefix of the batch, so counts repeat
# exactly from run to run and commit to commit
TRACE_OPS = {"modules": 400, "local": 4000, "cli": 40}
# every run ends within this many seconds of its start
TIME_LIMIT_S = 170
DEADLINE = time.monotonic() + TIME_LIMIT_S


def _child(args):
    """Run a worker to completion and return what it printed.  The worker
    and anything it started form one process group, killed as a whole if
    the run's time is up."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, WORKER, *map(str, args)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d:\n%s" % (args[0], proc.returncode, err[-2000:]))
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds, workdir):
    setups = [_child(["setup", workload, seed, workdir]) for _ in range(SETUP_REPEATS)]
    run = _child(["measure", workload, seed, workdir, seconds, 0, 0])
    setups.append(run)
    raw = run["latencies_ns"]
    ref = stats.calibrated(raw, run["calibration"], run["reference_ns"])
    tail_ns, beyond = stats.tail(ref, run["tail_q"])
    metrics = {
        "throughput_ref_ops_per_s": (len(ref) / (sum(ref) / 1e9), "1/ref_s"),
        "latency_p50_ref_ms": (stats.percentile(sorted(ref), 50) / 1e6, "ref_ms"),
        "latency_tail_ref_ms": (tail_ns / 1e6, "ref_ms"),
        "success_rate": (1 - run["failed"] / run["ops"], "ratio"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
    }
    work = [ns for _, ns in run["calibration"]]
    raw_tail, _ = stats.tail(raw, run["tail_q"])
    notes = ["as measured, uncalibrated: throughput_ops_per_s %.4f, latency_p50_ms %.4f, "
             "latency_tail_ms %.4f" % (len(raw) / (run["busy_ns"] / 1e9),
                                        stats.percentile(sorted(raw), 50) / 1e6,
                                        raw_tail / 1e6),
             "reference work: median %.4f ms over %d samples (%.4f to %.4f); "
             "ref_ms are ms at %.1f ms per reference work"
             % (statistics.median(work) / 1e6, len(work), min(work) / 1e6,
                max(work) / 1e6, run["reference_ns"] / 1e6),
             "latency tail is p%d, with %d samples beyond it" % (run["tail_q"], beyond),
             "fail_rate: %.4f (%d of %d ops)" % (run["failed"] / run["ops"], run["failed"],
                                                 run["ops"]),
             "set-up seconds, rescaled by the reference work: %s"
             % ", ".join("%.3f" % s["setup_s"] for s in setups),
             "set-up seconds, as measured: %s" % ", ".join("%.3f" % s["setup_raw_s"]
                                                          for s in setups)]
    return run, metrics, notes


def _probe(code, env):
    """Median seconds of `python -c code`, spawn to exit, and the median of
    what it prints (when it prints a number)."""
    walls, printed = [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=max(1.0, DEADLINE - time.monotonic()),
                              cwd=ROOT)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("probe failed: %s" % proc.stderr[-500:])
        if proc.stdout.strip():
            printed.append(float(proc.stdout))
    return statistics.median(walls), statistics.median(printed) if printed else None


def _ref_busy(run):
    return sum(stats.calibrated(run["latencies_ns"], run["calibration"], run["reference_ns"]))


def per_layer(workload, seed, seconds, workdir):
    plain = _child(["measure", workload, seed, workdir, seconds, TRACE_OPS[workload], 0])
    # the traced pass repeats exactly the ops the untraced one reached
    traced = _child(["measure", workload, seed, workdir, TIME_LIMIT_S, plain["ops"], 1])
    spans = tracer.Spans(tracer.LAYERS)
    for path in traced["span_files"]:
        spans.load(path)
    layers, root_ns = tracer.layer_metrics(spans)
    env = dict(os.environ, PYTHONPATH=SRC)
    interpreter_s, _ = _probe("pass", env)
    _, import_s = _probe("import time; t = time.perf_counter(); import locglob.cli; "
                         "print(time.perf_counter() - t)", env)
    metrics = dict(layers)
    metrics["cli.interpreter_ms"] = (interpreter_s * 1e3, "ms")
    metrics["cli.import_ms"] = (import_s * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (_ref_busy(traced) / _ref_busy(plain), "ratio")
    metrics["trace.unattributed_share"] = (1 - root_ns / traced["busy_ns"], "ratio")
    notes = ["traced ops: %d (untraced pass %.3f s, traced pass %.3f s)"
             % (traced["ops"], plain["busy_ns"] / 1e9, traced["busy_ns"] / 1e9)]
    if spans.absent:
        notes.append("absent: %s" % ", ".join(sorted(spans.absent)))
    return traced, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "locglob", "__init__.py")):
        sys.stderr.write("error: no program at %s\n" % os.path.join(SRC, "locglob"))
        return 2
    workdir = os.path.join(HERE, ".runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        measure = per_layer if args.trace else end_to_end
        run, metrics, notes = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = ["workload %s, seed %d: closed loop, one client" % (args.workload, args.seed),
             "ops: %d attempted, %d failed, %d wrong answers"
             % (run["ops"], run["failed"], run["wrong"]),
             "answers_sha256: %s (first %d ops)" % (run["answers_sha256"], run["answers_ops"]),
             "batch passes: %.3f" % run["batch_passes"]]
    lines += notes
    lines += ["property %s: %.4f" % kv for kv in sorted(run["properties"].items())]
    lines += ["failure: %s" % f for f in run["failure_examples"]]
    lines += ["wrong: %s" % w for w in run["wrong_examples"]]
    lines += ["%-44s %14.6f %s" % (name, value, unit)
              for name, (value, unit) in sorted(metrics.items())]
    print("\n".join(lines))
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
