"""Child processes of the benchmark; run.py starts them, one at a time.

    worker.py setup   WORKLOAD SEED WORKDIR
    worker.py measure WORKLOAD SEED WORKDIR SECONDS MAX_OPS TRACE
    worker.py cli-child SPAN_FILE -- ARG...

`setup` imports the program and builds the inputs, and prints how long
that took.  `measure` does the same and then runs the closed loop: one op
at a time until SECONDS have passed and at least the workload's minimum
number of ops is done, or until MAX_OPS ops when MAX_OPS > 0, whichever
comes first.  TRACE 1 installs the tracer for the loop.  `cli-child` is one traced CLI
invocation.  Each mode prints one JSON line.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REFERENCE_S = 0.3     # reference work timed on each side of a set-up


def _check_program():
    import locglob
    where = os.path.dirname(os.path.abspath(locglob.__file__))
    if where != os.path.join(SRC, "locglob"):
        raise SystemExit("locglob was imported from %s, not from %s" % (where, SRC))


def _reference_samples(wl):
    """Times of the workload's reference work, repeated for at least
    SETUP_REFERENCE_S."""
    samples = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < SETUP_REFERENCE_S:
        samples.append(wl.reference())
    return samples


def _set_up(workload, seed, workdir, trace=False):
    """Import the program and build the workload's inputs.  Returns the
    workload and its set-up seconds, as measured and rescaled like op times:
    the reference work is timed before the build (that time is not counted)
    and after it, and its median stands for the machine's speed."""
    _check_program()
    import ops
    cls = ops.WORKLOADS[workload]
    t0 = time.perf_counter()
    samples = _reference_samples(cls)
    skipped = time.perf_counter() - t0
    if cls is ops.Cli:
        spans = os.path.join(workdir, "spans") if trace else None
        if spans:
            os.makedirs(spans, exist_ok=True)
        wl = cls(seed, workdir, SRC, spans)
        wl.warm_up()
    else:
        wl = cls(seed)
    raw = time.perf_counter() - T0 - skipped
    samples += _reference_samples(wl)
    return wl, {"setup_raw_s": raw,
                "setup_s": raw * wl.reference_ns / statistics.median(samples)}


def setup(workload, seed, workdir):
    return _set_up(workload, seed, workdir)[1]


def measure(workload, seed, workdir, seconds, max_ops, trace):
    wl, setup_times = _set_up(workload, seed, workdir, trace)
    tracer = None
    if trace and workload != "cli":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    latencies = []
    failed = 0
    wrong = []
    failures = []
    digest = hashlib.sha256()
    hashed = 0
    clock = time.perf_counter_ns
    calibration = []        # (index of the next op, reference work ns)
    next_calibration = 0
    busy = 0
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        if busy >= next_calibration:
            calibration.append((n, wl.reference()))
            next_calibration = busy + wl.calibrate_every_ns
        op = wl.op(n)
        if tracer is not None:
            tracer.op = n
        t0 = clock()
        try:
            answer = wl.call(op)
        except Exception as exc:        # a failed op; the loop goes on
            answer = exc
        t1 = clock()
        latencies.append(t1 - t0)
        busy += t1 - t0
        if isinstance(answer, Exception):
            failed += 1
            failures.append("".join(traceback.format_exception_only(answer)).strip())
            text = "failed: " + type(answer).__name__
        else:
            verdict = wl.judge(op, answer)
            if verdict is not None:
                kind, why = verdict
                if kind == "failed":
                    failed += 1
                    failures.append(why)
                else:
                    wrong.append(why)
            text = wl.digest(answer)
        if hashed < wl.min_ops:
            digest.update(text.encode() + b"\n")
            hashed += 1
        n += 1
        if n >= max_ops > 0 or (n >= wl.min_ops and time.perf_counter() >= deadline):
            break
    wrong += wl.finish()
    out = {
        **setup_times,
        "ops": n,
        "failed": failed,
        "wrong": len(wrong),
        "wrong_examples": wrong[:5],
        "failure_examples": sorted(set(failures))[:8],
        "busy_ns": busy,
        "latencies_ns": latencies,
        "calibration": calibration,
        "reference_ns": wl.reference_ns,
        "tail_q": wl.tail_q,
        "answers_sha256": digest.hexdigest(),
        "answers_ops": hashed,
        "batch_passes": n / len(wl.batch),
        "properties": wl.properties(n),
    }
    out["peak_rss_mib"] = wl.peak_rss_mib()
    if tracer is not None:
        tracer.uninstall()
        span_file = os.path.join(workdir, "spans.bin")
        tracer.dump(span_file)
        out["span_files"] = [span_file]
    elif trace:
        out["span_files"] = wl.span_files
    return out


def cli_child(span_file, argv):
    """One CLI invocation under the tracer; the exit code, output and any
    traceback are those of `python -m locglob`."""
    import tracer as tracing
    import locglob.cli
    tr = tracing.Tracer()
    tr.install()
    try:
        return locglob.cli.main(argv)
    finally:
        tr.uninstall()
        tr.dump(span_file)


def main(argv):
    mode = argv[0]
    if mode == "cli-child":
        sys.exit(cli_child(argv[1], argv[3:]))
    if mode == "setup":
        out = setup(argv[1], int(argv[2]), argv[3])
    else:
        out = measure(argv[1], int(argv[2]), argv[3], float(argv[4]), int(argv[5]),
                      argv[6] == "1")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
