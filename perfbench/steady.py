"""Run the benchmark on several seeds and report each end-to-end metric's
median and its interquartile spread over the median, against the bounds in
BENCHMARK.json.

    python3 perfbench/steady.py --workload modules --seeds 1-10 [--out FILE]

Runs go one at a time.  --out writes every run's metrics, answers_sha256,
input property shares and report lines as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        sha = next(line.split()[1] for line in lines if line.startswith("answers_sha256:"))
        shares = {line.split()[1].rstrip(":"): float(line.split()[2])
                  for line in lines if line.startswith("property ")}
        runs.append({"seed": seed, "answers_sha256": sha, "properties": shares,
                     "report": lines[:-1], **result})
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))),
            flush=True)
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        spread = stats.relative_spread(values) if len(values) > 1 else 0.0
        print("%-22s median %12.6g  spread %.4f  bound %.2f  (%s)" % (
            metric["name"], statistics.median(values), spread, metric["bound"],
            "ok" if spread < metric["bound"] / 3 else "WIDE"))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
