"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that has `src/gf2lie`.  Each pass runs in
a fresh process (`worker.py`), one at a time.

--trace 0: passes are repeated until about S seconds are spent, and at
least MIN_PASSES are made (a pass of cocycle-tables or structure-sweep
takes 10-18 s, so those runs make two).  Each end-to-end metric is the
median over the passes (the lower middle one for an even count, so it is a
measured value).
--trace 1: one untraced pass, then one traced pass; the per-layer figures
come from the traced pass, and the difference of the two wall times is the
tracing overhead.  Spans are written to bench/out/.

The line before the last one of the output holds the whole record: run
metadata (Python version, git revision, nproc, seed) and every pass's raw
samples.  The last line is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("cocycle-tables", "structure-sweep", "iso-search")
MIN_PASSES = 2
PASS_TIMEOUT_S = 150

E2E = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "verdicts": "count"}


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_pass(workload: str, seed: int, trace: bool, spans: str = "") -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("pass exited with %d:\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gf2lie layered benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gf2lie", "__init__.py")):
        print("error: %s holds no src/gf2lie to benchmark" % ROOT, file=sys.stderr)
        return 2

    passes = []
    try:
        if args.trace:
            passes.append(run_pass(args.workload, args.seed, False))
            os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
            spans = os.path.join(BENCH, "out", "spans-%s-seed%d.json" % (args.workload, args.seed))
            passes.append(run_pass(args.workload, args.seed, True, spans))
        else:
            start = time.perf_counter()
            while True:
                passes.append(run_pass(args.workload, args.seed, False))
                spent = time.perf_counter() - start
                if len(passes) >= MIN_PASSES and spent + spent / len(passes) > args.seconds:
                    break
    except (RuntimeError, subprocess.SubprocessError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1

    attempted = sum(p["verdicts"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    same_doc = len({p["doc_sha256"] for p in passes}) == 1
    if args.trace:
        untraced, traced = passes
        metrics = dict(traced["layers"])
        overhead = traced["wall_s"] - untraced["wall_s"]
        metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["tracing.overhead_ratio"] = {"value": overhead / untraced["wall_s"], "unit": "ratio"}
    else:
        metrics = {k: {"value": statistics.median_low(p[k] for p in passes), "unit": u}
                   for k, u in E2E.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)), "same_verdict_document": same_doc,
        "samples": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        "metrics": metrics,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and same_doc, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
