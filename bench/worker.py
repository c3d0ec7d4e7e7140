"""One benchmark pass of one workload, in a fresh single-threaded process.

    python3 bench/worker.py --workload NAME --seed N [--trace 0|1] [--spans FILE]
    python3 bench/worker.py --workload NAME --record-golden

The pass imports `gf2lie` from the `src/` directory next to this one,
builds the workload's input algebras (together: set-up), then runs and
checks every verdict of the pass.  It prints one JSON object: the timings
(scaled to a reference machine speed by `SpeedProbe`, and as measured), the
verdict count, the ids of failed verdicts, and a digest of the verdict
document.  With --trace 1 the layer wrappers are installed before set-up and
the per-layer figures are added; spans go to the --spans file.

--record-golden runs every verdict the workload can draw on and rewrites
golden/NAME.json.  It refuses when any verdict misses its known answer.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import signal
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def canonical(x):
    """The JSON form of a record, so that records compare as they are stored."""
    return json.loads(json.dumps(x, sort_keys=True))


def golden_path(workload: str) -> str:
    return os.path.join(BENCH, "golden", workload + ".json")


def load_golden(workload: str) -> dict:
    try:
        with open(golden_path(workload)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


class SpeedProbe:
    """Samples how fast the machine runs while a pass is measured.

    On a shared machine the CPU's speed changes by up to 2x within seconds.
    A timer signal every INTERVAL_S times a short fixed loop of tuple and
    dict lookups, and `sample()` times it on demand.  The loop touches only
    small cached ints, so it allocates nothing: its speed does not depend on
    the heap the workload has built, and no change to gf2lie moves it.
    `measure()` turns a measured interval into reference seconds: the
    interval minus the probe's own time in it, times REF_S over the mean loop
    time of the samples taken during it.
    """

    ITERATIONS = 32000
    REF_S = 0.001  # about the loop's time on the quiet machine the baseline was recorded on
    INTERVAL_S = 0.05
    PERM = tuple((i * 97 + 31) % 256 for i in range(256))
    TABLE = {i: (i * 13 + 7) % 256 for i in range(256)}

    def __init__(self):
        self.samples: list = []  # (start, loop seconds)

    def sample(self, *_signal_args) -> None:
        perm, table = self.PERM, self.TABLE
        x = y = 0
        t = time.perf_counter()
        for _ in itertools.repeat(None, self.ITERATIONS):
            x = perm[x]
            y = table[y ^ x]
        self.samples.append((t, time.perf_counter() - t))

    def __enter__(self) -> "SpeedProbe":
        self.sample()  # warm-up: the first loop of a fresh process runs slow
        self.samples.clear()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def measure(self, fn):
        """Run fn between two samples; returns (result, raw wall s, raw CPU s, wall s, CPU s).

        The last two are scaled to reference seconds.
        """
        self.sample()
        first = len(self.samples) - 1
        c0, t0 = cpu_time(), time.perf_counter()
        result = fn()
        wall, cpu = time.perf_counter() - t0, cpu_time() - c0
        self.sample()
        window = self.samples[first:]
        inside = sum(d for t, d in window[1:-1] if t0 <= t <= t0 + wall)
        factor = self.REF_S * len(window) / sum(d for _, d in window)
        return result, wall, cpu, (wall - inside) * factor, (cpu - inside) * factor

    def median_loop_s(self) -> float:
        return sorted(d for _, d in self.samples)[len(self.samples) // 2]


def run_verdicts(verdicts, probe: SpeedProbe, tracer=None):
    """Run and check every verdict.

    Returns (document, ids that missed their known answer, timings), with one
    (raw wall s, raw CPU s, wall s, CPU s) per verdict, scaled by `probe`.
    A verdict that raises is recorded with its error and counts as missed.
    """
    doc, missed, timings = {}, [], []
    for v in verdicts:
        def attempt():
            try:
                rec = canonical(tracer.run_verdict(v.id, v.run) if tracer else v.run())
                return rec, bool(v.check(rec))
            except Exception as e:  # a crash is a failed verdict, not a failed run
                return {"error": "%s: %s" % (type(e).__name__, e)}, False
        (rec, ok), *times = probe.measure(attempt)
        doc[v.id] = rec
        if not ok:
            missed.append(v.id)
        timings.append(times)
    return doc, missed, timings


def failed_ids(doc: dict, missed, golden: dict):
    """Verdicts that missed the known answer or differ from the golden record."""
    return sorted(set(missed) | {vid for vid, rec in doc.items() if golden.get(vid) != rec})


def cpu_time() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the spans of a traced pass")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gf2lie", "__init__.py")):
        print("error: no gf2lie package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as W
    from tracer import Tracer
    wl = W.WORKLOADS.get(args.workload)
    if wl is None:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    with SpeedProbe() as probe:
        def set_up():
            layers = W.import_layers()
            if tracer is not None:
                tracer.install()
            return layers, wl.setup(layers)
        (L, inputs), raw_setup_s, _, setup_s, _ = probe.measure(set_up)
        if not os.path.abspath(L.gf2.__file__).startswith(SRC + os.sep):
            print("error: gf2lie was imported from %s, not %s" % (L.gf2.__file__, SRC), file=sys.stderr)
            return 2
        verdicts = wl.universe(L, inputs) if args.record_golden else wl.plan(L, inputs, args.seed)
        doc, missed, timings = run_verdicts(verdicts, probe, tracer)
    raw_wall_s = sum(t[0] for t in timings)

    if args.record_golden:
        if missed:
            print("error: known answers missed, golden file not written: %s" % missed, file=sys.stderr)
            return 1
        with open(golden_path(args.workload), "w") as f:
            json.dump(doc, f, sort_keys=True, indent=1)
            f.write("\n")
        print("recorded %d verdicts in %.1f s" % (len(doc), raw_wall_s))
        return 0

    out = {
        "setup_s": setup_s,
        "wall_s": sum(t[2] for t in timings),
        "cpu_s": sum(t[3] for t in timings),
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": raw_wall_s,
        "raw_cpu_s": sum(t[1] for t in timings),
        "probe_loop_s": probe.median_loop_s(),
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0,
        "verdicts": len(verdicts),
        "failed": failed_ids(doc, missed, load_golden(args.workload)),
        "doc_sha256": digest(doc),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent
        if args.spans:
            with open(args.spans, "w") as f:
                json.dump(tracer.span_records(), f)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
