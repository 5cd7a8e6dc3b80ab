"""Benchmark of the trivector toolkit, one workload per run.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  A run sets its workload up from the
seed, then runs the workload's fixed job list back to back (a closed loop with
one client) until ``--seconds`` would be exceeded, at least once.  Every job
is checked against a second route; a failure is counted, not fatal.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
``--trace 1`` runs three single passes instead: one with field-operation
counters, one with span wrappers, one untraced, and reports the per-layer
metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"

WORKLOADS = ("locus-scan", "anchored-search", "algebra")
SETUP_PROBES = 5
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_program():
    """Put this checkout's src/ first on the path and import the program
    from it; exits with an error if it is missing."""
    if not (SRC / "trivector" / "__init__.py").is_file():
        raise SystemExit("perfbench: no program source at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import trivector
    if Path(trivector.__file__).resolve().parent != SRC / "trivector":
        raise SystemExit("perfbench: imported trivector from %s, not %s"
                         % (trivector.__file__, SRC))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up and exit (a set-up probe)")
    return ap.parse_args(argv)


def setup_seconds(workload, seed):
    """Median time of a fresh interpreter that imports the program and sets
    the workload up, over SETUP_PROBES probes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb():
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def baseline_digest(workload, seed):
    if not BASELINE.is_file():
        return None
    data = json.loads(BASELINE.read_text())
    return data.get("digests", {}).get(workload, {}).get(str(seed))


def run_untraced(jobs, bench, seconds):
    passes = []
    start = time.perf_counter()
    while True:
        p = jobs.run_pass(bench.jobs, log=sys.stderr.write)
        passes.append(p)
        if time.perf_counter() - start + p.wall_s > seconds:
            return passes


def run_traced(jobs, tracer, bench):
    """Counting pass, span pass, untraced pass, in that order; wrappers are
    removed after each traced pass whatever happens.  Later passes in a
    process run a little faster, so the span pass goes before the untraced
    one and trace.overhead errs high rather than low."""
    counter = tracer.Tracer()
    counter.install_counters()
    try:
        counted = jobs.run_pass(bench.jobs, quiet=counter.paused,
                                log=sys.stderr.write)
    finally:
        counter.uninstall()
    spans = tracer.Tracer()
    spans.install_spans()
    try:
        traced = jobs.run_pass(bench.jobs, quiet=spans.paused,
                               log=sys.stderr.write)
    finally:
        spans.uninstall()
    untraced = jobs.run_pass(bench.jobs, log=sys.stderr.write)
    return counter, spans, [counted, traced, untraced]


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import jobs
    if args.setup_only:
        jobs.setup(args.workload, args.seed)
        return 0
    import tracer

    setup_s = setup_seconds(args.workload, args.seed)
    bench = jobs.setup(args.workload, args.seed)
    if args.trace:
        counter, spans, passes = run_traced(jobs, tracer, bench)
        timed = [passes[2]]
    else:
        passes = run_untraced(jobs, bench, args.seconds)
        timed = passes
    untraced = timed[0]

    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    digests = sorted({p.digest for p in passes})
    expected = baseline_digest(args.workload, args.seed)
    correct = (not failures and len(digests) == 1
               and expected in (None, digests[0]))

    print("perfbench workload=%s seed=%d trace=%d passes=%d inputs=%s"
          % (args.workload, args.seed, args.trace, len(passes),
             jobs.input_fingerprint(bench.jobs)))
    print("jobs per pass: " + ", ".join(
        "%s=%d" % kv for kv in untraced.kind_n.items()))
    if expected is None:
        verdict = "none recorded"
    elif digests == [expected]:
        verdict = "match"
    else:
        verdict = "MISMATCH, expected " + expected
    print("digest %s (baseline: %s)" % (" ".join(digests), verdict))
    for kind, msg in failures:
        print("FAILED %s: %s" % (kind, msg))

    def median_of(get):
        return statistics.median(get(p) for p in timed)

    table = [("wall_s", median_of(lambda p: p.wall_s), "s"),
             ("setup_s", setup_s, "s"),
             ("peak_rss_mb", peak_rss_mb(), "MB"),
             ("failed_frac", len(failures) / attempted, "frac")]
    if args.trace:
        layer = tracer.layer_metrics(spans, counter, untraced, passes[1],
                                     bench.field_kernel_s)
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        table += [(name, layer[name], units[name]) for name in units]
        metrics = {name: {"value": layer[name], "unit": units[name]}
                   for name in units}
    else:
        table += [("%s_s" % k, median_of(lambda p, k=k: p.kind_s[k]), "s")
                  for k in untraced.kind_n]
        values = {name: value for name, value, _ in table}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, value, unit in table:
        print("  %-48s %16.6f %s" % (name, value, unit))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
