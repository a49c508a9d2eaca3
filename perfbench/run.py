"""Benchmark of hermform: three workloads with independent checks.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

The workloads are `tables`, `formality` and `massey` (see README.md).
A run repeats whole rounds of the same ops, drawn from --seed, for about
--seconds seconds, in this one process and thread.  Every op starts from
freshly constructed engines and its outputs are checked outside the
timed span.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`:

- --trace 0: the end-to-end metrics `setup_s`, `wall_s`, `peak_rss_mib`;
- --trace 1: the per-layer metrics.  The spans of the first round go to
  .bench_trace/<workload>-seed<seed>.tsv, and a summary with each
  phase's time shares to the matching .json file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
SETUP_SAMPLES = 7
# Each op's time is its least over a run's rounds, so every op gets at
# least this many samples, even when a round takes half a run.
MIN_ROUNDS = 3


def setup_seconds(workload, seed):
    """Least time, over SETUP_SAMPLES fresh interpreters, from starting
    the interpreter to the point where the first op would run: start,
    `import hermform`, input generation, catalog loads and the
    construction of every engine of a round.  A fresh process per
    sample makes each sample pay the one-time costs again."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    times = []
    for _ in range(SETUP_SAMPLES):
        t = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE) as probe:
            ready = probe.stdout.readline()
            times.append(perf_counter() - t)
            probe.stdout.read()
        if probe.returncode != 0 or ready != b"ready\n":
            raise RuntimeError("set-up probe failed: %r" % ready)
    print("set-up samples: %s s" % " ".join("%.4f" % x for x in times),
          file=sys.stderr)
    return min(times)


@contextmanager
def traced(tracer, span):
    """Turn the tracer on inside a span named `span`, if tracing."""
    if tracer is None:
        yield
        return
    tracer.active = True
    idx = tracer.open(tracer.name_id(span))
    try:
        yield
    finally:
        tracer.close(idx)
        tracer.active = False


class Round:
    """Set-up and ops of one round; checks run outside the timed spans."""

    def __init__(self, workload, tracer):
        gc.collect()
        with traced(tracer, "setup"):
            ops = workload.ops()
        self.attempted = len(ops)
        self.op_s = []
        self.failed = 0
        self.failures = []
        while ops:
            self.run_op(ops.pop(0), tracer)
        self.wall_s = sum(self.op_s)

    def run_op(self, op, tracer):
        result, elapsed = None, 0.0
        try:
            op.prepare()
            with traced(tracer, "op:" + op.phase):
                start = perf_counter()
                try:
                    result = op.run()
                finally:
                    elapsed = perf_counter() - start
        except Exception:
            self.failed += 1
            traceback.print_exc()
        self.op_s.append(elapsed)
        if result is not None:
            try:
                self.failures += op.check(result)
            except Exception as exc:
                self.failures.append("%s check raised %r" % (op.phase, exc))
        op.release()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tables", "formality", "massey"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up one round, print 'ready' and exit")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hermform", "__init__.py")):
        print("perfbench: no hermform sources under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed).ops()
        print("ready", flush=True)
        return 0
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed)

    rounds, summaries = [], []
    start = perf_counter()
    while True:
        t = perf_counter()
        r = Round(workload, tracer)
        rounds.append(r)
        if tracer is not None:
            summaries.append(tracer.summary())
            if len(rounds) == 1:
                first_spans = tracer.spans()
            tracer.new_round()
        print("round %d: wall %.4f s, ops %d, failed %d, check failures %d"
              % (len(rounds), r.wall_s, r.attempted, r.failed,
                 len(r.failures)), file=sys.stderr)
        elapsed = perf_counter() - start
        if (len(rounds) >= MIN_ROUNDS
                and elapsed + 0.5 * (perf_counter() - t) >= args.seconds):
            break

    failures = [m for r in rounds for m in r.failures]
    # The time of one round, each op at its least time over the rounds.
    # On a shared machine other load can slow every op by up to 1.8x for
    # tens of seconds; the least time is the op's own cost whenever the
    # run sees the machine unloaded.
    wall_s = sum(min(times) for times in zip(*(r.op_s for r in rounds)))
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
    else:
        if any(s[0] != summaries[0][0] for s in summaries):
            failures.append("per-layer counts differ between rounds")
        metrics = spans.layer_metrics(summaries)
        os.makedirs(TRACE_DIR, exist_ok=True)
        stem = os.path.join(TRACE_DIR, "%s-seed%d" % (args.workload,
                                                      args.seed))
        tracer.write_spans(stem + ".tsv", first_spans)
        with open(stem + ".json", "w") as out:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": len(rounds), "traced_wall_s": wall_s,
                       "per_layer": metrics, "phase_shares": summaries[0][2]},
                      out, indent=1)
        for phase, shares in summaries[0][2].items():
            top = ", ".join("%s %.0f%%" % (n, 100 * s)
                            for n, s in list(shares.items())[:6])
            print("%s: %s" % (phase, top), file=sys.stderr)
    for m in failures[:20]:
        print("CHECK FAILED: " + m, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
