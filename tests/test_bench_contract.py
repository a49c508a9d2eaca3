"""The library names that perfbench/ binds still exist: the benchmark's
checker self-test passes, and its tracer installs its wrappers on
hermform.  Each runs in a fresh interpreter, as the benchmark does."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), BENCH]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_bench_selftest_passes():
    done = _python(os.path.join(BENCH, "selftest.py"))
    assert done.returncode == 0, done.stdout + done.stderr


def test_bench_tracer_installs():
    done = _python("-c", "import spans; spans.install(spans.Tracer())")
    assert done.returncode == 0, done.stderr


# Two rounds of the seed-1 massey workload under the tracer, as
# `run.py --trace 1` runs them; prints the counts that differ.
TWO_TRACED_ROUNDS = """
import run, spans, workloads
tracer = spans.Tracer()
spans.install(tracer)
workload = workloads.WORKLOADS["massey"](1)
counts = []
for _ in range(2):
    done = run.Round(workload, tracer)
    assert not done.failed and not done.failures, done.failures
    counts.append(tracer.summary()[0])
    tracer.new_round()
first, second = counts
print(sorted((k, first.get(k), second.get(k)) for k in set(first) | set(second)
             if first.get(k) != second.get(k)))
"""


def test_traced_massey_rounds_count_the_same_work():
    """A traced round counts the same work as the one before it.  The
    first round's warm ops draw their inputs untraced, building artifacts
    that later rounds then build traced; an artifact that builds others
    inside it on one path and not on the other makes the counts differ,
    and the bench reads the run as incorrect."""
    done = _python("-c", TWO_TRACED_ROUNDS)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# The seed-1 massey set-up, as `run.py --setup-probe` runs it, counting
# monomial-table builds and apply_derivation calls.
SETUP_WORK = """
from hermform import calculus, model
import workloads
builds, derivations = [], []

class Counted(model._Table):
    __slots__ = ()

    def __init__(self):
        builds.append(1)

def counted(*args):
    derivations.append(1)
    return derive(*args)

derive = model.apply_derivation
model._Table = Counted
model.apply_derivation = calculus.apply_derivation = counted
workloads.WORKLOADS["massey"](1).ops()
print(len(builds), len(derivations))
"""


def test_massey_setup_builds_one_table_per_signature():
    """The 36 models of a massey set-up have 6 generator signatures and
    build 6 monomial tables; their d^2 checks apply no derivation."""
    done = _python("-c", SETUP_WORK)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["6", "0"]
