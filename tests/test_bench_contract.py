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
