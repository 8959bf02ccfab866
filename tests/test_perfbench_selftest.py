"""The benchmark's own self-test, run as part of the suite.

``perfbench/selftest.py`` runs both workloads on a tiny config, untraced and
twice traced, and exits 1 when a traced boundary records no calls, when
``predict_many`` and one-row ``predict`` disagree in a bit, or when the
benchmark's reported metrics drift from ``BENCHMARK.json``. Running it here
makes a change that leaves a boundary cold fail the suite, not only the
benchmark. It takes several seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
