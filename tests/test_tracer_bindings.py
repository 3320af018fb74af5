"""The benchmark's self-test passes against this source tree.

``perfbench/tracer.py`` looks up, and rebinds, named functions in the
package's modules; ``perfbench/selftest.py`` runs a traced operation, so a
name it needs that has gone from the package fails here rather than only
under ``perfbench/run.py --trace 1``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
