"""The benchmark's own smoke test must pass on the current sources.

The benchmark drives ``walk``, ``rewrite_under_interpretation``,
``eval_structure`` and ``graph_interpretation`` among others, so a change to
any of them that breaks a workload fails here rather than only when the
benchmark is next run.  Takes about 35 s on a 2-core host.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
