"""The benchmark's trace mode rebinds stemsep functions by name; this
fails when one of them is renamed or deleted."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_installs():
    code = ('import sys; sys.path[:0] = ["benchmarks", "src"]; '
            'from tracer import Tracer; Tracer().install()')
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
