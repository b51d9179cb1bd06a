"""The benchmark makes its inputs with stemsep functions, and its trace
mode rebinds stemsep functions by name; these fail when one of them is
renamed or deleted."""

import os
import subprocess
import sys

from stemsep.arch import default_arch, parse_arch_text, reduce_spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_installs():
    # the benchmark child also rebinds read_wav and train_step in every mode
    code = ('import sys; sys.path[:0] = ["benchmarks", "src"]; '
            'from tracer import Tracer, rebind; Tracer().install(); '
            'from stemsep import cli, dsp, train; '
            'rebind(dsp.read_wav, lambda *a, **k: None); '
            'rebind(train.train_step, lambda *a, **k: None)')
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_inputs_build(tmp_path):
    # every workload makes its inputs through stemsep's public functions
    code = ('import sys; sys.path[:0] = ["benchmarks", "src"]; import run; '
            '[run.WORKLOADS[name](sys.argv[1] + "/" + name, 0) for name in run.WORKLOADS]')
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["evaluate-toy", "separate-full", "train-reduced"]
    reduced = parse_arch_text((tmp_path / "train-reduced" / "reduced.cfg").read_text())
    assert reduced == reduce_spec(reduce_spec(default_arch()))
