"""End-to-end benchmark of stemsep's three user jobs: separate, train and
evaluate, each driven through ``stemsep.cli.main`` on seeded toy inputs.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports stemsep from ``src/``.
The seed selects one of ``VARIANTS`` input sets (seed mod VARIANTS), and
every set has a committed reference in ``reference.json`` that the
outputs are checked against (``record_reference.py`` writes it).

Every command runs in a fresh child process (``child.py``) with at most
two BLAS threads and no process pools. The parent makes the inputs,
starts the children one at a time, checks their outputs and prints the
result as the last line of standard output:

* ``--trace 0``: whole commands while they fit in ``--seconds``, then
  set-up probes (children stopped at their first unit of work) in the
  time left. Reports the medians of ``rtf`` (wall seconds per second of
  audio), ``setup_s`` (process start to first unit of work, over
  commands and probes) and ``peak_rss_mb``.
* ``--trace 1``: pairs of one untraced and one traced command while
  they fit. Reports the per-layer table (medians over traced commands)
  and the tracing overhead, traced minus untraced ``rtf``.

Failed commands and failed checks both count in ``failed``; the line
before the result gives every sample and ``error_rate``. The first line
gives host facts (BLAS, threads, CPUs, versions and a fixed numpy
probe), so that a disagreement between runs can be told apart from
host drift.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

NPROC = len(os.sched_getaffinity(0))
# The references were recorded with two BLAS threads. The thread count
# changes the order of BLAS sums: one thread moves the scores of
# evaluate-toy by up to 5e-10 dB, half of SCORE_ATOL_DB.
BLAS_THREADS = min(2, NPROC)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.io import wavfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")

VARIANTS = 32
CHILD_TIMEOUT_S = 150
SAMPLE_RATE = 44100
FFT_SIZE = 4096
HOP = FFT_SIZE // 4

# Tolerances of the output checks. Separation runs the model in fp32 and
# training in fp64. Each bound is far above what a change of summation
# order does (one BLAS thread instead of two moves the stems by 2e-7 and
# the losses by 0, relative) and far below what a wrong kernel does.
# The score bound is the one the scoring fast path must keep.
STEM_RTOL = 1e-4
LOSS_RTOL = 1e-9
SCORE_ATOL_DB = 1e-9
# vocals + accompaniment against the mixture: each of the two float32
# WAV stems rounds by at most 2**-24 in [-1, 1]
SUM_ATOL = 2.0 ** -22


def fail(message):
    print("error: %s" % message, file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# workloads: make inputs, name the command, digest and check its outputs


class Workload:
    name = ""
    audio_s = 0.0  # seconds of audio one command processes

    def __init__(self, work, variant):
        """Make the inputs of one variant under the directory work."""
        self.variant = variant

    def argv(self, out):
        raise NotImplementedError

    def digest(self, out, result):
        """(digest to compare with the reference, invariant violations)"""
        raise NotImplementedError

    def compare(self, digest, ref):
        raise NotImplementedError


class SeparateFull(Workload):
    """The default 3.32 M-parameter model in fp32 with the Wiener filter
    on a 6 s stereo mixture (256 frames)."""

    name = "separate-full"
    audio_s = 6.0
    positions = np.sort(np.random.default_rng(0).choice(
        int(audio_s * SAMPLE_RATE), 64, replace=False))

    def __init__(self, work, variant):
        super().__init__(work, variant)
        from stemsep.arch import default_arch
        from stemsep.model import build_model, save_checkpoint
        from stemsep.train import make_toy_dataset

        track = make_toy_dataset(os.path.join(work, "data"), seed=variant,
                                 n_tracks=1, duration_s=self.audio_s)[0]
        self.mixture = os.path.join(track, "mixture.wav")
        self.checkpoints = os.path.join(work, "checkpoints")
        os.makedirs(self.checkpoints)
        model = build_model(default_arch(), seed=variant).astype(np.float32)
        save_checkpoint(os.path.join(self.checkpoints, "vocals.ckpt"), model)

    def argv(self, out):
        return ["separate", self.mixture, "--checkpoints", self.checkpoints,
                "--out", out, "--wiener", "on"]

    def digest(self, out, result):
        problems = []
        names = sorted(os.listdir(out))
        if names != ["accompaniment.wav", "vocals.wav"]:
            return None, ["wrote %s" % names]
        stems = {n[:-4]: read_samples(os.path.join(out, n)) for n in names}
        mixture = read_samples(self.mixture)
        residual = np.max(np.abs(stems["vocals"] + stems["accompaniment"] - mixture))
        if not residual <= SUM_ATOL:
            problems.append("vocals + accompaniment differ from the mixture by %g"
                            % residual)
        digest = {n: {"energy": (x ** 2).sum(axis=1).tolist(),
                      "samples": x[:, self.positions].tolist()}
                  for n, x in stems.items()}
        return digest, problems

    def compare(self, digest, ref):
        problems = []
        for name, r in ref.items():
            got = digest[name]
            r_energy = np.array(r["energy"])
            if not np.all(r_energy > 0):
                problems.append("reference %s is silent" % name)
            err = np.abs(np.array(got["energy"]) - r_energy) / r_energy
            r_samples = np.array(r["samples"])
            err = max(err.max(), np.linalg.norm(np.array(got["samples"]) - r_samples)
                      / np.linalg.norm(r_samples))
            if not err <= STEM_RTOL:
                problems.append("%s off the reference by %.3g relative" % (name, err))
        return problems


class TrainReduced(Workload):
    """Training in fp64 (the CLI's dtype) of reduce_spec(reduce_spec(
    default)), batch 4 with augmentation, on a two-track toy dataset."""

    name = "train-reduced"
    frames = 16
    batch = 4
    steps = 2
    audio_s = steps * batch * ((frames - 1) * HOP + FFT_SIZE) / SAMPLE_RATE

    def __init__(self, work, variant):
        super().__init__(work, variant)
        from stemsep.arch import default_arch, reduce_spec
        from stemsep.train import make_toy_dataset

        self.dataset = os.path.join(work, "data")
        make_toy_dataset(self.dataset, seed=variant, n_tracks=2, duration_s=6.0)
        self.arch = os.path.join(work, "reduced.cfg")
        with open(self.arch, "w") as fh:
            fh.write(reduce_spec(reduce_spec(default_arch())).source_text)

    def argv(self, out):
        return ["train", self.dataset, "--out", os.path.join(out, "vocals.ckpt"),
                "--arch", self.arch, "--source", "vocals", "--epochs", "1",
                "--steps", str(self.steps), "--batch", str(self.batch),
                "--frames", str(self.frames), "--augment", "--seed", str(self.variant)]

    def digest(self, out, result):
        problems = []
        losses = result["losses"]
        if len(losses) != self.steps:
            problems.append("%d losses for %d steps" % (len(losses), self.steps))
        if not os.path.isfile(os.path.join(out, "vocals.ckpt")):
            problems.append("no checkpoint written")
        return {"losses": losses}, problems

    def compare(self, digest, ref):
        got, want = np.array(digest["losses"]), np.array(ref["losses"])
        if got.shape != want.shape:
            return ["loss trace has %d steps, reference %d" % (got.size, want.size)]
        err = np.max(np.abs(got - want) / np.abs(want))
        if not err <= LOSS_RTOL:
            return ["loss trace off the reference by %.3g relative" % err]
        return []


class EvaluateToy(Workload):
    """BSSEval of five seeded estimates (bass, drums, other, vocals,
    accompaniment) on one 12 s toy track; one scoring window."""

    name = "evaluate-toy"
    audio_s = 12.0
    sources = ("bass", "drums", "other", "vocals")

    def __init__(self, work, variant):
        super().__init__(work, variant)
        from stemsep.dsp import AudioClip, write_wav
        from stemsep.train import make_toy_dataset

        self.references = os.path.join(work, "references")
        track = make_toy_dataset(self.references, seed=variant, n_tracks=1,
                                 duration_s=self.audio_s)[0]
        refs = {n: read_samples(os.path.join(track, n + ".wav"))
                for n in self.sources + ("mixture",)}
        refs["accompaniment"] = refs["mixture"] - refs["vocals"]
        self.estimates = os.path.join(work, "estimates")
        est_dir = os.path.join(self.estimates, os.path.basename(track))
        os.makedirs(est_dir)
        # estimate = target + leakage of a stem outside the target + white
        # noise, so that every SIR stays well conditioned
        rng = np.random.default_rng([variant, 1])
        leaks = dict(zip(self.sources, self.sources[1:] + self.sources[:1]),
                     accompaniment="vocals")
        for name, leak_name in leaks.items():
            leak = refs[leak_name]
            x = (refs[name] + rng.uniform(0.05, 0.3) * leak
                 + rng.uniform(1e-3, 1e-2) * rng.standard_normal(leak.shape))
            write_wav(os.path.join(est_dir, name + ".wav"), AudioClip(x, SAMPLE_RATE))

    def argv(self, out):
        return ["evaluate", "--estimates", self.estimates, "--references",
                self.references, "--out", os.path.join(out, "scores.json"),
                "--jobs", "1"]

    def digest(self, out, result):
        with open(os.path.join(out, "scores.json")) as fh:
            report = json.load(fh)
        (song,) = report["songs"].values()
        digest = {src: res["windows"] for src, res in song.items()}
        problems = []
        if sorted(digest) != sorted(self.sources + ("accompaniment",)):
            problems.append("scored %s" % sorted(digest))
        for src, windows in digest.items():
            if not windows or not all(np.isfinite(v) for w in windows for v in w.values()):
                problems.append("%s has no finite scores" % src)
        return digest, problems

    def compare(self, digest, ref):
        problems = []
        for src, windows in ref.items():
            got = digest.get(src, [])
            if len(got) != len(windows):
                problems.append("%s: %d windows, reference %d"
                                % (src, len(got), len(windows)))
                continue
            for g, w in zip(got, windows):
                err = max(abs(g[k] - w[k]) for k in w)
                if not err <= SCORE_ATOL_DB:
                    problems.append("%s off the reference by %.3g dB" % (src, err))
        return problems


WORKLOADS = {w.name: w for w in (SeparateFull, TrainReduced, EvaluateToy)}


def read_samples(path):
    """(channels, samples) float64 in [-1, 1], read without stemsep."""
    _, data = wavfile.read(path)
    if data.dtype == np.int16:
        data = data / 32768.0
    return np.asarray(data, dtype=np.float64).T


# ---------------------------------------------------------------------------
# children


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(mode, argv, work, index):
    """Run one command in a fresh child; returns its result dict, or None
    with a message on stderr when it failed."""
    request = os.path.join(work, "request-%d.json" % index)
    result = os.path.join(work, "result-%d.json" % index)
    with open(request, "w") as fh:
        json.dump({"argv": argv, "mode": mode, "src": SRC, "result": result}, fh)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), request]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(t_spawn)], env=child_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("child %d timed out after %d s" % (index, CHILD_TIMEOUT_S), file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.isfile(result):
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
        print("child %d exited %d: %s" % (index, proc.returncode, " | ".join(tail)),
              file=sys.stderr)
        return None
    with open(result) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# host facts


def blas_threads():
    """Thread counts reported by each OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and line.rstrip().endswith(".so")})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def numpy_probe():
    """Median seconds of a fixed GEMM and a fixed large copy."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512))
    big = rng.standard_normal(1 << 23)  # 64 MiB
    gemm, copy = [], []
    for _ in range(9):
        t = time.perf_counter()
        a @ a
        gemm.append(time.perf_counter() - t)
        t = time.perf_counter()
        big.copy()
        copy.append(time.perf_counter() - t)
    return {"gemm_512_f64_s": statistics.median(gemm),
            "copy_64MiB_s": statistics.median(copy)}


def host_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "cpus": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "probe": numpy_probe(),
    }


# ---------------------------------------------------------------------------
# measurement


class Run:
    def __init__(self, workload, reference, work, seconds):
        self.workload = workload
        self.reference = reference
        self.work = work
        self.deadline = time.monotonic() + seconds
        self.attempted = 0
        self.failed = 0
        self.index = 0

    def command(self, mode):
        """Run the workload's command once; the child result if it ran
        and its outputs check out, else None."""
        self.attempted += 1
        self.index += 1
        out = os.path.join(self.work, "out-%d" % self.index)
        os.makedirs(out)
        result = spawn(mode, self.workload.argv(out), self.work, self.index)
        if result is None or result["rc"] != 0:
            self.failed += 1
            return None
        if mode != "setup":
            try:
                digest, problems = self.workload.digest(out, result)
            except (OSError, ValueError, KeyError) as exc:
                digest, problems = None, ["unreadable output: %r" % exc]
            if not problems:
                problems = self.workload.compare(digest, self.reference)
            if problems:
                print("check failed: %s" % "; ".join(problems), file=sys.stderr)
                self.failed += 1
                return None
            result["rtf"] = result["work_s"] / self.workload.audio_s
        shutil.rmtree(out)
        return result

    def repeat(self, modes, results, took=None):
        """Run one command per mode, in turn, until the next one would
        overrun the time; the first of a mode whose duration is not in
        ``took`` always runs. Appends the results of the commands that
        passed to ``results[mode]``."""
        took = dict(took or {})
        while True:
            for mode in modes:
                if mode in took and time.monotonic() + took[mode] > self.deadline:
                    return
                start = time.monotonic()
                r = self.command(mode)
                took[mode] = time.monotonic() - start
                if r:
                    results[mode].append(r)


def measure(run):
    """End-to-end metrics. Whole commands use the time first; set-up
    probes, each about as long as a command's set-up, fill what is left."""
    results = {"run": [], "setup": []}
    run.repeat(("run",), results)
    whole = results["run"]
    if not whole:
        return None, {}
    run.repeat(("setup",), results, took={"setup": max(r["setup_s"] for r in whole)})
    samples = {
        "rtf": [r["rtf"] for r in whole],
        "setup_s": [r["setup_s"] for r in whole + results["setup"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in whole],
    }
    units = {"rtf": "s/s", "setup_s": "s", "peak_rss_mb": "MiB"}
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items()}
    return metrics, samples


def measure_trace(run):
    """Per-layer metrics: medians over traced commands, each paired with
    an untraced one for the tracing overhead."""
    from tracer import PER_LAYER

    results = {"run": [], "trace": []}
    run.repeat(("run", "trace"), results)
    plain, traced = results["run"], results["trace"]
    if not plain or not traced:
        return None, {}
    samples = {"rtf_untraced": [r["rtf"] for r in plain],
               "rtf_traced": [r["rtf"] for r in traced]}
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_rtf":
            value = (statistics.median(samples["rtf_traced"])
                     - statistics.median(samples["rtf_untraced"]))
        else:
            value = statistics.median(r["trace"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stemsep", "cli.py")):
        fail("no stemsep sources under %s; run from the root of a checkout" % SRC)
    sys.path.insert(0, SRC)
    import stemsep.cli  # noqa: F401  (fills the bytecode cache before timing)

    variant = args.seed % VARIANTS
    with open(REFERENCE) as fh:
        reference = json.load(fh)[args.workload][str(variant)]

    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        print(json.dumps({"host": host_facts()}), flush=True)
        workload = WORKLOADS[args.workload](work, variant)
        run = Run(workload, reference, work, args.seconds)
        metrics, samples = (measure_trace if args.trace else measure)(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        fail("no command of %s completed (%d attempted)"
             % (args.workload, run.attempted))
    print(json.dumps({"samples": samples, "error_rate": run.failed / run.attempted}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
