"""Benchmark of the ``gols`` command line, driven in process.

Run from the repository root:

    python3 bench/run.py --workload train-exact --seed 0 --seconds 30 --trace 0

Each run calls ``gols.cli.main`` with the workload's arguments and
``--seed <seed>``, single-process and single-threaded (``GOLS_THREADS``
unset, one BLAS thread), and checks every output file the CLI writes.
Repeated jobs of one seed must write byte-identical files.

``--trace 0`` repeats the job for ``--seconds`` after one short untimed
warm-up and reports the end-to-end metrics: steps per second (a step is one
training iteration, or one scan node) over all jobs, scaled by the speed of
the host measured between jobs (see ``Calibration``), the median set-up time
of fresh interpreters that import ``gols.cli`` and build the dataset, split
and network, and the peak resident memory of this process.

``--trace 1`` alternates untraced and traced jobs of the same seed and
reports the per-layer metrics of the traced ones (see ``tracer.py``) and the
tracing overhead.  Counts must repeat exactly between traced jobs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; attempted and failed
count cells, where a cell is one (resolver, repeat) training run or one scan.
Metric names and units come from ``BENCHMARK.json`` at the repository root.
The program exits with code 2, printing no result, when it cannot import
``gols`` from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
MIN_JOBS = 3
# Host-speed calibration (see Calibration): work per unit, calibration time
# after each job as a share of the job's, and the unit time, about that of a
# quiet 2-vCPU x86-64 host with CPython 3.11 and numpy 2.4, to which
# steps_per_s is scaled.  Jobs are about a second long so that calibration
# samples the host close to when the jobs ran.
CALIBRATION_PASSES = 1000
CALIBRATION_SHARE = 0.5
CALIBRATION_REFERENCE_S = 0.037
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Runs in a fresh interpreter, so that the import of gols.cli (and numpy
# under it) is paid as a user pays it.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import gols.cli
from gols.data import builtin_dataset, split_3_1_1
from gols.net import Network
dataset = builtin_dataset(sys.argv[2])
split = split_3_1_1(dataset, seed=(int(sys.argv[4]), 9))
net = Network(dataset.num_features, [int(w) for w in sys.argv[3].split(",")],
              dataset.class_count)
print(repr(time.perf_counter() - t0))
"""


@dataclass(frozen=True)
class Workload:
    """One CLI job, repeated.  ``steps`` counts its training iterations or
    scan nodes, the unit of the throughput metric."""

    command: str
    dataset: str
    arch: str
    repeats: int
    resolvers: tuple = ()
    iterations: int = 0
    batch_sizes: tuple = ()
    scan_steps: int = 100

    def argv(self, seed, out, short=False) -> list:
        repeats = 1 if short else self.repeats
        args = [self.command, "--dataset", self.dataset, "--arch", self.arch,
                "--policy", "resample", "--repeats", str(repeats),
                "--seed", str(seed), "--out", str(out)]
        if self.command == "train":
            iterations = min(self.iterations, 10) if short else self.iterations
            return args + ["--resolver", ",".join(self.resolvers), "--batch-size", "10",
                           "--iterations", str(iterations)]
        return args + ["--batch-sizes", ",".join(map(str, self.batch_sizes)),
                       "--scan-steps", str(self.scan_steps)]

    @property
    def steps(self) -> int:
        if self.command == "train":
            return len(self.resolvers) * self.repeats * self.iterations
        return len(self.batch_sizes) * self.repeats * (self.scan_steps + 1)

    @property
    def step_name(self) -> str:
        return "iters_per_s" if self.command == "train" else "nodes_per_s"

    def cells(self) -> set:
        if self.command == "train":
            return checks.train_cells(self.resolvers, self.repeats)
        return checks.scan_cells(self.batch_sizes, self.repeats)

    def check(self, out) -> set:
        if self.command == "train":
            return checks.check_train(out, self.resolvers, self.repeats, self.iterations)
        return checks.check_scan(out, self.batch_sizes, self.repeats, self.scan_steps)


# Why each workload: see BENCHMARK.json.
WORKLOADS = {
    "train-exact": Workload("train", "blobs", "3,3", repeats=8,
                            resolvers=("bgols", "gs"), iterations=25),
    "train-inexact": Workload("train", "blobs", "3,3", repeats=4,
                              resolvers=("igols", "arls"), iterations=125),
    "scan-study": Workload("scan", "iris", "3", repeats=12,
                           batch_sizes=(1, 10, 30, 50)),
}


class Jobs:
    """Runs CLI jobs of one workload and seed and checks what they write.

    The first successful job is checked file by file; a later job passes
    when it wrote the same bytes, and then shares the first job's verdict.
    A nonzero exit fails every cell of its job.
    """

    def __init__(self, workload, seed, scratch):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.attempted = self.failed = self.output_bytes = 0
        self._reference = None
        self._reference_failed = set()
        self._count = 0

    def warm_up(self, main) -> None:
        """One short untimed job, so that lazy set-up is done before timing."""
        main(self.workload.argv(self.seed, self.scratch / "warmup", short=True))
        shutil.rmtree(self.scratch / "warmup", ignore_errors=True)

    def run(self, main) -> float:
        """Wall seconds of one job, checked."""
        out = self.scratch / f"job{self._count}"
        self._count += 1
        argv = self.workload.argv(self.seed, out)
        t0 = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - t0
        cells = self.workload.cells()
        if code != 0:
            bad = cells
        elif self._reference is None:
            self._reference = checks.digest(out)
            self._reference_failed = bad = self.workload.check(out)
            self.output_bytes = checks.output_bytes(out)
        else:
            bad = self._reference_failed if checks.digest(out) == self._reference else cells
        self.attempted += len(cells)
        self.failed += len(bad)
        shutil.rmtree(out, ignore_errors=True)
        return wall


def setup_seconds(workload, seed) -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), workload.dataset,
         workload.arch, str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def quartiles(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", q1 {q1:.4g}, q3 {q3:.4g}"


class Calibration:
    """Fixed work that uses no ``gols`` code, in the mix the workloads make:
    forward and backward passes of a small sigmoid network in numpy on
    10-row batches and on a 150-row partition, scalar Python arithmetic as
    in a line search's bracketing loop, and CSV-style formatting of floats.
    Timed between jobs, it tracks the speed of a shared host, which can
    drift by a fifth within seconds and by half within a minute while the
    CPU time of a job stays equal to its wall time."""

    def __init__(self):
        import numpy

        self.np = numpy
        rng = numpy.random.default_rng(0)
        self.batches = [(rng.standard_normal((rows, 4)), rng.uniform(size=(rows, 3)))
                        for rows in (10, 150)]
        self.weights = [rng.uniform(-0.5, 0.5, size=shape)
                        for shape in ((4, 3), (3, 3), (3, 3))]

    def unit(self) -> float:
        """Wall seconds of one fixed unit of work."""
        np, (w1, w2, w3) = self.np, self.weights
        t0 = time.perf_counter()
        total = 0.0
        for (x, y), passes in zip(self.batches, (CALIBRATION_PASSES, CALIBRATION_PASSES // 10)):
            for _ in range(passes):
                a = 1.0 / (1.0 + np.exp(-(x @ w1)))
                b = 1.0 / (1.0 + np.exp(-(a @ w2)))
                out = 1.0 / (1.0 + np.exp(-(b @ w3)))
                delta = (out - y) * out * (1.0 - out)
                grad = b.T @ delta
                delta = (delta @ w3.T) * b * (1.0 - b)
                total += float(np.sum(delta * delta)) + float(grad[0, 0] + (a.T @ delta)[0, 0])
        bracket = {}
        for i in range(CALIBRATION_PASSES * 8):
            low, high = 0.0, 1.0 + (i % 7)
            probe = high - GOLDEN * (high - low)
            bracket[i & 255] = probe
            total += bracket.get((i * 7) & 255, 0.0) * 1e-9
        lines = [",".join(repr(v * total) for v in (i, 0.5, GOLDEN, 1e-3))
                 for i in range(CALIBRATION_PASSES)]
        if not math.isfinite(total) or not lines[-1]:
            raise RuntimeError("calibration work produced a non-finite value")
        return time.perf_counter() - t0

    def run_for(self, seconds) -> list:
        """Unit times of at least ``seconds`` of calibration work."""
        times = [self.unit()]
        while sum(times) < seconds:
            times.append(self.unit())
        return times


def timed_run(main, workload, seed, seconds, jobs) -> dict:
    """Jobs alternate with calibration work, CALIBRATION_SHARE of each job's
    time.  ``steps_per_s`` is the steps of all jobs over their wall time,
    scaled to a host that runs a calibration unit in CALIBRATION_REFERENCE_S:
    multiplied by the mean unit time over that reference."""
    setups = [setup_seconds(workload, seed) for _ in range(SETUP_REPEATS)]
    calibration = Calibration()
    jobs.warm_up(main)
    calibration.run_for(0.2)
    walls, units = [], []
    began = time.perf_counter()
    while True:
        walls.append(jobs.run(main))
        units.extend(calibration.run_for(CALIBRATION_SHARE * walls[-1]))
        elapsed = time.perf_counter() - began
        pair = statistics.median(walls) * (1 + CALIBRATION_SHARE)
        if len(walls) >= MIN_JOBS and elapsed + pair > seconds:
            break
    rates = [workload.steps / wall for wall in walls]
    measured = workload.steps * len(walls) / sum(walls)
    slowness = statistics.fmean(units) / CALIBRATION_REFERENCE_S
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{workload.step_name} {measured:.6g} 1/s as measured "
          f"({len(rates)} jobs of {workload.steps} steps{quartiles(rates)})")
    print(f"host slowness {slowness:.6g} (mean of {len(units)} calibration units "
          f"over {CALIBRATION_REFERENCE_S:g} s{quartiles(units)})")
    print(f"steps_per_s {measured * slowness:.6g} 1/s at reference host speed")
    print(f"setup_s {statistics.median(setups):.6g} s "
          f"(median of {len(setups)} fresh interpreters{quartiles(setups)})")
    print(f"peak_rss_mb {rss_mb:.6g} MB")
    return {"steps_per_s": measured * slowness,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb}


# Per-call costs in the ROADMAP baseline (untraced, blobs 4-3-3-3, batch 10,
# 2 cores, CPython 3.11, numpy 2.4), printed next to the traced medians.
ROADMAP_BASELINE_US = {"net.gradient.us_p50": 104.0, "net.loss.us_p50": 63.0,
                       "trainer.metrics.us_p50": 170.0, "data.sample.us_p50": 8.0}

COUNT_SUFFIXES = (".calls", ".info_calls", ".searches", ".iterations", ".scans",
                  ".info_calls_per_search", ".rows_per_call")


def traced_run(main, workload, seed, seconds, jobs):
    """Per-layer metrics and whether their counts repeated exactly."""
    # Imported here, after main() has fixed the BLAS thread count: the
    # tracer imports numpy.
    from tracer import Tracer

    jobs.warm_up(main)
    untraced, traced, summaries = [], [], []
    began = time.perf_counter()
    while True:
        untraced.append(jobs.run(main))
        tracer = Tracer()
        restore = tracer.install()
        try:
            traced.append(jobs.run(tracer.wrap("cli.main", main)))
        finally:
            restore()
        summaries.append(tracer.summarize())
        elapsed = time.perf_counter() - began
        pair = statistics.median(untraced) + statistics.median(traced)
        if len(traced) >= 2 and elapsed + pair > seconds:
            break

    metrics = {}
    for key, value in summaries[0].items():
        if key.endswith(COUNT_SUFFIXES):
            metrics[key] = value
        else:
            metrics[key] = statistics.median(s[key] for s in summaries)
    counts_repeat = all(s[key] == summaries[0][key] for s in summaries
                        for key in summaries[0] if key.endswith(COUNT_SUFFIXES))
    metrics["cli.output_bytes"] = jobs.output_bytes
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(untraced) - 1.0)
    print(f"traced {len(traced)} jobs against {len(untraced)} untraced; "
          f"counts repeat exactly: {counts_repeat}")
    for name, reference in ROADMAP_BASELINE_US.items():
        measured = metrics[name]
        verdict = (f"{measured / reference:.2f}x the ROADMAP baseline" if measured
                   else "not exercised by this workload")
        print(f"baseline {name}: traced {measured:.4g} us, ROADMAP untraced "
              f"{reference:g} us: {verdict}")
    return metrics, counts_repeat


def tree_digest(directory) -> str:
    """SHA-256 over the relative paths and bytes of the files under a
    directory; identifies the source when the checkout has no git data."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_info(seed) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
        blas_config = blas.get("openblas configuration", "")
    except (TypeError, KeyError):
        blas_text, blas_config = "unknown", ""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "numpy": numpy.__version__, "blas": blas_text, "blas_config": blas_config,
            "commit": commit, "source_sha256": tree_digest(SRC / "gols"),
            "seed": seed}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("GOLS_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import gols
        from gols.cli import main as cli_main
    except ImportError as exc:
        print(f"bench: cannot import gols from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(gols.__file__).resolve().parent != SRC / "gols":
        print(f"bench: gols was imported from {gols.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    jobs = Jobs(workload, args.seed, scratch)
    print(f"bench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("machine: " + json.dumps(machine_info(args.seed)))
    counts_repeat = True
    try:
        if args.trace:
            values, counts_repeat = traced_run(cli_main, workload, args.seed,
                                               args.seconds, jobs)
        else:
            values = timed_run(cli_main, workload, args.seed, args.seconds, jobs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {sorted(missing)}")
    if args.trace:
        for m in declared:
            print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(f"failed_ratio {jobs.failed / jobs.attempted:.6g} "
          f"({jobs.failed} of {jobs.attempted} cells)")
    print(json.dumps({
        "correct": jobs.failed == 0 and counts_repeat,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
