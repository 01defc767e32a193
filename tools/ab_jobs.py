"""Time the job of one ``bench/run.py`` workload in two checkouts, A and B,
in alternating pairs.

    python tools/ab_jobs.py A B WORKLOAD PAIRS

Each checkout runs in its own worker process, started once, which imports
``gols`` from the checkout's ``src/`` and the job's arguments from its
``bench/run.py`` at seed 7 (see ``output_digest.bench_jobs``), with one BLAS
thread, and runs one untimed job to warm up.  Then each pair times one job
of each side, A first in even pairs and B first in odd ones, so that a host
whose speed drifts slows both sides alike.  Prints each side's median job
time, the median of the pairs' B/A time ratios and the number of pairs in
which B was faster.
"""

import contextlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from output_digest import bench_jobs


def worker(root, workload) -> None:
    """Answer each line of standard input with the seconds of one job."""
    root = Path(root)
    sys.path.insert(0, str(root / "src"))
    from gols.cli import main as gols_main

    argv = bench_jobs(root)[workload]
    with tempfile.TemporaryDirectory() as scratch:
        for k, _ in enumerate(sys.stdin):
            out = Path(scratch) / str(k)
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = gols_main(argv + ["--out", str(out)])
                seconds = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"{root}: {workload} exited with code {code}")
            print(seconds, flush=True)


def start(root, workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("GOLS_THREADS", None)
    return subprocess.Popen(
        [sys.executable, __file__, "--worker", str(Path(root).resolve()), workload],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)


def job_seconds(process) -> float:
    process.stdin.write("\n")
    process.stdin.flush()
    line = process.stdout.readline()
    if not line:
        raise SystemExit("a worker stopped; see its error above")
    return float(line)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--worker"]:
        worker(*args[1:])
        return 0
    if len(args) != 4:
        print("usage: python tools/ab_jobs.py A B WORKLOAD PAIRS", file=sys.stderr)
        return 2
    a, b, workload, pairs = args[0], args[1], args[2], int(args[3])
    sides = [start(a, workload), start(b, workload)]
    try:
        for side in sides:
            job_seconds(side)
        times = [[], []]
        for pair in range(pairs):
            for s in (0, 1) if pair % 2 == 0 else (1, 0):
                times[s].append(job_seconds(sides[s]))
    finally:
        for side in sides:
            side.stdin.close()
            side.wait()
    ratios = [tb / ta for ta, tb in zip(*times)]
    print(f"{workload}: {pairs} pairs")
    print(f"A median job {statistics.median(times[0]):.4f} s  ({a})")
    print(f"B median job {statistics.median(times[1]):.4f} s  ({b})")
    print(f"median B/A {statistics.median(ratios):.4f}; "
          f"B faster in {sum(r < 1 for r in ratios)} of {pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
