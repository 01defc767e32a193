"""Median milliseconds per phase of one ``bench/run.py`` job in a checkout:
drawing batches, the stacked network, the line curves, CSV writing, the
direction search, and the whole job.

    python tools/phase_ms.py [checkout root [workload [jobs]]]

The job is the workload's (default ``scan-study``) at seed 7, as
``output_digest.bench_jobs`` reads it from the checkout's ``bench/run.py``;
it runs ``jobs`` times (default 9) after one untimed warm-up, in process,
and run as a script with one BLAS thread.  Each phase is the time spent in
the functions it names, each timed by a plain ``perf_counter`` wrapper
patched where its callers look it up:

- ``draws``: ``BatchSampler.sample`` and ``BatchSampler.samples``;
- ``stacked_network``: ``Network._losses`` and
  ``Network._losses_and_gradients``;
- ``curves``: making a ``gols.probe.LineCurves`` and its ``batches``; in a
  checkout without them, ``BatchObjective.table_losses_and_gradients``,
  the table path they replace;
- ``csv_writing``: ``write_csv`` as ``gols.cli`` and ``gols.analysis`` bind
  it;
- ``direction_search``: ``gols.cli.scaled_descent_direction``.

A call made inside another timed phase counts to the outer phase alone (the
direction search's network calls are its own), so the phases never overlap
and their sum is at most the total.  The root defaults to the checkout this
file lives in, and its ``src/`` is the one imported, so running the tool
once per checkout gives a before and after table.
"""

import contextlib
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from output_digest import bench_jobs

PHASES = ("draws", "stacked_network", "curves", "csv_writing", "direction_search")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args else Path(__file__).resolve().parents[1]
    workload = args[1] if len(args) > 1 else "scan-study"
    jobs = int(args[2]) if len(args) > 2 else 9
    argv_of_job = bench_jobs(root)[workload]
    sys.path.insert(0, str(root / "src"))
    import gols.analysis
    import gols.cli
    import gols.probe
    from gols.data import BatchSampler
    from gols.net import Network

    curves = getattr(gols.probe, "LineCurves", None)
    targets = [("draws", BatchSampler, "sample"), ("draws", BatchSampler, "samples"),
               ("stacked_network", Network, "_losses"),
               ("stacked_network", Network, "_losses_and_gradients"),
               ("csv_writing", gols.cli, "write_csv"),
               ("csv_writing", gols.analysis, "write_csv"),
               ("direction_search", gols.cli, "scaled_descent_direction")]
    if curves is None:
        targets.append(("curves", gols.probe.BatchObjective, "table_losses_and_gradients"))
    else:
        targets += [("curves", curves, "__init__"), ("curves", curves, "batches")]
    seconds, active = dict.fromkeys(PHASES, 0.0), []

    def timed(phase, function):
        def call(*args, **kwargs):
            if active:
                return function(*args, **kwargs)
            active.append(phase)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[phase] += time.perf_counter() - start
                active.pop()
        return call

    originals = [(owner, name, getattr(owner, name)) for _, owner, name in targets]
    for (phase, owner, name), (_, _, function) in zip(targets, originals):
        setattr(owner, name, timed(phase, function))
    times = {phase: [] for phase in PHASES + ("total",)}
    try:
        with tempfile.TemporaryDirectory() as scratch:
            for k in range(jobs + 1):
                seconds.update(dict.fromkeys(PHASES, 0.0))
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    code = gols.cli.main(argv_of_job + ["--out", str(Path(scratch) / str(k))])
                    total = time.perf_counter() - start
                if code != 0:
                    print(f"{workload}: exit code {code}")
                    return 1
                if k:  # the first job warms up
                    for phase in PHASES:
                        times[phase].append(seconds[phase])
                    times["total"].append(total)
    finally:  # a caller in the same process, a test say, gets the originals back
        for owner, name, function in originals:
            setattr(owner, name, function)
    print(f"{workload} at seed 7, median ms of {jobs} jobs ({root})")
    for phase, values in times.items():
        print(f"{phase:16s} {1e3 * statistics.median(values):8.2f}")
    return 0


if __name__ == "__main__":
    # Before numpy loads its BLAS, which reads them once.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.exit(main())
