"""Print one SHA-256 per output file of a fixed set of ``gols`` CLI jobs,
and one per demo's standard output.

The jobs cover every command and every file it writes: ``train`` under each
probe policy with all five kinds of resolver, ``scan`` under each policy,
a ``scan`` on two hidden layers with batches down to 2 rows, a ``scan`` of
two batch sizes under ``--policy full``, ``compare``, and the jobs of the
three ``bench/run.py`` workloads at seed 7.  Each line reads
``<sha256>  <job>/<file>``.  Then each ``demos/*.py`` runs in-process, and
its line reads ``<sha256>  demo-<name>/stdout``: 91 lines in all.  Two
checkouts write the same bytes when the outputs of

    python tools/output_digest.py [checkout root]

agree; the root defaults to the checkout this file lives in, and its
``src/``, ``bench/run.py`` and ``demos/`` are the ones used, so a tool from
one checkout can digest another (say, the parent of a change).
"""

import contextlib
import hashlib
import importlib.util
import io
import runpy
import sys
import tempfile
from pathlib import Path

POLICIES = ("resample", "fixed", "full")
TRAIN = ["train", "--dataset", "blobs", "--arch", "3,3",
         "--resolver", "gs,arls,bgols,igols,fixed:0.1",
         "--repeats", "2", "--iterations", "20", "--seed", "7"]
SCAN = ["scan", "--dataset", "iris", "--batch-sizes", "1,10,50,full",
        "--repeats", "3", "--scan-steps", "40", "--seed", "7"]
# Batches of 2, 10 and 50 rows, 50 repeats each, on blobs' 90 partition
# rows and two hidden layers: every scan gathers its batches from the line's
# curves (gols.probe.LineCurves), the smallest at 2 rows, the least at which
# F keeps the bits of a stacked batch.
SCAN_TABLE = ["scan", "--dataset", "blobs", "--arch", "3,3", "--batch-sizes", "2,10,50",
              "--repeats", "50", "--scan-steps", "20", "--seed", "7"]
# Batch sizes 1 and 10 under --policy full, 2 repeats each: 22 sub-sampled
# rows a node, fewer than iris' 90 partition rows, so no curve pass, and
# each size is one stacked full scan that its repeats share.
SCAN_FULL_SIZES = ["scan", "--dataset", "iris", "--policy", "full", "--batch-sizes", "1,10",
                   "--repeats", "2", "--scan-steps", "20", "--seed", "7"]
COMPARE = ["compare", "--dataset", "blobs", "--resolver", "gs,igols,fixed:0.1",
           "--repeats", "2", "--iterations", "20", "--seed", "7"]
BENCH_SEED = 7


def jobs(root) -> dict:
    """``{job name: argv without --out}``."""
    listed = {}
    for policy in POLICIES:
        listed[f"train-{policy}"] = TRAIN + ["--policy", policy]
        listed[f"scan-{policy}"] = SCAN + ["--policy", policy]
    listed["scan-table"] = SCAN_TABLE
    listed["scan-full-sizes"] = SCAN_FULL_SIZES
    listed["compare"] = COMPARE
    for name, argv in bench_jobs(root).items():
        listed[f"bench-{name}"] = argv
    return listed


def bench_jobs(root) -> dict:
    """``{workload name: argv without --out}`` of the workloads of the
    ``bench/run.py`` under ``root``, at seed 7."""
    sys.path.insert(0, str(root / "bench"))  # bench/run.py imports checks
    spec = importlib.util.spec_from_file_location("gols_bench_run", root / "bench" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    listed = {}
    for name, workload in bench.WORKLOADS.items():
        argv = workload.argv(BENCH_SEED, "-")
        at = argv.index("--out")
        listed[name] = argv[:at] + argv[at + 2:]
    return listed


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    from gols.cli import main as gols_main

    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name, job in jobs(root).items():
            out = Path(scratch) / name
            code = gols_main(job + ["--out", str(out)])
            if code != 0:
                print(f"{name}: exit code {code}")
                failed += 1
                continue
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{path.name}")
        for path in sorted((root / "demos").glob("*.py")):
            try:
                stdout = demo_stdout(path)
            except Exception as exc:
                print(f"demo-{path.stem}: {exc!r}")
                failed += 1
                continue
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            print(f"{digest}  demo-{path.stem}/stdout")
    return 1 if failed else 0


def demo_stdout(path) -> str:
    """What the demo script ``path`` prints, run as ``__main__``."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        runpy.run_path(str(path), run_name="__main__")
    return captured.getvalue()


if __name__ == "__main__":
    sys.exit(main())
