"""Print one SHA-256 per output file of a fixed set of ``gols`` CLI jobs.

The jobs cover every command and every file it writes: ``train`` under each
probe policy with all five kinds of resolver, ``scan`` under each policy,
``compare``, and the jobs of the three ``bench/run.py`` workloads at seed 7.
Each line reads ``<sha256>  <job>/<file>``.  Two checkouts write the same
bytes when the outputs of

    python tools/output_digest.py [checkout root]

agree; the root defaults to the checkout this file lives in, and its
``src/`` and ``bench/run.py`` are the ones used, so a tool from one checkout
can digest another (say, the parent of a change).
"""

import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

POLICIES = ("resample", "fixed", "full")
TRAIN = ["train", "--dataset", "blobs", "--arch", "3,3",
         "--resolver", "gs,arls,bgols,igols,fixed:0.1",
         "--repeats", "2", "--iterations", "20", "--seed", "7"]
SCAN = ["scan", "--dataset", "iris", "--batch-sizes", "1,10,50,full",
        "--repeats", "3", "--scan-steps", "40", "--seed", "7"]
COMPARE = ["compare", "--dataset", "blobs", "--resolver", "gs,igols,fixed:0.1",
           "--repeats", "2", "--iterations", "20", "--seed", "7"]
BENCH_SEED = 7


def jobs(root) -> dict:
    """``{job name: argv without --out}``."""
    listed = {}
    for policy in POLICIES:
        listed[f"train-{policy}"] = TRAIN + ["--policy", policy]
        listed[f"scan-{policy}"] = SCAN + ["--policy", policy]
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
