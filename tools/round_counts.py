"""Count the rounds of ``LineTable.answer`` in the jobs of the three
``bench/run.py`` workloads at seed 7, the requests those rounds answer, the
calls and points of the trace-loss metrics, and the stacked network calls
and the parameter points they stack.

A round is one ``LineTable.answer`` call, and a request one entry of the
lists it answers: an F, an F' or a direction gradient, one stacked row
each.  Grid rounds are those of the lockstep training grid's table; probe
rounds those of a ``DirectionalProbe``, a table of one line, such as the
direction search of ``gols scan``.  A metrics call is one call of the
closure ``gols.trainer.dataset_metrics`` returns, and its points the rows of
the stack it measures.  A net call is one call of ``Network._losses`` or
``Network._losses_and_gradients``, a forward pass or a backprop of a stack
of parameter points, its points; every evaluation of a job, a metric's
included, goes through one of them.  Prints one line per job:

    <workload>  grid <rounds> rounds / <requests> requests  probe <rounds> rounds / <requests> requests  metrics <calls> calls / <points> points  net <calls> calls / <points> points

Run it as

    python tools/round_counts.py [checkout root]

As with ``output_digest.py``, the root defaults to the checkout this file
lives in, and its ``src/`` and ``bench/run.py`` are the ones used, so the
counts of two checkouts (say, a change and its parent) can be compared.
"""

import sys
import tempfile
from pathlib import Path

from output_digest import bench_jobs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    from gols.cli import main as gols_main
    from gols import trainer
    from gols.net import Network
    from gols.probe import DirectionalProbe, LineTable

    answer, dataset_metrics = LineTable.answer, trainer.dataset_metrics
    counts = {}

    def counting_net(method):
        def counted(net, points, *args):
            counts["net"][0] += 1
            counts["net"][1] += len(points)
            return method(net, points, *args)
        return counted

    def counting(table, model, pending):
        tally = counts["probe" if isinstance(table, DirectionalProbe) else "grid"]
        tally[0] += 1
        tally[1] += sum(map(len, pending.values()))
        return answer(table, model, pending)

    def counting_metrics(*args):
        metrics = dataset_metrics(*args)

        def measure(points):
            counts["metrics"][0] += 1
            counts["metrics"][1] += len(points)
            return metrics(points)
        return measure

    net_calls = Network._losses, Network._losses_and_gradients
    LineTable.answer, trainer.dataset_metrics = counting, counting_metrics
    Network._losses, Network._losses_and_gradients = map(counting_net, net_calls)
    failed = 0
    try:
        with tempfile.TemporaryDirectory() as scratch:
            for name, job in bench_jobs(root).items():
                counts.update(grid=[0, 0], probe=[0, 0], metrics=[0, 0], net=[0, 0])
                code = gols_main(job + ["--out", str(Path(scratch) / name)])
                if code != 0:
                    print(f"{name}: exit code {code}")
                    failed += 1
                    continue
                grid, probe, metrics, net = counts.values()
                print(f"{name}  grid {grid[0]} rounds / {grid[1]} requests  "
                      f"probe {probe[0]} rounds / {probe[1]} requests  "
                      f"metrics {metrics[0]} calls / {metrics[1]} points  "
                      f"net {net[0]} calls / {net[1]} points")
    finally:  # a caller in the same process, a test say, gets the originals back
        LineTable.answer, trainer.dataset_metrics = answer, dataset_metrics
        Network._losses, Network._losses_and_gradients = net_calls
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
