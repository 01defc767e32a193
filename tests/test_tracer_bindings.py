"""The benchmark tracer patches ``gols`` names where their callers look them
up (``bench/tracer.py``).  Renaming or dropping one of those bindings breaks
``bench/run.py --trace 1`` with a ``KeyError``; this test catches that in the
ordinary suite, and checks that the tracer's undo restores every name."""

import csv
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from gols import analysis, cli, data, linesearch, net, probe, trainer

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
MODULES = (analysis, cli, data, linesearch, net, probe, trainer)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("gols_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every ``gols`` module and every class defined in one."""
    classes = [c for m in MODULES for _, c in inspect.getmembers(m, inspect.isclass)
               if c.__module__ == m.__name__]
    return MODULES + tuple(classes)


def test_install_then_restore_puts_every_name_back():
    before = [(ns, dict(vars(ns))) for ns in _namespaces()]
    restore = _load_tracer().Tracer().install()
    try:
        patched = {f"{ns.__name__}.{name}" for ns, names in before
                   for name, obj in names.items() if vars(ns).get(name) is not obj}
    finally:
        restore()
    assert {"cli.scan_line", "cli.train_on_dataset", "Network.loss"} <= {
        name.removeprefix("gols.") for name in patched}
    for ns, names in before:
        for name, obj in names.items():
            assert vars(ns).get(name) is obj, f"{ns.__name__}.{name} not restored"


def test_traced_training_run_counts_iterations_and_searches(tmp_path):
    # CLI training answers the evaluations of all its runs in stacked calls
    # that the tracer does not wrap, but every sampler draw still passes
    # through it.  Under resample each information call draws exactly one
    # batch: the direction gradient and every search evaluation.
    resolvers = "gs,igols,arls,bgols,fixed:0.1"
    model = probe.SyntheticObjective(lambda x: 0.5 * float(x @ x), lambda x: x)

    def traced_work():
        assert cli.main(["train", "--dataset", "iris", "--resolver", resolvers,
                         "--repeats", "2", "--iterations", "5",
                         "--out", str(tmp_path)]) == 0
        # The tracer reads each run's iteration count from what sgd_train
        # returns, so this fails if the trace loses its rows.  A key stream
        # draws no batches, so the sample count above stays the CLI's.
        trainer.sgd_train(model, np.ones(3), probe.KeyStream(0), "igols", 7,
                          lambda points: np.zeros((len(points), 3)))

    tracer = _load_tracer().Tracer()
    restore = tracer.install()
    try:
        tracer.wrap("cli.main", traced_work)()
    finally:
        restore()
    summary = tracer.summarize()
    traces = sorted(tmp_path.glob("train_*_rep*.csv"))
    assert len(traces) == 10
    info_calls = 0
    for path in traces:
        with open(path, newline="") as fh:
            info_calls += int(list(csv.reader(fh))[-1][-1])
    assert summary["data.sample.calls"] == info_calls
    assert summary["trainer.iterations"] == 7
