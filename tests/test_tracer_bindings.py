"""The benchmark tracer patches ``gols`` names where their callers look them
up (``bench/tracer.py``).  Renaming or dropping one of those bindings breaks
``bench/run.py --trace 1`` with a ``KeyError``; this test catches that in the
ordinary suite, and checks that the tracer's undo restores every name."""

import importlib.util
import inspect
from pathlib import Path

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
    # The tracer reads each run's iteration count from what sgd_train
    # returns, so this fails if the trace loses its rows.
    tracer = _load_tracer().Tracer()
    restore = tracer.install()
    try:
        traced_main = tracer.wrap("cli.main", cli.main)
        assert traced_main(["train", "--dataset", "iris", "--resolver", "gs,igols",
                            "--repeats", "2", "--iterations", "5",
                            "--out", str(tmp_path)]) == 0
    finally:
        restore()
    summary = tracer.summarize()
    assert summary["trainer.iterations"] == 20
    assert summary["linesearch.gs.searches"] == 10
    assert summary["linesearch.igols.searches"] == 10
