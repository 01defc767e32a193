"""In-memory spans around the public functions of each ``gols`` module.

The tracer patches each name where its caller looks it up, records one span
per call (name, start, end, parent) in flat arrays and aggregates them only
when the run ends, so tracing adds a few appends per call and nothing else.

A span's self time is its duration minus that of its direct children.  A
layer's self time for one of its calls adds the self times of the spans it
made in the same layer, so ``DirectionalProbe.value`` and the
``BatchObjective.loss`` it calls count as one probe call whose self time
excludes the ``net`` and ``data`` work below it.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np

LAYERS = ("cli", "trainer", "analysis", "linesearch", "probe", "data", "net")
RESOLVERS = {"golden_section": "gs", "armijo": "arls",
             "bisection_gols": "bgols", "inexact_gols": "igols"}
PROBE_EVALS = {"probe.value": 1, "probe.deriv": 1, "probe.value_and_deriv": 2}


class Tracer:
    """Span recorder; :meth:`install` patches ``gols`` and returns an undo."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        # One number per span: rows for net calls, alpha for probe
        # evaluations, alpha_max for searches, iterations for sgd_train.
        self.note = array("d")
        self.reasons: dict[int, str] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None, post=None):
        """``fn`` recorded as span ``name``.  ``note(args, kwargs)`` gives the
        span's number; ``post(index, result)`` returns the result to hand
        back to the caller."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, ids, parents = self._stack, self.name_id, self.parent
        starts, ends, notes = self.start, self.end, self.note
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            notes.append(note(args, kwargs) if note else math.nan)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            return post(index, result) if post else result

        return traced

    def install(self):
        """Wrap every traced name of ``gols`` where its caller looks it up;
        returns a function that restores the originals."""
        import gols.analysis
        import gols.cli
        import gols.data
        import gols.linesearch
        import gols.net
        import gols.probe
        import gols.trainer

        def rows(args, kwargs):
            return float(len(args[2]))

        def alpha(args, kwargs):
            return float(args[1])

        def alpha_max(args, kwargs):
            return float(kwargs.get("alpha_max", gols.linesearch.ALPHA_CAP))

        def outcome(index, result):
            self.reasons[index] = result.reason
            return result

        def iterations(index, result):
            self.note[index] = len(result.rows) - 1
            return result

        def metrics_closure(index, result):
            return self.wrap("trainer.metrics", result)

        network, objective = gols.net.Network, gols.probe.BatchObjective
        probe = gols.probe.DirectionalProbe
        targets = [
            # (owner, attribute, span name, note, post)
            (network, "loss", "net.loss", rows, None),
            (network, "gradient", "net.gradient", rows, None),
            (gols.data.BatchSampler, "sample", "data.sample", None, None),
            (gols.data.Dataset, "one_hot", "data.one_hot", None, None),
            (gols.cli, "builtin_dataset", "data.builtin_dataset", None, None),
            (gols.cli, "split_3_1_1", "data.split_3_1_1", None, None),
            (probe, "value", "probe.value", alpha, None),
            (probe, "deriv", "probe.deriv", alpha, None),
            (probe, "value_and_deriv", "probe.value_and_deriv", alpha, None),
            (objective, "loss", "probe.objective_loss", None, None),
            (objective, "grad", "probe.objective_grad", None, None),
            (gols.cli, "train_on_dataset", "trainer.train_on_dataset", None, None),
            (gols.trainer, "sgd_train", "trainer.sgd_train", None, iterations),
            (gols.trainer, "dataset_metrics", "trainer.dataset_metrics", None,
             metrics_closure),
            (gols.cli, "scan_line", "analysis.scan_line", None, None),
            (gols.cli, "write_scan_csv", "analysis.write_scan_csv", None, None),
            (gols.cli, "estimate_ball", "analysis.estimate_ball", None, None),
            (gols.cli, "scaled_descent_direction", "analysis.scaled_descent_direction",
             None, None),
        ]
        # make_resolver's lambdas read the searches from module globals at
        # call time; gols.analysis binds bisection_gols by name.
        for fn_name, short in RESOLVERS.items():
            targets.append((gols.linesearch, fn_name, f"linesearch.{short}",
                            alpha_max, outcome))
        targets.append((gols.analysis, "bisection_gols", "linesearch.bgols",
                        alpha_max, outcome))

        saved = []
        for owner, attr, name, note, post in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, note, post))

        def restore():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return restore

    # -- aggregation ---------------------------------------------------------

    def summarize(self) -> dict:
        """Per-layer metrics of everything recorded, as ``{name: value}``.

        Call after the traced region has ended.  ``busy_share`` and ``share``
        values are over the wall time of the outermost span (``cli.main``).
        """
        n = len(self.start)
        ids = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e3  # microseconds
        note = np.frombuffer(self.note, dtype=np.float64)
        layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        layer = np.array([layer_ids[s.split(".", 1)[0]] for s in self.names])[ids]
        units = np.array([PROBE_EVALS.get(s, 0) for s in self.names])[ids]

        def spans(name):
            return ids == self._name_ids.get(name, -1)

        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child_time

        # Parents precede their children, so one forward pass resolves, per
        # span: the call of its layer it belongs to, whether an ancestor is in
        # the same layer, and its nearest enclosing search.
        owner, outermost = list(range(n)), [True] * n
        search, mask = [-1] * n, [0] * n
        layer_l, ls = layer.tolist(), layer_ids["linesearch"]
        for i, p in enumerate(parent.tolist()):
            if p < 0:
                continue
            mask[i] = mask[p] | (1 << layer_l[p])
            outermost[i] = not (mask[i] >> layer_l[i]) & 1
            if layer_l[p] == layer_l[i]:
                owner[i] = owner[p]
            search[i] = p if layer_l[p] == ls else search[p]
        outermost, search = np.array(outermost, dtype=bool), np.array(search)
        layer_self = np.bincount(owner, weights=own, minlength=n)

        wall = float(dur[spans("cli.main")].sum())
        out = {}

        def busy(name):
            return float(dur[outermost & (layer == layer_ids[name])].sum()) / wall

        def pct(values, q):
            return float(np.percentile(values, q)) if len(values) else 0.0

        for kind in ("loss", "gradient"):
            d = dur[spans(f"net.{kind}")]
            out[f"net.{kind}.calls"] = len(d)
            out[f"net.{kind}.us_p50"] = pct(d, 50)
            out[f"net.{kind}.us_p99"] = pct(d, 99)
        is_net = spans("net.loss") | spans("net.gradient")
        out["net.rows_per_call"] = float(note[is_net].mean()) if is_net.any() else 0.0
        out["net.busy_share"] = busy("net")

        d = dur[spans("data.sample")]
        out["data.sample.calls"] = len(d)
        out["data.sample.us_p50"] = pct(d, 50)
        out["data.busy_share"] = busy("data")

        probe_calls = outermost & (layer == layer_ids["probe"])
        out["probe.calls"] = int(probe_calls.sum())
        out["probe.info_calls"] = int(units.sum())
        out["probe.self_us_p50"] = pct(layer_self[probe_calls], 50)
        out["probe.busy_share"] = busy("probe")

        for short in RESOLVERS.values():
            idx = np.flatnonzero(spans(f"linesearch.{short}"))
            key = f"linesearch.{short}"
            evals = np.isin(search, idx) & (units > 0)
            cap = np.zeros(n)
            cap[idx] = note[idx]
            in_cap = evals & (note <= cap[np.maximum(search, 0)])
            count = len(idx)
            out[f"{key}.searches"] = count
            out[f"{key}.info_calls_per_search"] = (
                float(units[evals].sum()) / count if count else 0.0)
            out[f"{key}.search_us_p50"] = pct(dur[idx], 50)
            out[f"{key}.search_us_p99"] = pct(dur[idx], 99)
            out[f"{key}.self_us_per_search"] = (
                float(layer_self[idx].mean()) if count else 0.0)
            out[f"{key}.in_cap_eval_ratio"] = (
                float(units[in_cap].sum() / units[evals].sum()) if evals.any() else 0.0)
            out[f"{key}.cap_max_share"] = (
                sum(self.reasons[i] == "cap_max" for i in idx) / count if count else 0.0)
        out["linesearch.busy_share"] = busy("linesearch")

        iters = int(note[spans("trainer.sgd_train")].sum())
        metrics = dur[spans("trainer.metrics")]
        trainer_self = float(own[layer == layer_ids["trainer"]].sum())
        out["trainer.iterations"] = iters
        out["trainer.metrics.us_p50"] = pct(metrics, 50)
        out["trainer.metrics.share"] = float(metrics.sum()) / wall
        out["trainer.self_us_per_iter"] = trainer_self / iters if iters else 0.0
        out["trainer.busy_share"] = busy("trainer")

        scans = np.flatnonzero(spans("analysis.scan_line"))
        out["analysis.scans"] = len(scans)
        out["analysis.scan_ms_p50"] = pct(dur[scans], 50) / 1e3
        out["analysis.scan_self_us"] = pct(layer_self[scans], 50)
        out["analysis.write_scan_csv_s"] = float(
            dur[spans("analysis.write_scan_csv")].sum()) / 1e6
        out["analysis.busy_share"] = busy("analysis")

        out["cli.self_s"] = float(layer_self[spans("cli.main")].sum()) / 1e6
        return out
