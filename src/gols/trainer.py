"""Mini-batch steepest descent with line-search-resolved step sizes.

Each iteration draws a fresh batch, computes the descent direction as the
negative batch gradient, resolves the step size through a
:class:`~gols.probe.DirectionalProbe`, and steps.  A run's trace is one
preallocated record array with one row per iteration plus an initial row;
its fields are :data:`TRACE_COLUMNS`, the columns of a trace CSV.  Losses
are measured on the full partitions and are not charged to the optimizer.
The ``cost`` and ``info_calls`` columns are the running totals of one
:class:`~gols.probe.EvalCounter`: the direction gradient of every iteration
plus whatever its search spent.

A run is an ask/tell generator: it asks for its metrics and for losses
and gradients of the objective, and is sent the answers.  A loss answers an
F request of its search and a gradient a direction gradient or an F'
request, whose slope the run's probe takes itself.  Runs of a grid go in
lockstep.  Each round takes the pending request of every active run and
answers them in stacked calls: one of the metrics for every metric
request, and one of the objective for the requests of each sample shape, a
backprop if any of them asks for a gradient, else a forward pass alone.
Every run keeps its own probe and sampler, so its samples are drawn in the
same order as when it trains alone; :func:`sgd_train` is the grid of one
run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gols.data import BatchSampler, Dataset, Split
from gols.linesearch import ALPHA_MIN, effective_alpha_max, make_search
from gols.net import Network
from gols.probe import POLICIES, BatchObjective, DirectionalProbe, EvalCounter

__all__ = [
    "TRACE_COLUMNS",
    "TrainTrace",
    "TrainConfig",
    "sgd_train",
    "dataset_metrics",
    "train_on_dataset",
]

# One trace row; the field order is the CSV column order.
_TRACE_DTYPE = np.dtype([
    ("iteration", np.int64), ("alpha", float), ("grad_norm", float),
    ("train_loss", float), ("validation_loss", float), ("test_loss", float),
    ("cost", np.int64), ("info_calls", np.int64),
])
TRACE_COLUMNS = _TRACE_DTYPE.names


@dataclass
class TrainTrace:
    """Per-iteration training record: ``rows`` is a record array whose row 0
    is the pre-loop state, so ``rows.alpha`` is a column and ``rows[i].alpha``
    one cell."""

    rows: np.recarray

    def column(self, name) -> np.ndarray:
        return self.rows[name]

    @property
    def final(self) -> np.record:
        return self.rows[-1]

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 3000
    batch_size: int = 10
    resolver: str = "igols"
    policy: str = "resample"
    weight_seed: object = 0
    sampler_seed: object = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if isinstance(self.resolver, str):
            make_search(self.resolver)  # raises ValueError on an unknown name
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")


def sgd_train(model, x0, sampler, resolver, iterations, metrics,
              policy="resample") -> TrainTrace:
    """Run steepest descent for a fixed number of iterations.

    Parameters
    ----------
    model:
        Objective with ``loss(x, sample)`` / ``grad(x, sample)`` and their
        stacked forms ``losses(points, samples)`` /
        ``losses_and_gradients(points, samples)`` (see :mod:`gols.probe`).
    x0:
        Starting parameter vector.
    sampler:
        Batch (or key) stream; consumed for the direction gradient and, under
        the resample policy, for every probe evaluation.
    resolver:
        Resolver name (see :func:`gols.linesearch.make_search`) or a
        callable ``(probe, alpha_init, alpha_max) -> LineSearchOutcome``,
        which evaluates through the probe itself.
    iterations:
        Number of descent steps; the trace gains one row per step plus the
        initial row.
    metrics:
        Callable from an ``(R, num_params)`` stack of points to the
        ``(R, 3)`` full-partition train, validation and test losses.
    policy:
        Probe sampling policy; ``fixed`` freezes each search on the batch
        that produced its direction gradient.
    """
    run = _descend(model, x0, sampler, resolver, iterations, policy)
    return _lockstep(model, metrics, [run])[0]


def _descend(model, x0, sampler, resolver, iterations, policy):
    """One run of :func:`sgd_train` as an ask/tell generator.

    Yields ``(kind, point, sample)`` requests: ``metrics`` at ``point``, the
    direction gradient ``grad`` at ``point`` on ``sample``, and the ``value``
    and ``grad`` requests of its searches (see
    :meth:`~gols.probe.DirectionalProbe.serve`).  Returns the
    :class:`TrainTrace`.
    """
    search = make_search(resolver) if isinstance(resolver, str) else None
    x = np.array(x0, dtype=float)

    rows = np.recarray(iterations + 1, dtype=_TRACE_DTYPE)
    spent = EvalCounter()
    losses = yield "metrics", x, None
    rows[0] = (0, 0.0, np.nan, *losses, spent.cost, spent.info_calls)

    alpha_prev = ALPHA_MIN
    for n in range(1, iterations + 1):
        batch = sampler.sample()
        g = yield "grad", x, batch
        spent.gradients += 1
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite gradient at iteration {n}")
        gnorm = float(np.linalg.norm(g))

        if gnorm == 0.0:
            alpha = 0.0  # converged on this batch: nothing to search along
        else:
            probe = DirectionalProbe(model, x, -g, policy=policy, sampler=sampler,
                                     fixed_sample=batch if policy == "fixed" else None)
            alpha_max = effective_alpha_max(gnorm)
            alpha_init = min(max(alpha_prev, ALPHA_MIN), alpha_max)
            if search is None:
                outcome = resolver(probe, alpha_init, alpha_max)
            else:
                outcome = yield from probe.serve(search(alpha_init, alpha_max))
            alpha = alpha_prev = outcome.alpha
            spent.functions += outcome.function_evals
            spent.gradients += outcome.gradient_evals
            x = x - alpha * g

        if not np.isfinite(alpha) or not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite step at iteration {n}")
        losses = yield "metrics", x, None
        if not np.all(np.isfinite(losses)):
            raise RuntimeError(f"non-finite loss at iteration {n}")
        rows[n] = (n, alpha, gnorm, *losses, spent.cost, spent.info_calls)
    return TrainTrace(rows)


def _lockstep(model, metrics, runs) -> list:
    """Drive the :func:`_descend` generators ``runs`` to their traces, one
    :class:`TrainTrace` per run, in order.

    A run that raises stops, and so do the runs after it; the exception of
    the first run that raised is re-raised once the runs before it have
    finished, the one a run-by-run loop would have raised.
    """
    traces = [None] * len(runs)
    failed, error = len(runs), None
    replies = dict.fromkeys(range(len(runs)))
    while replies:
        pending = {}
        for i, reply in replies.items():
            if i > failed:
                continue
            try:
                pending[i] = runs[i].send(reply)
            except StopIteration as done:
                traces[i] = done.value
            except Exception as exc:
                failed, error = i, exc
        replies = _answer_round(model, metrics, {
            i: request for i, request in pending.items() if i < failed})
    if error is not None:
        raise error
    return traces


def _answer_round(model, metrics, pending) -> dict:
    """Replies to one round's ``{run: (kind, point, sample)}``.

    A group is the metric requests, or the ``value`` and ``grad`` requests
    of one sample shape, and each group takes one stacked call: ``metrics``,
    a backprop (``model.losses_and_gradients``) when any request of the
    group asks for a gradient, which also gives the losses of its ``value``
    requests, else a forward pass alone (``model.losses``).
    """
    groups = {}
    for i, (kind, _, sample) in pending.items():
        shape = None if sample is None else np.shape(sample)
        groups.setdefault(kind if kind == "metrics" else shape, []).append(i)
    replies = {}
    for key, runs in groups.items():
        kinds = [pending[i][0] for i in runs]
        points = np.array([pending[i][1] for i in runs])
        samples = [pending[i][2] for i in runs]
        if key == "metrics":
            replies.update(zip(runs, metrics(points)))
        elif "grad" in kinds:
            losses, grads = model.losses_and_gradients(points, samples)
            replies.update((i, grad if kind == "grad" else loss)
                           for i, kind, loss, grad in zip(runs, kinds, losses, grads))
        else:
            replies.update(zip(runs, model.losses(points, samples)))
    return replies


def dataset_metrics(net: Network, dataset: Dataset, split: Split):
    """Full-partition train/validation/test losses as a function of a stack
    of parameter points: ``(R, num_params) -> (R, 3)``, from one forward
    pass over the rows of all three partitions."""
    parts = (split.train, split.validation, split.test)
    rows = np.concatenate(parts)
    inputs, targets = dataset.features[rows][None], dataset.one_hot()[rows][None]
    sections = np.cumsum([len(part) for part in parts[:-1]])

    def metrics(points):
        return net.losses(points, inputs, targets, sections)

    return metrics


def train_on_dataset(net: Network, dataset: Dataset, split: Split,
                     configs) -> list:
    """Train one run per config of the sequence ``configs`` on one network
    and dataset split, all in lockstep; one :class:`TrainTrace` per config,
    in order."""
    model = BatchObjective(net, dataset.features[split.train],
                           dataset.one_hot()[split.train])
    runs = [
        _descend(model, net.init_params(config.weight_seed),
                 BatchSampler(np.arange(len(split.train)), config.batch_size,
                              config.sampler_seed),
                 config.resolver, config.iterations, config.policy)
        for config in configs
    ]
    return _lockstep(model, dataset_metrics(net, dataset, split), runs)
