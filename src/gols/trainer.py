"""Mini-batch steepest descent with line-search-resolved step sizes.

Each iteration draws a fresh batch, computes the descent direction as the
negative batch gradient, resolves the step size by a line search along it,
and steps.  A run's trace is one preallocated record array with one row per
iteration plus an initial row; its fields are :data:`TRACE_COLUMNS`, the
columns of a trace CSV.  Losses are measured on the full partitions and are
not charged to the optimizer.  The ``cost`` and ``info_calls`` columns are
the running totals of one :class:`~gols.probe.EvalCounter`: the direction
gradient of every iteration plus whatever its search spent.

A run is an ask/tell generator: it asks for the gradient that gives its
direction and for the F and F' requests of its search, a list at a time as
the search lists them (see :mod:`gols.linesearch`), and is sent the answers.
Runs of a grid go in lockstep, their lines held in one
:class:`~gols.probe.LineTable`: each run writes its origin, its direction
and the draw of its sampling policy into its row once per iteration, and
hands its search to the grid with ``yield from``, so its search requests
are the search's own ``(kind, alpha)`` pairs.  Each round takes the pending
list of every active run and answers all their requests
(:meth:`~gols.probe.LineTable.answer`), each search request on a sample
from its run's draw, in stacked calls of the objective, one for the
requests of each sample shape: a backprop if any of them asks for a
gradient or a slope, else a forward pass alone.  So a search's opening
(three requests of Armijo's rule, two of I-GOLS, three or five of golden
section, two or four of B-GOLS) and golden section's first inner pair each
take one round.  The table builds the round's search points and takes its
slopes.  No search reads the trace losses, so they take no round: a run
keeps the points it reaches and measures them itself, up to 16 consecutive
points in one forward pass.
Every run keeps its own sampler, so its samples are drawn in the same order
as when it trains alone; :func:`sgd_train` is the grid of one run.  A
custom resolver is a search factory of the type
:func:`~gols.linesearch.make_search` returns, and a run drives it as it
drives a named one, so every evaluation of every run is a request on its
row of the grid's table.  A search that lists no request, or an entry other
than a pair ``(kind, alpha)`` of a kind ``value`` or ``deriv``, fails its
run with ``ValueError``; the direction gradient's kind is private to
:mod:`gols.probe`, so no search can ask for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gols.data import BatchSampler, Dataset, Split, check_count
from gols.linesearch import ALPHA_MIN, effective_alpha_max, make_search
from gols.net import Network, _pad
from gols.probe import _GRAD, POLICIES, BatchObjective, EvalCounter, LineTable, _draw

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
# The most points of one run that one metrics call measures.  A forward
# pass holds every layer's activations of all its points over all three
# partitions, so a call of 34 points took four times the memory of one of
# 8; calls of up to 16 keep the peak there and measured no slower.
_METRIC_CHUNK = 16


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
        check_count("batch size", self.batch_size)
        _check_run(self.iterations, self.resolver, self.policy)


def _check_run(iterations, resolver, policy) -> None:
    """Raise ``ValueError`` unless a run can train with these settings: a
    whole number of iterations of at least 1, a resolver name or a callable
    search factory, and a sampling policy of :data:`~gols.probe.POLICIES`."""
    check_count("iterations", iterations)
    if isinstance(resolver, str):
        make_search(resolver)  # raises ValueError on an unknown name
    elif not callable(resolver):
        raise ValueError(f"resolver must be a name or a callable, not {resolver!r}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")


def sgd_train(model, x0, sampler, resolver, iterations, metrics,
              policy="resample") -> TrainTrace:
    """Run steepest descent for a fixed number of iterations.

    Parameters
    ----------
    model:
        Objective with the stacked calls ``losses(points, samples)`` and
        ``losses_and_gradients(points, samples)`` (see :mod:`gols.probe`),
        which answer every evaluation of the run.
    x0:
        Starting parameter vector.
    sampler:
        Batch (or key) stream; consumed for the direction gradient and, under
        the resample policy, for every probe evaluation.
    resolver:
        Resolver name, or a custom search factory ``(alpha_init,
        alpha_max) -> search`` of the type
        :func:`gols.linesearch.make_search` returns.  The run drives a
        custom search as it drives a named one: each of its request lists
        takes one round of the grid, and a list that is empty or holds a
        kind other than ``value`` and ``deriv`` fails the run with
        ``ValueError``.
    iterations:
        Number of descent steps; the trace gains one row per step plus the
        initial row.
    metrics:
        Callable from an ``(R, num_params)`` stack of points to the
        ``(R, 3)`` full-partition train, validation and test losses.  One
        call gets up to 16 consecutive points of the run, so it must be
        pure: each row's losses depend on that row alone.
    policy:
        Probe sampling policy; ``fixed`` freezes each search on the batch
        that produced its direction gradient.

    ``iterations``, ``resolver`` and ``policy`` are checked as
    :class:`TrainConfig` checks them, and a bad one raises ``ValueError``
    before anything is evaluated.
    """
    _check_run(iterations, resolver, policy)
    lines = LineTable(1, np.size(x0))
    run = _descend(model, x0, sampler, resolver, iterations, metrics, policy, lines, 0)
    return _lockstep(model, lines, [run])[0]


def _descend(model, x0, sampler, resolver, iterations, metrics, policy, lines, run):
    """One run of :func:`sgd_train` as an ask/tell generator.

    Yields lists of requests and is sent the list of their replies in the
    same order: the direction gradient ``[(_GRAD, point, batch)]``, on a
    batch it draws itself, and the request lists of its search, named by
    ``resolver`` or made by it (see :func:`~gols.linesearch.make_search`),
    ``("value", alpha)`` and ``("deriv", alpha)``, which it hands on from
    the search with ``yield from``.  They are asked
    on row ``run`` of the :class:`~gols.probe.LineTable` ``lines``, which
    the run writes before each search: its origin, its direction and the
    draw of its policy, from which the table draws each request's sample.
    A list that cannot be answered, a malformed one included, is thrown the
    ``ValueError`` that :meth:`~gols.probe.LineTable.answer` replies.
    The run keeps the points of its initial row and of each step, and one
    ``metrics`` call measures the losses of the ones it holds, at most
    ``_METRIC_CHUNK`` consecutive points: once it holds that many, when it
    finishes, and before an error leaves it, so a non-finite loss fails the
    run at its iteration ahead of any error the run met after it, and an
    error of ``metrics`` fails the run like any other.  Returns the
    :class:`TrainTrace`.
    """
    search = make_search(resolver) if isinstance(resolver, str) else resolver
    x = np.array(x0, dtype=float)

    rows = np.recarray(iterations + 1, dtype=_TRACE_DTYPE)
    spent = EvalCounter()
    rows[0] = (0, 0.0, np.nan, np.nan, np.nan, np.nan, spent.cost, spent.info_calls)
    waiting = [x]  # the points of rows measured, measured + 1, ...
    measured = 0

    def measure():
        nonlocal measured
        if not waiting:
            return
        points = np.array(waiting)
        waiting.clear()
        first, measured = measured, measured + len(points)
        values = metrics(points)
        for name, column in zip(("train_loss", "validation_loss", "test_loss"), values.T):
            rows[name][first:measured] = column
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            raise RuntimeError(f"non-finite loss at iteration {first + bad[0]}")

    try:
        alpha_prev = ALPHA_MIN
        for n in range(1, iterations + 1):
            batch = sampler.sample()
            g, = yield [(_GRAD, x, batch)]
            spent.gradients += 1
            gnorm = float(np.linalg.norm(g))
            # A NaN or infinite entry makes the norm NaN or infinite, so the
            # entries are scanned only when the norm is not finite; a finite
            # gradient whose norm overflows goes on to effective_alpha_max,
            # which rejects it.
            if not math.isfinite(gnorm) and not np.isfinite(g).all():
                raise RuntimeError(f"non-finite gradient at iteration {n}")

            if gnorm == 0.0:
                alpha = 0.0  # converged on this batch: nothing to search along
            else:
                alpha_max = effective_alpha_max(gnorm)
                alpha_init = min(max(alpha_prev, ALPHA_MIN), alpha_max)
                lines.set(run, x, -g, _draw(policy, sampler, batch))
                outcome = yield from search(alpha_init, alpha_max)
                alpha = alpha_prev = outcome.alpha
                spent.functions += outcome.function_evals
                spent.gradients += outcome.gradient_evals
                x = x - alpha * g

            if not math.isfinite(alpha) or not np.isfinite(x).all():
                raise RuntimeError(f"non-finite step at iteration {n}")
            rows[n] = (n, alpha, gnorm, np.nan, np.nan, np.nan, spent.cost, spent.info_calls)
            waiting.append(x)
            if len(waiting) == _METRIC_CHUNK:
                measure()
    except Exception:
        measure()
        raise
    measure()
    return TrainTrace(rows)


def _lockstep(model, lines, runs) -> list:
    """Drive the ask/tell generators ``runs``, whose lines are the rows of
    ``lines`` in order, to their return values, in order: a :func:`_descend`
    run to its :class:`TrainTrace`, and a bare search of
    :func:`~gols.linesearch.make_search`, on a row that its caller has set,
    to its outcome.  Each round answers the pending request list of every
    unfinished run (:meth:`~gols.probe.LineTable.answer`); a reply that is
    an exception is raised in its run.

    A run that fails stops, and so do the runs after it; the error of the
    first run that failed is re-raised once the runs before it have
    finished, the one a run-by-run loop would have raised.
    """
    traces = [None] * len(runs)
    failed, error = len(runs), None
    replies = dict.fromkeys(range(len(runs)))
    while replies:
        pending = {}
        for i, reply in replies.items():
            if i >= failed:
                continue
            run = runs[i]
            try:
                pending[i] = run.throw(reply) if isinstance(reply, ValueError) else run.send(reply)
            except StopIteration as done:
                traces[i] = done.value
            except Exception as exc:
                failed, error = i, exc
        asked = {i: request for i, request in pending.items() if i < failed}
        replies = lines.answer(model, asked) if asked else {}
    if error is not None:
        raise error
    return traces


def dataset_metrics(net: Network, dataset: Dataset, split: Split):
    """Full-partition train/validation/test losses as a function of a stack
    of parameter points: ``(R, num_params) -> (R, 3)``, from one forward
    pass over the rows of all three partitions, padded once, here."""
    parts = (split.train, split.validation, split.test)
    rows = np.concatenate(parts)
    inputs, targets = _pad(dataset.features[rows])[None], dataset.one_hot()[rows][None]
    sections = np.cumsum([len(part) for part in parts[:-1]])

    def metrics(points):
        return net._losses(net._check_points(points), inputs, targets, sections)

    return metrics


def train_on_dataset(net: Network, dataset: Dataset, split: Split,
                     configs) -> list:
    """Train one run per config of the sequence ``configs`` on one network
    and dataset split, all in lockstep; one :class:`TrainTrace` per config,
    in order."""
    model = BatchObjective(net, dataset.features[split.train],
                           dataset.one_hot()[split.train])
    metrics = dataset_metrics(net, dataset, split)
    lines = LineTable(len(configs), net.num_params)
    runs = [
        _descend(model, net.init_params(config.weight_seed),
                 BatchSampler(np.arange(len(split.train)), config.batch_size,
                              config.sampler_seed),
                 config.resolver, config.iterations, metrics, config.policy, lines, run)
        for run, config in enumerate(configs)
    ]
    return _lockstep(model, lines, runs)
