"""Mini-batch steepest descent with line-search-resolved step sizes.

Each iteration draws a fresh batch, computes the descent direction as the
negative batch gradient, resolves the step size through a
:class:`~gols.probe.DirectionalProbe`, and steps.  The trace records one row
per iteration plus an initial row, with losses measured on the full
partitions (these metric evaluations are excluded from the optimizer's cost
counters; the direction gradient costs 2 function-evaluation units per
iteration on top of whatever the search spends).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from gols.data import BatchSampler, Dataset, Split
from gols.linesearch import ALPHA_MIN, effective_alpha_max, make_resolver
from gols.net import Network
from gols.probe import BatchObjective, DirectionalProbe

__all__ = [
    "TraceRow",
    "TrainTrace",
    "TrainConfig",
    "sgd_train",
    "dataset_metrics",
    "train_on_dataset",
]


@dataclass
class TraceRow:
    """One trace CSV row; the field order is the column order."""

    iteration: int
    alpha: float
    grad_norm: float
    train_loss: float
    validation_loss: float
    test_loss: float
    cost: int
    info_calls: int

    def astuple(self):
        return tuple(getattr(self, name) for name in TRACE_COLUMNS)


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


@dataclass
class TrainTrace:
    """Per-iteration training record; row 0 is the pre-loop state."""

    rows: list = field(default_factory=list)

    def column(self, name) -> np.ndarray:
        i = TRACE_COLUMNS.index(name)
        return np.array([row.astuple()[i] for row in self.rows])

    @property
    def final(self) -> TraceRow:
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


def sgd_train(model, x0, sampler, resolver, iterations, metrics,
              policy="resample") -> TrainTrace:
    """Run steepest descent for a fixed number of iterations.

    Parameters
    ----------
    model:
        Objective with ``loss(x, sample)`` / ``grad(x, sample)``.
    x0:
        Starting parameter vector.
    sampler:
        Batch (or key) stream; consumed for the direction gradient and, under
        the resample policy, for every probe evaluation.
    resolver:
        Resolver name (see :func:`gols.linesearch.make_resolver`) or a
        callable ``(probe, alpha_init, alpha_max) -> LineSearchOutcome``.
    iterations:
        Number of descent steps; the trace gains one row per step plus the
        initial row.
    metrics:
        Callable ``x -> (train, validation, test)`` full-partition losses.
    policy:
        Probe sampling policy; ``fixed`` freezes each search on the batch
        that produced its direction gradient.
    """
    if isinstance(resolver, str):
        resolver = make_resolver(resolver)
    x = np.array(x0, dtype=float)

    trace = TrainTrace()
    cost = 0
    info = 0
    trace.rows.append(TraceRow(0, 0.0, np.nan, *metrics(x), cost, info))

    alpha_prev = ALPHA_MIN
    for n in range(1, iterations + 1):
        batch = sampler.sample()
        g = model.grad(x, batch)
        cost += 2
        info += 1
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite gradient at iteration {n}")
        gnorm = float(np.linalg.norm(g))

        if gnorm == 0.0:
            alpha = 0.0  # converged on this batch: nothing to search along
        else:
            probe = DirectionalProbe(
                model, x, -g, policy=policy, sampler=sampler,
                fixed_sample=batch if policy == "fixed" else None,
            )
            alpha_max = effective_alpha_max(gnorm)
            alpha_init = min(max(alpha_prev, ALPHA_MIN), alpha_max)
            outcome = resolver(probe, alpha_init, alpha_max)
            alpha = outcome.alpha
            alpha_prev = alpha
            cost += outcome.cost
            info += outcome.info_calls
            x = x - alpha * g

        if not np.isfinite(alpha) or not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite step at iteration {n}")
        losses = metrics(x)
        if not np.all(np.isfinite(losses)):
            raise RuntimeError(f"non-finite loss at iteration {n}")
        trace.rows.append(TraceRow(n, alpha, gnorm, *losses, cost, info))
    return trace


def dataset_metrics(net: Network, dataset: Dataset, split: Split):
    """Full-partition train/validation/test losses as a function of params."""
    x, y = dataset.features, dataset.one_hot()
    parts = [(x[idx], y[idx]) for idx in (split.train, split.validation, split.test)]

    def metrics(params):
        return tuple(net.loss(params, xs, ys) for xs, ys in parts)

    return metrics


def train_on_dataset(net: Network, dataset: Dataset, split: Split,
                     config: TrainConfig) -> TrainTrace:
    """Wire a dataset, a network, and a config into one training run."""
    train_x = dataset.features[split.train]
    train_y = dataset.one_hot()[split.train]
    model = BatchObjective(net, train_x, train_y)
    sampler = BatchSampler(np.arange(len(split.train)), config.batch_size,
                           config.sampler_seed)
    x0 = net.init_params(config.weight_seed)
    return sgd_train(
        model, x0, sampler, config.resolver, config.iterations,
        dataset_metrics(net, dataset, split), policy=config.policy,
    )
