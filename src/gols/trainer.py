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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gols.data import BatchSampler, Dataset, Split
from gols.linesearch import ALPHA_MIN, effective_alpha_max, make_resolver
from gols.net import Network
from gols.probe import BatchObjective, DirectionalProbe, EvalCounter

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

    rows = np.recarray(iterations + 1, dtype=_TRACE_DTYPE)
    spent = EvalCounter()
    rows[0] = (0, 0.0, np.nan, *metrics(x), spent.cost, spent.info_calls)

    alpha_prev = ALPHA_MIN
    for n in range(1, iterations + 1):
        batch = sampler.sample()
        g = model.grad(x, batch)
        spent.gradients += 1
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
            spent.functions += outcome.function_evals
            spent.gradients += outcome.gradient_evals
            x = x - alpha * g

        if not np.isfinite(alpha) or not np.all(np.isfinite(x)):
            raise RuntimeError(f"non-finite step at iteration {n}")
        losses = metrics(x)
        if not np.all(np.isfinite(losses)):
            raise RuntimeError(f"non-finite loss at iteration {n}")
        rows[n] = (n, alpha, gnorm, *losses, spent.cost, spent.info_calls)
    return TrainTrace(rows)


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
