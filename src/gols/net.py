"""Sigmoid multilayer perceptrons with mean squared classification error.

Networks have one or two fully connected hidden layers and logistic
activations on every node, hidden and output alike.  All operations are pure
functions of a flat parameter vector: a ``Network`` instance carries only the
architecture, never weights, so one instance serves every run and scan.

One forward pass (``_activations``) and one backprop (``_backprop``) serve
every evaluation.  Both work on weights with any leading axes, so the
per-point :meth:`Network.loss` and :meth:`Network.gradient` run them on one
parameter vector and the stacked :meth:`Network.losses` and
:meth:`Network.losses_and_gradients` on a stack of them.
``_backprop`` writes into per-layer views of one flat gradient array, which
is already in :meth:`Network.pack` order.  Given a row map, the same
backprop evaluates ``M`` points on ``R`` batches each of one partition: it
runs the network once on the table of (point, partition row) pairs and
gathers each batch's sums from it, with the bits of the stacked batches
(``gols.probe.BatchObjective.table_losses_and_gradients``).
"""

from __future__ import annotations

import numpy as np

from gols.data import check_count

__all__ = ["Network", "sigmoid"]

# Clamp bounds that keep activations strictly inside the open interval (0, 1)
# even when a pre-activation saturates in float64.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid(z):
    """Numerically stable logistic function; never returns exactly 0 or 1."""
    z = np.array(z, dtype=float)
    # A 0-d array would come back from the first ufunc as a scalar, so the
    # helper works on a 1-d view.
    return _sigmoid(z.reshape(-1)).reshape(z.shape)[()]


def _sigmoid(z):
    """:func:`sigmoid` of the float array ``z`` of at least one dimension,
    written over ``z``."""
    t = np.copysign(z, -1.0)  # -|z|
    np.exp(t, out=t)  # exponent <= 0, cannot overflow
    numerator = np.where(z >= 0.0, 1.0, t)
    t += 1.0
    np.divide(numerator, t, out=z)
    np.maximum(z, _SIG_LO, out=z)
    return np.minimum(z, _SIG_HI, out=z)


class Network:
    """Fully connected sigmoid MLP with mean squared classification loss.

    The weight matrix of layer ``c`` has shape ``(fan_out, fan_in + 1)``;
    column 0 is the bias weight, fed by a constant 1 input.  Flat parameter
    vectors are laid out layer-major, row-major within each layer (C order).
    This ordering is frozen: :meth:`pack` and :meth:`unpack` are exact
    inverses.

    The batch loss is ``100 / (K * P) * sum((prediction - target)**2)`` over
    ``P`` rows and ``K`` output nodes.  Every layer width is a whole number
    of at least 1 (see :func:`gols.data.check_count`); ``hidden_dims`` is
    one width or a sequence of one or two.
    """

    def __init__(self, input_dim: int, hidden_dims, output_dim: int):
        hidden = tuple(hidden_dims) if np.ndim(hidden_dims) else (hidden_dims,)
        if not 1 <= len(hidden) <= 2:
            raise ValueError("hidden_dims must list one or two layer widths")
        dims = (input_dim,) + hidden + (output_dim,)
        for width in dims:
            check_count("layer width", width)
        self.input_dim = dims[0]
        self.hidden_dims = hidden
        self.output_dim = dims[-1]
        self.weight_shapes = tuple(
            (dims[c + 1], dims[c] + 1) for c in range(len(dims) - 1)
        )
        self.num_params = sum(rows * cols for rows, cols in self.weight_shapes)

    def __repr__(self):
        dims = (self.input_dim,) + self.hidden_dims + (self.output_dim,)
        return f"Network({'-'.join(str(d) for d in dims)})"

    # -- parameter layout ---------------------------------------------------

    def init_params(self, seed) -> np.ndarray:
        """Uniform draws in [-0.1, 0.1] for every weight, biases included."""
        rng = np.random.default_rng(seed)
        return rng.uniform(-0.1, 0.1, size=self.num_params)

    def unpack(self, params: np.ndarray) -> list[np.ndarray]:
        """Views of the flat vector as per-layer weight matrices."""
        return self._layers(self._check_params(params))

    def pack(self, matrices) -> np.ndarray:
        """Flatten per-layer weight matrices back into a parameter vector."""
        mats = list(matrices)
        if len(mats) != len(self.weight_shapes):
            raise ValueError("wrong number of weight matrices")
        for mat, shape in zip(mats, self.weight_shapes):
            if np.shape(mat) != shape:
                raise ValueError(f"weight matrix shape {np.shape(mat)} != {shape}")
        return np.concatenate([np.ravel(m) for m in mats]).astype(float)

    # -- evaluation ---------------------------------------------------------

    def forward(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Predictions for a batch, one row per sample, entries in (0, 1)."""
        inputs = self._check_inputs(inputs)
        return _activations(self.unpack(params), inputs)[-1]

    def loss(self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> float:
        inputs, targets = self._check_batch(inputs, targets)
        return float(_loss(_activations(self.unpack(params), inputs)[-1] - targets))

    def gradient(self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Analytic gradient of :meth:`loss`, flattened in pack order."""
        inputs, targets = self._check_batch(inputs, targets)
        grad = np.empty(self.num_params)
        _backprop(self.unpack(params), self._layers(grad), inputs, targets)
        return grad

    def losses(self, points, inputs, targets, sections=None):
        """Loss at ``N`` parameter points at once, from the forward pass
        alone.

        ``points`` is ``(N, num_params)``; ``inputs`` and ``targets`` are
        ``(N, P, ·)`` stacks holding each point's own batch of ``P`` rows, or
        ``(1, P, ·)`` for one batch shared by every point.  The forward pass
        is the one :meth:`loss` runs, over the stack at once; each loss
        equals the per-point one except where numpy sums a stacked matrix
        product in another order than a single one.  Without ``sections`` the
        result is one loss per point, ``(N,)``.  ``sections``, ascending row
        indices as for ``np.split``, cuts the ``P`` rows into consecutive
        parts and gives one loss per point and part, ``(N, parts)``; a part's
        loss is the mean over its own rows, as :meth:`loss` of those rows.
        """
        points, inputs, targets = self._check_stack(points, inputs, targets)
        return self._losses(points, inputs, targets, sections)

    def losses_and_gradients(self, points, inputs, targets):
        """Loss and gradient at ``N`` parameter points at once, ``(N,)`` and
        ``(N, num_params)``, by the backprop :meth:`gradient` runs; shapes
        as for :meth:`losses`, whose losses these equal.

        A slope along ``direction`` is ``np.vecdot(grads, direction)``: it
        takes one dot product per row, the one ``gradient(...) @
        direction`` takes, where a matrix-vector product ``grads @
        direction`` rounds differently on about half the rows.
        """
        points, inputs, targets = self._check_stack(points, inputs, targets)
        return self._losses_and_gradients(points, inputs, targets)

    def _losses(self, points, inputs, targets, sections=None):
        """:meth:`losses` of arrays already checked by :meth:`_check_stack`."""
        residuals = _activations(self._layers(points), inputs)[-1]
        residuals -= targets
        if sections is None:
            return _loss(residuals)
        bounds = [0, *sections, residuals.shape[-2]]
        return np.stack([_loss(residuals[..., start:stop, :])
                         for start, stop in zip(bounds, bounds[1:])], axis=-1)

    def _losses_and_gradients(self, points, inputs, targets, rows=None):
        """:meth:`losses_and_gradients` of arrays already checked by
        :meth:`_check_stack`; with the row map ``rows`` of :func:`_backprop`,
        the ``(R, N)`` losses and ``(R, N, num_params)`` gradients of ``R``
        evaluations of each point on the partition ``inputs`` and
        ``targets``."""
        grads = np.empty(points.shape if rows is None
                         else rows.shape[:-1] + points.shape[-1:])
        losses = _loss(_backprop(self._layers(points), self._layers(grads),
                                 inputs, targets, rows))
        return losses, grads

    def _layers(self, params):
        """Per-layer ``(..., fan_out, fan_in + 1)`` views of ``(...,
        num_params)`` parameters, for any leading axes."""
        lead = params.shape[:-1]
        mats, start = [], 0
        for rows, cols in self.weight_shapes:
            stop = start + rows * cols
            mats.append(params[..., start:stop].reshape(lead + (rows, cols)))
            start = stop
        return mats

    # -- validation ---------------------------------------------------------

    def _check_params(self, params):
        params = np.asarray(params, dtype=float)
        if params.shape != (self.num_params,):
            raise ValueError(
                f"parameter vector has shape {params.shape}, "
                f"expected ({self.num_params},)"
            )
        return params

    def _check_inputs(self, inputs):
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.input_dim:
            raise ValueError(
                f"inputs have shape {inputs.shape}, expected (P, {self.input_dim})"
            )
        return inputs

    def _check_batch(self, inputs, targets):
        inputs = self._check_inputs(inputs)
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2 or targets.shape[1] != self.output_dim:
            raise ValueError(
                f"targets have shape {targets.shape}, expected (P, {self.output_dim})"
            )
        if targets.shape[0] != inputs.shape[0]:
            raise ValueError("inputs and targets disagree on batch size")
        if inputs.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")
        return inputs, targets

    def _check_points(self, points):
        """``points`` as an ``(N, num_params)`` float array of parameter
        points, the stack that :meth:`losses` and every stacked objective
        over this network take."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.num_params:
            raise ValueError(f"points have shape {points.shape}, expected (N, {self.num_params})")
        return points

    def _check_stack(self, points, inputs, targets):
        points = self._check_points(points)
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if (inputs.ndim != 3 or inputs.shape[2] != self.input_dim
                or targets.ndim != 3 or targets.shape[2] != self.output_dim
                or inputs.shape[:2] != targets.shape[:2]
                or inputs.shape[0] not in (1, len(points)) or inputs.shape[1] < 1):
            raise ValueError(
                f"inputs {inputs.shape} and targets {targets.shape} are not "
                f"(N or 1, P, {self.input_dim}) and (N or 1, P, {self.output_dim})"
            )
        return points, inputs, targets


def _activations(mats, inputs):
    """The forward pass: ``inputs`` and every layer's activations.

    ``mats`` are per-layer weights with any leading axes; ``inputs`` is
    ``(..., P, input_dim)`` and broadcasts against them.
    """
    acts = [inputs]
    for w in mats:
        z = acts[-1] @ w[..., 1:].mT
        z += w[..., None, :, 0]
        acts.append(_sigmoid(z))
    return acts


def _backprop(mats, grads, inputs, targets, rows=None):
    """Writes the loss gradient into ``grads`` and returns the residuals
    ``prediction - target``, from which :func:`_loss` gives the loss.

    ``grads`` are the per-layer views of one flat gradient array shaped like
    the parameters behind ``mats``, so no gradient is packed afterwards.
    The loss is left to the callers that need it, so
    :meth:`Network.gradient` does not pay for one it would discard.

    With the row map ``rows``, an ``(R, M, P)`` integer array, ``mats`` are
    ``M`` points and ``inputs`` and ``targets`` the ``n`` rows of a whole
    partition; ``rows[q, j]`` are the partition rows of evaluation ``q`` of
    point ``j``, and ``grads`` have the leading axes ``(R, M)``.  The forward
    pass, each layer's ``delta`` and each upstream product then run once, on
    the table of ``M * n`` (point, partition row) pairs.  The per-evaluation
    sums, the bias sum and the weight product, gather their rows from it, and
    so do the returned ``(R, M, P, K)`` residuals.  Each table row has the
    bits of the same row in a stack of ``P``-row batches, and each sum adds
    its rows in the stack's order, so at ``P >= 2`` every loss and gradient
    equals the stacked one bit for bit.  At ``P = 1`` a stacked batch is one
    row, for which numpy's matmul takes its vector path and rounds
    otherwise.
    """
    acts = _activations(mats, inputs)
    r = acts[-1] - targets
    if rows is None:
        p, k = r.shape[-2:]
    else:
        p, k = rows.shape[-1], r.shape[-1]
        # Row i of point j is row j * n + i of a table flattened over its
        # (point, row) pairs; the inputs, shared by every point, take rows.
        flat = rows + r.shape[-2] * np.arange(rows.shape[1])[:, None]

        def gather(a, index):
            return a.reshape(-1, a.shape[-1]).take(index, axis=0)
    upstream = (200.0 / (k * p)) * r
    for c in range(len(mats) - 1, -1, -1):
        # (upstream * a) * (1 - a), in the temporaries; acts[c + 1] is not
        # read again.
        a = acts[c + 1]
        delta = upstream
        delta *= a
        delta *= np.subtract(1.0, a, out=a)
        d, x = delta, acts[c]
        if rows is not None:
            x = gather(x, flat if c else rows)
            if min(d.shape[-1], x.shape[-1]) > 1:
                # Batch-row axis first, then a transposed view: the bias sum
                # runs one long inner loop yet adds each evaluation's rows
                # in the stack's order.
                d = gather(delta, flat.transpose(2, 0, 1)).transpose(1, 2, 0, 3)
            else:
                # A layer of width 1 takes numpy's vector paths, whose order
                # follows the layout: the stack's, row by row.
                d = gather(delta, flat)
        np.add.reduce(d, axis=-2, out=grads[c][..., 0])
        grads[c][..., 1:] = d.mT @ x
        if c:  # the gradient with respect to the inputs is never read
            upstream = delta @ mats[c][..., 1:]
    return r if rows is None else gather(r, flat)


def _loss(residuals):
    """``100 / (K * P)`` times the summed squares of ``(..., P, K)``
    residuals, one loss per leading index."""
    p, k = residuals.shape[-2:]
    return (100.0 / (k * p)) * np.add.reduce(residuals * residuals, axis=(-2, -1))
