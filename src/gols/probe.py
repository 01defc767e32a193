"""Directional probes: the univariate loss F(alpha) along a search direction.

A probe freezes an origin point and a direction and exposes the loss and the
directional derivative as functions of the step size alpha, while counting
every evaluation.  The underlying objective is either a network over a data
partition (:class:`BatchObjective`) or an analytic test problem
(:class:`SyntheticObjective`).  A probe needs of it only two stacked calls
that evaluate many points, each with its own sample:
``losses(points, samples)`` and ``losses_and_gradients(points, samples)``,
where a sample selects the sub-sampling realization and ``None`` means no
sub-sampling at all.  The samples of one stacked call are either all
``None`` or all of one shape.  Both objectives also keep the one-point
forms ``loss(x, sample)`` and ``grad(x, sample)`` for direct use.

A :class:`LineTable` holds the lines of a whole grid of runs, each with the
draw that gives the samples of its evaluations, and answers the requests of
every run's line search in one round (:meth:`LineTable.answer`): it checks
each run's request list, kinds and steps alike, before it draws anything of
it, then draws their samples, builds all of a round's points in one array
operation and takes all its slopes in another.  A :class:`DirectionalProbe`
is a table of one line, so the searches and the training grid evaluate F
and F' along a line through one path; :func:`scan_probes` evaluates whole
step-size grids of several probes in one stacked call.

Every batch of a :class:`BatchObjective` on one line is a subset of the
same partition rows at the same points, so the scans of a line need no
stack of batches.  A :class:`LineCurves` runs the network once over the
table of every (node, partition row) pair, with the tangent of the line's
direction, and keeps each pair's residuals and slope; each batch then
gathers its F and F' from that table.  :func:`scan_probes` does so only
when its caller hands it the curves, and stacks every batch otherwise;
``gols scan`` makes that choice once for its whole job.
"""

from __future__ import annotations

import math

import numpy as np

from gols.data import check_count
from gols.net import _loss, _pad, _tangents

__all__ = [
    "POLICIES",
    "EvalCounter",
    "BatchObjective",
    "LineCurves",
    "SyntheticObjective",
    "KeyStream",
    "DirectionalProbe",
    "scan_probes",
]

# resample: fresh sample per evaluation (the stochastic, discontinuous view)
# fixed:    one sample frozen for the probe's lifetime (smooth single-batch view)
# full:     no sub-sampling (deterministic reference view)
POLICIES = ("resample", "fixed", "full")

# Most stacked or gathered batch rows one block of a BatchObjective call
# evaluates.  It bounds the working set: the largest scan of a `gols scan` on
# iris, 12 repeats x 101 nodes at batch 50, peaks at 1 141 KiB of
# allocations on one table (tracemalloc; 1 719 KiB stacked, 1 181 KiB
# stacked in blocks of 1024 rows), and a whole scan-study job at 1 342 KiB
# (1 924 KiB stacked).
_BLOCK_ROWS = 4096

# The kind of a direction-gradient request ``(_GRAD, point, sample)``, which
# only the trainer makes: no search can yield it.
_GRAD = object()


class EvalCounter:
    """Tally of loss and gradient evaluations.

    Cost is expressed in function-evaluation units where a gradient costs
    twice a loss; an information call counts either kind as one.
    """

    def __init__(self):
        self.functions = 0
        self.gradients = 0

    @property
    def cost(self) -> int:
        return self.functions + 2 * self.gradients

    @property
    def info_calls(self) -> int:
        return self.functions + self.gradients

    def __repr__(self):
        return f"EvalCounter(functions={self.functions}, gradients={self.gradients})"


class BatchObjective:
    """Network loss/gradient over rows of a fixed feature/target matrix.

    ``sample`` is an array of row indices (for example from a
    ``BatchSampler``); ``None`` evaluates the whole matrix.  The matrices are
    checked against the network once, here, and the inputs get the leading
    column of ones of the network's forward pass; the stacked calls then
    gather each block's rows with ``ndarray.take`` and run the network's
    forward pass and backprop without checking or padding them again.
    ``inputs`` stays the caller's ``(M, D)`` matrix.
    """

    def __init__(self, net, inputs, targets):
        self.net = net
        self.inputs, self.targets = net._check_batch(inputs, targets)
        self._padded = _pad(self.inputs)

    @property
    def num_rows(self) -> int:
        return self.inputs.shape[0]

    def loss(self, params, sample=None) -> float:
        if sample is None:
            return self.net.loss(params, self.inputs, self.targets)
        return self.net.loss(params, self.inputs[sample], self.targets[sample])

    def grad(self, params, sample=None) -> np.ndarray:
        if sample is None:
            return self.net.gradient(params, self.inputs, self.targets)
        return self.net.gradient(params, self.inputs[sample], self.targets[sample])

    def losses(self, points, samples):
        """Loss at each row of ``points``, evaluated on the matching entry of
        ``samples``, from the forward pass alone."""
        points = self.net._check_points(points)
        values = np.empty(len(points))
        for block, inputs, targets in self._stacks(samples):
            values[block] = self.net._losses(points[block], inputs, targets)
        return values

    def losses_and_gradients(self, points, samples):
        """Loss and gradient at each row of ``points``, evaluated on the
        matching entry of ``samples``."""
        points = self.net._check_points(points)
        values, grads = np.empty(len(points)), np.empty(points.shape)
        for block, inputs, targets in self._stacks(samples):
            values[block], grads[block] = self.net._losses_and_gradients(
                points[block], inputs, targets)
        return values, grads

    def _stacks(self, samples):
        """``(block, inputs, targets)`` for consecutive blocks of at most
        ``_BLOCK_ROWS`` stacked rows, at least one point per block.

        The samples are either all ``None`` (the whole matrix, broadcast to
        every point rather than copied) or row-index arrays of one size.
        """
        if all(sample is None for sample in samples):
            index, rows = None, self.num_rows
            inputs, targets = self._padded[None], self.targets[None]
        else:
            index = np.asarray(samples)
            rows = index.shape[1]
        for block in _blocks(len(samples), rows):
            if index is not None:
                inputs = self._padded.take(index[block], axis=0)
                targets = self.targets.take(index[block], axis=0)
            yield block, inputs, targets


class LineCurves:
    """The per-row curves of a :class:`BatchObjective` ``model`` along one
    line: at each of the ``M`` steps of ``alphas``, the residuals
    ``prediction - target`` of every one of the ``n`` partition rows,
    ``residuals`` ``(M, n, K)``, and each row's slope r·ȧ along the line,
    ``slopes`` ``(M, n)``, from one forward pass with its tangent
    (``gols.net._tangents``), in blocks of consecutive nodes of at most
    ``_BLOCK_ROWS`` (node, row) pairs.  A step of ``alphas`` that is not
    finite raises ``ValueError`` before the pass.

    Every batch on the line takes its F and F' from these curves
    (:meth:`batches`): F is the loss of its rows' residuals, with the bits
    of a stacked batch of at least 2 rows, and F' is 200 / (K·P) times the
    sum of its ``P`` rows' slopes.
    """

    def __init__(self, model, origin, direction, alphas):
        self.model = model
        self.origin = np.asarray(origin, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        self.alphas = _steps(alphas)
        net, rows = model.net, model.num_rows
        dots = net._layers(self.direction)
        self.residuals = np.empty((len(self.alphas), rows, net.output_dim))
        self.slopes = np.empty((len(self.alphas), rows))
        for block in _blocks(len(self.alphas), rows):
            points = self.alphas[block, None] * self.direction
            points += self.origin
            self.residuals[block], self.slopes[block] = _tangents(
                net._layers(points), dots, model._padded, model.targets)

    def batches(self, index):
        """F and F' of each node on each of ``R`` batches, ``(R, M)`` each:
        ``index`` is an ``(R, M, P)`` array of partition rows, ``index[q,
        j]`` the rows of batch ``q`` at node ``j``.  Each block of
        consecutive nodes, at most ``_BLOCK_ROWS`` gathered rows, gathers
        its batches' residuals and slopes from the curves."""
        batches, nodes, rows = index.shape
        n, k = self.slopes.shape[1], self.residuals.shape[2]
        residuals, row_slopes = self.residuals.reshape(-1, k), self.slopes.reshape(-1)
        values, slopes = np.empty((batches, nodes)), np.empty((batches, nodes))
        # Row i of node j is row j * n + i of the curves flattened over their
        # (node, row) pairs.
        offsets = n * np.arange(nodes)[:, None]
        for block in _blocks(nodes, batches * rows):
            flat = index[:, block] + offsets[block]
            values[:, block] = _loss(residuals.take(flat, axis=0))
            slopes[:, block] = np.add.reduce(row_slopes.take(flat), axis=-1)
        slopes *= 200.0 / (k * rows)
        return values, slopes


class SyntheticObjective:
    """Analytic objective with optional per-sample jump noise.

    ``func``/``grad_func`` evaluate the noiseless problem.  When a sample key
    (any non-negative integer) is supplied and a noise scale is nonzero, a
    seeded offset is added, so re-evaluating with a fresh key reproduces the
    step discontinuities that data sub-sampling causes, while the same key
    always yields the same realization.
    """

    def __init__(self, func, grad_func, noise_value=0.0, noise_grad=0.0):
        self.func = func
        self.grad_func = grad_func
        self.noise_value = float(noise_value)
        self.noise_grad = float(noise_grad)

    def loss(self, x, sample=None) -> float:
        value = float(self.func(x))
        if sample is not None and self.noise_value:
            rng = np.random.default_rng([int(sample), 0])
            value += self.noise_value * rng.standard_normal()
        return value

    def grad(self, x, sample=None) -> np.ndarray:
        g = np.asarray(self.grad_func(x), dtype=float)
        if sample is not None and self.noise_grad:
            rng = np.random.default_rng([int(sample), 1])
            g = g + self.noise_grad * rng.standard_normal(g.shape)
        return g

    def losses(self, points, samples):
        """:meth:`loss` point by point."""
        return np.array([self.loss(x, sample) for x, sample in zip(points, samples)],
                        dtype=float)

    def losses_and_gradients(self, points, samples):
        """:meth:`loss` and :meth:`grad` point by point, one gradient row each."""
        grads = [self.grad(x, sample) for x, sample in zip(points, samples)]
        return self.losses(points, samples), np.array(grads, dtype=float)


class KeyStream:
    """Sampler-compatible stream of integer sample keys.

    Pairs a :class:`SyntheticObjective` with the resample/fixed probe
    policies the way a ``BatchSampler`` does for a :class:`BatchObjective`.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def sample(self) -> int:
        return int(self._rng.integers(0, 2**63))

    def samples(self, count) -> list:
        """The next ``count`` keys, as ``count`` calls of :meth:`sample`;
        ``count`` is a whole number of at least 0."""
        check_count("count", count, least=0)
        return [self.sample() for _ in range(count)]


class LineTable:
    """The search lines of a grid of runs: row ``r`` of ``origins`` and
    ``directions`` is the line of run ``r``, and ``draws[r]`` the draw of
    its samples, all written by that run once per iteration.

    A round's search requests on many lines take one array operation for all
    their points and one for all their slopes, and each point and slope has
    the bits of its line alone: ``origin + alpha * direction`` elementwise,
    and F' one dot product per row.  A :class:`DirectionalProbe` is a table
    of one row.
    """

    def __init__(self, runs, num_params):
        self.origins = np.zeros((runs, num_params))
        self.directions = np.zeros((runs, num_params))
        self.draws = [None] * runs

    def set(self, run, origin, direction, draw) -> None:
        """Write the line of ``run``: its origin, its direction and ``draw``,
        a callable of no arguments that returns the sample of the line's
        next evaluation (``None`` for no sub-sampling)."""
        self.origins[run] = origin
        self.directions[run] = direction
        self.draws[run] = draw

    def points(self, runs, alphas) -> np.ndarray:
        """The point at ``alphas[k]`` on the line of ``runs[k]``, one row
        each; ``runs`` is an integer array."""
        alphas = np.array(alphas, dtype=float)
        if alphas.ndim != 1:
            raise ValueError("step sizes must be scalars")
        return (self.origins.take(runs, axis=0)
                + alphas[:, None] * self.directions.take(runs, axis=0))

    def replies(self, runs, alphas, slope, losses, grads=None) -> list:
        """The reply to each request on the lines of ``runs`` at the finite
        steps ``alphas``: F from ``losses``, or, where ``slope`` is true, F'
        from ``grads``, as floats.

        A request whose reply is not finite gets, in place of its reply, a
        ``ValueError`` that names it, say ``non-finite F'(5.0) = nan``.
        """
        replies = losses.tolist()
        if grads is not None:
            slopes = np.vecdot(grads, self.directions.take(runs, axis=0)).tolist()
            replies = [s if d else f for d, s, f in zip(slope, slopes, replies)]
        # A sum is finite when every term is; one that overflows only sends
        # the round down the term-by-term check.
        if not math.isfinite(sum(replies)):
            for k, alpha in enumerate(alphas):
                try:
                    _finite("F'" if slope[k] else "F", alpha, replies[k])
                except ValueError as exc:
                    replies[k] = exc
        return replies

    def answer(self, model, pending) -> dict:
        """Replies to one round's ``{run: requests}``, every one a list of
        search requests ``(kind, alpha)`` on the line of ``run`` or a
        direction gradient ``[(_GRAD, point, sample)]`` alone.  Each search
        request is evaluated on a sample from its run's draw, drawn in list
        order, and the samples of a run are of one shape.

        A run's reply is the list of its replies in order, or the first
        ``ValueError`` among them in list order (see :meth:`replies`).  Each
        search request list is checked in the pass that takes the round
        apart: one that is empty, or holds an entry other than a pair
        ``("value", alpha)`` or ``("deriv", alpha)`` with a real, finite
        scalar ``alpha``, gets the ``ValueError`` that
        :meth:`DirectionalProbe.ask` raises for it, and nothing of it is
        drawn or evaluated; the other runs of the round go on.  The same
        pass draws the samples of every other list and appends its
        requests to the columns of its group.  A group is the runs of one
        sample shape, and each group takes one stacked call of ``model``
        for all the requests of its runs: a backprop
        (``model.losses_and_gradients``) when any of them asks for a
        gradient or a slope, which also gives the losses of its ``value``
        requests, else a forward pass alone (``model.losses``).  The points
        of a group's search requests come from :meth:`points` in one array
        operation and their replies, F or F', from :meth:`replies` in
        another.  Each row of a stacked call is evaluated on its own, so a
        group puts its search requests first, each run's in list order, and
        its direction gradients after them.
        """
        groups, replies = {}, {}
        for i, asked in pending.items():
            try:
                grad = asked[0][0] is _GRAD
            except (TypeError, LookupError):  # malformed: _request_error names it
                grad = False
            if grad:
                sample = asked[0][2]
            elif error := _request_error(asked):
                replies[i] = error
                continue
            else:
                draw, drawn = self.draws[i], []
                for _ in asked:
                    drawn.append(draw())
                sample = drawn[0]
            key = None if sample is None else getattr(sample, "shape", ())
            group = groups.get(key)
            if group is None:
                # Its searches, their requests as columns, and its gradients.
                group = groups[key] = ([], [], [], [], [], [])
            searches, runs, alphas, slope, samples, grads = group
            if grad:
                grads.append(i)
                continue
            searches.append(i)
            samples += drawn
            for kind, alpha in asked:
                runs.append(i)
                alphas.append(alpha)
                slope.append(kind == "deriv")
        for searches, runs, alphas, slope, samples, grads in groups.values():
            rows = np.array(runs, dtype=np.intp)
            points = self.points(rows, alphas)
            found = len(runs)
            if grads:
                points = np.concatenate([points, [pending[i][0][1] for i in grads]])
                samples += [pending[i][0][2] for i in grads]
            if grads or True in slope:
                losses, gradients = model.losses_and_gradients(points, samples)
                answers = self.replies(rows, alphas, slope, losses[:found],
                                       gradients[:found])
                for i, g in zip(grads, gradients[found:]):
                    replies[i] = [g]
            else:
                answers = self.replies(rows, alphas, slope, model.losses(points, samples))
            failed = ValueError in map(type, answers)
            end = 0
            for i in searches:
                start, end = end, end + len(pending[i])
                reply = answers[start:end]
                if failed:
                    reply = next((a for a in reply if type(a) is ValueError), reply)
                replies[i] = reply
        return replies


class DirectionalProbe(LineTable):
    """F(alpha) = loss at ``origin + alpha * direction``, with accounting.

    A probe is a :class:`LineTable` of one row, whose draw gives the
    sample of each evaluation under the probe's ``policy``, and every F and
    F' it gives comes from the objective's stacked calls, as the grid's do:
    :meth:`ask` answers a search's whole request list in one round
    (:meth:`answer`), ``value`` and ``deriv`` are lists of one request, and
    :func:`scan_probes` answers a whole grid of step sizes, in blocks of at
    most 4096 batch rows for a :class:`BatchObjective`, or from the
    :class:`LineCurves` of the probe's line that its caller passes.  So the
    objective needs only ``losses`` and ``losses_and_gradients``.

    The direction is used exactly as given (unnormalized).  Counters only
    ever increase.  A step size that is not one finite scalar raises
    ``ValueError`` before anything is counted or drawn, and a non-finite F
    or F' raises one rather than reach a search, whose comparisons a NaN
    would silently steer; the rest of its list has then been counted and
    drawn, as in the grid.
    """

    def __init__(self, model, origin, direction, policy="resample",
                 sampler=None, fixed_sample=None):
        self.model = model
        self.origin = np.asarray(origin, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        if self.origin.shape != self.direction.shape:
            raise ValueError("origin and direction must have the same shape")
        norm = float(np.linalg.norm(self.direction))
        if not math.isfinite(norm) or norm == 0.0:
            raise ValueError("direction must have a finite, nonzero norm")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        self.policy = policy
        self._sampler = sampler
        if policy == "resample" and sampler is None:
            raise ValueError("resample policy needs a sampler")
        if policy == "fixed" and fixed_sample is None:
            if sampler is None:
                raise ValueError("fixed policy needs a sampler or a fixed_sample")
            fixed_sample = sampler.sample()
        self.fixed_sample = fixed_sample if policy == "fixed" else None
        self.counter = EvalCounter()
        # The table's one row, as views of the line.
        self.origins, self.directions = self.origin[None], self.direction[None]
        self.draws = [_draw(policy, sampler, self.fixed_sample)]

    def ask(self, requests) -> list:
        """The replies to the list ``requests``, each ``("value", alpha)``
        or ``("deriv", alpha)``, in order: F or F' from one round of the
        probe's one row (:meth:`answer`), as the grid answers a run's list.

        Every request is checked before anything is counted or drawn: an
        empty list, an entry other than a pair ``(kind, alpha)`` of a kind
        ``value`` or ``deriv``, or a step size that is not one real, finite
        scalar raises the ``ValueError`` that :meth:`answer` gives a grid
        run for it.  Then each request counts one loss or gradient eval and
        draws one sample, in list order, and the first ``ValueError`` among
        the replies, in list order, is raised.
        """
        if error := _request_error(requests):
            raise error
        _count(self.counter, requests)
        replies = self.answer(self.model, {0: requests})[0]
        if type(replies) is ValueError:
            raise replies
        return replies

    def value(self, alpha) -> float:
        """F(alpha) under the probe's sampling policy; counts one loss eval."""
        return self.ask([("value", alpha)])[0]

    def deriv(self, alpha) -> float:
        """F'(alpha), the gradient projected onto the direction; counts one
        gradient eval."""
        return self.ask([("deriv", alpha)])[0]

    def value_and_deriv(self, alpha):
        """F and F' at one step size sharing a single sample draw: a scan
        of one node (:func:`scan_probes`)."""
        values, slopes = scan_probes([self], [alpha])
        return float(values[0, 0]), float(slopes[0, 0])


def scan_probes(probes, alphas, curves=None):
    """F and F' of every probe of ``probes`` at every step size of
    ``alphas``: arrays of shape ``(len(probes), len(alphas))``.

    Each probe draws the samples of its nodes under its own policy, one per
    node in grid order, probe after probe, and counts one loss and one
    gradient eval per node, as a :meth:`DirectionalProbe.value_and_deriv`
    loop over ``alphas`` does.  So the probes must share their model, and
    their samples must be of one shape.  An empty grid gives ``(len(probes),
    0)`` arrays and draws and counts nothing.

    Given ``curves``, a :class:`LineCurves`, the ``R`` probes' ``M`` nodes
    take their F and F' from it, gathering each batch's rows
    (:meth:`LineCurves.batches`), and the probes must share its model, line
    and grid bit for bit.  The caller decides: the curves pay when their
    ``M * n`` (node, row) pairs are fewer than the ``R * M * P`` rows of
    the stacked batches (``P = n`` without sub-sampling), or when other
    scans on the line share them.  Without ``curves`` every node of every
    probe takes one stacked ``losses_and_gradients`` call of the model (in
    blocks of at most 4096 batch rows for a :class:`BatchObjective`), and
    all the slopes one dot product per row, so every F and F' has the bits
    that a scan of its probe alone gives.
    From the curves, F has those bits at batches of ``P >= 2`` rows, and
    mostly at ``P = 1``, where the stack takes numpy's vector path; F'
    differs from the stacked slope only by the rounding of their terms,
    about 1e-13 of the sum of its rows' absolute slopes on the scans of
    ``gols scan``.

    A non-finite step size raises ``ValueError`` before anything is counted
    or drawn.  A non-finite F or F' raises one that names the first bad
    node, in probe order and then grid order, after every probe has drawn
    and counted its nodes.
    """
    if not probes:
        raise ValueError("need at least one probe to scan")
    model = probes[0].model
    if any(probe.model is not model for probe in probes):
        raise ValueError("probes must share one model")
    alphas = _steps(alphas)
    origins = np.array([probe.origin for probe in probes])
    directions = np.array([probe.direction for probe in probes])
    if curves is not None and not (
            curves.model is model and _repeats(alphas[None], curves.alphas)
            and _repeats(origins, curves.origin) and _repeats(directions, curves.direction)):
        raise ValueError("probes must share the model, line and grid of their curves")
    nodes = len(alphas)
    if not nodes:
        return np.empty((len(probes), 0)), np.empty((len(probes), 0))
    samples = _node_samples(probes, nodes)
    if curves is not None:
        if samples[0] is None:
            samples = np.broadcast_to(np.arange(model.num_rows), (len(samples), model.num_rows))
        values, slopes = curves.batches(np.reshape(samples, (len(probes), nodes, -1)))
    else:
        points = alphas[:, None] * directions[:, None]
        points += origins[:, None]
        values, grads = model.losses_and_gradients(
            points.reshape(-1, origins.shape[1]), samples)
        values = values.reshape(len(probes), nodes)
        slopes = np.vecdot(grads.reshape(len(probes), nodes, -1), directions[:, None])
    bad = ~(np.isfinite(values) & np.isfinite(slopes))
    if bad.any():
        p, i = divmod(int(np.argmax(bad)), nodes)
        _finite("F", alphas[i], values[p, i])
        _finite("F'", alphas[i], slopes[p, i])
    return values, slopes


def _steps(alphas) -> np.ndarray:
    """The step sizes ``alphas`` as a 1-d float array, each finite, else
    ``ValueError``."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1:
        raise ValueError("step sizes must form a 1-d grid")
    if not np.all(np.isfinite(alphas)):
        raise ValueError("step size must be finite")
    return alphas


def _blocks(count, rows):
    """Slices of ``range(count)`` in order, each of at least one item and of
    at most ``_BLOCK_ROWS`` rows at ``rows`` rows an item."""
    step = max(1, _BLOCK_ROWS // rows)
    for start in range(0, count, step):
        yield slice(start, start + step)


def _repeats(lines, line) -> bool:
    """Whether every row of ``lines`` is ``line``, bit for bit."""
    return lines.tobytes() == line.tobytes() * len(lines)


def _node_samples(probes, nodes):
    """The samples of ``nodes`` evaluations of each probe, probe after
    probe, each probe counting its evaluations: one array when every probe
    draws its samples as one, else a list.  The probes' own draws are
    released on return, before the evaluation needs its memory."""
    drawn = []
    for probe in probes:
        drawn.append(_draw(probe.policy, probe._sampler, probe.fixed_sample, nodes))
        probe.counter.functions += nodes
        probe.counter.gradients += nodes
    if nodes:
        shapes = {None if d[0] is None else getattr(d[0], "shape", ()) for d in drawn}
        if len(shapes) > 1:
            raise ValueError("probes must draw samples of one shape")
    if all(type(d) is np.ndarray for d in drawn):
        return np.concatenate(drawn)
    return [sample for d in drawn for sample in d]


def _request_error(requests):
    """``None`` for a nonempty list of search requests, each a pair
    ``("value", alpha)`` or ``("deriv", alpha)`` with ``alpha`` one scalar
    and ``-inf < alpha < inf``, else the ``ValueError`` that rejects
    ``requests``: ``step size must be finite`` for a NaN or infinite step,
    else one that shows the list.  The grid checks every list of every
    round, so this is a plain loop that calls nothing for the Python floats
    the searches ask; an entry that is not a pair fails its unpacking, a
    step that is not a real number its comparison, a step of another type
    (a one-element array say) :func:`_scalar`, and the ``try`` costs
    nothing until it catches."""
    try:
        for kind, alpha in requests:
            if kind != "value" and kind != "deriv":
                break
            if not -math.inf < alpha < math.inf:
                return ValueError("step size must be finite")
            if type(alpha) is not float and not _scalar(alpha):
                break
        else:
            if requests:
                return None
    except (TypeError, ValueError):
        pass
    return ValueError(f"a probe answers a nonempty list of 'value' and 'deriv' "
                      f"requests, not {requests!r}")


def _scalar(alpha) -> bool:
    """Whether the step ``alpha`` converts to one float, and is not complex
    (numpy orders its complex scalars, and would drop the imaginary part)."""
    try:
        return not np.iscomplexobj(alpha) and np.array(alpha, dtype=float).ndim == 0
    except (TypeError, ValueError):
        return False


def _count(counter, requests) -> None:
    """Charge ``counter`` one eval per search request ``(kind, alpha)``: a
    gradient eval for a ``deriv``, a loss eval for a ``value``."""
    for kind, _ in requests:
        counter.functions += kind == "value"
        counter.gradients += kind == "deriv"


def _draw(policy, sampler, fixed, count=None):
    """The samples of a line's evaluations under ``policy``: a fresh one
    from ``sampler`` each (``resample``), ``fixed`` each (``fixed``), or
    ``None`` (``full``).

    Without ``count``, the line's draw: a callable of no arguments that
    returns the sample of its next evaluation.  With one, the samples of its
    next ``count`` evaluations, the ones ``count`` calls of the draw return.
    """
    if policy == "resample":
        return sampler.sample if count is None else sampler.samples(count)
    sample = fixed if policy == "fixed" else None
    return (lambda: sample) if count is None else [sample] * count


def _finite(name, alpha, number) -> float:
    number = float(number)
    if not math.isfinite(number):
        raise ValueError(f"non-finite {name}({float(alpha)!r}) = {number!r}")
    return number
