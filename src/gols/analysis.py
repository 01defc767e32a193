"""Line scans along a frozen descent direction: minima, slope sign changes,
and the spread of the sign-change locations.

A scan walks a uniform step-size grid, recording the loss and the directional
derivative at every node under the probe's sampling policy (one fresh sample
per node when resampling).  Local minima are strict interior dips of the loss
samples; slope sign changes are counted between adjacent nodes where the
derivative turns from negative to non-negative, which is where a sub-sampled
descent direction bottoms out regardless of how noisy the loss values are.

Each probe draws every node's sample first, in node order, exactly as a
node-by-node walk would.  :func:`scan_lines` then evaluates all the nodes of
several probes, say every repeat of one batch size, in one stacked call
(:func:`gols.probe.scan_probes`), in blocks of at most 4096 batch rows, and
its scans share one step-size grid, whose text a CSV writes once
(:func:`write_scan_csv`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from gols.data import write_csv
from gols.linesearch import ALPHA_CAP, bisection_gols
from gols.probe import DirectionalProbe, scan_probes

__all__ = [
    "ScanResult",
    "BallEstimate",
    "scan_line",
    "scan_lines",
    "count_local_minima",
    "count_snngpp",
    "estimate_ball",
    "write_scan_csv",
    "scaled_descent_direction",
]


@dataclass(eq=False)
class ScanResult:
    """Samples of F and F' on a strictly increasing step-size grid."""

    alphas: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    batch_size: int = 0
    minima_alphas: np.ndarray = field(init=False)
    snngpp_alphas: np.ndarray = field(init=False)

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.slopes = np.asarray(self.slopes, dtype=float)
        if not (len(self.alphas) == len(self.values) == len(self.slopes)):
            raise ValueError("grid, values, and slopes must have equal length")
        if np.any(np.diff(self.alphas) <= 0):
            raise ValueError("step-size grid must be strictly increasing")
        self.minima_alphas = _strict_minima(self.alphas, self.values)
        self.snngpp_alphas = _sign_changes(self.alphas, self.slopes)


@dataclass
class BallEstimate:
    """Half-width of the interval holding every detected sign change,
    centered on their mean location."""

    center: float
    epsilon: float


def scan_line(probe: DirectionalProbe, step=0.1, steps=100,
              batch_size=0) -> ScanResult:
    """Evaluate F and F' on the ``steps + 1`` nodes ``0, step, ...,
    steps * step``: :func:`scan_lines` of this probe alone.

    Each node spends one loss and one gradient evaluation sharing a single
    sample draw, so a resampling probe sees one fresh batch per node.
    """
    return scan_lines([probe], step, steps, batch_size)[0]


def scan_lines(probes, step=0.1, steps=100, batch_size=0) -> list:
    """One :class:`ScanResult` per probe of ``probes``, each on the nodes
    ``0, step, ..., steps * step``, all from one stacked evaluation
    (:func:`gols.probe.scan_probes`).

    The scans share one ``alphas`` array, and each has the values and slopes
    that :func:`scan_line` of its probe alone gives.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    alphas = step * np.arange(steps + 1)
    values, slopes = scan_probes(probes, alphas)
    return [ScanResult(alphas, v, s, batch_size=batch_size)
            for v, s in zip(values, slopes)]


def count_local_minima(scan: ScanResult):
    """Strict interior minima of the sampled loss: count and locations."""
    if len(scan.alphas) < 3:
        raise ValueError("need at least 3 grid nodes to detect minima")
    return len(scan.minima_alphas), scan.minima_alphas


def count_snngpp(scan: ScanResult):
    """Negative-to-non-negative slope transitions: count and interval
    midpoints."""
    if len(scan.alphas) < 2:
        raise ValueError("need at least 2 grid nodes to detect sign changes")
    return len(scan.snngpp_alphas), scan.snngpp_alphas


def estimate_ball(scans) -> BallEstimate:
    """Spread of detected sign-change locations across repeated scans.

    Scans without any detection are excluded with a warning; at least one
    scan must contribute.
    """
    locations = []
    for scan in scans:
        if len(scan.snngpp_alphas) == 0:
            warnings.warn("scan detected no slope sign change; excluded",
                          stacklevel=2)
            continue
        locations.append(scan.snngpp_alphas)
    if not locations:
        raise ValueError("no scan detected any slope sign change")
    points = np.concatenate(locations)
    center = float(points.mean())
    return BallEstimate(center=center, epsilon=float(np.max(np.abs(points - center))))


def write_scan_csv(path, scans) -> None:
    """Write repeated scans as rows of (alpha, f, fprime, batch_size,
    repeat_id)."""
    write_csv(path, ["alpha", "f", "fprime", "batch_size", "repeat_id"],
              ((scan.alphas, scan.values, scan.slopes, scan.batch_size, repeat_id)
               for repeat_id, scan in enumerate(scans)))


def scaled_descent_direction(model, origin, target_alpha=2.5):
    """Steepest-descent direction rescaled so that the deterministic
    minimizer along it falls at ``target_alpha``.

    Resolves the sign change of the full-sample slope along ``-grad``, the
    gradient from the objective's stacked ``losses_and_gradients``, and
    scales the direction so repeated stochastic scans of a fixed grid have
    their reference solution at a known interior location.  ``target_alpha``
    must be positive and finite, and so small or so large a one that the
    rescaled direction's norm overflows or vanishes raises ``ValueError``
    that names it, without a numpy warning.
    """
    if not 0.0 < target_alpha < math.inf:
        raise ValueError("target alpha must be positive and finite")
    g = model.losses_and_gradients([origin], [None])[1][0]
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        raise ValueError("gradient vanishes at the origin; no descent direction")
    probe = DirectionalProbe(model, origin, -g, policy="full")
    out = bisection_gols(probe)
    if not 0 < out.alpha < ALPHA_CAP:
        raise ValueError("no interior minimizer along the descent direction")
    with np.errstate(over="ignore", invalid="ignore"):
        direction = -g * (out.alpha / target_alpha)
        if 0.0 < np.linalg.norm(direction) < math.inf:
            return direction
    raise ValueError(f"target alpha {target_alpha!r} leaves no finite, nonzero direction")


def _strict_minima(alphas, values):
    v = values
    inner = (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    return alphas[1:-1][inner]


def _sign_changes(alphas, slopes):
    neg_then_nonneg = (slopes[:-1] < 0) & (slopes[1:] >= 0)
    return 0.5 * (alphas[:-1] + alphas[1:])[neg_then_nonneg]
