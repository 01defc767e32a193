"""Checks on the CSV files one ``gols`` CLI job writes, read from outside the
package.

A cell is one (resolver, repeat) training run or one (batch size, repeat)
scan.  Each check returns the set of cells whose outputs are wrong.  The
checks hold for any seed: they test row counts, finiteness, the step-size
caps, monotone cost and summary counts recounted from the scan values, never
exact losses or evaluation counts, so a change in the last bits of a loss
does not read as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

ALPHA_MIN = 1e-8
ALPHA_CAP = 1e7

TRACE_HEADER = ["iteration", "alpha", "grad_norm", "train_loss",
                "validation_loss", "test_loss", "cost", "info_calls"]
TRAIN_SUMMARY_HEADER = ["resolver", "iteration", "mean_cost", "mean_info_calls",
                        "mean_train_loss", "std_train_loss",
                        "mean_validation_loss", "std_validation_loss",
                        "mean_test_loss", "std_test_loss"]
SCAN_HEADER = ["alpha", "f", "fprime", "batch_size", "repeat_id"]
SCAN_SUMMARY_HEADER = ["batch_size", "local_minima_mean", "local_minima_std",
                       "snngpp_mean", "snngpp_std", "ball_center", "ball_epsilon"]


def file_stem(name) -> str:
    """The CLI's file-name spelling of a resolver or batch-size label."""
    return str(name).replace(":", "-").replace("/", "-")


def train_cells(resolvers, repeats) -> set:
    return {(r, rep) for r in resolvers for rep in range(repeats)}


def scan_cells(batch_sizes, repeats) -> set:
    return {(str(s), rep) for s in batch_sizes for rep in range(repeats)}


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _finite(cells) -> list:
    values = [float(c) for c in cells]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite value")
    return values


def trace_ok(path, iterations) -> bool:
    """One per-run trace: ``iterations + 1`` rows, finite values, accepted
    steps within ``[1e-8, min(1/grad_norm, 1e7)]`` and cumulative counters
    that never decrease.  Row 0 is the state before the first step: its
    ``grad_norm`` is undefined and its ``alpha`` is not an accepted step."""
    try:
        rows = _read(path)
        if rows[0] != TRACE_HEADER or len(rows) != iterations + 2:
            return False
        cost = info = 0
        for i, row in enumerate(rows[1:]):
            if len(row) != len(TRACE_HEADER) or int(row[0]) != i:
                return False
            alpha, grad_norm = float(row[1]), float(row[2])
            _finite([row[1]] + row[3:])
            if i > 0:
                _finite([row[2]])
                cap = ALPHA_CAP if grad_norm == 0.0 else min(1.0 / grad_norm, ALPHA_CAP)
                if not ALPHA_MIN <= alpha <= cap:
                    return False
            if int(row[6]) < cost or int(row[7]) < info:
                return False
            cost, info = int(row[6]), int(row[7])
    except (OSError, ValueError, IndexError):
        return False
    return True


def train_summary_bad_resolvers(path, resolvers, iterations) -> set:
    """Resolvers whose ``train_summary.csv`` rows are missing, out of order
    or not finite; every resolver when the file itself is unreadable."""
    try:
        rows = _read(path)
    except OSError:
        return set(resolvers)
    if not rows or rows[0] != TRAIN_SUMMARY_HEADER:
        return set(resolvers)
    body = rows[1:]
    bad = set()
    for k, resolver in enumerate(resolvers):
        block = body[k * (iterations + 1):(k + 1) * (iterations + 1)]
        try:
            if len(block) != iterations + 1:
                raise ValueError("short block")
            for i, row in enumerate(block):
                if (len(row) != len(TRAIN_SUMMARY_HEADER) or row[0] != resolver
                        or int(row[1]) != i):
                    raise ValueError("misplaced row")
                _finite(row[2:])
        except ValueError:
            bad.add(resolver)
    if len(body) != len(resolvers) * (iterations + 1):
        bad = set(resolvers)
    return bad


def check_train(out_dir, resolvers, repeats, iterations) -> set:
    """Failed cells of one ``gols train`` job."""
    out_dir = Path(out_dir)
    failed = {(r, rep) for r, rep in train_cells(resolvers, repeats)
              if not trace_ok(out_dir / f"train_{file_stem(r)}_rep{rep:02d}.csv",
                              iterations)}
    bad = train_summary_bad_resolvers(out_dir / "train_summary.csv", resolvers, iterations)
    return failed | {(r, rep) for r in bad for rep in range(repeats)}


def strict_minima(values) -> int:
    return sum(1 for a, b, c in zip(values, values[1:], values[2:]) if b < a and b < c)


def sign_changes(slopes) -> int:
    """Negative-to-non-negative transitions between adjacent nodes."""
    return sum(1 for a, b in zip(slopes, slopes[1:]) if a < 0 <= b)


def scan_counts(path, repeats, steps):
    """Recount one scan CSV: per repeat, (strict minima, sign changes), or
    ``None`` for a repeat whose rows are missing, misplaced or not finite."""
    counts = [None] * repeats
    try:
        rows = _read(path)
    except OSError:
        return counts
    if not rows or rows[0] != SCAN_HEADER or len(rows) != repeats * (steps + 1) + 1:
        return counts
    body = rows[1:]
    for rep in range(repeats):
        block = body[rep * (steps + 1):(rep + 1) * (steps + 1)]
        try:
            if any(len(row) != len(SCAN_HEADER) or int(row[4]) != rep for row in block):
                continue
            alphas = _finite(row[0] for row in block)
            values = _finite(row[1] for row in block)
            slopes = _finite(row[2] for row in block)
        except ValueError:
            continue
        if all(a < b for a, b in zip(alphas, alphas[1:])):
            counts[rep] = (strict_minima(values), sign_changes(slopes))
    return counts


def check_scan(out_dir, batch_sizes, repeats, steps) -> set:
    """Failed cells of one ``gols scan`` job.  The strict-minima and
    sign-change means in ``scan_summary.csv`` must equal a recount from the
    scan CSV values; a disagreeing or non-finite summary row fails every cell
    of its batch size."""
    out_dir = Path(out_dir)
    try:
        summary = _read(out_dir / "scan_summary.csv")
    except OSError:
        summary = []
    summary_ok = (len(summary) == len(batch_sizes) + 1
                  and summary[0] == SCAN_SUMMARY_HEADER)
    failed = set()
    for k, size in enumerate(batch_sizes):
        label = str(size)
        counts = scan_counts(out_dir / f"scan_{file_stem(label)}.csv", repeats, steps)
        failed |= {(label, rep) for rep, c in enumerate(counts) if c is None}
        ok = summary_ok and None not in counts
        if ok:
            row = summary[k + 1]
            try:
                ok = len(row) == len(SCAN_SUMMARY_HEADER) and row[0] == label
                minima_mean, _, changes_mean, _, _, _ = _finite(row[1:])
            except ValueError:
                ok = False
            else:
                ok = (ok
                      and math.isclose(minima_mean, sum(c[0] for c in counts) / repeats,
                                       rel_tol=1e-12, abs_tol=1e-12)
                      and math.isclose(changes_mean, sum(c[1] for c in counts) / repeats,
                                       rel_tol=1e-12, abs_tol=1e-12))
        if not ok:
            failed |= {(label, rep) for rep in range(repeats)}
    return failed


def digest(out_dir) -> dict:
    """SHA-256 of every file a job wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def output_bytes(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())
