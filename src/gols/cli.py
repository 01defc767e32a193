"""Experiment runner: train | scan | compare subcommands writing CSV files.

All randomness flows from ``--seed``; identical invocations produce
byte-identical outputs.  The training runs of ``train`` and ``compare``, one
per resolver and repeat, go through one call of
:func:`gols.trainer.train_on_dataset`, which trains them in lockstep; the
scans of ``scan``, one per batch size and repeat, all lie on one line.
``scan`` alone decides, once for the job, whether they gather their F and
F' from the line's per-row curves, one pass for the job
(:func:`gols.analysis.line_curves`): they do when those are fewer rows
than the sub-sampled batches, and stack their batches otherwise.  A batch
size whose scans draw no samples, ``full`` or any under ``--policy full``,
is scanned once, and its repeats share that deterministic scan.
Everything runs in one thread.  Exit codes: 0 on success, 2 on a bad
invocation, 1 on a runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np

from gols.analysis import (estimate_ball, line_curves, scaled_descent_direction, scan_lines,
                           write_scan_csv)
# cmd_scan no longer calls scan_line, but bench/tracer.py patches it under
# this name (tests/test_tracer_bindings.py checks that it can).
from gols.analysis import scan_line  # noqa: F401
from gols.data import (BUILTIN_DATASETS, BatchSampler, builtin_dataset, load_csv,
                       split_3_1_1, write_csv)
from gols.linesearch import RESOLVER_NAMES, make_search
from gols.net import Network
from gols.probe import POLICIES, BatchObjective, DirectionalProbe
from gols.trainer import TRACE_COLUMNS, TrainConfig, train_on_dataset

__all__ = ["main"]


# -- option parsers: text -> value, ValueError on text that can never work -----


def _at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise ValueError(f"must be a whole number of at least {low}")
        return value
    return parse


def _positive(text):
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError("must be positive and finite")
    return value


def _policy(text):
    if text not in POLICIES:
        raise ValueError(f"must be one of {', '.join(POLICIES)}")
    return text


def _entries(parse_entry):
    """Parser of a comma list of distinct entries, each through ``parse_entry``."""
    def parse(text):
        values = tuple(parse_entry(token.strip()) for token in text.split(","))
        if len(set(values)) < len(values):
            raise ValueError("entries must not repeat")
        return values
    return parse


def _arch(text):
    widths = tuple(map(_at_least(1), text.split(",")))
    if not 1 <= len(widths) <= 2:
        raise ValueError("must list one or two hidden layer widths")
    return widths


def _resolver(name):
    make_search(name)  # raises ValueError on an unknown name
    return name


def _batch_size(token):
    return token if token == "full" else _at_least(1)(token)


def _out(text):
    if not text:
        raise ValueError("must name a directory")  # Path("") would be "."
    return Path(text)


def _dataset(name):
    if name in BUILTIN_DATASETS:
        return builtin_dataset(name)
    if Path(name).exists():
        return load_csv(name)
    raise ValueError("neither a builtin name nor an existing file")


# Every option once: spec attribute and config key, flag, default as text,
# parser and help.  Flag, config and default values all pass the same parser.
_Option = namedtuple("_Option", "key flag default parse help scan_only",
                     defaults=(False,))
_OPTIONS = (
    _Option("dataset", "--dataset", "iris", _dataset,
            f"builtin name or CSV path (builtins: {', '.join(BUILTIN_DATASETS)})"),
    _Option("arch", "--arch", "3", _arch, "hidden layer widths, e.g. '5' or '5,5'"),
    _Option("resolvers", "--resolver", "igols", _entries(_resolver),
            f"comma list of {'|'.join(RESOLVER_NAMES)}|fixed:<alpha>"),
    _Option("repeats", "--repeats", "10", _at_least(1), "runs per resolver or batch size"),
    _Option("iterations", "--iterations", "3000", _at_least(1), "training iterations"),
    _Option("batch_size", "--batch-size", "10", _at_least(1), "training batch size"),
    _Option("seed", "--seed", "0", _at_least(0), "seed of all randomness"),
    _Option("out", "--out", "results", _out, "output directory"),
    _Option("policy", "--policy", "resample", _policy,
            f"probe sampling policy: {'|'.join(POLICIES)}"),
    _Option("batch_sizes", "--batch-sizes", "10,30,50,full", _entries(_batch_size),
            "comma list of sizes, 'full' allowed", scan_only=True),
    _Option("scan_step", "--scan-step", "0.1", _positive, "grid spacing",
            scan_only=True),
    _Option("scan_steps", "--scan-steps", "100", _at_least(2), "grid intervals",
            scan_only=True),
    _Option("target_alpha", "--target-alpha", "2.5", _positive,
            "step of the full-batch minimizer along the direction", scan_only=True),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gols",
        description="Train sigmoid MLPs with line-search step sizes and "
                    "analyze descent directions; results land as CSV files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "write one trace CSV per (resolver, repeat) plus a summary"),
        ("scan", "write line-scan CSVs per batch size plus a counts summary"),
        ("compare", "write per-resolver mean evaluation costs per iteration"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON file of option values")
        for opt in _OPTIONS:
            if name == "scan" or not opt.scan_only:
                cmd.add_argument(opt.flag, dest=opt.key,
                                 help=f"{opt.help} (default: {opt.default})")
    return parser


def build_spec(args) -> argparse.Namespace:
    """Each option's value from its flag, else the config file, else the
    default, through the option's parser."""
    config = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"--config {args.config!r}: {exc}") from None
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(config) - {opt.key for opt in _OPTIONS}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        # Only strings and numbers have flag text.  The exact type test also
        # refuses bool, which is a subclass of int.
        untyped = sorted(key for key, value in config.items()
                         if type(value) not in (str, int, float))
        if untyped:
            raise ValueError(f"config values must be JSON strings or numbers: {untyped}")
    spec = argparse.Namespace(command=args.command)
    for opt in _OPTIONS:
        text = getattr(args, opt.key, None)
        if text is None:
            text = config.get(opt.key, opt.default)
        try:
            setattr(spec, opt.key, opt.parse(str(text)))
        except (ValueError, OSError) as exc:
            raise ValueError(f"{opt.flag} {text!r}: {exc}") from None
    if spec.command == "compare" and len(spec.resolvers) < 2:
        raise ValueError("compare needs at least two resolvers")
    return spec


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    try:
        spec = build_spec(args)
        try:
            spec.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--out {str(spec.out)!r}: {exc}") from None
    except (ValueError, OSError) as exc:
        print(f"gols: error: {exc}", file=sys.stderr)
        return 2
    try:
        {"train": cmd_train, "scan": cmd_scan, "compare": cmd_compare}[spec.command](spec)
    except Exception as exc:
        print(f"gols: failed: {exc}", file=sys.stderr)
        return 1
    return 0


# -- commands -----------------------------------------------------------------


def cmd_train(spec) -> None:
    tables = _run_training_grid(spec)
    for resolver, table in zip(spec.resolvers, tables):
        for repeat, rows in enumerate(table):
            write_csv(spec.out / f"train_{_safe(resolver)}_rep{repeat:02d}.csv",
                      TRACE_COLUMNS, [[rows[name] for name in TRACE_COLUMNS]])
    write_csv(spec.out / "train_summary.csv", _SUMMARY_HEADER, _summary_blocks(spec, tables))


def cmd_compare(spec) -> None:
    tables = _run_training_grid(spec)
    write_csv(spec.out / "compare.csv",
              ["resolver", "fevals_per_iter", "infocalls_per_iter"],
              ((resolver, table["cost"][:, -1].mean() / spec.iterations,
                table["info_calls"][:, -1].mean() / spec.iterations)
               for resolver, table in zip(spec.resolvers, tables)))


def cmd_scan(spec) -> None:
    dataset = spec.dataset
    split = split_3_1_1(dataset, seed=(spec.seed, 9))
    net = Network(dataset.num_features, spec.arch, dataset.class_count)
    model = BatchObjective(net, dataset.features[split.train],
                           dataset.one_hot()[split.train])
    origin = net.init_params((spec.seed, 101, 0))
    direction = scaled_descent_direction(model, origin, spec.target_alpha)
    rows = len(split.train)
    # The one choice between the line's curves and the stack (scan_probes
    # gathers from curves only when handed them): one pass over the line's
    # (node, row) pairs serves every scan when they are fewer than the batch
    # rows of the job's sub-sampled stacked scans; a full scan stacks as many
    # rows as the pass, in bounded blocks.
    stacked = sum(spec.repeats * min(size, rows) for size in spec.batch_sizes
                  if size != "full")
    curves = (line_curves(model, origin, direction, spec.scan_step, spec.scan_steps)
              if rows < stacked else None)

    def scans(size_index, size):
        """Every repeat's scan of one batch size, gathered from the line's
        curves when the job has them.  A size whose scans draw no samples,
        ``full`` or any under ``--policy full``, is one deterministic scan
        that its repeats share."""
        label = rows if size == "full" else min(size, rows)
        if size == "full" or spec.policy == "full":
            probe = DirectionalProbe(model, origin, direction, policy="full")
            return scan_lines([probe], spec.scan_step, spec.scan_steps, label,
                              curves) * spec.repeats
        probes = [DirectionalProbe(model, origin, direction, policy=spec.policy,
                                   sampler=BatchSampler(np.arange(rows), size,
                                                        seed=(spec.seed, 303, size_index, rep)))
                  for rep in range(spec.repeats)]
        return scan_lines(probes, spec.scan_step, spec.scan_steps, label, curves)

    groups = [scans(si, size) for si, size in enumerate(spec.batch_sizes)]
    for size, group in zip(spec.batch_sizes, groups):
        write_scan_csv(spec.out / f"scan_{_safe(str(size))}.csv", group)
    write_csv(spec.out / "scan_summary.csv",
              ["batch_size", "local_minima_mean", "local_minima_std",
               "snngpp_mean", "snngpp_std", "ball_center", "ball_epsilon"],
              map(_scan_summary, spec.batch_sizes, groups))


# -- helpers ------------------------------------------------------------------


def _run_training_grid(spec) -> list:
    """One ``(repeats, iterations + 1)`` trace record array per resolver, in
    ``spec.resolvers`` order."""
    split = split_3_1_1(spec.dataset, seed=(spec.seed, 9))
    net = Network(spec.dataset.num_features, spec.arch, spec.dataset.class_count)

    configs = [
        TrainConfig(
            iterations=spec.iterations,
            batch_size=spec.batch_size,
            resolver=resolver,
            policy=spec.policy,
            # Repeats share starting points across resolvers.
            weight_seed=(spec.seed, 101, repeat),
            sampler_seed=(spec.seed, 202, resolver_index, repeat),
        )
        for resolver_index, resolver in enumerate(spec.resolvers)
        for repeat in range(spec.repeats)
    ]
    traces = train_on_dataset(net, spec.dataset, split, configs)
    return [np.stack([trace.rows for trace in traces[start:start + spec.repeats]])
            for start in range(0, len(traces), spec.repeats)]


def _safe(name: str) -> str:
    return name.replace(":", "-").replace("/", "-")


# The trace columns of train_summary.csv, each with the statistics across
# repeats that it gets, in column order.
_SUMMARY_COLUMNS = (("cost", ("mean",)), ("info_calls", ("mean",)),
                    ("train_loss", ("mean", "std")), ("validation_loss", ("mean", "std")),
                    ("test_loss", ("mean", "std")))
_SUMMARY_HEADER = ["resolver", "iteration"] + [f"{stat}_{name}" for name, stats in _SUMMARY_COLUMNS
                                               for stat in stats]


def _summary_blocks(spec, tables):
    """One block per resolver: means and standard deviations across repeats
    at every iteration."""
    for resolver, table in zip(spec.resolvers, tables):
        # np.array copies the columns into a new C-contiguous array, so the
        # repeats lie on its last, contiguous axis: each mean and std then
        # sums its values in the order np.mean of that one list would.
        # (np.stack would keep the transposed layout and change the sums.)
        values = np.array([table[name].T for name, _ in _SUMMARY_COLUMNS])
        computed = {"mean": values.mean(axis=2), "std": values.std(axis=2)}
        yield (resolver, np.arange(spec.iterations + 1),
               *(computed[stat][c] for c, (_, stats) in enumerate(_SUMMARY_COLUMNS)
                 for stat in stats))


def _scan_summary(size, scans):
    minima = np.array([len(s.minima_alphas) for s in scans], dtype=float)
    changes = np.array([len(s.snngpp_alphas) for s in scans], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            ball = estimate_ball(scans)
            center, epsilon = ball.center, ball.epsilon
        except ValueError:
            center, epsilon = math.nan, math.nan
    return (size, minima.mean(), minima.std(), changes.mean(), changes.std(),
            center, epsilon)


if __name__ == "__main__":
    sys.exit(main())
