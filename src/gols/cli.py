"""Experiment runner: train | scan | compare subcommands writing CSV files.

All randomness flows from ``--seed``; identical invocations produce
byte-identical outputs.  Cells (one training run per resolver and repeat, or
one scan per batch size and repeat) run one after another in one thread.
Exit codes: 0 on success, 2 on a bad invocation, 1 on a runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gols.analysis import estimate_ball, scaled_descent_direction, scan_line, write_scan_csv
from gols.data import BUILTIN_DATASETS, BatchSampler, builtin_dataset, load_csv, split_3_1_1
from gols.linesearch import make_resolver
from gols.net import Network
from gols.probe import BatchObjective, DirectionalProbe
from gols.trainer import TRACE_COLUMNS, TrainConfig, train_on_dataset

__all__ = ["main", "ExperimentSpec"]

_DEFAULTS = {
    "dataset": "iris",
    "arch": "3",
    "resolvers": "igols",
    "repeats": 10,
    "iterations": 3000,
    "batch_size": 10,
    "seed": 0,
    "out": "results",
    "policy": "resample",
    "batch_sizes": "10,30,50,full",
    "scan_step": 0.1,
    "scan_steps": 100,
    "target_alpha": 2.5,
}


@dataclass
class ExperimentSpec:
    command: str
    dataset_name: str
    dataset: object
    arch: tuple
    resolvers: tuple
    repeats: int
    iterations: int
    batch_size: int
    seed: int
    out: Path
    policy: str
    batch_sizes: tuple
    scan_step: float
    scan_steps: int
    target_alpha: float


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
        cmd.add_argument("--config", help="JSON file of option defaults")
        cmd.add_argument("--dataset", help="builtin name or CSV path "
                                           f"(builtins: {', '.join(BUILTIN_DATASETS)})")
        cmd.add_argument("--arch", help="hidden layer widths, e.g. '5' or '5,5'")
        cmd.add_argument("--resolver", dest="resolvers",
                         help="comma list of gs|arls|bgols|igols|fixed:<alpha>")
        cmd.add_argument("--repeats", type=int)
        cmd.add_argument("--iterations", type=int)
        cmd.add_argument("--batch-size", type=int)
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--policy", choices=("resample", "fixed", "full"))
        if name == "scan":
            cmd.add_argument("--batch-sizes",
                             help="comma list of sizes, 'full' allowed")
            cmd.add_argument("--scan-step", type=float)
            cmd.add_argument("--scan-steps", type=int)
            cmd.add_argument("--target-alpha", type=float)
    return parser


def build_spec(args) -> ExperimentSpec:
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag

    resolvers = tuple(str(merged["resolvers"]).replace(" ", "").split(","))
    if not resolvers or resolvers == ("",):
        raise ValueError("need at least one resolver")
    for name in resolvers:
        make_resolver(name)  # validates the name early

    arch = tuple(int(w) for w in str(merged["arch"]).split(","))
    if not 1 <= len(arch) <= 2:
        raise ValueError("arch must list one or two hidden layer widths")

    batch_sizes = []
    for token in str(merged["batch_sizes"]).replace(" ", "").split(","):
        batch_sizes.append("full" if token == "full" else int(token))

    repeats = int(merged["repeats"])
    if repeats < 1:
        raise ValueError("repeats must be at least 1")

    name = str(merged["dataset"])
    if name in BUILTIN_DATASETS:
        dataset = builtin_dataset(name)
    elif Path(name).exists():
        dataset = load_csv(name)
    else:
        raise ValueError(f"dataset {name!r} is neither builtin nor an existing file")

    command = args.command
    if command == "compare" and len(resolvers) < 2:
        raise ValueError("compare needs at least two resolvers")

    return ExperimentSpec(
        command=command,
        dataset_name=name,
        dataset=dataset,
        arch=arch,
        resolvers=resolvers,
        repeats=repeats,
        iterations=int(merged["iterations"]),
        batch_size=int(merged["batch_size"]),
        seed=int(merged["seed"]),
        out=Path(merged["out"]),
        policy=str(merged["policy"]),
        batch_sizes=tuple(batch_sizes),
        scan_step=float(merged["scan_step"]),
        scan_steps=int(merged["scan_steps"]),
        target_alpha=float(merged["target_alpha"]),
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    try:
        spec = build_spec(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"gols: error: {exc}", file=sys.stderr)
        return 2
    try:
        {"train": cmd_train, "scan": cmd_scan, "compare": cmd_compare}[spec.command](spec)
    except Exception as exc:
        print(f"gols: failed: {exc}", file=sys.stderr)
        return 1
    return 0


# -- commands -----------------------------------------------------------------


def cmd_train(spec: ExperimentSpec) -> None:
    traces = _run_training_grid(spec)
    spec.out.mkdir(parents=True, exist_ok=True)
    for (resolver, repeat), trace in sorted(traces.items()):
        _write_trace_csv(spec.out / f"train_{_safe(resolver)}_rep{repeat:02d}.csv", trace)
    _write_train_summary(spec.out / "train_summary.csv", spec, traces)


def cmd_compare(spec: ExperimentSpec) -> None:
    traces = _run_training_grid(spec)
    spec.out.mkdir(parents=True, exist_ok=True)
    with open(spec.out / "compare.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["resolver", "fevals_per_iter", "infocalls_per_iter"])
        for resolver in spec.resolvers:
            finals = [traces[(resolver, rep)].final for rep in range(spec.repeats)]
            writer.writerow([
                resolver,
                repr(float(np.mean([f.cost for f in finals]) / spec.iterations)),
                repr(float(np.mean([f.info_calls for f in finals]) / spec.iterations)),
            ])


def cmd_scan(spec: ExperimentSpec) -> None:
    dataset = spec.dataset
    split = split_3_1_1(dataset, seed=(spec.seed, 9))
    net = Network(dataset.num_features, spec.arch, dataset.class_count)
    model = BatchObjective(net, dataset.features[split.train],
                           dataset.one_hot()[split.train])
    origin = net.init_params((spec.seed, 101, 0))
    direction = scaled_descent_direction(model, origin, spec.target_alpha)
    rows = len(split.train)

    def run(size_index, repeat):
        size = spec.batch_sizes[size_index]
        if size == "full":
            probe = DirectionalProbe(model, origin, direction, policy="full")
            actual = rows
        else:
            sampler = BatchSampler(np.arange(rows), size,
                                   seed=(spec.seed, 303, size_index, repeat))
            probe = DirectionalProbe(model, origin, direction,
                                     policy=spec.policy, sampler=sampler)
            actual = min(size, rows)
        return scan_line(probe, 0.0, spec.scan_step, spec.scan_steps,
                         batch_size=actual)

    results = {(si, rep): run(si, rep) for si in range(len(spec.batch_sizes))
               for rep in range(spec.repeats)}

    spec.out.mkdir(parents=True, exist_ok=True)
    with open(spec.out / "scan_summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["batch_size", "local_minima_mean", "local_minima_std",
                         "snngpp_mean", "snngpp_std", "ball_center", "ball_epsilon"])
        for si, size in enumerate(spec.batch_sizes):
            scans = [results[(si, rep)] for rep in range(spec.repeats)]
            write_scan_csv(spec.out / f"scan_{_safe(str(size))}.csv", scans)
            minima = np.array([len(s.minima_alphas) for s in scans], dtype=float)
            changes = np.array([len(s.snngpp_alphas) for s in scans], dtype=float)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                try:
                    ball = estimate_ball(scans)
                    center, epsilon = ball.center, ball.epsilon
                except ValueError:
                    center, epsilon = float("nan"), float("nan")
            writer.writerow([size,
                             repr(float(minima.mean())), repr(float(minima.std())),
                             repr(float(changes.mean())), repr(float(changes.std())),
                             repr(center), repr(epsilon)])


# -- helpers ------------------------------------------------------------------


def _run_training_grid(spec: ExperimentSpec) -> dict:
    split = split_3_1_1(spec.dataset, seed=(spec.seed, 9))
    net = Network(spec.dataset.num_features, spec.arch, spec.dataset.class_count)

    def run(resolver_index, repeat):
        cfg = TrainConfig(
            iterations=spec.iterations,
            batch_size=spec.batch_size,
            resolver=spec.resolvers[resolver_index],
            policy=spec.policy,
            # Repeats share starting points across resolvers.
            weight_seed=(spec.seed, 101, repeat),
            sampler_seed=(spec.seed, 202, resolver_index, repeat),
        )
        return train_on_dataset(net, spec.dataset, split, cfg)

    return {(resolver, rep): run(ri, rep)
            for ri, resolver in enumerate(spec.resolvers)
            for rep in range(spec.repeats)}


def _safe(name: str) -> str:
    return name.replace(":", "-").replace("/", "-")


def _write_trace_csv(path, trace) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in trace.rows:
            writer.writerow([value if isinstance(value, int) else repr(float(value))
                             for value in row.astuple()])


def _write_train_summary(path, spec: ExperimentSpec, traces: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "resolver", "iteration", "mean_cost", "mean_info_calls",
            "mean_train_loss", "std_train_loss",
            "mean_validation_loss", "std_validation_loss",
            "mean_test_loss", "std_test_loss",
        ])
        for resolver in spec.resolvers:
            group = [traces[(resolver, rep)] for rep in range(spec.repeats)]
            for i in range(spec.iterations + 1):
                rows = [t.rows[i] for t in group]
                train = np.array([r.train_loss for r in rows])
                valid = np.array([r.validation_loss for r in rows])
                test = np.array([r.test_loss for r in rows])
                writer.writerow([
                    resolver, i,
                    repr(float(np.mean([r.cost for r in rows]))),
                    repr(float(np.mean([r.info_calls for r in rows]))),
                    repr(float(train.mean())), repr(float(train.std())),
                    repr(float(valid.mean())), repr(float(valid.std())),
                    repr(float(test.mean())), repr(float(test.std())),
                ])


if __name__ == "__main__":
    sys.exit(main())
