"""Adaptive SGD step sizes via gradient-only and function-value line searches."""

from gols.analysis import (
    BallEstimate,
    ScanResult,
    count_local_minima,
    count_snngpp,
    estimate_ball,
    scaled_descent_direction,
    scan_line,
    write_scan_csv,
)
from gols.data import (
    BatchSampler,
    Dataset,
    Split,
    builtin_dataset,
    load_csv,
    split_3_1_1,
)
from gols.linesearch import (
    ALPHA_CAP,
    ALPHA_MIN,
    ArmijoConfig,
    BracketConfig,
    InexactConfig,
    LineSearchOutcome,
    armijo,
    bisection_gols,
    effective_alpha_max,
    golden_section,
    inexact_gols,
    make_resolver,
)
from gols.net import Network, sigmoid
from gols.probe import (
    BatchObjective,
    DirectionalProbe,
    EvalCounter,
    KeyStream,
    SyntheticObjective,
)
from gols.trainer import (
    TraceRow,
    TrainConfig,
    TrainTrace,
    dataset_metrics,
    sgd_train,
    train_on_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_CAP",
    "ALPHA_MIN",
    "ArmijoConfig",
    "BallEstimate",
    "BatchObjective",
    "BatchSampler",
    "BracketConfig",
    "Dataset",
    "DirectionalProbe",
    "EvalCounter",
    "InexactConfig",
    "KeyStream",
    "LineSearchOutcome",
    "Network",
    "ScanResult",
    "Split",
    "SyntheticObjective",
    "TraceRow",
    "TrainConfig",
    "TrainTrace",
    "armijo",
    "bisection_gols",
    "builtin_dataset",
    "count_local_minima",
    "count_snngpp",
    "dataset_metrics",
    "effective_alpha_max",
    "estimate_ball",
    "golden_section",
    "inexact_gols",
    "load_csv",
    "make_resolver",
    "scaled_descent_direction",
    "scan_line",
    "sgd_train",
    "sigmoid",
    "split_3_1_1",
    "train_on_dataset",
    "write_scan_csv",
]
