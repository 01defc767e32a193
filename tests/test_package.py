import gols

# The package's public names when it still listed them by hand, less
# TraceRow, which the trace record array replaced, the three search config
# classes, which the paper's fixed settings replaced, and make_resolver,
# whose probe path the four public searches are.
EARLIER_NAMES = (
    "ALPHA_CAP", "ALPHA_MIN", "BallEstimate", "BatchObjective",
    "BatchSampler", "Dataset", "DirectionalProbe", "EvalCounter",
    "KeyStream", "LineSearchOutcome", "Network", "ScanResult",
    "Split", "SyntheticObjective", "TrainConfig", "TrainTrace", "armijo",
    "bisection_gols", "builtin_dataset", "count_local_minima", "count_snngpp",
    "dataset_metrics", "effective_alpha_max", "estimate_ball", "golden_section",
    "inexact_gols", "load_csv", "scaled_descent_direction",
    "scan_line", "sgd_train", "sigmoid", "split_3_1_1", "train_on_dataset",
    "write_scan_csv",
)


def test_public_names_are_exported_once_and_resolve():
    assert len(gols.__all__) == len(set(gols.__all__))
    assert set(EARLIER_NAMES) <= set(gols.__all__)
    for name in gols.__all__:
        assert hasattr(gols, name), name
