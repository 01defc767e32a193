"""Time the two stacked network kernels of a checkout: microseconds per
stacked backprop (``BatchObjective.losses_and_gradients``) and per forward
pass (``BatchObjective.losses``).

    python tools/kernel_us.py [checkout root [calls]]

The network is blobs 4-3-3-3 on its training partition, each point with its
own batch of 10 rows, at 1, 12, 20 and 64 points a call, as the training
grid asks them.  Each figure is the best of 5 repeats of ``calls`` calls
(default 1000); run as a script, it sets one BLAS thread.  The root defaults to the checkout
this file lives in, and its ``src/`` is the one imported, so running the
tool once per checkout gives a before and after table.
"""

import os
import sys
import time
from pathlib import Path

POINTS = (1, 12, 20, 64)
BATCH = 10
REPEATS = 5


def best_us(call, calls) -> float:
    """The least mean microseconds per call of ``call()`` over
    :data:`REPEATS` repeats of ``calls`` calls."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]).resolve() if args else Path(__file__).resolve().parents[1]
    calls = int(args[1]) if len(args) > 1 else 1000
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    from gols.data import builtin_dataset, split_3_1_1
    from gols.net import Network
    from gols.probe import BatchObjective

    dataset = builtin_dataset("blobs")
    split = split_3_1_1(dataset, seed=0)
    net = Network(dataset.num_features, [3, 3], dataset.class_count)
    model = BatchObjective(net, dataset.features[split.train],
                           dataset.one_hot()[split.train])
    rng = np.random.default_rng(0)
    print(f"{net} at batch {BATCH}, best of {REPEATS} x {calls} calls ({root})")
    print("points  backprop_us  forward_us")
    for count in POINTS:
        points = rng.uniform(-1.0, 1.0, (count, net.num_params))
        samples = list(rng.random((count, model.num_rows)).argsort(axis=1)[:, :BATCH])
        backprop = best_us(lambda: model.losses_and_gradients(points, samples), calls)
        forward = best_us(lambda: model.losses(points, samples), calls)
        print(f"{count:6d}  {backprop:11.1f}  {forward:10.1f}")
    return 0


if __name__ == "__main__":
    # Before numpy loads its BLAS, which reads them once.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.exit(main())
