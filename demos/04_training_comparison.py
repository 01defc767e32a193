"""Train the same network with each step-size resolver and compare costs.

Short mini-batch steepest-descent runs on the bundled iris data, identical
starting weights for every resolver.  The table shows where each method
lands and what it paid: the exact searches resolve steps to 1e-12 and spend
tens of evaluations per iteration, the inexact ones accept the first
satisfying step and spend a handful.
"""

import numpy as np

from gols import Network, TrainConfig, builtin_dataset, split_3_1_1, train_on_dataset

ITERATIONS = 500

ds = builtin_dataset("iris")
split = split_3_1_1(ds, seed=(0, 9))
net = Network(ds.num_features, [3], ds.class_count)

RESOLVERS = ("fixed:0.05", "gs", "arls", "bgols", "igols")
# One call trains every resolver's run, in lockstep.
traces = train_on_dataset(net, ds, split, [
    TrainConfig(iterations=ITERATIONS, resolver=name,
                weight_seed=(0, 101, 0), sampler_seed=(0, 202, name == "gs", 0))
    for name in RESOLVERS
])

print(f"{'resolver':10s} {'train':>8s} {'valid':>8s} {'test':>8s} "
      f"{'cost/iter':>10s} {'info/iter':>10s} {'median alpha':>13s}")
for name, trace in zip(RESOLVERS, traces):
    final = trace.final
    alphas = trace.column("alpha")[1:]
    print(f"{name:10s} {final.train_loss:8.3f} {final.validation_loss:8.3f} "
          f"{final.test_loss:8.3f} {final.cost / ITERATIONS:10.2f} "
          f"{final.info_calls / ITERATIONS:10.2f} {np.median(alphas):13.5f}")
