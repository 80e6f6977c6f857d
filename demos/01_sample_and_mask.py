"""
Forward sampling and MCAR masking
=================================

Draws complete records from a small discrete Bayesian network, deletes
cells completely at random, and shows how the available-case counts
react to the missing data.
"""

import numpy as np

from nalearn import (
    Bernoulli,
    KPerRecord,
    apply_mcar,
    count_sufficient_stats,
    forward_sample,
    two_node_net,
)

# the built-in benchmark: two independent binary variables with marginals
# (0.4, 0.6) and (0.3, 0.7)
net = two_node_net()
data = forward_sample(net, n=10_000, seed=7)
print("sampled", data.num_records, "records,", data.num_variables, "columns")
print("empirical P(X1=0) =", np.mean(data.values[:, 0] == 0))

# delete column 1 with probability 0.25 (observation probability 0.75);
# column 2 stays fully observed
masked = apply_mcar(data, Bernoulli((0.75, 1.0)), seed=8)
print("fraction of X1 cells missing:", np.mean(masked.values[:, 0] == -1))

# available-case counts for node 2 given candidate parent {X1}: only
# records where both cells are observed contribute
counts = count_sufficient_stats(masked, node=1, parents=[0])
print("n =", counts.n, " n_i =", counts.n_i)
print("n_ikj =\n", counts.n_ikj)

# the plug-in ratios n_i / n and n_ikj / n_ij; the conditional columns stay
# close to the true marginal (0.3, 0.7) because the two variables are
# independent
print("theta_i  =", counts.n_i / counts.n)
print("theta_ikj =\n", counts.n_ikj / counts.n_ij)

# the k-per-record scheme instead deletes exactly k cells in every record
kper = apply_mcar(data, KPerRecord(1), seed=9)
print("observed cells per record:", set((kper.values != -1).sum(axis=1).tolist()))
