"""
Node-average log-likelihood and penalized scores
================================================

Compares the node-average log-likelihood (each node normalized by its own
observed-record count) with the standard sample-average log-likelihood,
and evaluates the penalized scores that drive model selection.
"""

import numpy as np

from nalearn import (
    AIC,
    BIC,
    Bernoulli,
    Dag,
    apply_mcar,
    count_sufficient_stats,
    forward_sample,
    nal,
    power_law,
    score_decomposable,
    score_global,
    two_node_chain_dag,
    two_node_net,
)


def standard_avg_loglik(data, dag):
    """(1/n) sum_i sum_jk n_ikj ln(n_ikj / n_ij): every node divided by the same n."""
    total = 0.0
    for i, ps in enumerate(dag.parents):
        c = count_sufficient_stats(data, i, ps)
        seen = c.n_ikj > 0
        total += float((c.n_ikj[seen] * np.log((c.n_ikj / np.maximum(c.n_ij, 1))[seen])).sum())
    return total / data.num_records


net = two_node_net()
empty = Dag([[], []])
chain = two_node_chain_dag()  # X1 -> X2, one extra parameter

# on complete data the two likelihood notions coincide exactly
complete = forward_sample(net, 5_000, seed=1)
print("complete data:")
print("  nal      =", nal(complete, chain))
print("  standard =", standard_avg_loglik(complete, chain))

# with missing cells they differ: the node-average version renormalizes
# each node by its own available cases
masked = apply_mcar(complete, Bernoulli((0.75, 1.0)), seed=2)
print("masked data:")
print("  nal      =", nal(masked, chain))
print("  standard =", standard_avg_loglik(masked, chain))

# penalized scores: score = nal - lambda_n * df; the chain pays for its
# extra parameter, so under independence it should lose
for penalty in (AIC, BIC, power_law(0.5, 0.3)):
    s0 = score_global(masked, empty, penalty)
    s1 = score_global(masked, chain, penalty)
    verdict = "chain (wrong)" if s1 > s0 else "empty (right)"
    print(f"{penalty.label(net.num_nodes):>22}: empty {s0:+.5f}  chain {s1:+.5f}  -> {verdict}")

# the decomposable variant penalizes each node at its own sample size n_i
total, breakdown = score_decomposable(masked, chain, BIC)
print("decomposable BIC total:", total)
for part in breakdown:
    print(f"  node {part.node} parents {part.parents}: n_i={part.n_i} "
          f"nal={part.nal:.5f} penalized={part.penalized:.5f}")
