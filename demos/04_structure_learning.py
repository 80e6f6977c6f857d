"""
Learning a structure from incomplete data
=========================================

Samples from the 8-node benchmark network, deletes two cells per record,
and learns the structure back under different penalties. The complexity
profile shows the best achievable fit at every total complexity t, which
is where over- and under-penalization become visible.
"""

from nalearn import (
    BIC,
    KPerRecord,
    SearchSpace,
    apply_mcar,
    df_complexity,
    edge_f_score,
    forward_sample,
    learn_structure,
    power_law,
    select_from_profile,
    complexity_profile,
)
from nalearn.networks import eight_node_net

net = eight_node_net()
true_df = net.df()
print("true structure:", net.dag.parents)
print("true complexity df =", true_df)

data = forward_sample(net, 20_000, seed=11)
masked = apply_mcar(data, KPerRecord(2), seed=12)

# the search space: all DAGs compatible with the true node order, at most
# three parents per node
space = SearchSpace(list(range(8)), max_parents=3)

# a consistent penalty (lambda_n = (1/N) n^-0.3) versus BIC, which decays
# too fast once records carry missing cells
for penalty in (power_law(1 / 8, 0.3), BIC):
    learned = learn_structure(masked, space, penalty)
    f = edge_f_score(net.dag, learned)
    df = df_complexity(learned, list(net.variables))
    print(f"{penalty.label(net.num_nodes):>22}: F-score {f:.3f}  learned df {df}")

# the complexity profile: best total NAL at each achievable complexity
profile = complexity_profile(masked, space)
print("profile has", len(profile), "points, t from",
      profile[0].t, "to", profile[-1].t)
for point in profile[:6]:
    print(f"  t={point.t:3d}  score={point.best_score:.5f}")

# final selection from the profile under a global penalty
choice = select_from_profile(profile, power_law(1 / 8, 0.3), masked.num_records)
print("profile selection: t =", choice.t,
      " F-score =", edge_f_score(net.dag, choice.dag))
