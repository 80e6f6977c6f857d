"""
Population quantities and identifiability
=========================================

Works at the population level (no sampling): exact joint distributions,
the population node-average log-likelihood of a candidate structure (each
family's joint marginal scored by the same kernel as sample counts), and the
identifiability report over a candidate set, together with the minimum
observation probability beta.
"""

from nalearn import (
    Bernoulli,
    Dag,
    KPerRecord,
    beta_of_collection,
    check_identifiability,
    joint_distribution,
    population_nal_of,
    subset_observation_probability,
    two_node_chain_dag,
    two_node_net,
)
from nalearn.networks import eight_node_net

net = two_node_net()
print("joint of the independent two-node net:", joint_distribution(net))

# the chain candidate adds an edge the distribution does not need: its
# population NAL equals the truth (supersets never lose), so the truth is
# identified only through the minimal-complexity convention
empty = Dag([[], []])
chain = two_node_chain_dag()
print("l(empty) =", population_nal_of(empty, net))
print("l(chain) =", population_nal_of(chain, net))

report = check_identifiability(net, [empty.parents, chain.parents])
print("identifiable:", report.identifiable)
print("minimal maximizers:", [g.parents for g in report.minimal_maximizers])

# beta: the smallest observation probability of any (node, parents) block
# among the report's distinct families
beta = beta_of_collection(report.families, Bernoulli((0.75, 1.0)), 2)
print("beta under Bernoulli(0.75, 1.0):", beta)

# the k-per-record scheme on a 37-column dataset: chance that a 3-cell
# block survives k uniform deletions
for k in (1, 2, 4):
    print(f"survival of a 3-subset, N=37, k={k}:",
          round(subset_observation_probability(37, k, 3), 4))

# a larger example: the 8-node benchmark against curated rivals -- the
# truth, the empty graph, a graph with one edge dropped, and a superset
bench = eight_node_net()
dropped = [list(ps) for ps in bench.dag.parents]
dropped[7] = [4]  # forget the 6 -> 8 edge
superset = [list(ps) for ps in bench.dag.parents]
superset[3] = [0, 1]  # an extra, uninformative parent
rivals = [bench.dag, Dag([[]] * 8), Dag(dropped), Dag(superset)]
report = check_identifiability(bench, [g.parents for g in rivals])
rows = zip(report.df.tolist(), report.nal.tolist(), report.is_maximizer.tolist())
for name, (df, nal, maximizer) in zip(["truth", "empty", "dropped", "superset"], rows):
    print(f"{name:>9}: df={df:3d} l={nal:.6f} maximizer={maximizer}")
print("minimal maximizers == {truth}:", report.identifiable)
print("beta under KPerRecord(k=2):",
      round(beta_of_collection(report.families, KPerRecord(2), 8), 4))
