"""
Why missingness breaks BIC: the convergence-rate dichotomy
==========================================================

For nested structures G0 (empty) and G1 (one extra edge), the score
difference l(G1|Dn) - l(G0|Dn) concentrates at rate n^-1 on complete
data but only at n^-1/2 once the extra parent has missing cells. A
penalty must decay slower than the noise to suppress the spurious edge,
which is exactly what BIC's ln(n)/n fails to do under missingness.

The probe regresses log(sd of the difference) on log(n): the slope is
the empirical rate exponent.
"""

from nalearn.experiments import ExperimentConfig, run_rate_probe

config = ExperimentConfig(
    net="two-node",
    sample_sizes=(100, 1000, 10000),
    replicates=300,
    seed=20240901,
    missingness=("none", "bernoulli:0.75,1"),
)

rows = run_rate_probe(config)

print(f"{'regime':>24} {'n':>7} {'sd':>12} {'slope':>8}")
for row in rows:
    print(f"{row['regime']:>24} {row['n']:>7} {row['sd']:>12.6f} {row['slope']:>8.3f}")

print()
print("expected slopes: about -1.0 complete, about -0.5 under MCAR masking.")
