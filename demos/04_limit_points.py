"""The smallest limit point of non-bipartite spectral radii.

alpha_n = sqrt(beta_n) + 1/sqrt(beta_n), with beta_n the positive root of
x^(n+1) = 1 + x + ... + x^(n-1), climbs strictly to sqrt(2 + sqrt(5)), the
golden ratio to the power 3/2. From above, the odd cycles with a pendant
edge C_{2n+1} + e descend strictly to the same constant, which makes it a
two-sided limit point of adjacency spectral radii.
"""

from hypergraph_spectra import (
    convergence_report,
    limit_point_table,
    pendant_cycle_rho_sequence,
    tau_threshold,
)

thr = tau_threshold()
print(f"target constant sqrt(2 + sqrt(5)) = {thr:.15f}")
print()

print("from below: n, beta_n, alpha_n, threshold - alpha_n")
for n, beta, alpha in limit_point_table(40):
    if n in (1, 2, 3, 5, 10, 20, 40):
        print(f"  {n:3d}  {beta:.15f}  {alpha:.15f}  {thr - alpha:.3e}")
print()

seq = pendant_cycle_rho_sequence(12, tol=1e-13)
print("from above: n, rho(A(C_{2n+1}+e)), rho - threshold")
for n, rho in seq:
    print(f"  {n:3d}  {rho:.15f}  {rho - thr:.3e}")
print()

# the descent is controlled by an explicit bound: the radius exceeds the
# threshold by less than 2/(2n+1) plus the deleted-edge tree's contribution
report = convergence_report(12, tol=1e-13)
print(report.to_text())
