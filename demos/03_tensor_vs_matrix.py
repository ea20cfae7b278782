"""Tensor spectral radii of half-edge blow-ups against the base matrices.

The adjacency tensor of G^{k,k/2} keeps the spectral radius of A(G), and the
signless Laplacian tensor keeps the radius of Q(G) = D(G) + A(G). The power
iteration certifies its answer with a shrinking bracket; lifting the base
Perron vector entrywise by t -> t^(2/k) reproduces the tensor eigenvector.
"""

import numpy as np

from hypergraph_spectra import (
    AdjacencyTensor,
    SignlessLaplacianTensor,
    cycle_plus_pendant,
    generalized_power,
    half_edge_constancy,
    lift_vector,
    power_iteration_rho,
    rho_adjacency_matrix,
    rho_bounds,
    rho_signless_laplacian_matrix,
)

paw = cycle_plus_pendant(4)

for k in (4, 6):
    h, bmap = generalized_power(paw, k, k // 2)
    print(f"paw^{{{k},{k // 2}}}: n = {h.n}, m = {h.m}")
    for tensor_cls, matrix_fn, label in (
        (AdjacencyTensor, rho_adjacency_matrix, "adjacency"),
        (SignlessLaplacianTensor, rho_signless_laplacian_matrix, "signless Laplacian"),
    ):
        t = tensor_cls(h)
        res = power_iteration_rho(t, tol=1e-12)
        matrix = matrix_fn(paw, tol=1e-12)
        rho_m, vec = matrix.rho, matrix.eigenvector
        print(f"  {label}:")
        print(f"    tensor rho = {res.rho:.12f}  ({res.iterations} iterations, "
              f"bracket width {res.upper - res.lower:.2e})")
        print(f"    matrix rho = {rho_m:.12f}   difference {abs(res.rho - rho_m):.2e}")
        lo, hi = rho_bounds(t)
        print(f"    row-sum bounds: {lo:.4f} <= rho <= {hi:.4f}")
        # the lifted base eigenvector solves the tensor eigen-equation
        z = lift_vector(vec, bmap)
        resid = float(np.max(np.abs(t.apply(z) - rho_m * z ** (h.k - 1))))
        print(f"    lifted-eigenvector residual = {resid:.2e}, "
              f"half-edge deviation = {half_edge_constancy(res, bmap):.2e}")
    print()

# a regular case pins the radius exactly: 2-regular base, rho = 4 for Q
from hypergraph_spectra import cycle_graph

h, _ = generalized_power(cycle_graph(5), 4, 2)
res = power_iteration_rho(SignlessLaplacianTensor(h))
print(f"C_5^(4,2) signless Laplacian: rho = {res.rho} "
      f"(regular, converged in {res.iterations} iteration)")
