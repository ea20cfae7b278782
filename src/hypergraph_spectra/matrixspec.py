"""Two named matrix radii for base graphs.

rho(A(G)) and rho(Q(G)) for a connected graph G are the radii of its
order-2 tensors, G taken as a 2-uniform hypergraph: the two wrappers are
check_graph plus power_iteration_rho, which the package's own radii call
directly (for k = 2 its Newton-Noda step is Noda's shifted inverse iteration).
"""

from __future__ import annotations

from .core import Hypergraph, check_graph
from .tensors import AdjacencyTensor, SignlessLaplacianTensor, SpectralResult, power_iteration_rho

__all__ = [
    "rho_adjacency_matrix",
    "rho_signless_laplacian_matrix",
]


def rho_adjacency_matrix(
    g: Hypergraph, tol: float = 1e-10, max_iter: int = 1_000_000
) -> SpectralResult:
    """rho(A(g)) as the SpectralResult of the k = 2 adjacency tensor of g;
    g must be a connected graph."""
    check_graph(g)
    return power_iteration_rho(AdjacencyTensor(g), tol, max_iter)


def rho_signless_laplacian_matrix(
    g: Hypergraph, tol: float = 1e-10, max_iter: int = 1_000_000
) -> SpectralResult:
    """rho(D + A of g) as the SpectralResult of the k = 2 signless
    Laplacian tensor of g; g must be a connected graph."""
    check_graph(g)
    return power_iteration_rho(SignlessLaplacianTensor(g), tol, max_iter)
