"""Spectral theory of uniform power hypergraphs.

The public names build the objects of the theory: the generalized power
G^{k,s} (vertices to s-sets, edges to k-sets), odd-bipartiteness with a
checked parity certificate, the adjacency and signless Laplacian tensor
radii inside Collatz-Wielandt brackets, and the limit point
sqrt(2 + sqrt(5)) with the exhaustive small-graph experiments around it.
The rest is what the command line, the experiments and the demos use. A
SimpleGraph is the 2-uniform Hypergraph, so the matrix radii of a base
graph are the k = 2 tensor solves; the signless Laplacian Q is the
adjacency tensor A plus its degree diagonal. A solve takes power steps,
then Newton-Noda steps once they cost less; above dimension 2048 it takes
Anderson-mixed power steps instead.
"""

from .constructions import (
    BlowupMap,
    cycle_graph,
    cycle_plus_pendant,
    generalized_power,
    internal_path_edges,
    s_cycle,
    s_path,
    subdivide,
    t_graph,
)
from .core import Bipartition, Hypergraph, SimpleGraph, is_connected
from .enumeration import (
    canonical_code,
    enumerate_connected_graphs,
    enumerate_connected_nonbipartite,
    graph_code,
    graph_from_code,
)
from .experiments import (
    ExperimentReport,
    ReportCheck,
    alpha_n,
    beta_n,
    convergence_report,
    limit_point_report,
    limit_point_table,
    min_rho_report,
    min_rho_search,
    pendant_cycle_rho_sequence,
    tau_threshold,
    verify_theorem_nob,
)
from .fileio import (
    MAX_VERTICES,
    ParseError,
    parse_graph,
    parse_hypergraph,
    serialize_graph,
    serialize_hypergraph,
)
from .matrixspec import rho_adjacency_matrix, rho_signless_laplacian_matrix
from .oddbip import (
    ParitySystem,
    gf2_solve,
    is_bipartite,
    odd_bipartition,
    parity_system,
    verify_odd_bipartition,
)
from .cli import main, run_cli
from .tensors import (
    AdjacencyTensor,
    SignlessLaplacianTensor,
    SpectralResult,
    half_edge_constancy,
    lift_vector,
    power_iteration_rho,
    rho_bounds,
    weakly_irreducible,
)

__version__ = "0.1.0"
