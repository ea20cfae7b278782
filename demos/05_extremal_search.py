"""Exhaustive extremal searches over small connected graphs.

Enumerating connected graphs up to isomorphism lets two questions be settled
by inspection: which non-bipartite graph minimizes the adjacency spectral
radius at each order (the odd cycle for odd n, the even cycle plus a pendant
edge for even n), and how edge subdivision moves the radius (down on internal
paths, up on pendant tails).
"""

from hypergraph_spectra import (
    cycle_plus_pendant,
    enumerate_connected_graphs,
    internal_path_edges,
    min_rho_search,
    rho_adjacency_matrix,
    subdivide,
    verify_theorem_nob,
)

print("connected graphs up to isomorphism:")
for n in range(1, 8):
    print(f"  n = {n}: {len(enumerate_connected_graphs(n))} classes")
print()

for n in (5, 6, 7):
    for operator in ("adjacency", "signless-laplacian"):
        best, argmin = min_rho_search(n, operator=operator)
        assert len(argmin) == 1
        print(f"n = {n}, {operator}: min rho over connected non-bipartite = "
              f"{best:.12f}, argmin edges {argmin[0].edges}")
print()

# subdivision monotonicity on a cycle with one pendant vertex
g = cycle_plus_pendant(6)
rho0 = rho_adjacency_matrix(g).rho
print(f"C_5 + pendant: rho(A) = {rho0:.12f}")
print("internal-path (cycle) edges:", sorted(internal_path_edges(g)))
for u, w in sorted(internal_path_edges(g))[:2]:
    rho1 = rho_adjacency_matrix(subdivide(g, u, w)).rho
    print(f"  subdividing ({u},{w}): rho -> {rho1:.12f}  (down)")
tail = subdivide(g, 0, 1)
rho_tail = rho_adjacency_matrix(tail).rho
rho_long = rho_adjacency_matrix(subdivide(tail, 0, g.n)).rho
print(f"  lengthening the pendant tail: {rho_tail:.12f} -> {rho_long:.12f}  (up)")
print()

# the odd-bipartiteness correspondence, checked over every class at once
print(verify_theorem_nob(6).to_text())
