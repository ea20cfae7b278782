"""Independent checks of the answers hgspectra prints.

Every check takes the text a subcommand wrote plus a reference computed by
the benchmark itself (dense eigensolvers, closed forms, 60-digit roots, the
parity the generator built in, published class counts). It returns None when
the answer is right and a one-line reason when it is not.

Radii are compared within the tolerances of the acceptance criteria: 1e-8 for
runs at tol 1e-10 (criterion 04) and 1e-12 for runs at tol 1e-13 (criterion
09), plus half a unit in the 12th significant digit the CLI prints. The
reported bracket is not required to contain the reference strictly: the
reference carries its own rounding error, of the same order as the bracket.
"""

from __future__ import annotations

import math

import numpy as np

# Connected graphs on n vertices up to isomorphism (OEIS A001349) and the
# bipartite ones among them (OEIS A005142).
CONNECTED_CLASSES = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
BIPARTITE_CLASSES = {3: 1, 4: 3, 5: 5, 6: 17, 7: 44}

# Criterion 07: radii within 1e-8 of the known minimum.
MINRHO_ATOL = 1e-8


def print_slack(value: float) -> float:
    """Half a unit in the 12th significant digit, the CLI's print precision."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def _fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _report_verdicts(text: str, expected_passes: int) -> str | None:
    passes = sum(1 for line in text.splitlines() if line.startswith("[PASS]"))
    if "[FAIL]" in text or passes != expected_passes:
        return f"report shows {passes} of {expected_passes} checks passing"
    return None


def _data_rows(text: str, width: int) -> list[list[str]]:
    """Report rows: lines of `width` or more cells whose first cell is an integer."""
    rows = []
    for line in text.splitlines():
        cells = line.split()
        if len(cells) >= width and cells[0].isdigit():
            rows.append(cells)
    return rows


def check_rho(text: str, ref: float, atol: float, tol: float) -> str | None:
    f = _fields(text)
    try:
        rho = float(f["rho"])
        lo, hi = (float(v) for v in f["bracket"].strip("[]").split(","))
        iterations = int(f["iterations"])
    except (KeyError, ValueError):
        return "unparsable rho output"
    if f.get("converged") != "yes":
        return "iteration did not converge"
    if iterations < 1 or not lo <= rho <= hi:
        return f"inconsistent report: rho {rho!r}, bracket [{lo!r}, {hi!r}]"
    # The solver stops when the bracket of the shifted radius rho + 1 is
    # narrower than tol times its upper end.
    if hi - lo > tol * (hi + 1.0) + 2.0 * print_slack(hi):
        return f"bracket [{lo!r}, {hi!r}] wider than tol {tol:g}"
    if abs(rho - ref) > atol + print_slack(ref):
        return f"rho {rho!r} differs from the reference {ref!r} by more than {atol:g}"
    return None


def check_bounds(text: str, lo: float, hi: float) -> str | None:
    f = _fields(text)
    try:
        got = (float(f["min_row_sum"]), float(f["max_row_sum"]))
    except (KeyError, ValueError):
        return "unparsable bounds output"
    if got != (lo, hi):
        return f"row-sum bounds {got} differ from the degree scan ({lo}, {hi})"
    return None


def check_oddbip(text: str, odd_bipartite: bool, n: int, edges: np.ndarray) -> str | None:
    """Verdict against the generator's ground truth; certificate by edge scan."""
    lines = text.splitlines()
    verdict = lines[0].strip() if lines else ""
    if verdict == "non-odd-bipartite":
        return "missed an odd bipartition the base graph has" if odd_bipartite else None
    if verdict != "odd-bipartite":
        return "unparsable oddbip output"
    if not odd_bipartite:
        return "claims odd-bipartite although the base has an odd cycle"
    head, _, tail = lines[1].partition(":") if len(lines) > 1 else ("", "", "")
    try:
        ones = np.array([int(v) for v in tail.split()], dtype=np.intp)
    except ValueError:
        return "unparsable certificate"
    if head != "part-one" or np.any(ones < 0) or np.any(ones >= n):
        return "certificate names vertices out of range"
    side = np.zeros(n, dtype=bool)
    side[ones] = True
    hits = side[edges].sum(axis=1)
    k = edges.shape[1]
    if np.any(hits % 2 == 0) or np.any((k - hits) % 2 == 0):
        return "certificate meets an edge evenly"
    return None


def _is_cycle(n: int, edges: list[tuple[int, int]]) -> bool:
    if len(edges) != n or len(set(edges)) != n:
        return False
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        if u not in adj or v not in adj or u == v:
            return False
        adj[u].append(v)
        adj[v].append(u)
    if any(len(a) != 2 for a in adj.values()):
        return False
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def check_minrho(text: str, n: int = 7) -> str | None:
    """Criterion 07: the unique minimiser on 7 vertices is C_7, with rho = 2."""
    rows = [r for r in _data_rows(text, 3) if r[0] == str(n)]
    if len(rows) != 1:
        return f"expected one minimiser row, got {len(rows)}"
    _, operator, rho_text, *edge_cells = rows[0]
    try:
        rho = float(rho_text)
        edges = [tuple(int(x) for x in cell.split("-")) for cell in edge_cells]
    except ValueError:
        return "unparsable minrho row"
    if operator != "adjacency" or abs(rho - 2.0) > MINRHO_ATOL + print_slack(2.0):
        return f"minimum {rho!r} ({operator}) is not the C_{n} radius 2"
    if not _is_cycle(n, edges):
        return f"minimiser is not C_{n}"
    return _report_verdicts(text, 1)


def check_verify_nob(text: str, n_max: int = 7, ks=(4, 6)) -> str | None:
    rows = _data_rows(text, 5)
    try:
        got = [tuple(int(c) for c in r[:5]) for r in rows]
    except ValueError:
        return "unparsable verify-nob row"
    want = [
        (n, k, CONNECTED_CLASSES[n], BIPARTITE_CLASSES[n], 0)
        for n in range(3, n_max + 1)
        for k in ks
    ]
    if got != want:
        return "class counts or mismatches differ from OEIS A001349/A005142"
    return _report_verdicts(text, 1)


def check_converge(
    text: str, exact: list[float], tree: list[float], limit: float, atol: float
) -> str | None:
    """Rows n = 1..len(exact): rho and its gap against 60-digit radii, the
    gap bound against dense radii of the deleted-edge trees."""
    rows = _data_rows(text, 4)
    if [r[0] for r in rows] != [str(n) for n in range(1, len(exact) + 1)]:
        return "converge report lists the wrong rows"
    for n, row, rho_x, tree_x in zip(range(1, len(exact) + 1), rows, exact, tree):
        _, rho_t, gap_t, bound_t = row[:4]
        try:
            rho, gap, bound = float(rho_t), float(gap_t), float(bound_t)
        except ValueError:
            return "unparsable converge row"
        gap_x = rho_x - limit
        bound_x = tree_x + 2.0 / (2 * n + 1) - limit
        if abs(rho - rho_x) > atol + print_slack(rho_x):
            return f"rho {rho!r} differs from the 60-digit radius {rho_x!r}"
        if abs(gap - gap_x) > atol + print_slack(gap_x):
            return f"gap {gap!r} differs from the 60-digit gap {gap_x!r}"
        if abs(bound - bound_x) > 1e-9:
            return f"gap bound {bound!r} differs from the dense value {bound_x!r}"
    return _report_verdicts(text, 3)
