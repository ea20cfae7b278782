"""Seeded inputs, job lists and reference answers for the benchmark workloads.

Each workload has two halves. `setup` writes the input files for a seed (this
is the timed set-up, and it may call the package's constructions, as a user
preparing inputs would). `jobs` lists the hgspectra subcommands of one pass
and attaches to each a check against a reference computed here, without the
code under test: dense eigensolvers on base graphs the benchmark built
itself, closed forms, 60-digit roots, and the parity the generator planted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

import hypergraph_spectra as hs
import oracles

LIFT_K = 4
BASE_N, BASE_M, HUB_DEGREE = 2000, 8000, 40
PENDANT_NS = (5, 10, 20, 30, 40, 50)
SPATH_K, SPATH_DS = 20, (5, 10, 15, 20)
CONVERGE_N_MAX = 50
ENUM_N = 7

# Radius tolerances of the acceptance criteria, by the tol a job runs at.
ATOL = {"1e-10": 1e-8, "1e-13": 1e-12}
OPERATORS = ("adjacency", "signless-laplacian")


@dataclass(frozen=True)
class Job:
    """One hgspectra invocation; `check` maps its output text to None or a
    failure reason. The runner appends `--out <file>` to argv."""

    id: str
    argv: tuple[str, ...]
    check: Callable[[str], str | None]

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Base:
    """A base graph kept by the benchmark, independent of the files written."""

    n: int
    edges: tuple[tuple[int, int], ...]
    bipartite: bool


# ---------------------------------------------------------------- generators


def random_base(rng: random.Random, bipartite: bool) -> Base:
    """Connected base graph on BASE_N vertices and BASE_M edges.

    A random spanning tree makes it connected. A bipartite base only ever
    joins its two sides; a non-bipartite one carries a planted odd cycle.
    One hub of degree HUB_DEGREE makes the top eigenvalue of D + A simple
    with a clear gap, so iteration counts do not swing between seeds.
    """
    n = BASE_N
    order = list(range(n))
    rng.shuffle(order)
    side = {v: i % 2 for i, v in enumerate(order)} if bipartite else {v: 0 for v in order}
    edges: set[tuple[int, int]] = set()
    degree = [0] * n

    def add(u: int, v: int) -> bool:
        if u == v or (bipartite and side[u] == side[v]):
            return False
        e = (u, v) if u < v else (v, u)
        if e in edges:
            return False
        edges.add(e)
        degree[u] += 1
        degree[v] += 1
        return True

    add(order[0], order[1])
    for i in range(2, n):
        v = order[i]
        while not add(order[rng.randrange(i)], v):
            pass
    if not bipartite:
        length = rng.choice((3, 5, 7, 9))
        cycle = rng.sample(range(n), length)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            add(a, b)
    hub = order[rng.randrange(n)]
    while degree[hub] < HUB_DEGREE:
        add(hub, rng.randrange(n))
    while len(edges) < BASE_M:
        add(rng.randrange(n), rng.randrange(n))
    return Base(n, tuple(sorted(edges)), bipartite)


def pendant_cycle_edges(n: int) -> list[tuple[int, int]]:
    """C_{n-1} on vertices 1..n-1 plus the pendant edge 0-1."""
    return [(0, 1)] + [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]


def relabel(edges, perm: list[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(perm[v] for v in e) for e in edges)


def half_edge_lift(base: Base) -> np.ndarray:
    """The k = 4 half-edge lift's edges, built here for the certificate scan:
    base vertex v becomes {2v, 2v + 1}."""
    e = np.array(base.edges, dtype=np.intp)
    return np.stack([2 * e[:, 0], 2 * e[:, 0] + 1, 2 * e[:, 1], 2 * e[:, 1] + 1], axis=1)


def write_lift(base: Base, path: Path) -> None:
    # Looked up at call time, so a traced run times it as constructions.power.
    h, _ = hs.generalized_power(hs.SimpleGraph(base.n, base.edges), LIFT_K, LIFT_K // 2)
    path.write_text(hs.serialize_hypergraph(h), encoding="ascii")


# ---------------------------------------------------------------- references


def _dense(base: Base, signless: bool) -> np.ndarray:
    a = np.zeros((base.n, base.n))
    u, v = np.array(base.edges).T
    a[u, v] = a[v, u] = 1.0
    if signless:
        a += np.diag(a.sum(axis=1))
    return a


def matrix_rho(base: Base, operator: str) -> float:
    return float(np.linalg.eigvalsh(_dense(base, operator == "signless-laplacian"))[-1])


def pendant_cycle_rho_60(n: int) -> float:
    """rho(A(C_{2n+1} + pendant)) by 60-digit bisection on the characteristic
    polynomial (path recurrence plus pendant expansion), as in criterion 09."""
    m = 2 * n + 1
    with mpmath.workdps(60):

        def charpoly(x):
            prev, cur = mpmath.mpf(1), x
            vals = [prev, cur]
            for _ in range(m - 1):
                prev, cur = cur, x * cur - prev
                vals.append(cur)
            return x * (vals[m] - vals[m - 2] - 2) - vals[m - 1]

        lo, hi = mpmath.sqrt(2 + mpmath.sqrt(5)), mpmath.mpf(3)
        for _ in range(100):
            mid = (lo + hi) / 2
            if charpoly(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def spath_rho(k: int, d: int) -> float:
    """s_path(k, 1, d) is the power hypergraph of P_{d+1}: rho = rho(P_{d+1})^(2/k)."""
    return (2.0 * math.cos(math.pi / (d + 2))) ** (2.0 / k)


# ---------------------------------------------------------------- workloads


def _rho_job(job_id: str, path: Path, operator: str, tol: str, ref: float) -> Job:
    argv = ("rho", "--in", str(path), "--operator", operator, "--tol", tol)
    check = partial(oracles.check_rho, ref=ref, atol=ATOL[tol], tol=float(tol))
    return Job(job_id, argv, check)


class Lift:
    """k = 4 half-edge lifts of a non-bipartite and a bipartite random base."""

    name = "lift"
    fresh_interpreter = False

    def setup(self, seed: int, workdir: Path) -> list[Base]:
        rng = random.Random(seed)
        bases = [random_base(rng, bipartite=False), random_base(rng, bipartite=True)]
        for i, base in enumerate(bases):
            write_lift(base, workdir / f"lift{i}.hg")
        return bases

    def jobs(self, bases: list[Base], workdir: Path) -> list[Job]:
        jobs = []
        for i, base in enumerate(bases):
            path = workdir / f"lift{i}.hg"
            deg = np.bincount(np.array(base.edges).ravel(), minlength=base.n)
            for op in OPERATORS:
                jobs.append(_rho_job(f"rho-{op}-{i}", path, op, "1e-10", matrix_rho(base, op)))
                scale = 2.0 if op == "signless-laplacian" else 1.0
                check = partial(oracles.check_bounds, lo=scale * deg.min(), hi=scale * deg.max())
                jobs.append(Job(f"bounds-{op}-{i}", ("bounds", "--in", str(path), "--operator", op), check))
            lift_edges = half_edge_lift(base)
            check = partial(
                oracles.check_oddbip, odd_bipartite=base.bipartite, n=2 * base.n, edges=lift_edges
            )
            jobs.append(Job(f"oddbip-{i}", ("oddbip", "--in", str(path)), check))
        return jobs


class SlowGap:
    """Small inputs with tiny spectral gaps: pendant-cycle lifts, loose paths,
    and the pendant-cycle convergence report."""

    name = "slow-gap"
    fresh_interpreter = False

    def setup(self, seed: int, workdir: Path) -> list[Base]:
        rng = random.Random(seed)
        bases = []
        for n in PENDANT_NS:
            size = 2 * n + 2
            perm = list(range(size))
            rng.shuffle(perm)
            base = Base(size, relabel(pendant_cycle_edges(size), perm), False)
            write_lift(base, workdir / f"pendant{n}.hg")
            bases.append(base)
        for d in SPATH_DS:
            h = hs.s_path(SPATH_K, 1, d)
            perm = list(range(h.n))
            rng.shuffle(perm)
            moved = hs.Hypergraph(h.k, h.n, relabel(h.edges, perm))
            (workdir / f"spath{d}.hg").write_text(hs.serialize_hypergraph(moved), encoding="ascii")
        return bases

    def jobs(self, bases: list[Base], workdir: Path) -> list[Job]:
        jobs = []
        for n, base in zip(PENDANT_NS, bases):
            for op in OPERATORS:
                ref = matrix_rho(base, op)
                jobs.append(_rho_job(f"rho-{op}-pendant{n}", workdir / f"pendant{n}.hg", op, "1e-13", ref))
        for d in SPATH_DS:
            ref = spath_rho(SPATH_K, d)
            jobs.append(_rho_job(f"rho-spath{d}", workdir / f"spath{d}.hg", "adjacency", "1e-10", ref))
        exact = [pendant_cycle_rho_60(n) for n in range(1, CONVERGE_N_MAX + 1)]
        trees = []
        for n in range(1, CONVERGE_N_MAX + 1):
            cut = (n + 1, n + 2)
            tree = Base(2 * n + 2, tuple(e for e in pendant_cycle_edges(2 * n + 2) if e != cut), False)
            trees.append(matrix_rho(tree, "adjacency"))
        limit = math.sqrt(2.0 + math.sqrt(5.0))
        check = partial(oracles.check_converge, exact=exact, tree=trees, limit=limit, atol=ATOL["1e-13"])
        argv = ("converge", "--n-max", str(CONVERGE_N_MAX), "--tol", "1e-13")
        jobs.append(Job("converge", argv, check))
        return jobs


class Enum7:
    """Exhaustive n = 7 experiments, each in a fresh interpreter."""

    name = "enum7"
    fresh_interpreter = True

    def setup(self, seed: int, workdir: Path) -> list[Base]:
        return []

    def jobs(self, bases: list[Base], workdir: Path) -> list[Job]:
        return [
            Job("minrho", ("minrho", "--n", str(ENUM_N)), oracles.check_minrho),
            Job("verify-nob", ("verify-nob", "--n-max", str(ENUM_N)), oracles.check_verify_nob),
        ]


WORKLOADS = {w.name: w for w in (Lift(), SlowGap(), Enum7())}
