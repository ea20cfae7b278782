"""Spans and counters recorded around calls into hypergraph_spectra's layers.

The package has no tracing of its own, so `install` replaces the public
functions of each layer with timing wrappers, wherever a caller looks the
name up: module globals (cli imports `power_iteration_rho` by value),
module-level dicts (`experiments.MATRIX_RHO`), and methods on the tensor and
Hypergraph classes. A span is (id, name, start, end, parent id). A call that
re-enters the layer of the innermost open span is not recorded again, so
`SignlessLaplacianTensor.apply` calling the adjacency `apply` counts once.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# Bytes an adjacency apply touches per edge slot: six arrays of m x k
# 8-byte words (indices, gathered values, two prefix products, their
# product, and the scatter's read of the indices).
APPLY_BYTES_PER_SLOT = 48


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: Counter = Counter()
        self._open: list[tuple[int, str]] = []

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append((len(self.spans), name, start, end, parent))

    def call(self, name: str, fn, *args, **kwargs):
        if self._open and self._open[-1][1] == name:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append((sid, name, 0.0, 0.0, parent))
        self._open.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid] = (sid, name, start, end, parent)

    def wrap(self, name: str, fn, after=None):
        """fn timed as a span; after(counters, args, result, seconds) runs
        once per outermost call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open and self._open[-1][1] == name:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self.counters, args, result, time.perf_counter() - start)
            return result

        return wrapper


def _on_parse(c, args, result, dt):
    c["parse_bytes"] += len(args[0])


def _on_apply(c, args, result, dt):
    h = args[0].hypergraph
    c["apply_bytes"] += APPLY_BYTES_PER_SLOT * h.m * h.k


def _on_solve(c, args, result, dt):
    c["solves"] += 1
    c["iterations"] += result.iterations
    c["converged"] += bool(result.converged)


def _on_gf2(c, args, result, dt):
    c["gf2_calls"] += 1
    c["gf2_rows"] += len(args[0].rows)
    c["gf2_consistent"] += result is not None


def _cold_classes():
    seen = set()

    def after(c, args, result, dt):
        if args[0] not in seen:  # the lru_cache misses once per n and process
            seen.add(args[0])
            c["classes"] += len(result)
            c["classes_cold_s"] += dt

    return after


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of hypergraph_spectra in this process."""
    import hypergraph_spectra as pkg
    from hypergraph_spectra import (
        cli,
        constructions,
        core,
        enumeration,
        experiments,
        fileio,
        matrixspec,
        oddbip,
        tensors,
    )

    plan = {
        fileio.parse_hypergraph: ("fileio.parse", _on_parse),
        core.is_connected: ("core.is_connected", None),
        constructions.generalized_power: ("constructions.power", None),
        tensors.weakly_irreducible: ("tensors.irreducible", None),
        tensors.power_iteration_rho: ("tensors.solve", _on_solve),
        tensors.rho_bounds: ("tensors.bounds", None),
        oddbip.parity_system: ("oddbip.system", None),
        oddbip.gf2_solve: ("oddbip.gf2", _on_gf2),
        oddbip.verify_odd_bipartition: ("oddbip.verify", None),
        oddbip.is_bipartite: ("oddbip.is_bipartite", None),
        enumeration._connected_class_codes: ("enumeration.classes", _cold_classes()),
        matrixspec.rho_adjacency_matrix: ("matrixspec.rho", None),
        matrixspec.rho_signless_laplacian_matrix: ("matrixspec.rho", None),
        experiments.min_rho_search: ("experiments.run", None),
        experiments.verify_theorem_nob: ("experiments.run", None),
        experiments.convergence_report: ("experiments.run", None),
    }
    # Keyed by id(): module dicts also hold unhashable values.
    wrapped = {id(fn): tracer.wrap(name, fn, after) for fn, (name, after) in plan.items()}

    nonbip = enumeration.enumerate_connected_nonbipartite

    @functools.wraps(nonbip)
    def traced_nonbip(*args, **kwargs):
        # Time only the generator's own steps, not the caller's loop body.
        it = nonbip(*args, **kwargs)
        while True:
            try:
                g = tracer.call("enumeration.nonbipartite", next, it)
            except StopIteration:
                return
            yield g

    wrapped[id(nonbip)] = traced_nonbip

    modules = (pkg, cli, constructions, core, enumeration, experiments, fileio, matrixspec, oddbip, tensors)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrapped:
                        value[key] = wrapped[id(item)]
            elif id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])

    for cls in (tensors.AdjacencyTensor, tensors.SignlessLaplacianTensor):
        cls.apply = tracer.wrap("tensors.apply", cls.apply, _on_apply)
        cls.__init__ = tracer.wrap("tensors.build", cls.__init__)
    core.Hypergraph.__post_init__ = tracer.wrap("core.hypergraph", core.Hypergraph.__post_init__)


def aggregate(spans) -> tuple[dict, dict, dict]:
    """Total time, self time (minus direct children) and call count by span name."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_time: dict[int, float] = defaultdict(float)
    for sid, name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for sid, name, start, end, parent in spans:
        total[name] += end - start
        own[name] += end - start - child_time[sid]
        calls[name] += 1
    return total, own, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes) -> dict[str, float]:
    """Per-layer metrics of one pass from the (spans, counters) of each of
    its processes. Layers a workload does not reach read 0."""
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    c: Counter = Counter()
    for spans, counters in processes:
        t, o, n = aggregate(spans)
        total.update(t)
        own.update(o)
        calls.update(n)
        c.update(counters)
    return {
        "cli.import_s": total["cli.import"],
        "fileio.parse_s": total["fileio.parse"],
        "fileio.parse_mb": c["parse_bytes"] / 1e6,
        "core.hypergraph_s": total["core.hypergraph"],
        "core.is_connected_s": total["core.is_connected"],
        "constructions.power_s": total["constructions.power"],
        "constructions.power_calls": calls["constructions.power"],
        "tensors.build_s": total["tensors.build"],
        "tensors.irreducible_s": total["tensors.irreducible"],
        "tensors.apply_calls": calls["tensors.apply"],
        "tensors.apply_s": total["tensors.apply"],
        "tensors.apply_us": 1e6 * _ratio(total["tensors.apply"], calls["tensors.apply"]),
        "tensors.apply_mb": c["apply_bytes"] / 1e6,
        "tensors.iterations": c["iterations"],
        "tensors.converged_ratio": _ratio(c["converged"], c["solves"]),
        "tensors.solve_self_s": own["tensors.solve"],
        "tensors.bounds_s": total["tensors.bounds"],
        "oddbip.system_s": total["oddbip.system"],
        "oddbip.gf2_s": total["oddbip.gf2"],
        "oddbip.gf2_rows": c["gf2_rows"],
        "oddbip.verify_s": total["oddbip.verify"],
        "oddbip.consistent_ratio": _ratio(c["gf2_consistent"], c["gf2_calls"]),
        "oddbip.is_bipartite_s": total["oddbip.is_bipartite"],
        "enumeration.classes_s": c["classes_cold_s"],
        "enumeration.classes": c["classes"],
        "enumeration.nonbipartite_s": total["enumeration.nonbipartite"],
        "matrixspec.rho_calls": calls["matrixspec.rho"],
        "matrixspec.rho_s": total["matrixspec.rho"],
        "matrixspec.rho_us": 1e6 * _ratio(total["matrixspec.rho"], calls["matrixspec.rho"]),
        "experiments.self_s": own["experiments.run"],
    }
