"""Seeded end-to-end benchmark of the hgspectra command line.

    python3 bench/run.py --workload {lift,slow-gap,enum7} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; the package is imported from the
checkout's src/. One run:

1. sets the workload's inputs up (a fresh-interpreter import check plus
   generating and writing the files), and again after each of the first
   passes, SETUP_REPEATS times in all; setup_s is the median;
2. repeats passes over the workload's jobs for S seconds, one job at a time,
   each pass in fresh interpreters (lift and slow-gap: one interpreter calling
   run_cli per job; enum7: one `python3 -m hypergraph_spectra` per job);
3. checks every answer against an independent oracle after its pass, outside
   the timed windows, and counts wrong answers and nonzero exits as failed.

End-to-end metrics are medians over the passes of a run. With --trace 1 the
passes alternate between untraced and traced; the traced ones give the
per-layer metrics (medians over traced passes) and trace.overhead_s, the
median traced minus the median untraced wall_s. Human-readable lines go
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Spans, counters and a run record are written
under bench/_work/<workload>/. Exit status: 0 when every answer checked out,
1 when some did not, 2 when the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
PROCESS_TIMEOUT_S = 150.0
RADIUS_COMMANDS = ("rho", "converge", "minrho")
SUBCOMMANDS = ("rho", "bounds", "oddbip", "converge", "minrho", "verify-nob")
END_TO_END = ("wall_s", "setup_s", "radius_s", "peak_rss_mb")


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def spawn(cmd: list[str], env: dict, log_path: Path) -> tuple[int, float, float]:
    """Run cmd to completion; (exit status, wall seconds, peak RSS in bytes)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    return proc.returncode, seconds, usage.ru_maxrss * 1024.0


def run_pass(wl, jobs, work: Path, env: dict, traced: bool, index: int) -> dict:
    """One pass over the jobs; returns its timings and, if traced, its spans."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    groups = [[job] for job in jobs] if wl.fresh_interpreter else [jobs]
    record = {"traced": traced, "wall": 0.0, "rss": 0.0, "status": {}, "seconds": {}, "processes": []}
    for g, group in enumerate(groups):
        argvs = [list(job.argv) + ["--out", str(out_dir / f"{job.id}.txt")] for job in group]
        result_path = work / f"result-{index}-{g}.json"
        if wl.fresh_interpreter and not traced:
            cmd = [sys.executable, "-m", "hypergraph_spectra", *argvs[0]]
        else:
            jobs_path = work / "jobs.json"
            jobs_path.write_text(json.dumps([{"id": j.id, "argv": a} for j, a in zip(group, argvs)]))
            cmd = [sys.executable, str(BENCH / "worker.py"), "--jobs", str(jobs_path), "--result", str(result_path)]
            cmd += ["--trace"] if traced else []
        status, seconds, rss = spawn(cmd, env, work / "log.txt")
        record["wall"] += seconds
        record["rss"] = max(record["rss"], rss)
        for job in group:
            record["status"][job.id] = status
            record["seconds"][job.id] = seconds
        if cmd[1] == "-m":
            continue
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            continue  # the worker died: its jobs keep the process status
        for r in result["jobs"]:
            record["status"][r["id"]] = r["status"] if status == 0 else status
            if not wl.fresh_interpreter:
                record["seconds"][r["id"]] = r["seconds"]
        if traced:
            record["processes"].append((result["spans"], result["counters"]))
        result_path.unlink()
    return record


def check_pass(record: dict, jobs, work: Path) -> list[str]:
    """Failure reasons of one pass, one per failed job."""
    failures = []
    for job in jobs:
        status = record["status"][job.id]
        if status != 0:
            failures.append(f"{job.id}: exit status {status}")
            continue
        try:
            text = (work / "out" / f"{job.id}.txt").read_text(encoding="ascii")
        except OSError as exc:
            failures.append(f"{job.id}: no output ({exc})")
            continue
        reason = job.check(text)
        if reason is not None:
            failures.append(f"{job.id}: {reason}")
    return failures


def set_up(wl, seed: int, work: Path, env: dict, tracer):
    """One timed set-up: a fresh-interpreter import check, then the inputs.
    Returns (seconds, seconds in constructions.power, inputs), or None when
    the package does not import."""
    mark = len(tracer.spans) if tracer else 0
    start = time.perf_counter()
    probe = [sys.executable, "-c", "import hypergraph_spectra.cli"]
    if subprocess.run(probe, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, timeout=60).returncode:
        return None
    inputs = wl.setup(seed, work)
    seconds = time.perf_counter() - start
    spans = tracer.spans[mark:] if tracer else []
    power = sum(end - begin for _, name, begin, end, _ in spans if name == "constructions.power")
    return seconds, power, inputs


def _environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = target.read_text().strip() if target is not None and target.is_file() else ref
    import numpy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _summary(values: list[float]) -> tuple[float, float, float, int]:
    return statistics.median(values), min(values), max(values), len(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("lift", "slow-gap", "enum7"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "hypergraph_spectra" / "cli.py").is_file():
        print(f"error: no package source under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = BENCH / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    setups = [set_up(wl, args.seed, work, env, tracer)]
    if setups[0] is None:
        print("error: the package in src/ does not import", file=sys.stderr)
        return 2
    inputs = setups[0][2]

    jobs = wl.jobs(inputs, work)
    random.Random(args.seed).shuffle(jobs)

    passes, failures = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        record = run_pass(wl, jobs, work, env, traced, len(passes))
        failures += check_pass(record, jobs, work)
        passes.append(record)
        if len(setups) < SETUP_REPEATS:
            # Spread the set-ups over the run, so setup_s sees the same host as the passes.
            setups.append(set_up(wl, args.seed, work, env, tracer))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if elapsed + 0.5 * typical >= args.seconds and len(passes) >= 1 + args.trace:
            break

    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(wl, args.seed, work, env, tracer))
    if None in setups:
        print("error: the package in src/ stopped importing", file=sys.stderr)
        return 2

    plain = [p for p in passes if not p["traced"]]
    series = {
        "wall_s": [p["wall"] for p in plain],
        "setup_s": [seconds for seconds, _, _ in setups],
        "radius_s": [sum(p["seconds"][j.id] for j in jobs if j.command in RADIUS_COMMANDS) for p in plain],
        "peak_rss_mb": [p["rss"] / 1e6 for p in plain],
    }
    for cmd in SUBCOMMANDS:
        if any(j.command == cmd for j in jobs):
            name = cmd.replace("-", "_") + "_s"
            series[name] = [sum(p["seconds"][j.id] for j in jobs if j.command == cmd) for p in plain]

    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        layers = [tracing.layer_metrics(p["processes"]) for p in traced_passes]
        for name in layers[0]:
            series[name] = [m[name] for m in layers]
        series["constructions.setup_power_s"] = [power for _, power, _ in setups]
        overhead = statistics.median(p["wall"] for p in traced_passes) - statistics.median(series["wall_s"])
        series["trace.overhead_s"] = [overhead]
        reported = [name for name in series if "." in name]
        trace_file = work / f"trace-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps({"setup_spans": tracer.spans, "passes": [p["processes"] for p in traced_passes]})
        )
    else:
        reported = list(END_TO_END)

    attempted = len(jobs) * len(passes)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  jobs/pass {len(jobs)}")
    print(f"{'metric':32} {'median':>14} {'min':>14} {'max':>14} {'n':>4}  unit")
    for name, values in series.items():
        med, lo, hi, n = _summary(values)
        print(f"{name:32} {med:14.6g} {lo:14.6g} {hi:14.6g} {n:4d}  {unit_of(name)}")
    print(f"{'failed_frac':32} {len(failures) / attempted:14.6g} {'':14} {'':14} {attempted:4d}  ratio")
    for reason in failures[:20]:
        print(f"failed: {reason}", file=sys.stderr)

    metrics = {
        name: {"value": statistics.median(series[name]), "unit": unit_of(name)} for name in reported
    }
    (work / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "environment": _environment(),
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "series": series,
                "failures": failures,
            },
            indent=1,
        )
    )
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
