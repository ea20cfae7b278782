"""Run a batch of hgspectra subcommands in one interpreter, as a user script would.

    python3 bench/worker.py --jobs JOBS.json --result RESULT.json [--trace]

JOBS.json is a list of {"id": ..., "argv": [...]}; each job is one
`run_cli(argv)` call. RESULT.json receives each job's exit status and
elapsed seconds, the import time of the package and, with --trace, the
spans and counters recorded around the package's layers. The package is
imported from PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(args.jobs, encoding="utf-8") as f:
        jobs = json.load(f)

    start = time.perf_counter()
    from hypergraph_spectra.cli import run_cli

    import_s = time.perf_counter() - start
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        tracer.record("cli.import", start, start + import_s)
        install(tracer)

    results = []
    for job in jobs:
        argv = job["argv"]
        start = time.perf_counter()
        try:
            if tracer is None:
                status = run_cli(argv)
            else:
                status = tracer.call("cli." + argv[0], run_cli, argv)
        except Exception:  # a crash is a failed job; the batch goes on
            traceback.print_exc()
            status = -1
        results.append({"id": job["id"], "status": status, "seconds": time.perf_counter() - start})

    out = {"import_s": import_s, "jobs": results}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counters"] = dict(tracer.counters)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
