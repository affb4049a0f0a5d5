"""One fresh interpreter's share of a benchmark run.

    python3 perfbench/worker.py --workload W --seed S --index I
        --workdir DIR [--trace] [--setup-only]

Run from the repository root with ``src`` on ``PYTHONPATH``; ``run.py``
starts it.  It prepares the workload's inputs, runs one unit of the
workload, and prints one JSON object as its last line of output.  ``--index`` numbers the run's workers from 0; ``queries``
draws a different round of inputs for each.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import asdict
from pathlib import Path


def _cache_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import deckcensus

    src = (Path.cwd() / "src").resolve()
    if not Path(deckcensus.__file__).resolve().is_relative_to(src):
        print(f"deckcensus was imported from {deckcensus.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from gauge import NOMINAL_S
    from workloads import GAUGE, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.index, args.workdir)
    if args.setup_only:
        print(json.dumps({"setup": True}))
        return 0

    tracer = None
    gc.collect()
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.unit = args.index
        with GAUGE.running(), tracer.installed():
            unit = workload.run_unit()
    else:
        with GAUGE.running():
            unit = workload.run_unit()
    for op in unit.ops:
        op.scale()
    result = {
        "kinds": {"latency": workload.latency_kinds, "warm": workload.warm_kinds,
                  "wall": workload.wall_kinds, "graph": workload.graph_kinds},
        "host_speed": statistics.median(NOMINAL_S / took for took in GAUGE.took),
        "min_processes": workload.min_processes,
        "unit": asdict(unit),
        "cache_bytes": _cache_bytes(workload.cache_dir),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
