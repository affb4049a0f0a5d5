"""deckcensus benchmark: one run of one workload.

    python3 perfbench/run.py --workload {enumerate,classes,queries}
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src``.
Work happens in fresh interpreters started one after another (never two
at once), so every run starts with empty memos and runs serially.  The
last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
``end_to_end`` ones of ``BENCHMARK.json``; with ``--trace 1`` they are
the ``per_layer`` ones, taken from a traced pass after an untraced pass
of the same length that gives ``trace.overhead_ratio``.  The traced
pass's aggregates and top-level spans are written to
``.perfbench-trace/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import tracing

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("enumerate", "classes", "queries")
# ``setup_s`` is the median of at least SETUP_PROBES fresh set-ups.  They
# run PROBES_PER_GAP at a time before each worker and after the last, so
# that they spread over the run instead of hanging on one moment of the host.
SETUP_PROBES = 10
PROBES_PER_GAP = {"enumerate": 2, "classes": 4, "queries": 2}
DEADLINE_S = 170  # the whole run, set-up probes included


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, workdir: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.workers = 0

    def worker(self, *extra: str, index: int = 0) -> dict:
        """Run one worker interpreter to completion and return its result."""
        self.workers += 1
        argv = [sys.executable, str(BENCH / "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--index", str(index),
                "--workdir", str(self.workdir / f"w{self.workers}"), *extra]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), PYTHONHASHSEED="0")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        proc = subprocess.run(argv, cwd=self.root, env=env, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(
                f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}"
            )
        return json.loads(proc.stdout.splitlines()[-1])

    def setup_times(self, probes: int) -> list[float]:
        """Wall times of fresh interpreters that import the program, prepare
        the workload's inputs and exit, scaled to the nominal host speed."""
        times = []
        for _ in range(probes):
            before = gauge.reference_s()
            start = time.perf_counter()
            self.worker("--setup-only")
            seconds = time.perf_counter() - start
            times.append(seconds * 2 * gauge.NOMINAL_S
                         / (before + gauge.reference_s()))
        return times

    def loop(self, seconds: float, trace: bool,
             probes: int = 0) -> tuple[list[dict], list[float]]:
        """Start workers one after another while the next one, judged by the
        previous one, still ends within ``seconds`` of worker time, and at
        least as many as the workload asks for.  ``probes`` set-up probes
        run before each worker and after the last, topped up at the end
        to ``SETUP_PROBES``; their times are returned with the results."""
        results: list[dict] = []
        setup: list[float] = []
        spent = last = 0.0  # worker time so far, and the previous worker's
        extra = ("--trace",) if trace else ()
        while (
            not results
            or len(results) < results[0]["min_processes"]
            or spent + last <= seconds
        ):
            setup += self.setup_times(probes)
            began = time.perf_counter()
            results.append(self.worker(*extra, index=len(results)))
            last = time.perf_counter() - began
            spent += last
        if probes:
            setup += self.setup_times(max(probes, SETUP_PROBES - len(setup)))
        return results, setup


def _units(results: list[dict]) -> list[dict]:
    return [r["unit"] for r in results]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _seconds(unit: dict, kinds: list[str]) -> float:
    return sum(op["seconds"] for op in unit["ops"] if op["kind"] in kinds)


def _wall_s(results: list[dict]) -> float:
    """Median over units of the time of their ``wall`` operations."""
    kinds = results[0]["kinds"]["wall"]
    return statistics.median(_seconds(u, kinds) for u in _units(results))


def end_to_end(results: list[dict], setup_s: float) -> dict[str, float]:
    kinds = results[0]["kinds"]
    units = _units(results)
    ops = [op for u in units for op in u["ops"] if op["ok"]]
    latency = [op["seconds"] for op in ops if op["kind"] in kinds["latency"]]
    warm = [op["seconds"] for op in ops if op["kind"] in kinds["warm"]]
    return {
        "setup_s": setup_s,
        "wall_s": _wall_s(results),
        "graphs_per_s": sum(u["graphs"] for u in units)
        / sum(_seconds(u, kinds["graph"]) for u in units),
        "p50_ms": statistics.median(latency) * 1e3,
        "p90_ms": _p90(latency) * 1e3,
        "warm_p50_ms": statistics.median(warm) * 1e3,
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024,
        "samples": len(latency),
    }


def per_layer(reference: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    trace = tracing.merge([r["trace"] for r in traced])
    units = _units(traced)
    cache_bytes = statistics.median(r["cache_bytes"] for r in traced)
    metrics = tracing.layer_metrics(trace, len(units), cache_bytes)
    metrics["trace.overhead_ratio"] = _wall_s(traced) / _wall_s(reference)
    return metrics, trace


def _count(results: list[dict]) -> tuple[int, list[str]]:
    ops = [op for u in _units(results) for op in u["ops"]]
    return len(ops), [op["error"] for op in ops if not op["ok"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "deckcensus" / "__init__.py").is_file():
        print(f"error: no deckcensus sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    section = "per_layer" if args.trace else "end_to_end"

    workdir = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(root, args.workload, args.seed, workdir)
    try:
        if args.trace:
            reference, _ = runner.loop(args.seconds, trace=False)
            traced, _ = runner.loop(args.seconds, trace=True)
            results = reference + traced
        else:
            results, probes = runner.loop(args.seconds, trace=False,
                                          probes=PROBES_PER_GAP[args.workload])
            setup_s = statistics.median(probes)
        attempted, errors = _count(results)
        for error in errors[:10]:
            print(f"failed: {error}", file=sys.stderr)
        if args.trace:
            values, trace = per_layer(reference, traced)
            out = root / ".perfbench-trace" / f"{args.workload}-seed{args.seed}.json"
            out.parent.mkdir(exist_ok=True)
            out.write_text(json.dumps({"metrics": values, "trace": trace}) + "\n")
        else:
            values = end_to_end(results, setup_s)
            speed = statistics.median(r["host_speed"] for r in results)
            print(f"{values.pop('samples')} latency samples; host ran at "
                  f"{speed:.3f} of nominal speed", file=sys.stderr)
    except (BenchError, subprocess.TimeoutExpired, statistics.StatisticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
