"""Benchmark of the hetcontour layer stack.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload heart --seed 1 --seconds 10 --trace 0

``--trace 0`` times whole rounds of the workload for ``--seconds`` seconds
(at least one round) with tracing off and reports the end-to-end metrics.
``--trace 1`` runs one untraced round, then one round with the per-layer
tracer installed, and reports the per-layer metrics; its spans go to
``perfbench/results/``.  Either way the workload's results are checked, and
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The package is not installed:
``src`` is put on the import path from the checkout itself.
"""
from __future__ import annotations

import argparse
import os
import time

T_SCRIPT = time.perf_counter()

import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("reversible", "heart", "flashing", "cycles")


def since_process_start():
    """Seconds since this process was started, interpreter start included.

    Read from the kernel's start time of the process where it is available,
    otherwise from the first line of this script.
    """
    fallback = time.perf_counter() - T_SCRIPT
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return fallback
    return elapsed if fallback <= elapsed < fallback + 5.0 else fallback


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hetcontour" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # imports the package, numpy and scipy

    RESULTS.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, RESULTS)
    wl.setup()
    setup_s = since_process_start()

    if args.trace:
        import layertrace
        untraced, untraced_s = timed(wl.run)
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced, traced_s = timed(wl.run)
        finally:
            tracer.uninstall()
        results = [untraced, traced]
        values = layertrace.layer_metrics(tracer, traced_s, untraced_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layertrace.METRICS}
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        results, round_s = [], []
        t_begin = time.perf_counter()
        while not round_s or time.perf_counter() - t_begin < args.seconds:
            result, dt = timed(wl.run)
            results.append(result)
            round_s.append(dt)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(round_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        }

    problems = wl.check(results[0])
    first = pickle.dumps(results[0])
    if any(pickle.dumps(r) != first for r in results[1:]):
        problems.append("rounds of the same inputs gave different results")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    line = {
        "correct": not problems,
        "attempted": wl.ops * len(results),
        "failed": sum(wl.failed(r) for r in results),
        "metrics": metrics,
    }
    text = json.dumps(line)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
