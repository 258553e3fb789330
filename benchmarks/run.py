"""Benchmark of smld: seeded workloads, correctness gates, end-to-end and
per-layer metrics.

Run from the repository root (Python with numpy and scipy; smld is imported
from ``src/``, nothing needs installing):

    python3 benchmarks/run.py --workload apply_cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
work untraced and the same half traced, and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of the run (seed, machine, per-label
latencies, failures) goes to ``.bench_out/`` under the repository root, and
a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
HARD_STOP_S = 150.0  # stop issuing work after this long, whatever --seconds says
END_TO_END = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms",
              "req_per_s": "1/s", "peak_rss_mb": "MB"}


def _load_smld():
    """Import smld from this checkout's ``src/``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import smld

    if not Path(smld.__file__).resolve().is_relative_to(src):
        raise ImportError(f"smld was imported from {smld.__file__}, not from {src}")
    return smld


def machine_facts() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def probe_setup(args) -> float:
    """Seconds from starting a fresh process until it is ready to time:
    importing smld, numpy and scipy and generating the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


@dataclass
class Timed:
    outcomes: list = field(default_factory=list)
    seconds: float = 0.0  # spent in the units
    complete: bool = True  # False if HARD_STOP_S cut the run short
    cache: Counter = field(default_factory=Counter)  # coefficient-cache counts


def timed(workload, units, mark=lambda: None, pause=lambda i: None) -> Timed:
    """Run the units, calling ``pause(i)`` before unit i and
    ``pause(len(units))`` after the last, outside the timing.

    Caches start cold, and again before each unit of a workload whose units
    are cold starts; coefficient-cache counts are summed over the units.
    """
    from tracing import coefficient_cache, reset_caches

    cache = coefficient_cache()
    result = Timed()

    def collect():
        if cache is not None:  # read only while the lru_cache exists
            info = cache.cache_info()
            result.cache.update(hits=info.hits, misses=info.misses)
            result.cache["size_end"] = info.currsize

    reset_caches()
    for i, unit in enumerate(units):
        pause(i)
        if i and workload.cold_units:
            collect()
            reset_caches()
        t0 = time.perf_counter()
        result.outcomes.extend(workload.run_unit(unit, mark))
        result.seconds += time.perf_counter() - t0
        if result.seconds > HARD_STOP_S:
            result.complete = False
            break
    else:
        pause(len(units))
    collect()
    return result


def latency_by_label(outcomes) -> dict[str, float]:
    labels = {}
    for o in outcomes:
        labels.setdefault(o.label, []).append(o.latency_s)
    return {label: statistics.median(v) for label, v in labels.items()}


def end_to_end(args, workload, units) -> tuple[dict, list, dict]:
    # set-up probes are spread over the run, so that they sample the
    # machine at several moments rather than one
    at = [round(k * len(units) / (SETUP_PROBES - 1)) for k in range(SETUP_PROBES)]
    setups = []

    def pause(i):
        setups.extend(probe_setup(args) for _ in range(at.count(i)))

    result = timed(workload, units, pause=pause)
    lat_ms = [1e3 * o.latency_s for o in result.outcomes]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": result.seconds,
        "req_p50_ms": statistics.median(lat_ms),
        "req_p90_ms": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
        "req_per_s": len(result.outcomes) / result.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    extra = {"setup_probes_s": setups, "complete": result.complete,
             "latency_by_label_s": latency_by_label(result.outcomes)}
    return metrics, result.outcomes, extra


def per_layer(args, workload, units) -> tuple[dict, list, dict]:
    from tracing import LAYER_METRICS, Tracer

    half = units[: max(1, len(units) // 2)]
    plain = timed(workload, half)
    tracer = Tracer()

    def mark():
        tracer.request_id += 1

    with tracer:
        traced = timed(workload, half, mark)
    values = tracer.layer_metrics()
    if traced.cache:  # absent when smld has no coefficient cache
        hits, misses = traced.cache["hits"], traced.cache["misses"]
        values["core.coefficient.cache_hits"] = hits
        values["core.coefficient.cache_misses"] = misses
        values["core.coefficient.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        values["core.coefficient.cache_size_end"] = traced.cache["size_end"]
    values["trace.overhead_s"] = traced.seconds - plain.seconds
    metrics = {name: (values[name], unit) for name, unit, _ in LAYER_METRICS if name in values}
    spans = _out_path(args, ".spans.npz")
    tracer.save(spans)
    extra = {"untraced_wall_s": plain.seconds, "traced_wall_s": traced.seconds,
             "complete": plain.complete and traced.complete,
             "latency_by_label_s": latency_by_label(plain.outcomes),
             "spans_file": str(spans.relative_to(ROOT)),
             "layer_inclusive_s": {k: v["inclusive_s"] for k, v in tracer.layer_times().items()}}
    return metrics, plain.outcomes + traced.outcomes, extra


def _out_path(args, suffix: str) -> Path:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    return out / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("battery", "battery_full", "apply_cold", "converge_reuse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; fixes how much work the run does")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="where to write the run's JSON record (default .bench_out/)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # one thread, as every workload is defined; must precede importing numpy
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        _load_smld()
    except ImportError as exc:
        print(f"benchmark: cannot import smld from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    units = workload.make_inputs(args.seed, workload.units(args.seconds))
    if args.probe_setup:
        print("ready", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    metrics, outcomes, extra = measure(args, workload, units)
    if not extra["complete"]:
        print(f"benchmark: stopped after {HARD_STOP_S:g} s of work; metrics cover "
              "only the units that ran", file=sys.stderr)
    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print(f"FAILED {o.label}: {o.detail}", file=sys.stderr)
    fail_ratio = len(failed) / len(outcomes) if outcomes else 1.0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": len(units), "requests": len(outcomes),
        "machine": machine_facts(),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "fail_ratio": fail_ratio, "failures": [o.detail for o in failed], **extra,
    }
    path = Path(args.record) if args.record else _out_path(args, ".json")
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} units {len(units)} "
          f"requests {len(outcomes)} trace {args.trace}")
    print("machine " + json.dumps(record["machine"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'fail_ratio':40s} {fail_ratio:.6g} ({len(failed)}/{len(outcomes)})")
    print(json.dumps({
        "correct": not failed and len(outcomes) > 0,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
