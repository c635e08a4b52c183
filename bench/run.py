"""Benchmark for the ucbfw simulator: what `ucbfw run` costs, from config to CSV.

    python3 bench/run.py --workload vertex_long --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload seed generates the experiment
config (see workloads.py); the library is driven from outside through its
public entry points in the order `ucbfw run` uses them.

--trace 0 prints the end-to-end metrics: trial_steps_per_s, wall_s, setup_s
and peak_rss_mb, measured with tracing off.  The three timings are scaled
to a reference machine speed by the calibration kernel of calibrate.py,
timed around every repetition and probe; the raw medians are printed too.
--trace 1 prints the per-layer metrics from a separate traced run (see
tracing.py) and the tracing overhead.  Both check the outputs; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.  Scratch files and span traces go under .bench_out/ in the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import calibrate
from workloads import DEFAULT_SEED, WORKLOADS, nproc

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_PROBES = 8
# the whole run must end within 180 s: the set-up probes share one budget
# and the pipeline child gets most of what is left
PROBE_BUDGET_S = 50
CHILD_TIMEOUT_S = 120


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _probe(deadline: float, script: str, *args: str) -> list[float]:
    """Runs a probe script in a fresh interpreter; the numbers of its last line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), *args],
        env=_child_env(), capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0), check=True,
    )
    return [float(x) for x in proc.stdout.strip().splitlines()[-1].split()]


def setup_seconds(config_path: Path) -> list[tuple[float, float]]:
    """(raw, scaled) set-up time of SETUP_PROBES fresh interpreters, one after the other.

    Each set-up probe follows a reference import probe: its import part is
    scaled by that, the rest by the kernel speed it timed (see calibrate.py).
    """
    deadline = time.monotonic() + PROBE_BUDGET_S
    times = []
    for _ in range(SETUP_PROBES):
        (reference_s,) = _probe(deadline, "import_probe.py")
        import_s, rest_s, speed = _probe(deadline, "setup_probe.py", str(config_path))
        scaled = calibrate.scale_import(import_s, reference_s) + calibrate.scale(rest_s, speed)
        times.append((import_s + rest_s, scaled))
    return times


def run_child(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "pipeline.py"), json.dumps(job)],
        env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(child: dict, setup: list[tuple[float, float]], workers: int) -> tuple[dict, dict]:
    """The scaled end-to-end metrics, and the raw medians of the three timings.

    Each repetition is scaled by the kernel speeds timed just before and
    after it.
    """
    reps = child["reps"]
    med = statistics.median
    # ru_maxrss of RUSAGE_CHILDREN is the largest single pool worker
    pool_kb = workers * child["children_maxrss_kb"] if workers > 1 else 0
    metrics = {
        "trial_steps_per_s": med(r["steps"] / calibrate.scale(r["sim_s"], *r["speed"]) for r in reps),
        "wall_s": med(calibrate.scale(r["wall_s"], *r["speed"]) for r in reps),
        "setup_s": med(scaled for _, scaled in setup),
        "peak_rss_mb": (child["maxrss_kb"] + pool_kb) / 1024.0,
    }
    raw = {
        "trial_steps_per_s": med(r["steps"] / r["sim_s"] for r in reps),
        "wall_s": med(r["wall_s"] for r in reps),
        "setup_s": med(raw for raw, _ in setup),
        "kernel_speed": med(s for r in reps for s in r["speed"]),
    }
    return metrics, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ucbfw" / "__init__.py").is_file():
        print(f"error: no ucbfw sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workers = workload.workers()
    env = environment()
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        config_path = run_dir / "config.yaml"
        config_path.write_text(yaml.safe_dump(workload.config(args.seed), sort_keys=False))
        references = json.loads(REFERENCE.read_text())
        job = {
            "config": str(config_path),
            "out": str(run_dir),
            "workers": workers,
            "selector": workload.selector,
            "seconds": args.seconds,
            "mode": "trace" if args.trace else "plain",
            "reference": references[args.workload] if args.seed == DEFAULT_SEED else None,
            "spans": str(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"),
            "header": {"workload": args.workload, "seed": args.seed, "env": env},
        }
        try:
            if args.trace:
                child = run_child(job)
                metrics = child["metrics"]
            else:
                setup = setup_seconds(config_path)
                child = run_child(job)
                metrics, raw = end_to_end(child, setup, workers)
        except subprocess.CalledProcessError as exc:
            print(exc.stderr, file=sys.stderr)
            print(f"error: {exc.cmd[1]} exited with {exc.returncode}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    failed = len(child["failures"])
    attempted = child["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  workers {workers}  seconds {args.seconds}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"csv_sha256 {child['csv_sha256']}")
    print(f"summary_sha256 {child['summary_sha256']}")
    if args.trace:
        print(f"traced_reps {child['traced_reps']}  untraced_wall_s {child['untraced_wall_s']:.6f}")
    else:
        print(f"reps {len(child['reps'])}  setup_probes {len(setup)}")
        print("raw " + "  ".join(f"{name} {value:.6g}" for name, value in raw.items())
              + f"  (reference kernel_speed {calibrate.REFERENCE_SPEED:g})")
    for name, value in metrics.items():
        print(f"{name:<28s} {value:.6g} {units[name]}")
    print(f"{'failed_frac':<28s} {failed / attempted:.6g} ({failed} of {attempted} checks)")
    for reason in child["failures"]:
        print(f"FAILED: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
