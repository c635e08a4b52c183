"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/sweep.py --seeds 1-10 --seconds 20 [--trace 0|1] [--out FILE]

For every workload and metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile spread as
a share of the median.  With --out it writes the runs and that summary as
one JSON trajectory entry, with the environment of the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BENCH_DIR, environment
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary: dict = {}
    runs: dict = {}
    ok = True
    for name in WORKLOADS:
        results = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["elapsed_s"] = time.perf_counter() - t0
            results.append(result)
            ok = ok and result["correct"]
            print(f"{name} seed {seed}: {result['elapsed_s']:.1f} s, correct={result['correct']}", flush=True)
        runs[name] = results
        summary[name] = {}
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            summary[name][metric] = {
                "unit": first["unit"], "median": q2, "q1": q1, "q3": q3, "spread": spread, "n": len(values),
            }
            print(f"  {metric:<28s} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}")
    if args.out:
        entry = {
            "env": environment(),
            "seconds": args.seconds,
            "seeds": args.seeds,
            "trace": args.trace,
            "summary": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
