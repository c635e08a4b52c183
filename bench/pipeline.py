"""Measurement child: runs the `ucbfw run` pipeline on one generated config.

    python3 bench/pipeline.py '<job json>'

The job (built by run.py) names the config file, output directory, worker
count, bound selector, time budget, mode (`plain` or `trace`), the reference
digests and where the traced run writes its spans.
The child prints one JSON object with its timings, check counts and, in
trace mode, the per-layer metrics.  It runs in its own process so that its
peak RSS and that of its pool workers are the pipeline's alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from ucbfw import cli, feedback, harness

import calibrate
from tracing import Tracer


POOL_PAIRS = 3


def _no_span(name: str, **attrs):
    return nullcontext()


@dataclass
class Rep:
    wall_s: float
    sim_s: float
    config: harness.ExperimentConfig
    records: list
    agg: object
    csv: str
    summary: str


@dataclass(frozen=True)
class Outcome:
    """What a repetition produced, small enough to keep for every repetition."""

    csv_sha256: str
    summary_sha256: str
    bound: harness.BoundReport


def run_pipeline(job: dict, workers: int, span=_no_span) -> Rep:
    """parse -> simulate -> aggregate -> emit -> write, timed as `ucbfw run` runs it.

    The CSV and summary are emitted as `ucbfw run` emits them, without bound
    rows, so they are byte-comparable with the command's own output.
    """
    out_dir = Path(job["out"])
    t0 = time.perf_counter()
    with span("pipeline"):
        with span("setup"):
            with span("parse_config"):
                config = cli.parse_config(job["config"])
        t1 = time.perf_counter()
        with span("simulate"):
            records = harness.run_experiment(config, workers=workers)
        t2 = time.perf_counter()
        with span("aggregate"):
            agg = harness.aggregate(records)
        with span("emit_csv"):
            csv = cli.emit_csv(config, records, agg)
        with span("emit_summary"):
            summary = cli.emit_summary(config, agg)
        with span("write"):
            (out_dir / f"{config.experiment}.csv").write_text(csv)
            (out_dir / f"{config.experiment}_summary.json").write_text(summary)
    return Rep(time.perf_counter() - t0, t2 - t1, config, records, agg, csv, summary)


def check_bound(job: dict, rep: Rep, span=_no_span) -> harness.BoundReport:
    """The bound check `ucbfw check-bounds` makes; outside the timed pipeline."""
    with span("build_model"):
        model = harness.build_model(rep.config.model)
    with span("bound_check"):
        return harness.bound_check(rep.agg, model, job["selector"], records=rep.records)


class Checks:
    """Output checks behind `failed_frac`; every failure keeps a one-line reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def rep(self, rep: Rep, bound: harness.BoundReport) -> Outcome:
        """Per-record invariants of one repetition; returns what to compare it by."""
        cfg = rep.config
        self.check(len(rep.records) == cfg.seed_count, "record count differs from seed count")
        for r in rep.records:
            self.check(r.horizons == cfg.horizons, f"seed {r.seed}: horizons {r.horizons}")
            self.check(
                all(sum(c) == t for c, t in zip(r.counts, r.horizons)),
                f"seed {r.seed}: snapshot counts do not sum to the horizon",
            )
            self.check(
                all(math.isfinite(e) and e >= -1e-9 for e in r.errors),
                f"seed {r.seed}: error not finite or below -1e-9",
            )
        self.check(bound.supported, f"bound {bound.selector} unsupported: {bound.reason}")
        return Outcome(sha256(rep.csv), sha256(rep.summary), bound)

    def reference(self, out: Outcome, reference: dict | None) -> None:
        if reference is None:
            return
        self.check(out.csv_sha256 == reference["csv_sha256"], "csv differs from the stored reference")
        self.check(
            out.summary_sha256 == reference["summary_sha256"],
            "summary differs from the stored reference",
        )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def plain(job: dict) -> dict:
    """Timed repetitions at the workload's worker count, each checked as it ends.

    Only timings and digests outlive a repetition, so the heap that pool
    workers fork from, and with it `peak_rss_mb`, does not grow with the
    number of repetitions that fit in the time.  The calibration kernel is
    timed before the first repetition and after each one, on as many cores
    as the repetitions use (see calibrate.py).
    """
    checks = Checks()
    workers = job["workers"]
    deadline = time.perf_counter() + job["seconds"]
    reps: list[dict] = []
    first = None
    with calibrate.Kernel(workers) as kernel:
        before = kernel.speed()
        while len(reps) < 3 or time.perf_counter() < deadline:
            rep = run_pipeline(job, workers)
            after = kernel.speed()
            steps = rep.config.seed_count * max(rep.config.horizons)
            reps.append({"wall_s": rep.wall_s, "sim_s": rep.sim_s, "steps": steps, "speed": (before, after)})
            before = after
            out = checks.rep(rep, check_bound(job, rep))
            del rep
            if first is None:
                first = out
                checks.reference(first, job["reference"])
            else:
                checks.check(first == out, f"repetition {len(reps) - 1} output differs from repetition 0")
    if workers > 1:
        serial = run_pipeline(job, 1)
        out = checks.rep(serial, check_bound(job, serial))
        checks.check(first == out, f"workers={workers} output differs from workers=1")
    return {
        "reps": reps,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "csv_sha256": first.csv_sha256,
        "summary_sha256": first.summary_sha256,
        "attempted": checks.attempted,
        "failures": checks.failures,
    }


def draws_used_frac(records: list) -> float:
    """Draws consumed / draws generated, from final pull counts and the sampler chunk."""
    chunk = feedback.ObservationSampler.CHUNK
    used = generated = 0
    for r in records:
        for n in r.counts[-1]:
            used += n
            generated += -(-n // chunk) * chunk
    return used / generated


def traced(job: dict) -> dict:
    """Untraced reference runs, then traced runs at workers=1 until the time is up."""
    checks = Checks()
    workers = job["workers"]
    deadline = time.perf_counter() + job["seconds"]
    serial = run_pipeline(job, 1)
    expected = checks.rep(serial, check_bound(job, serial))
    checks.reference(expected, job["reference"])
    pool_efficiency = 1.0
    if workers > 1:
        # alternate serial and pooled runs so that drift in machine speed
        # hits both sides of the ratio alike
        serial_s, pooled_s = [serial.sim_s], []
        for i in range(POOL_PAIRS):
            pooled = run_pipeline(job, workers)
            out = checks.rep(pooled, check_bound(job, pooled))
            checks.check(expected == out, f"workers={workers} output differs from workers=1")
            pooled_s.append(pooled.sim_s)
            del pooled
            if i + 1 < POOL_PAIRS:
                serial_s.append(run_pipeline(job, 1).sim_s)
        pool_efficiency = statistics.median(serial_s) / (workers * statistics.median(pooled_s))

    # The wrappers are installed around the timed pipeline only, so the
    # counters see the calls `ucbfw run` makes and not those of the bound
    # check, which still gets its spans.
    tracer = Tracer()
    walls: list[float] = []
    while not walls or time.perf_counter() < deadline:
        tracer.trace_id = len(walls)
        tracer.install()
        try:
            rep = run_pipeline(job, 1, tracer.span)
        finally:
            tracer.uninstall()
        out = checks.rep(rep, check_bound(job, rep, tracer.span))
        checks.check(expected == out, f"traced repetition {len(walls)} output differs from the untraced run")
        walls.append(rep.wall_s)
        del rep
    tracer.write(Path(job["spans"]), job["header"])

    n = len(walls)
    calls = tracer.calls
    med = statistics.median
    trial_q = statistics.quantiles(tracer.trial_s, n=10, method="inclusive")
    metrics = {
        "simplex.apply_us": tracer.per_call_us("simplex.apply"),
        "simplex.proportions_us": tracer.per_call_us("simplex.proportions"),
        "simplex.calls": (calls["simplex.apply"] + calls["simplex.proportions"]) / n,
        "feedback.draw_us": tracer.per_call_us("feedback.draw"),
        "feedback.observe_us": tracer.per_call_us("feedback.observe"),
        "feedback.sampler_init_us": tracer.per_call_us("feedback.sampler_init"),
        "feedback.draws_used_frac": draws_used_frac(serial.records),
        "policies.select_us": tracer.per_call_us("policies.select"),
        "policies.forced_frac": tracer.forced / calls["policies.select"],
        "policies.epsilon_us": tracer.per_call_us("policies.epsilon"),
        "policies.restarts": statistics.fmean(tracer.restarts),
        "losses.gradient_us": tracer.per_call_us("losses.gradient"),
        "losses.sensitivity_us": tracer.per_call_us("losses.sensitivity"),
        "losses.loss_value_us": tracer.per_call_us("losses.loss_value"),
        "losses.minimizer_s": tracer.ns["losses.minimizer"] / n / 1e9,
        "losses.minimizer_calls": calls["losses.minimizer"] / n,
        "harness.build_model_s": tracer.ns["harness.build_model"] / n / 1e9,
        "harness.build_model_calls": calls["harness.build_model"] / n,
        "harness.trial_s_p50": med(tracer.trial_s),
        "harness.trial_s_p90": trial_q[8],
        "harness.pool_efficiency": pool_efficiency,
        "harness.aggregate_ms": med(tracer.span_ms("aggregate")),
        "harness.bound_check_ms": med(tracer.span_ms("bound_check")),
        "cli.parse_config_ms": med(tracer.span_ms("parse_config")),
        "cli.emit_csv_ms": med(tracer.span_ms("emit_csv")),
        "cli.emit_summary_ms": med(tracer.span_ms("emit_summary")),
        "cli.csv_bytes": len(serial.csv.encode()),
        "trace.overhead_s": med(walls) - serial.wall_s,
    }
    return {
        "metrics": metrics,
        "traced_reps": n,
        "untraced_wall_s": serial.wall_s,
        "csv_sha256": expected.csv_sha256,
        "summary_sha256": expected.summary_sha256,
        "attempted": checks.attempted,
        "failures": checks.failures,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    result = traced(job) if job["mode"] == "trace" else plain(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
