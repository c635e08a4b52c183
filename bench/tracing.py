"""Outside-in tracing for the benchmark's traced run.

Wrappers are installed from here around the public calls into each ucbfw
layer; the package itself knows nothing of them.  Per-step layers keep
in-memory counters (calls and total nanoseconds), because a 1e5-round trial
makes about 1e5 calls per layer.  Coarse phases (setup, each trial,
aggregate, emit) get spans with parent ids, written out at the end.

Counters are lost in forked pool workers, so traced pipelines run at
workers=1.  Times are inclusive: `policies.select` contains the gradient,
sensitivity and proportions calls it makes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from ucbfw import cli, feedback, harness, policies, simplex

# (owner, attribute, counter name) for every call that gets a plain
# call/time counter; `run_trial`, `build_policy` and `UcbFwPolicy.select`
# get their own wrappers below.
COUNTED = (
    (simplex.OccupationState, "apply", "simplex.apply"),
    (simplex.OccupationState, "proportions", "simplex.proportions"),
    (feedback.ObservationSampler, "draw", "feedback.draw"),
    (feedback.ObservationSampler, "__init__", "feedback.sampler_init"),
    (policies.UcbFwPolicy, "observe", "feedback.observe"),
    (policies, "gradient_from_params", "losses.gradient"),
    (policies, "sensitivity", "losses.sensitivity"),
    (harness, "epsilon_diagnostic", "policies.epsilon"),
    (harness, "loss_value", "losses.loss_value"),
    (harness, "minimizer", "losses.minimizer"),
    (harness, "build_model", "harness.build_model"),
    (cli, "build_model", "harness.build_model"),
)


class Tracer:
    """Counters and spans for one traced process; `install` patches, `uninstall` restores."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.ns: dict[str, int] = {}
        self.forced = 0
        self.trial_s: list[float] = []
        self.restarts: list[int] = []
        self.spans: list[dict] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._last_policy = None

    def _counted(self, name: str, fn):
        calls = self.calls
        ns = self.ns
        calls.setdefault(name, 0)
        ns.setdefault(name, 0)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            ns[name] += clock() - t0
            calls[name] += 1
            return out

        return wrapper

    def _select(self, fn):
        timed = self._counted("policies.select", fn)

        def select(policy, occ):
            # same test as the policy's forced-exploration branch
            counts = policy.fb.obs_counts
            if occ.t < len(counts) or 0 in counts:
                self.forced += 1
            return timed(policy, occ)

        return select

    def _build_policy(self, fn):
        def build_policy(*args, **kwargs):
            self._last_policy = fn(*args, **kwargs)
            return self._last_policy

        return build_policy

    def _run_trial(self, fn):
        def run_trial(config, seed, t_max=None):
            with self.span("trial", seed=seed):
                t0 = time.perf_counter()
                record = fn(config, seed, t_max)
                self.trial_s.append(time.perf_counter() - t0)
            self.restarts.append(getattr(self._last_policy, "block", 0))
            return record

        return run_trial

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        self._patch(policies.UcbFwPolicy, "select", self._select(policies.UcbFwPolicy.select))
        self._patch(harness, "build_policy", self._build_policy(harness.build_policy))
        self._patch(harness, "run_trial", self._run_trial(harness.run_trial))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, **attrs):
        clock = time.perf_counter_ns
        rec = {
            "trace": self.trace_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            **attrs,
            "start_ns": clock(),
            "end_ns": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end_ns"] = clock()

    def span_ms(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in self.spans if s["name"] == name]

    def per_call_us(self, name: str) -> float:
        """Mean inclusive time per call; 0.0 for a layer the workload never reaches."""
        n = self.calls[name]
        return self.ns[name] / n / 1e3 if n else 0.0

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
