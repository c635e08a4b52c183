"""Benchmark workloads: each turns a workload seed into an experiment config.

The library only ever sees the generated config, written as YAML and read
back through `cli.parse_config`.  The workload seed picks the trial
`seed_base` and, for `markowitz_wide`, the covariance and mean returns; the
same seed always gives the same config.

Seed counts are sized so that one pipeline run of the seed code takes a few
seconds, which leaves room for several timed repetitions in one benchmark
run.  `mixed_feedback` is left out on purpose; see NOTES.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _seeds(rng: np.random.Generator, count: int) -> dict:
    return {"count": count, "base": int(rng.integers(1, 2**31))}


def _vertex_long(rng: np.random.Generator) -> dict:
    # configs/vertex_fast_rate.yaml with fewer seeds
    return {
        "experiment": "vertex_long",
        "model": {"kind": "linear", "mu": [0.0, 0.5]},
        "policy": {"kind": "ucb_fw", "deviation": "prop1", "sigma2": 1.0},
        "feedback": {"observation": "gaussian", "noise_sd": 1.0},
        "horizons": [1000, 3000, 10000, 30000, 100000],
        "seeds": _seeds(rng, 4),
    }


def _markowitz_wide(rng: np.random.Generator) -> dict:
    # A small random perturbation of (identity, equal means): the minimizer
    # is interior and nearly every one of the 2^K supports is feasible, so
    # the minimizer's cost is about the same for every seed.
    k = 12
    a = rng.normal(size=(k, k))
    cov = np.eye(k) + 0.2 * (a @ a.T) / k
    cov = (cov + cov.T) / 2.0
    mu = rng.uniform(0.4, 0.6, size=k)
    return {
        "experiment": "markowitz_wide",
        "model": {
            "kind": "markowitz",
            "covariance": cov.tolist(),
            "risk_weight": 1.0,
            "mu": mu.tolist(),
        },
        "policy": {"kind": "ucb_fw", "deviation": "theorem1"},
        "feedback": {"observation": "gaussian", "noise_sd": 1.0},
        "horizons": [200, 1000],
        "seeds": _seeds(rng, 3),
    }


def _doubling_diag(rng: np.random.Generator) -> dict:
    # configs/separable_doubling.yaml with a longer last horizon
    return {
        "experiment": "doubling_diag",
        "model": {
            "kind": "separable",
            "mu": [0.7, 0.3],
            "tables": [
                {"xs": [0.0, 0.5, 1.0], "ys": [1.0, 0.2, 0.0]},
                {"xs": [0.0, 0.5, 1.0], "ys": [0.2, 0.4, 0.6]},
            ],
        },
        "policy": {
            "kind": "doubling_ucb_fw",
            "deviation": {"scale": 1.5, "exponent": 0.5},
            "doubling_beta": 0.5,
        },
        "feedback": {"observation": "bernoulli"},
        "horizons": [500, 5000, 20000],
        "seeds": _seeds(rng, 3),
        "record_epsilon": True,
    }


def _fanout_short(rng: np.random.Generator) -> dict:
    # configs/interior_fast_rate.yaml with short horizons and many seeds
    return {
        "experiment": "fanout_short",
        "model": {"kind": "quadratic", "theta": [0.2, 0.3, 0.5]},
        "policy": {"deviation": "prop1", "sigma2": 1.0},
        "feedback": {"observation": "gaussian", "noise_sd": 1.0},
        "horizons": [100, 200, 500, 1000, 2000],
        "seeds": _seeds(rng, 200),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int  # mixed into the seed so workloads draw unrelated streams
    make: Callable[[np.random.Generator], dict]
    selector: str  # bound_check selector applied to the result
    parallel: bool  # run at workers=nproc instead of 1

    def config(self, seed: int) -> dict:
        return self.make(np.random.default_rng([self.tag, seed]))

    def workers(self) -> int:
        return nproc() if self.parallel else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("vertex_long", 1, _vertex_long, "prop2", False),
        Workload("markowitz_wide", 2, _markowitz_wide, "thm1", False),
        Workload("doubling_diag", 3, _doubling_diag, "lemma1", False),
        Workload("fanout_short", 4, _fanout_short, "thm4", True),
    )
}
