"""Quick numerical checks shared by the gradcheck and selftest commands."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .feedback import DeviationSpec, deviation
from .harness import (
    ExperimentConfig,
    FeedbackConfig,
    ModelConfig,
    PolicyConfig,
    aggregate,
    fit_rate,
    run_trial,
)
from .policies import variance_stopping_tau
from .simplex import OccupationState, float_recurrence


@dataclass(frozen=True)
class GradCheckResult:
    kind: str
    max_rel_err: float
    passed: bool


def _check_instances() -> list:
    tables = (
        ((-2.0, 0.0, 2.0), (0.0, 0.4, 1.0)),
        ((-3.0, -1.0, 1.0, 3.0), (-1.0, -0.2, 0.2, 1.0)),
        ((-2.0, 2.0), (0.5, 0.9)),
    )
    cov = ((1.0, 0.2, 0.0), (0.2, 1.5, 0.1), (0.0, 0.1, 2.0))
    return [
        losses.linear_loss((0.1, 0.5, -0.3)),
        losses.quadratic_loss((0.2, 0.3, 0.5)),
        losses.exp_design_loss((1.0, 4.0, 2.25)),
        losses.cobb_douglas_loss((0.2, 0.5, 0.3)),
        losses.markowitz_loss(cov, 1.3, (1.0, 0.5, -0.2)),
        losses.separable_loss((0.3, -1.0, 1.5), tables),
    ]


def gradcheck(
    seed: int = 20240901,
    points: int = 100,
    step: float = 1e-6,
    tol: float = 1e-6,
) -> list[GradCheckResult]:
    """Central differences along simplex-tangent directions at interior points.

    Directions d_i = e_i - (1/K) 1 stay in the affine hull of the simplex, so
    both p + h d_i and p - h d_i are valid evaluation points.
    """
    rng = np.random.default_rng(seed)
    out = []
    for model in _check_instances():
        k = model.num_actions
        worst = 0.0
        for _ in range(points):
            # keep points away from the boundary so 1/p losses stay finite
            p = 0.8 * rng.dirichlet(np.ones(k)) + 0.2 / k
            grad = model.true_gradient(p[None, :])[0]
            p = tuple(p.tolist())
            analytic = grad - np.mean(grad)
            fd = np.empty(k)
            for i in range(k):
                plus = tuple(p[j] + step * ((1.0 if j == i else 0.0) - 1.0 / k) for j in range(k))
                minus = tuple(p[j] - step * ((1.0 if j == i else 0.0) - 1.0 / k) for j in range(k))
                fd[i] = (losses.loss_value(model, plus) - losses.loss_value(model, minus)) / (2 * step)
            rel = float(np.linalg.norm(fd - analytic) / max(1.0, np.linalg.norm(analytic)))
            worst = max(worst, rel)
        out.append(GradCheckResult(model.kind, worst, worst <= tol))
    return out


def _quick_config(**overrides) -> ExperimentConfig:
    base = dict(
        experiment="selftest",
        model=ModelConfig(kind="quadratic", theta=(0.2, 0.3, 0.5)),
        policy=PolicyConfig(),
        feedback=FeedbackConfig(),
        horizons=(500,),
        seed_count=1,
        seed_base=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def selftest() -> list[tuple[str, bool, str]]:
    results: list[tuple[str, bool, str]] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        results.append((name, passed, detail))

    # integer bookkeeping vs float recurrence
    rng = np.random.default_rng(11)
    actions = [int(a) for a in rng.integers(0, 3, size=10_000)]
    occ = OccupationState(3, seeds=1)
    for a in actions:
        occ.apply(a)
    gap = max(abs(x - y) for x, y in zip(occ.proportions()[0].tolist(), float_recurrence(actions, 3)))
    record("fold_agreement", gap <= 1e-9, f"max_gap={gap:.2e}")

    # same seed twice must give identical trajectories
    cfg = _quick_config()
    r1 = run_trial(cfg, seed=123)
    r2 = run_trial(cfg, seed=123)
    record("determinism", r1 == r2, "")

    # two-point deviation values
    spec = DeviationSpec.standard()
    v = deviation(spec, t=100, n_obs=4, delta=1e-4)
    want = math.sqrt(4.0 * math.log(100 / 1e-4) / 4.0)
    record("deviation_standard", abs(v - want) <= 1e-12, f"value={v:.6f}")
    unit = deviation(DeviationSpec(scale=1.0, exponent=0.5), t=1, n_obs=4, delta=math.exp(-1))
    record("deviation_unit", abs(unit - 0.5) <= 1e-12, f"value={unit:.6f}")

    # stopping rule worked example
    tau = variance_stopping_tau([0.9] * 100, horizon=100, delta=0.1)
    record("stopping_example", tau.triggered and tau.tau == 19, f"tau={tau.tau}")

    # exact 1/T sequence must fit slope -1
    ts = (100, 1_000, 10_000, 100_000)
    fit = fit_rate(ts, tuple(1.0 / t for t in ts))
    record("rate_fit_exact", abs(fit.slope + 1.0) <= 1e-9, f"slope={fit.slope:.4f}")

    # aggregate of two seeds
    recs = [
        run_trial(cfg, seed=1),
        run_trial(cfg, seed=2),
    ]
    agg = aggregate(recs)
    record("aggregate_shape", agg.n == 2 and len(agg.mean_error) == 1, "")

    # gradients across every loss family
    grads = gradcheck(points=20)
    worst = max(r.max_rel_err for r in grads)
    record("gradcheck", all(r.passed for r in grads), f"max_rel={worst:.2e}")
    return results
