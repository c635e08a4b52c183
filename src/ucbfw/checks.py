"""Quick numerical checks shared by the gradcheck and selftest commands."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import feedback, losses
from .feedback import DeviationSpec, FeedbackBlock
from .harness import (
    ExperimentConfig,
    FeedbackConfig,
    ModelConfig,
    PolicyConfig,
    aggregate,
    build_model,
    fit_rate,
    run_trial,
)
from .policies import PresampleConfig, PresampledUcbFwPolicy
from .simplex import OccupationState


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
        losses.LinearLoss.build((0.1, 0.5, -0.3)),
        losses.QuadraticLoss.build((0.2, 0.3, 0.5)),
        losses.ExpDesignLoss.build((1.0, 4.0, 2.25)),
        losses.CobbDouglasLoss.build((0.2, 0.5, 0.3)),
        losses.MarkowitzLoss.build(cov, 1.3, (1.0, 0.5, -0.2)),
        losses.SeparableLoss.build((0.3, -1.0, 1.5), tables),
    ]


# the central-difference step, and the largest relative error that passes
GRADCHECK_STEP = 1e-6
GRADCHECK_TOL = 1e-6


def gradcheck(seed: int = 20240901, points: int = 100) -> list[GradCheckResult]:
    """Central differences along simplex-tangent directions at interior points.

    Directions d_i = e_i - (1/K) 1 stay in the affine hull of the simplex, so
    both p + h d_i and p - h d_i are valid evaluation points, h = GRADCHECK_STEP.
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
                plus = tuple(p[j] + GRADCHECK_STEP * ((1.0 if j == i else 0.0) - 1.0 / k) for j in range(k))
                minus = tuple(p[j] - GRADCHECK_STEP * ((1.0 if j == i else 0.0) - 1.0 / k) for j in range(k))
                fd[i] = (model.value(plus) - model.value(minus)) / (2 * GRADCHECK_STEP)
            rel = float(np.linalg.norm(fd - analytic) / max(1.0, np.linalg.norm(analytic)))
            worst = max(worst, rel)
        out.append(GradCheckResult(model.kind, worst, worst <= GRADCHECK_TOL))
    return out


def selftest() -> list[tuple[str, bool, str]]:
    results: list[tuple[str, bool, str]] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        results.append((name, passed, detail))

    # one-row block bookkeeping vs exact counts: c / t rounds correctly
    rng = np.random.default_rng(11)
    actions = rng.integers(0, 3, size=(10_000, 1))
    occ = OccupationState(3, seeds=1)
    for a in actions:
        occ.apply(a)
    exact = [c / len(actions) for c in np.bincount(actions[:, 0], minlength=3).tolist()]
    gap = max(abs(x - y) for x, y in zip(occ.proportions()[0].tolist(), exact))
    record("fold_agreement", gap == 0.0, f"max_gap={gap:.2e}")

    # same seed twice must give identical trajectories
    cfg = ExperimentConfig(
        experiment="selftest",
        model=ModelConfig(kind="quadratic", theta=(0.2, 0.3, 0.5)),
        policy=PolicyConfig(),
        feedback=FeedbackConfig(),
        horizons=(500,),
        seed_count=1,
        seed_base=7,
    )
    r1 = run_trial(cfg, (123,))
    r2 = run_trial(cfg, (123,))
    record("determinism", r1 == r2, "")

    # the engine's radii at two closed-form points; delta_t = 1/t^2
    v = feedback.deviation_radii(DeviationSpec(), 100, np.array([[4.0]]))[0, 0]
    want = math.sqrt(4.0 * math.log(100 / 1e-4) / 4.0)
    record("deviation_standard", abs(v - want) <= 1e-12, f"value={v:.6f}")
    # at t = 2, log(t / delta_t) = log 8, which this scale cancels
    unit_spec = DeviationSpec(scale=1.0 / math.log(8.0), exponent=0.5)
    unit = feedback.deviation_radii(unit_spec, 2, np.array([[4.0]]))[0, 0]
    record("deviation_unit", abs(unit - 0.5) <= 1e-12, f"value={unit:.6f}")

    # the pre-sampling stopping rule on one seed whose squared centered
    # draws scale to z = 3^2 / 10 = 0.9 every round: arm 0's rule stops at
    # the first s with 0.9 >= sqrt(2 log(2 * 100 / 0.1) / s), s = 19
    fb = FeedbackBlock(1, 2, DeviationSpec(), centers=(0.0, 0.0))
    config = PresampleConfig(delta=0.1, variance_cap=10.0, horizon=100)
    presampled = PresampledUcbFwPolicy(losses.LinearLoss.build((0.1, 0.5)), fb, config)
    occ = OccupationState(2, seeds=1)
    while presampled._arm[0] == 0 and occ.t < config.horizon:
        a = presampled.select(occ)
        occ.apply(a)
        presampled.observe(a, np.array([3.0]))
    triggered = bool(presampled.stopping_triggered[0, 0])
    record("stopping_example", triggered and occ.t == 19, f"tau={occ.t}")

    # exact 1/T sequence must fit slope -1
    ts = (100, 1_000, 10_000, 100_000)
    fit = fit_rate(ts, tuple(1.0 / t for t in ts))
    record("rate_fit_exact", abs(fit.slope + 1.0) <= 1e-9, f"slope={fit.slope:.4f}")

    # aggregate of two seeds
    records = run_trial(cfg, (1, 2))
    agg = aggregate(records)
    record("aggregate_shape", agg.n == 2 and len(agg.mean_error) == 1, "")

    # a convex loss's error is at most its Frank-Wolfe gap
    # <grad L(p), p> - min_k grad_k L(p), which needs no minimizer
    model = build_model(cfg.model)
    within, margin = True, math.inf
    for r in records:
        for t, c, error in zip(r.horizons, r.counts, r.errors):
            p = np.array(c) / t
            g = model.true_gradient(p[None])[0]
            gap = float(g @ p - g.min())
            tol = 1e-9 * (1.0 + abs(gap) + abs(error))
            within = within and -tol <= error <= gap + tol
            margin = min(margin, gap - error)
    record("fw_gap", within, f"min_margin={margin:.4f}")

    # gradients across every loss family
    grads = gradcheck(points=20)
    worst = max(r.max_rel_err for r in grads)
    record("gradcheck", all(r.passed for r in grads), f"max_rel={worst:.2e}")
    return results
