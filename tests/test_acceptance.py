"""End-to-end acceptance checks.

Each check prints one `criterion NN: PASS/FAIL` line with the measured
quantities (capture is suspended so the line always reaches the terminal)
and then asserts the published tolerance.  The Monte Carlo experiments run
a fixed canonical seed set; expected values were frozen from an
independent earlier seed set.
"""

import math
import time

import numpy as np
import pytest

from reference_loop import float_recurrence, variance_stopping_tau
from ucbfw import checks
from ucbfw.cli import emit_csv
from ucbfw.feedback import (
    DeviationSpec,
    FeedbackBlock,
    ObservationModel,
    ObservationSampler,
)
from ucbfw.harness import (
    ExperimentConfig,
    FeedbackConfig,
    ModelConfig,
    PolicyConfig,
    aggregate,
    bound_check,
    build_model,
    build_policy,
    fit_rate,
    run_experiment,
)
from ucbfw.losses import QuadraticLoss, loss_value
from ucbfw.policies import (
    LcbBanditPolicy,
    OracleFwPolicy,
    PresampleConfig,
    UcbFwPolicy,
)
from ucbfw.simplex import OccupationState

SEED_BASE = 20260101
GRID = (1000, 3000, 10_000, 30_000, 100_000)


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"criterion {num:2d}: {status}  {detail}", flush=True)

    return _report


def run_loop(policy, obs_model, seed, t_max, k):
    """One seed's action sequence under a policy built for a one-seed block."""
    sampler = ObservationSampler(obs_model, (seed,))
    occ = OccupationState(k, seeds=1)
    actions = []
    for _ in range(t_max):
        a = policy.select(occ)
        actions.append(int(a[0]))
        policy.observe(a, sampler.draw(a))
        occ.apply(a)
    return actions, occ


# ---------------------------------------------------------------- 1-4


def test_criterion_01_gradients_match_finite_differences(report):
    t0 = time.perf_counter()
    results = checks.gradcheck(seed=SEED_BASE, points=100)
    wall = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and len(results) == 6 and wall < 5.0
    report(1, ok, f"6 families x 100 points, max rel err {worst:.2e}, {wall:.1f}s")
    assert ok


def test_criterion_02_occupation_matches_float_recurrence(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED_BASE)
    t_max = 100_000
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        actions = rng.integers(0, k, size=t_max).tolist()
        counts = np.bincount(actions, minlength=k)
        assert int(counts.sum()) == t_max
        folded = float_recurrence(actions, k)
        for i in range(k):
            worst = max(worst, abs(counts[i] / t_max - folded[i]))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-9 and wall < 10.0
    report(2, ok, f"100 seeded policies at T=1e5, worst drift {worst:.2e}, {wall:.1f}s")
    assert ok


def test_criterion_03_oracle_meets_pathwise_envelope_at_every_t(report):
    t0 = time.perf_counter()
    model = QuadraticLoss.build((0.5, 0.5))
    policy = OracleFwPolicy(model)
    obs = ObservationModel(kind="deterministic", means=(0.5, 0.5))
    sampler = ObservationSampler(obs, (SEED_BASE,))
    occ = OccupationState(2, seeds=1)
    worst_margin = math.inf
    for _ in range(10_000):
        a = policy.select(occ)
        policy.observe(a, sampler.draw(a))
        occ.apply(a)
        t = occ.t
        err = loss_value(model, occ.proportions()[0].tolist())
        worst_margin = min(worst_margin, math.log(math.e * t) / t - err)
    wall = time.perf_counter() - t0
    ok = worst_margin >= 0.0 and wall < 1.0
    report(3, ok, f"every T <= 1e4, worst envelope margin {worst_margin:.2e}, {wall:.2f}s")
    assert ok


def test_criterion_04_scalar_bandit_trace_equivalence(report):
    t0 = time.perf_counter()
    spec = DeviationSpec()
    model = build_model(ModelConfig(kind="linear", mu=(0.0, 0.5)))
    obs = ObservationModel(kind="gaussian", means=(0.0, 0.5), sds=(1.0, 1.0))
    ucb, _ = run_loop(UcbFwPolicy(model, FeedbackBlock(1, 2, spec)), obs, SEED_BASE, 10_000, 2)
    lcb, _ = run_loop(LcbBanditPolicy(FeedbackBlock(1, 2, spec)), obs, SEED_BASE, 10_000, 2)
    wall = time.perf_counter() - t0
    ok = ucb == lcb and wall < 1.0
    report(4, ok, f"identical {len(ucb)}-step action sequences, {wall:.2f}s")
    assert ok


# ---------------------------------------------------------------- 5, 11


VERTEX_CONFIG = ExperimentConfig(
    experiment="vertex_fast_rate",
    model=ModelConfig(kind="linear", mu=(0.0, 0.5)),
    policy=PolicyConfig(deviation="prop1", sigma2=1.0),
    feedback=FeedbackConfig(observation="gaussian", noise_sd=1.0),
    horizons=GRID,
    seed_count=200,
    seed_base=SEED_BASE,
)


@pytest.fixture(scope="session")
def vertex_run():
    t0 = time.perf_counter()
    records = run_experiment(VERTEX_CONFIG, workers=8)
    wall = time.perf_counter() - t0
    return records, aggregate(records), wall


@pytest.mark.slow
def test_criterion_05_vertex_fast_rate(vertex_run, report):
    records, agg, wall = vertex_run
    rep = bound_check(agg, build_model(VERTEX_CONFIG.model), "prop2", records=records)
    fit = fit_rate(agg.horizons, agg.mean_error)
    ok = rep.passed and -1.15 <= fit.slope <= -0.75 and wall < 120.0
    report(
        5,
        ok,
        f"slope {fit.slope:+.4f} in [-1.15,-0.75], bound margins "
        f"{min(r.margin for r in rep.rows):+.2e} min, {wall:.0f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion_11_csv_identical_across_worker_counts(vertex_run, report):
    records8, agg8, _ = vertex_run
    t0 = time.perf_counter()
    records1 = run_experiment(VERTEX_CONFIG, workers=1)
    wall = time.perf_counter() - t0
    csv1 = emit_csv(VERTEX_CONFIG, records1, aggregate(records1))
    csv8 = emit_csv(VERTEX_CONFIG, records8, agg8)
    ok = csv1 == csv8
    report(11, ok, f"{len(csv1.splitlines())}-row csv byte-identical 1 vs 8 workers, {wall:.0f}s")
    assert ok


# ---------------------------------------------------------------- 6, 7


@pytest.mark.slow
def test_criterion_06_interior_fast_rate(report):
    config = ExperimentConfig(
        experiment="interior_fast_rate",
        model=ModelConfig(kind="quadratic", theta=(0.2, 0.3, 0.5)),
        policy=PolicyConfig(deviation="prop1", sigma2=1.0),
        feedback=FeedbackConfig(observation="gaussian", noise_sd=1.0),
        horizons=GRID,
        seed_count=200,
        seed_base=SEED_BASE,
    )
    t0 = time.perf_counter()
    records = run_experiment(config, workers=8)
    wall = time.perf_counter() - t0
    agg = aggregate(records)
    fit = fit_rate(agg.horizons, agg.mean_error)
    ok = -1.15 <= fit.slope <= -0.70 and wall < 180.0
    report(6, ok, f"slope {fit.slope:+.4f} in [-1.15,-0.70], {wall:.0f}s")
    assert ok


def test_criterion_07_slow_rate_envelope(report):
    config = ExperimentConfig(
        experiment="slow_rate_markowitz",
        model=ModelConfig(
            kind="markowitz",
            covariance=((1.0, 0.0), (0.0, 1.0)),
            risk_weight=1.0,
            mu=(1.0, 0.0),
        ),
        policy=PolicyConfig(deviation="theorem1"),
        feedback=FeedbackConfig(observation="gaussian", noise_sd=1.0),
        horizons=(1000, 10_000),
        seed_count=200,
        seed_base=SEED_BASE,
    )
    t0 = time.perf_counter()
    records = run_experiment(config, workers=8)
    wall = time.perf_counter() - t0
    rep = bound_check(aggregate(records), build_model(config.model), "thm1")
    ok = rep.passed and wall < 60.0
    report(
        7,
        ok,
        "mean below envelope at T=1e3,1e4; margins "
        + ", ".join(f"{r.margin:+.2e}" for r in rep.rows)
        + f", {wall:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------- 8-10


def test_criterion_08_stopping_rule_coverage(report):
    t0 = time.perf_counter()
    horizon, delta, reps = 1000, 0.05, 10_000
    tau_cap = 9.0 * math.log(2 * horizon / delta) / (2 * 0.25) + 1.0
    obs = ObservationModel(kind="bernoulli", means=(0.5, 0.5))
    covered = 0
    max_tau = 0
    # each rep's stream is action 0 of its own seed, drawn for blocks of
    # 500 seeds at once; the rule reads each stream only up to its tau
    for start in range(0, reps, 500):
        sampler = ObservationSampler(obs, range(SEED_BASE + start, SEED_BASE + start + 500))
        streams = np.array([sampler.draw(0) for _ in range(horizon)]).T
        for stream in streams:
            res = variance_stopping_tau(stream.tolist(), horizon, delta)
            if res.triggered:
                max_tau = max(max_tau, res.tau)
                assert res.tau <= tau_cap
            if res.mean / 2.0 <= 0.5 <= 3.0 * res.mean / 2.0:
                covered += 1
    wall = time.perf_counter() - t0
    frac = covered / reps
    ok = frac >= 0.94 and max_tau <= tau_cap and wall < 30.0
    report(8, ok, f"bracket coverage {frac:.4f} >= 0.94, max tau {max_tau} <= {tau_cap:.1f}, {wall:.0f}s")
    assert ok


def test_criterion_09_mixed_feedback_degrades_by_2x(report):
    common = dict(
        model=ModelConfig(kind="quadratic", theta=(0.4, 0.6, 0.0)),
        policy=PolicyConfig(deviation="theorem1"),
        horizons=(10_000,),
        seed_count=200,
        seed_base=SEED_BASE,
    )
    t0 = time.perf_counter()
    identity = aggregate(
        run_experiment(
            ExperimentConfig(
                experiment="mixed_identity",
                feedback=FeedbackConfig(observation="gaussian", noise_sd=1.0),
                **common,
            ),
            workers=8,
        )
    )
    mixed = aggregate(
        run_experiment(
            ExperimentConfig(
                experiment="mixed_degraded",
                feedback=FeedbackConfig(
                    observation="gaussian", noise_sd=1.0, action_map=(2, 2, 0)
                ),
                **common,
            ),
            workers=8,
        )
    )
    wall = time.perf_counter() - t0
    ratio = mixed.mean_error[0] / identity.mean_error[0]
    ok = ratio >= 2.0 and wall < 60.0
    report(9, ok, f"mixed/identity error ratio {ratio:.1f} >= 2 at T=1e4, {wall:.0f}s")
    assert ok


def test_criterion_10_presample_occupancy_floors(report):
    config = ExperimentConfig(
        experiment="presample_floor",
        model=ModelConfig(kind="exp_design", sigma2=(1.0, 4.0)),
        policy=PolicyConfig(
            kind="presampled_ucb_fw",
            deviation="theorem1",
            presample=PresampleConfig(delta=0.1, variance_cap=8.0, horizon=10_000),
        ),
        feedback=FeedbackConfig(observation="gaussian"),
        horizons=(10_000,),
        seed_count=50,
        seed_base=SEED_BASE,
    )
    model = build_model(config.model)
    t0 = time.perf_counter()
    worst = math.inf
    # all seeds in one lockstep block; a seed's floors count from the round
    # after its phase 1 ends (phase1_end_t is -1 until then)
    seeds = tuple(config.seed_base + s for s in range(config.seed_count))
    sampler = ObservationSampler(config.observations, seeds)
    policy = build_policy(config, model, seeds, 10_000)
    occ = OccupationState(model.num_actions, seeds=len(seeds))
    for _ in range(10_000):
        a = policy.select(occ)
        policy.observe(a, sampler.draw(a))
        occ.apply(a)
        t = occ.t
        done = (policy.phase1_end_t >= 0) & (t > policy.phase1_end_t)
        if done.any():
            margins = occ.counts[done] / t - (policy.floors[done] - 5.0 / t)
            worst = min(worst, float(margins.min()))
    assert (policy.phase1_end_t >= 0).all()
    wall = time.perf_counter() - t0
    ok = worst >= 0.0 and wall < 30.0
    report(10, ok, f"50 seeds, worst floor margin {worst:+.2e} over all t <= 1e4, {wall:.0f}s")
    assert ok
