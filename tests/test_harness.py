import dataclasses
import math

import pytest

from ucbfw import harness
from ucbfw.feedback import ObservationSampler
from ucbfw.harness import (
    AggregateResult,
    ExperimentConfig,
    FeedbackConfig,
    ModelConfig,
    PolicyConfig,
    TrialRecord,
    aggregate,
    bound_check,
    build_deviation_spec,
    build_feedback_state,
    build_model,
    build_observation_model,
    build_policy,
    build_policy_spec,
    fit_rate,
    run_experiment,
    run_trial,
)
from ucbfw.policies import PresampleConfig
from ucbfw.simplex import OccupationState

TABLES = (((0.0, 1.0), (0.0, 2.0)), ((0.0, 1.0), (1.0, 1.5)))


def linear_config(**overrides):
    base = dict(
        experiment="unit",
        model=ModelConfig(kind="linear", mu=(0.0, 0.5)),
        policy=PolicyConfig(),
        feedback=FeedbackConfig(observation="gaussian", noise_sd=1.0),
        horizons=(100, 400),
        seed_count=2,
        seed_base=100,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- builders


def test_build_model_dispatch():
    assert build_model(ModelConfig(kind="linear", mu=(0.1, 0.2))).kind == "linear"
    assert build_model(ModelConfig(kind="quadratic", theta=(0.5, 0.5))).kind == "quadratic"
    m = build_model(
        ModelConfig(kind="separable", mu=(0.5, 0.5), tables=TABLES)
    )
    assert m.kind == "separable"


def test_build_model_missing_params():
    with pytest.raises(ValueError, match="mu"):
        build_model(ModelConfig(kind="linear"))
    with pytest.raises(ValueError, match="sigma2"):
        build_model(ModelConfig(kind="exp_design"))
    with pytest.raises(ValueError, match="risk_weight"):
        build_model(ModelConfig(kind="markowitz", mu=(1.0, 0.0)))
    with pytest.raises(ValueError, match="unknown model"):
        build_model(ModelConfig(kind="entropy"))


def test_build_deviation_presets():
    assert build_deviation_spec(PolicyConfig(deviation="theorem1")).scale == 4.0
    assert build_deviation_spec(PolicyConfig(deviation="prop1", sigma2=2.0)).scale == 4.0
    assert build_deviation_spec(PolicyConfig(deviation="prop1_doubled", sigma2=2.0)).scale == 16.0
    assert build_deviation_spec(PolicyConfig(deviation="noiseless")).scale == 0.0
    custom = build_deviation_spec(
        PolicyConfig(deviation="custom", deviation_scale=1.5, deviation_exponent=0.25)
    )
    assert (custom.scale, custom.exponent) == (1.5, 0.25)
    with pytest.raises(ValueError, match="custom deviation"):
        build_deviation_spec(PolicyConfig(deviation="custom"))
    with pytest.raises(ValueError, match="preset"):
        build_deviation_spec(PolicyConfig(deviation="hoeffding"))


def test_observation_model_follows_action_map():
    model = build_model(ModelConfig(kind="linear", mu=(0.1, 0.9)))
    obs = build_observation_model(
        FeedbackConfig(observation="gaussian", noise_sd=0.5, action_map=(1, 0)), model
    )
    assert obs.means == (0.9, 0.1)
    assert obs.sds == (0.5, 0.5)


@pytest.mark.parametrize("action_map", [(-1, 0), (5, 0)])
def test_run_trial_rejects_out_of_range_action_map(action_map):
    cfg = linear_config(
        policy=PolicyConfig(kind="uniform"), feedback=FeedbackConfig(action_map=action_map)
    )
    with pytest.raises(ValueError, match="map entries"):
        run_trial(cfg, seed=1)


def test_exp_design_observation_model_uses_model_variances():
    model = build_model(ModelConfig(kind="exp_design", sigma2=(1.0, 4.0)))
    obs = build_observation_model(FeedbackConfig(observation="gaussian"), model)
    assert obs.means == (0.0, 0.0)
    assert obs.sds == (1.0, 2.0)
    with pytest.raises(ValueError, match="gaussian"):
        build_observation_model(FeedbackConfig(observation="bernoulli"), model)


def test_estimator_defaults_and_rejections():
    dev = build_deviation_spec(PolicyConfig())
    exp_model = build_model(ModelConfig(kind="exp_design", sigma2=(1.0, 4.0)))
    fb = build_feedback_state(FeedbackConfig(), exp_model, dev)
    assert fb.estimator == "centered_square"
    with pytest.raises(ValueError, match="centered_square"):
        build_feedback_state(
            FeedbackConfig(estimator="mean"), exp_model, dev
        )
    lin_model = build_model(ModelConfig(kind="linear", mu=(0.0, 0.5)))
    with pytest.raises(ValueError, match="exp_design"):
        build_feedback_state(FeedbackConfig(estimator="centered_square"), lin_model, dev)


def test_subgaussian_declaration_is_enforced():
    cfg = linear_config(
        policy=PolicyConfig(deviation="prop1", sigma2=1.0),
        feedback=FeedbackConfig(observation="gaussian", noise_sd=2.0),
    )
    with pytest.raises(ValueError, match="sub-gaussian"):
        run_trial(cfg, seed=1)


def test_experiment_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        run_trial(linear_config(horizons=(100, 100)), seed=1)
    with pytest.raises(ValueError, match="round robin"):
        run_trial(linear_config(horizons=(1, 10)), seed=1)
    with pytest.raises(ValueError, match="seed count"):
        run_experiment(linear_config(seed_count=0))
    with pytest.raises(ValueError, match="boundary"):
        run_trial(
            linear_config(
                model=ModelConfig(kind="exp_design", sigma2=(1.0, 4.0)),
                record_epsilon=True,
            ),
            seed=1,
        )


# One valid instance per loss family, with the fields its model requires.
FAMILY_CONFIGS = {
    "linear": (ModelConfig(kind="linear", mu=(0.0, 0.5)), ("mu",)),
    "quadratic": (ModelConfig(kind="quadratic", theta=(0.3, 0.7)), ("theta",)),
    "exp_design": (ModelConfig(kind="exp_design", sigma2=(1.0, 4.0)), ("sigma2",)),
    "cobb_douglas": (ModelConfig(kind="cobb_douglas", beta=(0.3, 0.6)), ("beta",)),
    "markowitz": (
        ModelConfig(
            kind="markowitz",
            mu=(0.2, 0.5),
            covariance=((1.0, 0.2), (0.2, 0.5)),
            risk_weight=1.0,
        ),
        ("mu", "covariance", "risk_weight"),
    ),
    "separable": (ModelConfig(kind="separable", mu=(0.5, 0.5), tables=TABLES), ("mu", "tables")),
}


@pytest.mark.parametrize("kind", sorted(FAMILY_CONFIGS))
def test_per_family_answers(kind):
    cfg, required = FAMILY_CONFIGS[kind]
    for name in required:
        with pytest.raises(ValueError, match=f"{kind} model needs .*{name}"):
            build_model(dataclasses.replace(cfg, **{name: None}))
    model = build_model(cfg)

    eps_cfg = linear_config(model=cfg, record_epsilon=True, horizons=(20,), seed_count=1)
    if kind in ("exp_design", "cobb_douglas"):
        with pytest.raises(ValueError, match="boundary"):
            run_trial(eps_cfg, seed=1)
    else:
        assert run_trial(eps_cfg, seed=1).sum_epsilon is not None

    agg = AggregateResult(horizons=(10,), mean_error=(0.1,), stderr_error=(0.0,), n=1)
    rep = bound_check(agg, model, "prop2")
    if kind in ("quadratic", "exp_design", "cobb_douglas", "markowitz"):
        assert not rep.supported
        assert "constant gradient" in rep.reason
    else:
        assert rep.supported

    fb = build_feedback_state(FeedbackConfig(), model, build_deviation_spec(PolicyConfig()))
    assert fb.estimator == ("centered_square" if kind == "exp_design" else "mean")


# ---------------------------------------------------------------- run_trial


def test_uniform_policy_error_matches_counts():
    cfg = linear_config(
        model=ModelConfig(kind="linear", mu=(0.0, 1.0)),
        policy=PolicyConfig(kind="uniform"),
        horizons=(4000,),
        seed_count=1,
    )
    rec = run_trial(cfg, seed=5)
    # loss is p[1], minimizer value 0, so the error is the exact pull share
    assert rec.errors[0] == pytest.approx(rec.counts[0][1] / 4000)
    assert abs(rec.errors[0] - 0.5) < 0.05


def test_oracle_noiseless_meets_pathwise_envelope():
    cfg = linear_config(
        model=ModelConfig(kind="quadratic", theta=(0.5, 0.5)),
        policy=PolicyConfig(kind="oracle_fw", deviation="noiseless"),
        feedback=FeedbackConfig(observation="deterministic"),
        horizons=(10, 100, 1000),
        seed_count=1,
    )
    rec = run_trial(cfg, seed=1)
    for t, err in zip(rec.horizons, rec.errors):
        assert err <= math.log(math.e * t) / t + 1e-12


def test_trial_determinism_and_worker_independence():
    cfg = linear_config(seed_count=4)
    a = run_trial(cfg, seed=101)
    b = run_trial(cfg, seed=101)
    assert a == b
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=4)
    assert serial == parallel


def test_run_trial_takes_a_tuple_of_seeds():
    cfg = linear_config(horizons=(50,))
    assert run_trial(cfg, (7, 3)) == [run_trial(cfg, 7), run_trial(cfg, 3)]
    assert run_trial(cfg, ()) == []


def test_errors_are_nonnegative():
    cfg = linear_config(
        model=ModelConfig(kind="quadratic", theta=(0.2, 0.3, 0.5)),
        horizons=(50, 200),
        seed_count=3,
    )
    for rec in run_experiment(cfg):
        assert all(e >= -1e-12 for e in rec.errors)


def test_epsilon_sums_recorded_when_asked():
    cfg = linear_config(record_epsilon=True, horizons=(50, 100), seed_count=1)
    rec = run_trial(cfg, seed=9)
    assert rec.sum_epsilon is not None
    assert len(rec.sum_epsilon) == 2
    assert rec.sum_epsilon[1] >= rec.sum_epsilon[0] >= 0.0
    plain = run_trial(linear_config(horizons=(50, 100), seed_count=1), seed=9)
    assert plain.sum_epsilon is None


# ---------------------------------------------------------------- aggregate


def rec(seed, horizons, errors):
    return TrialRecord(
        seed=seed,
        horizons=tuple(horizons),
        errors=tuple(errors),
        counts=tuple((0,) * 2 for _ in horizons),
    )


def test_aggregate_mean_and_stderr():
    agg = aggregate([rec(0, (10,), (0.1,)), rec(1, (10,), (0.3,))])
    assert agg.mean_error == pytest.approx((0.2,))
    # sample sd 0.1414…, divided by sqrt(2)
    assert agg.stderr_error == pytest.approx((0.1,))
    assert agg.n == 2


def test_aggregate_single_record_has_zero_stderr():
    agg = aggregate([rec(0, (10, 20), (0.1, 0.05))])
    assert agg.stderr_error == (0.0, 0.0)


def test_aggregate_errors():
    with pytest.raises(ValueError, match="no records"):
        aggregate([])
    with pytest.raises(ValueError, match="disagree"):
        aggregate([rec(0, (10,), (0.1,)), rec(1, (20,), (0.1,))])


# ---------------------------------------------------------------- rate fit


def test_fit_rate_exact_power_laws():
    fit = fit_rate((100, 1000, 10000), (1e-2, 1e-3, 1e-4))
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert fit.residual_rms == pytest.approx(0.0, abs=1e-9)
    half = fit_rate((100, 1000, 10000), tuple(3.0 / math.sqrt(t) for t in (100, 1000, 10000)))
    assert half.slope == pytest.approx(-0.5, abs=1e-9)


def test_fit_rate_log_corrected_band():
    grid = (1000, 10_000, 100_000)
    fit = fit_rate(grid, tuple(2.0 * math.log(t) / t for t in grid))
    assert -1.0 < fit.slope < -0.85


def test_fit_rate_drops_nonpositive_points():
    with pytest.warns(UserWarning, match="nonpositive"):
        fit = fit_rate((10, 100, 1000, 10000), (0.0, 1e-2, 1e-3, 1e-4))
    assert fit.n_excluded == 1
    assert fit.horizons_used == (100, 1000, 10000)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)


def test_fit_rate_needs_three_points():
    with pytest.raises(ValueError, match=">= 3"):
        fit_rate((10, 100), (1e-1, 1e-2))
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match=">= 3"):
            fit_rate((10, 100, 1000), (0.0, 1e-2, 1e-3))
    with pytest.raises(ValueError, match="align"):
        fit_rate((10, 100), (1e-1,))


# ---------------------------------------------------------------- bounds


def test_lemma1_pathwise_bound_on_oracle_run():
    cfg = linear_config(
        model=ModelConfig(kind="quadratic", theta=(0.5, 0.5)),
        policy=PolicyConfig(kind="oracle_fw", deviation="noiseless"),
        feedback=FeedbackConfig(observation="deterministic"),
        horizons=(10, 100, 1000),
        seed_count=1,
        record_epsilon=True,
    )
    records = run_experiment(cfg)
    model = build_model(cfg.model)
    rep = bound_check(aggregate(records), model, "lemma1", records=records)
    assert rep.supported and rep.passed
    assert len(rep.rows) == 3


def test_lemma1_needs_epsilon_records():
    records = [rec(0, (10,), (0.1,))]
    model = build_model(ModelConfig(kind="quadratic", theta=(0.5, 0.5)))
    rep = bound_check(aggregate(records), model, "lemma1", records=records)
    assert not rep.supported
    assert "epsilon" in rep.reason


def test_thm1_matches_hand_formula():
    model = build_model(
        ModelConfig(
            kind="markowitz",
            covariance=((1.0, 0.0), (0.0, 1.0)),
            risk_weight=1.0,
            mu=(1.0, 0.0),
        )
    )
    agg = AggregateResult(horizons=(1000,), mean_error=(0.1,), stderr_error=(0.0,), n=1)
    rep = bound_check(agg, model, "thm1")
    assert rep.supported
    t = 1000.0
    lam = 2.0 * model.sup_grad + model.sup_loss
    expected = (
        4.0 * math.sqrt(3.0 * 2.0 * math.log(t) / t)
        + model.smoothness_C * math.log(math.e * t) / t
        + (math.pi**2 / 6.0 + 2.0) * lam / t
    )
    assert rep.rows[0].bound == pytest.approx(expected)
    assert rep.rows[0].bound == pytest.approx(0.8484, abs=5e-4)
    assert rep.rows[0].passed


def test_prop2_matches_hand_formula():
    model = build_model(ModelConfig(kind="linear", mu=(0.0, 0.5)))
    agg = AggregateResult(horizons=(1000,), mean_error=(0.05,), stderr_error=(0.0,), n=1)
    rep = bound_check(agg, model, "prop2")
    assert rep.supported
    t = 1000.0
    expected = 48.0 * math.log(t) / t * (1.0 / 0.5) + 3.0 * (
        math.pi**2 / 3.0 + 2.0
    ) * math.sqrt(2.0) * 0.5 / t
    assert rep.rows[0].bound == pytest.approx(expected)
    assert rep.rows[0].passed


def test_prop2_restricted_to_constant_gradient_losses():
    model = build_model(ModelConfig(kind="quadratic", theta=(0.5, 0.5)))
    agg = AggregateResult(horizons=(10,), mean_error=(0.1,), stderr_error=(0.0,), n=1)
    rep = bound_check(agg, model, "prop2")
    assert not rep.supported
    assert "constant gradient" in rep.reason


def test_prop2_needs_unique_vertex():
    model = build_model(ModelConfig(kind="linear", mu=(0.3, 0.3)))
    agg = AggregateResult(horizons=(10,), mean_error=(0.1,), stderr_error=(0.0,), n=1)
    rep = bound_check(agg, model, "prop2")
    assert not rep.supported


def test_thm4_matches_hand_constants():
    model = build_model(ModelConfig(kind="quadratic", theta=(0.2, 0.3, 0.5)))
    agg = AggregateResult(horizons=(10_000,), mean_error=(0.001,), stderr_error=(0.0,), n=1)
    rep = bound_check(agg, model, "thm4")
    assert rep.supported
    eta = 0.2
    c1 = 96.0 * 3.0 / eta**2
    c2 = 24.0 / eta**3 + 1.0
    c3 = 24.0 * (20.0 / eta**2) ** 2 * 3.0 + eta**2 / 2.0 + 1.0
    t = 10_000.0
    expected = c1 * math.log(t) ** 2 / t + c2 * math.log(t) / t + c3 / t
    assert rep.rows[0].bound == pytest.approx(expected)
    assert rep.rows[0].passed


def test_thm4_requires_interior_strongly_convex():
    lin = build_model(ModelConfig(kind="linear", mu=(0.0, 0.5)))
    agg = AggregateResult(horizons=(10,), mean_error=(0.1,), stderr_error=(0.0,), n=1)
    assert not bound_check(agg, lin, "thm4").supported
    vertex = build_model(ModelConfig(kind="quadratic", theta=(0.0, 1.0)))
    assert not bound_check(agg, vertex, "thm4").supported


def test_unfloored_exp_design_has_no_finite_envelopes():
    model = build_model(ModelConfig(kind="exp_design", sigma2=(1.0, 4.0)))
    agg = AggregateResult(horizons=(10,), mean_error=(0.1,), stderr_error=(0.0,), n=1)
    assert not bound_check(agg, model, "thm1").supported
    assert not bound_check(agg, model, "thm4").supported


def test_unknown_selector_errors():
    model = build_model(ModelConfig(kind="linear", mu=(0.0, 0.5)))
    agg = AggregateResult(horizons=(10,), mean_error=(0.1,), stderr_error=(0.0,), n=1)
    with pytest.raises(ValueError, match="selector"):
        bound_check(agg, model, "thm9")


# ---------------------------------------------------------------- engine


# The lockstep engine must give every seed the record, and the actions, of
# the per-seed loop it replaced (kept in tests/reference_loop.py).  The grid
# runs each policy kind with each tie break on each loss family, cycling
# through observation kinds, action maps, estimators, deviation presets,
# record_epsilon, block sizes and worker counts so that each value of each
# axis meets many values of the others.

GRID_FAMILIES = {
    "linear": ModelConfig(kind="linear", mu=(0.2, 0.5, 0.5)),
    "quadratic": ModelConfig(kind="quadratic", theta=(0.2, 0.3, 0.5)),
    "exp_design": ModelConfig(kind="exp_design", sigma2=(1.0, 4.0, 2.0)),
    "cobb_douglas": ModelConfig(kind="cobb_douglas", beta=(0.2, 0.5, 0.3)),
    "markowitz": ModelConfig(
        kind="markowitz",
        covariance=((1.0, 0.2, 0.0), (0.2, 1.5, 0.1), (0.0, 0.1, 2.0)),
        risk_weight=1.3,
        mu=(0.4, 0.6, 0.5),
    ),
    "separable": ModelConfig(
        kind="separable",
        mu=(0.3, 0.7, 0.5),
        tables=(
            ((0.0, 0.5, 1.0), (1.0, 0.2, 0.0)),
            ((0.0, 0.5, 1.0), (0.2, 0.4, 0.6)),
            ((0.0, 1.0), (0.3, 0.9)),
        ),
    ),
}
GRID_KINDS = (
    "ucb_fw",
    "oracle_fw",
    "lcb_bandit",
    "uniform",
    "fixed_allocation",
    "presampled_ucb_fw",
    "doubling_ucb_fw",
)
GRID_DEVIATIONS = (
    dict(deviation="theorem1"),
    dict(deviation="prop1", delta_schedule="fixed", delta_fixed=0.1),
    dict(deviation="noiseless"),
    dict(deviation="custom", deviation_scale=1.5, deviation_exponent=0.4),
)
GRID_PRESAMPLE = (
    # a small variance cap and a loose delta let the stopping rule trigger
    # within its 20-round budget on some arms and not on others
    PresampleConfig(delta=0.5, variance_cap=0.5, horizon=20),
    PresampleConfig(brackets=((0.5, 1.0), (1.0, 2.0), (0.8, 1.5))),
)


def _grid_cases():
    """Each kind x tie break (group j) on each family (f); the other axes
    step with j + f at different periods, so that every family meets every
    value of every axis across the groups."""
    cases = []
    groups = [(kind, tie) for kind in GRID_KINDS for tie in ("lowest_index", "seeded_random")]
    for j, (kind, tie) in enumerate(groups):
        for f, (family, model_cfg) in enumerate(GRID_FAMILIES.items()):
            variance = family == "exp_design"
            observation = "gaussian" if variance else ("gaussian", "bernoulli", "deterministic")[(j + f) % 3]
            estimators = ("centered_square", "sample_variance") if variance else (None, "sample_variance")
            smooth = family not in ("exp_design", "cobb_douglas")
            cfg = ExperimentConfig(
                experiment="grid",
                model=model_cfg,
                policy=PolicyConfig(
                    kind=kind,
                    tie_break=tie,
                    weights=(0.2, 0.3, 0.5),
                    presample=GRID_PRESAMPLE[(j // 2 + f) % 2],
                    **GRID_DEVIATIONS[(j + f) % 4],
                ),
                feedback=FeedbackConfig(
                    observation=observation,
                    action_map=(None, (2, 2, 0))[j % 2],
                    estimator=estimators[(j // 2 + f) % 2],
                ),
                horizons=(10, 30, 120),
                seed_count=(1, 3, 7)[(j + 2 * f) % 3],
                seed_base=1000 + 17 * (6 * j + f),
                record_epsilon=smooth and (j // 2 + f) % 2 == 0,
            )
            workers = 1 + (j // 4 + f) % 2
            cases.append(pytest.param(cfg, workers, id=f"{kind}-{tie}-{family}"))
    return cases


@pytest.mark.parametrize("config, workers", _grid_cases())
def test_engine_matches_per_seed_loop(config, workers, monkeypatch):
    import reference_loop

    # blocks of 1, 3 and 7 seeds; with workers=2 the two pool workers get
    # blocks of n + 1 and n seeds
    monkeypatch.setattr(harness, "MIN_BLOCK", 1)
    if workers == 2:
        config = dataclasses.replace(config, seed_count=2 * config.seed_count + 1)
    seeds = [config.seed_base + i for i in range(config.seed_count)]
    expected = _outcome(lambda: [reference_loop.run_trial(config, s) for s in seeds])
    assert _outcome(lambda: run_experiment(config, workers=workers)) == expected
    assert _outcome(lambda: run_trial(config, tuple(seeds))) == expected


def _outcome(run):
    """The records, or the kind of error, a run ends with.  A block stops
    at the first error of any seed, which need not be the first seed's, so
    only the error's type is compared."""
    try:
        return run()
    except ValueError as exc:
        return type(exc)


def _engine_actions(config, seeds, t_max):
    model = build_model(config.model)
    spec = build_policy_spec(config.policy)
    sampler = ObservationSampler(build_observation_model(config.feedback, model), seeds)
    policy = build_policy(spec, model, config.feedback, seeds, t_max)
    occ = OccupationState(model.num_actions, seeds=len(seeds))
    rounds = []
    for _ in range(t_max):
        a = policy.select(occ)
        rounds.append(a.tolist())
        policy.observe(a, sampler.draw(a))
        occ.apply(a)
    return [list(trace) for trace in zip(*rounds)]


def _reference_actions(config, seed, t_max):
    import reference_loop

    model = build_model(config.model)
    spec = build_policy_spec(config.policy)
    sampler = reference_loop.ObservationSampler(build_observation_model(config.feedback, model), seed)
    policy = reference_loop.build_policy(spec, model, config.feedback, seed, t_max)
    occ = reference_loop.OccupationState(model.num_actions)
    trace = []
    for _ in range(t_max):
        a = policy.select(occ)
        trace.append(a)
        policy.observe(a, sampler.draw(a))
        occ.apply(a)
    return trace


@pytest.mark.parametrize(
    "config",
    [
        linear_config(
            model=GRID_FAMILIES["quadratic"],
            policy=PolicyConfig(deviation="prop1"),
        ),
        linear_config(
            model=GRID_FAMILIES["linear"],
            policy=PolicyConfig(kind="lcb_bandit", deviation="noiseless", tie_break="seeded_random"),
            feedback=FeedbackConfig(observation="deterministic"),
        ),
        linear_config(
            model=GRID_FAMILIES["separable"],
            policy=PolicyConfig(kind="doubling_ucb_fw", tie_break="seeded_random"),
            feedback=FeedbackConfig(observation="bernoulli"),
        ),
        linear_config(
            model=GRID_FAMILIES["exp_design"],
            policy=PolicyConfig(kind="presampled_ucb_fw", presample=GRID_PRESAMPLE[0]),
            feedback=FeedbackConfig(action_map=(2, 2, 0)),
        ),
    ],
    ids=["ucb_fw-quadratic", "lcb_bandit-ties", "doubling-separable", "presampled-exp_design"],
)
def test_engine_action_traces_match_per_seed_loop(config):
    seeds = (3, 4, 5, 6, 7)
    traces = _engine_actions(config, seeds, 300)
    assert traces == [_reference_actions(config, s, 300) for s in seeds]
