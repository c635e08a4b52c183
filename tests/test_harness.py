import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_cli import BASIC, table_configs

from ucbfw import harness, policies
from ucbfw.cli import parse_config_data
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
    build_model,
    build_policy,
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


def test_build_model_rejects_fields_its_family_never_reads():
    with pytest.raises(ValueError, match="linear model takes mu, not theta, interior_floor"):
        build_model(ModelConfig(kind="linear", mu=(0.1, 0.5), theta=(0.5, 0.5), interior_floor=(0.3, 0.3)))
    with pytest.raises(ValueError, match="exp_design model takes sigma2, centers, interior_floor, not mu"):
        build_model(ModelConfig(kind="exp_design", sigma2=(1.0, 4.0), mu=(0.1, 0.5)))
    # a family's options are taken
    floored = ModelConfig(kind="exp_design", sigma2=(1.0, 4.0), centers=(0.0, 1.0), interior_floor=(0.1, 0.1))
    assert build_model(floored).interior_floor == (0.1, 0.1)


def test_build_deviation_presets():
    assert PolicyConfig(deviation="theorem1").deviation_spec.scale == 4.0
    assert PolicyConfig(deviation="prop1", sigma2=2.0).deviation_spec.scale == 4.0
    assert PolicyConfig(deviation="prop1_doubled", sigma2=2.0).deviation_spec.scale == 16.0
    assert PolicyConfig(deviation="noiseless").deviation_spec.scale == 0.0
    custom = PolicyConfig(deviation=(1.5, 0.25)).deviation_spec
    assert (custom.scale, custom.exponent) == (1.5, 0.25)
    with pytest.raises(ValueError, match="unknown deviation preset 'custom'"):
        PolicyConfig(deviation="custom")
    with pytest.raises(ValueError, match="preset"):
        PolicyConfig(deviation="hoeffding")


def test_policy_config_validation():
    with pytest.raises(ValueError, match="kind"):
        PolicyConfig(kind="greedy")
    with pytest.raises(ValueError, match="fixed_allocation policy needs weights"):
        PolicyConfig(kind="fixed_allocation")
    with pytest.raises(ValueError, match="presampled_ucb_fw policy needs presample"):
        PolicyConfig(kind="presampled_ucb_fw")
    with pytest.raises(ValueError, match="beta"):
        PolicyConfig(doubling_beta=0.9)
    # a field the kind never reads is refused rather than ignored
    with pytest.raises(ValueError, match="ucb_fw policy takes no weights"):
        PolicyConfig(weights=(0.5, 0.5))
    with pytest.raises(ValueError, match="doubling_ucb_fw policy takes no presample"):
        PolicyConfig(kind="doubling_ucb_fw", presample=PresampleConfig())
    for sigma2 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma2 must be finite and positive"):
            PolicyConfig(deviation="theorem1", sigma2=sigma2)
    with pytest.raises(ValueError, match="deviation scale must be finite"):
        PolicyConfig(deviation=(math.nan, 0.5))
    # a NaN weight fails the simplex check
    with pytest.raises(ValueError, match="simplex coordinate 0"):
        PolicyConfig(kind="fixed_allocation", weights=(math.nan, 1.0))


def test_observation_model_follows_action_map():
    obs = linear_config(
        model=ModelConfig(kind="linear", mu=(0.1, 0.9)),
        feedback=FeedbackConfig(observation="gaussian", noise_sd=0.5, action_map=(1, 0)),
    ).observations
    assert obs.means == (0.9, 0.1)
    assert obs.sds == (0.5, 0.5)


@pytest.mark.parametrize("action_map", [(-1, 0), (5, 0)])
def test_run_trial_rejects_out_of_range_action_map(action_map):
    with pytest.raises(ValueError, match="map entries"):
        linear_config(policy=PolicyConfig(kind="uniform"), feedback=FeedbackConfig(action_map=action_map))


def test_exp_design_observation_model_uses_model_variances():
    model = ModelConfig(kind="exp_design", sigma2=(1.0, 4.0))
    obs = linear_config(model=model, feedback=FeedbackConfig(observation="gaussian")).observations
    assert obs.means == (0.0, 0.0)
    assert obs.sds == (1.0, 2.0)
    with pytest.raises(ValueError, match="gaussian"):
        linear_config(model=model, feedback=FeedbackConfig(observation="bernoulli"))


def test_estimator_defaults_and_rejections():
    exp_model = ModelConfig(kind="exp_design", sigma2=(1.0, 4.0))
    assert linear_config(model=exp_model, feedback=FeedbackConfig()).estimator == "centered_square"
    with pytest.raises(ValueError, match="centered_square"):
        linear_config(model=exp_model, feedback=FeedbackConfig(estimator="mean"))
    with pytest.raises(ValueError, match="exp_design"):
        linear_config(feedback=FeedbackConfig(estimator="centered_square"))
    with pytest.raises(ValueError, match="unknown estimator 'median'"):
        linear_config(feedback=FeedbackConfig(estimator="median"))


def test_subgaussian_declaration_is_enforced():
    with pytest.raises(ValueError, match="sub-gaussian"):
        linear_config(
            policy=PolicyConfig(deviation="prop1", sigma2=1.0),
            feedback=FeedbackConfig(observation="gaussian", noise_sd=2.0),
        )


def test_experiment_validation():
    # each raises where the config is made, naming the field at fault
    cases = [
        (dict(horizons=()), ("horizons",), "need at least one horizon"),
        (dict(horizons=(100, 100)), ("horizons",), "strictly increasing"),
        (dict(horizons=(1, 10)), ("horizons",), "round robin"),
        (dict(seed_count=0), ("seed_count",), "seed count"),
        (dict(seed_base=-1), ("seed_base",), "seed base must be >= 0, got -1"),
        (
            dict(model=ModelConfig(kind="exp_design", sigma2=(1.0, 4.0)), record_epsilon=True),
            ("record_epsilon",),
            "boundary",
        ),
        (dict(model=ModelConfig(kind="linear")), ("model",), "linear model needs mu"),
        (
            dict(policy=PolicyConfig(kind="fixed_allocation", weights=(0.2, 0.3, 0.5))),
            ("policy", "weights"),
            "one weight per action",
        ),
    ]
    for overrides, path, message in cases:
        with pytest.raises(harness.ConfigFieldError, match=message) as exc:
            linear_config(**overrides)
        assert exc.value.path == path


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

    eps = dict(model=cfg, record_epsilon=True, horizons=(20,), seed_count=1)
    if kind in ("exp_design", "cobb_douglas"):
        with pytest.raises(ValueError, match="boundary"):
            linear_config(**eps)
    else:
        assert run_trial(linear_config(**eps), (1,))[0].sum_epsilon is not None

    agg = AggregateResult(horizons=(10,), mean_error=(0.1,), stderr_error=(0.0,), n=1)
    rep = bound_check(agg, model, "prop2")
    if kind in ("quadratic", "exp_design", "cobb_douglas", "markowitz"):
        assert not rep.supported
        assert "constant gradient" in rep.reason
    else:
        assert rep.supported

    assert linear_config(model=cfg).estimator == ("centered_square" if kind == "exp_design" else "mean")


# ---------------------------------------------------------------- run_trial


def test_uniform_policy_error_matches_counts():
    cfg = linear_config(
        model=ModelConfig(kind="linear", mu=(0.0, 1.0)),
        policy=PolicyConfig(kind="uniform"),
        horizons=(4000,),
        seed_count=1,
    )
    [rec] = run_trial(cfg, (5,))
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
    [rec] = run_trial(cfg, (1,))
    for t, err in zip(rec.horizons, rec.errors):
        assert err <= math.log(math.e * t) / t + 1e-12


def test_trial_determinism_and_worker_independence():
    cfg = linear_config(seed_count=4)
    a = run_trial(cfg, (101,))
    b = run_trial(cfg, (101,))
    assert a == b
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=4)
    assert serial == parallel


def test_run_trial_takes_a_tuple_of_seeds():
    cfg = linear_config(horizons=(50,))
    assert run_trial(cfg, (7, 3)) == run_trial(cfg, (7,)) + run_trial(cfg, (3,))
    assert run_trial(cfg, ()) == []


def test_run_experiment_plans_blocks_of_at_most_max_block(monkeypatch):
    # 7 seeds cut into blocks of at most 2: four blocks in the parent, or
    # parts of 4 and 3 seeds cut into blocks on a pool of two workers
    monkeypatch.setattr(harness, "MIN_BLOCK", 1)
    monkeypatch.setattr(harness, "MAX_BLOCK", 2)
    cfg = linear_config(horizons=(50, 100), seed_count=7)
    alone = [r for i in range(7) for r in run_trial(cfg, (cfg.seed_base + i,))]
    assert run_experiment(cfg, workers=2) == alone
    sizes = []

    def spy(config, seeds, t_max=None):
        sizes.append(len(seeds))
        return run_trial(config, seeds, t_max)

    monkeypatch.setattr(harness, "run_trial", spy)
    assert run_experiment(cfg, workers=1) == alone
    assert sizes == [2, 2, 2, 1]


@pytest.mark.parametrize("kind", ["ucb_fw", "doubling_ucb_fw"])
def test_run_trial_stops_at_t_max(kind):
    # the doubling policy restarts at rounds 8 and 55 under either t_max
    cfg = linear_config(policy=PolicyConfig(kind=kind), horizons=(20, 60, 200))
    full = run_trial(cfg, (4, 5))
    short = run_trial(cfg, (4, 5), t_max=60)
    assert [r.horizons for r in short] == [(20, 60)] * 2
    assert [(r.errors, r.counts) for r in short] == [(r.errors[:2], r.counts[:2]) for r in full]


def test_errors_are_nonnegative():
    cfg = linear_config(
        model=ModelConfig(kind="quadratic", theta=(0.2, 0.3, 0.5)),
        horizons=(50, 200),
        seed_count=3,
    )
    for rec in run_experiment(cfg):
        assert all(e >= -1e-12 for e in rec.errors)


# configs that each reach a different corner of the tables, run as
# examples beside the drawn ones
EXAMPLE_CONFIGS = [
    BASIC,
    {
        "experiment": "floors",
        "model": {"kind": "exp_design", "sigma2": [1.0, 4.0]},
        "policy": {
            "kind": "presampled_ucb_fw",
            "deviation": "theorem1",
            "presample": {"delta": 0.1, "variance_cap": 8.0, "horizon": 5000},
        },
        "feedback": {"observation": "gaussian"},
        "horizons": [5000],
        "seeds": {"count": 3, "base": 11},
    },
    {
        "experiment": "floors_known",
        "model": {"kind": "exp_design", "sigma2": [1.0, 4.0]},
        "policy": {
            "kind": "presampled_ucb_fw",
            "presample": {"brackets": [[1.0, 1.0], [2.0, 2.0]]},
        },
        "feedback": {"estimator": "sample_variance"},
        "horizons": [100],
        "seeds": {"count": 1, "base": 0},
        "output": {"dir": "out"},
    },
    {
        "experiment": "tables",
        "model": {
            "kind": "separable",
            "mu": [0.2, 0.8],
            "tables": [
                {"xs": [0.0, 1.0], "ys": [0.0, 2.0]},
                {"xs": [0.0, 1.0], "ys": [1.0, 1.5]},
            ],
        },
        "policy": {"deviation": {"scale": 1.5, "exponent": 0.25}},
        "feedback": {"observation": "bernoulli"},
        "horizons": [50, 100],
        "seeds": {"count": 2, "base": 3},
        "record_epsilon": True,
    },
    {
        "experiment": "blocks",
        "model": {
            "kind": "markowitz",
            "covariance": [[1.0, 0.2], [0.2, 1.5]],
            "risk_weight": 1.3,
            "mu": [1.0, 0.5],
        },
        "policy": {"kind": "doubling_ucb_fw", "doubling_beta": 0.4, "sigma2": 1.0},
        "feedback": {"observation": "gaussian", "noise_sd": 1.0},
        "horizons": [200],
        "seeds": {"count": 2, "base": 5},
    },
    {
        "experiment": "baseline",
        "model": {"kind": "cobb_douglas", "beta": [0.3, 0.7], "interior_floor": [0.1, 0.1]},
        "policy": {"kind": "fixed_allocation", "weights": [0.3, 0.7]},
        "feedback": {"observation": "deterministic"},
        "horizons": [100],
        "seeds": {"count": 1, "base": 9},
    },
    {
        # doubling_beta is accepted for every kind, not only doubling_ucb_fw
        "experiment": "beta_of_plain_ucb",
        "model": {"kind": "linear", "mu": [0.1, 0.5]},
        "policy": {"kind": "ucb_fw", "doubling_beta": 0.3},
        "horizons": [100],
        "seeds": {"count": 1, "base": 2},
    },
]


def _with_examples(test):
    for data in EXAMPLE_CONFIGS:
        test = example(data)(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table_configs())
@_with_examples
def test_every_accepted_config_runs(data):
    # any config the parser accepts runs, with 3 seeds on horizons from K:
    # every snapshot's counts sum to its horizon and no error is NaN (a
    # zero coordinate of a barrier loss is an error of +inf)
    config = parse_config_data(data)
    model = build_model(config.model)
    k = model.num_actions
    config = dataclasses.replace(config, horizons=(k, 10, 40), seed_count=3)
    records = run_experiment(config)
    assert [r.seed for r in records] == [config.seed_base + i for i in range(3)]
    for r in records:
        assert r.horizons == config.horizons
        assert [sum(c) for c in r.counts] == list(config.horizons)
        assert not any(math.isnan(e) for e in r.errors)
        # a convex loss's error is at most its Frank-Wolfe gap
        # <g, p> - min g, which needs no minimizer; a barrier loss has no
        # gradient at a zero coordinate
        for t, c, error in zip(r.horizons, r.counts, r.errors):
            p = np.array(c) / t
            if not model.smooth_on_simplex and not p.all():
                continue
            g = model.true_gradient(p[None])[0]
            gap = float(g @ p - g.min())
            tol = 1e-9 * (1.0 + abs(gap) + abs(error))
            assert -tol <= error <= gap + tol, (t, c, error, gap)


def test_epsilon_sums_recorded_when_asked():
    cfg = linear_config(record_epsilon=True, horizons=(50, 100), seed_count=1)
    [rec] = run_trial(cfg, (9,))
    assert rec.sum_epsilon is not None
    assert len(rec.sum_epsilon) == 2
    assert rec.sum_epsilon[1] >= rec.sum_epsilon[0] >= 0.0
    [plain] = run_trial(linear_config(horizons=(50, 100), seed_count=1), (9,))
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
    # a dropped inf is positive too, so the error names finite points
    with pytest.warns(UserWarning, match="non-finite"):
        with pytest.raises(ValueError, match="needs >= 3 finite positive points, got 2"):
            fit_rate((1000, 10000, 30000), (math.inf, 0.1, 0.05))
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
# runs each policy kind with and without an action map on each loss family,
# cycling through observation kinds, estimators, deviation presets,
# presample set-ups, record_epsilon, block sizes and worker counts so that
# each value of each axis meets many values of the others.

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
    dict(deviation="prop1"),
    dict(deviation="noiseless"),
    dict(deviation=(1.5, 0.4)),
)
GRID_PRESAMPLE = (
    # a small variance cap and a loose delta let the stopping rule trigger
    # within its 20-round budget on some arms and not on others
    PresampleConfig(delta=0.5, variance_cap=0.5, horizon=20),
    PresampleConfig(brackets=((0.5, 1.0), (1.0, 2.0), (0.8, 1.5))),
)


def _grid_cases():
    """Each kind in two groups j, identity routing then the map (2, 2, 0),
    on each family f; the other axes step with j and f at different
    periods, so that every family meets every value of every axis across
    the groups (test_every_grid_family_meets_every_axis_value).  The two
    groups keep the ids `lowest_index` and `seeded_random` of the
    tie-break option that once split them, so the test ids stay the same."""
    cases = []
    groups = [(kind, tag) for kind in GRID_KINDS for tag in ("lowest_index", "seeded_random")]
    for j, (kind, tag) in enumerate(groups):
        for f, (family, model_cfg) in enumerate(GRID_FAMILIES.items()):
            variance = family == "exp_design"
            observation = "gaussian" if variance else ("gaussian", "bernoulli", "deterministic")[(j + f) % 3]
            estimators = ("centered_square", "sample_variance") if variance else (None, "mean")
            smooth = family not in ("exp_design", "cobb_douglas")
            cfg = ExperimentConfig(
                experiment="grid",
                model=model_cfg,
                policy=PolicyConfig(
                    kind=kind,
                    # each kind gets the fields it reads, and no others
                    weights=(0.2, 0.3, 0.5) if kind == "fixed_allocation" else None,
                    presample=GRID_PRESAMPLE[(j + f) % 2] if kind == "presampled_ucb_fw" else None,
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
            cases.append(pytest.param(cfg, workers, id=f"{kind}-{tag}-{family}"))
    return cases


def test_every_grid_family_meets_every_axis_value():
    seen = {}
    for case in _grid_cases():
        cfg = case.values[0]
        axes = (
            cfg.feedback.observation,
            cfg.feedback.action_map,
            cfg.feedback.estimator,
            cfg.policy.deviation,
            cfg.policy.presample,
            cfg.record_epsilon,
        )
        for axis, value in enumerate(axes):
            seen.setdefault((cfg.model.kind, axis), set()).add(value)
    for family in GRID_FAMILIES:
        variance = family == "exp_design"
        smooth = family not in ("exp_design", "cobb_douglas")
        sizes = (
            1 if variance else 3,  # exp_design observes only gaussian draws
            2,
            2,
            len(GRID_DEVIATIONS),
            1 + len(GRID_PRESAMPLE),  # None for the other kinds
            2 if smooth else 1,  # epsilon is recorded only on smooth families
        )
        assert tuple(len(seen[family, axis]) for axis in range(len(sizes))) == sizes, family


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
    """Each seed's actions over t_max lockstep rounds, and the block policy."""
    model = build_model(config.model)
    sampler = ObservationSampler(config.observations, seeds)
    policy = build_policy(config, model, seeds, t_max)
    occ = OccupationState(model.num_actions, seeds=len(seeds))
    rounds = []
    for _ in range(t_max):
        a = policy.select(occ)
        rounds.append(a.tolist())
        policy.observe(a, sampler.draw(a))
        occ.apply(a)
    return [list(trace) for trace in zip(*rounds)], policy


def _reference_actions(config, seed, t_max):
    """One seed's actions in the per-seed loop, and its scalar policy."""
    import reference_loop

    model = build_model(config.model)
    sampler = reference_loop.ObservationSampler(config.observations, seed)
    policy = reference_loop.build_policy(config, model, seed, t_max)
    occ = reference_loop.OccupationState(model.num_actions)
    trace = []
    for _ in range(t_max):
        a = policy.select(occ)
        trace.append(a)
        policy.observe(a, sampler.draw(a))
        occ.apply(a)
    return trace, policy


@pytest.mark.parametrize(
    "config",
    [
        linear_config(
            model=GRID_FAMILIES["quadratic"],
            policy=PolicyConfig(deviation="prop1"),
        ),
        linear_config(
            model=GRID_FAMILIES["linear"],
            policy=PolicyConfig(kind="lcb_bandit", deviation="noiseless"),
            feedback=FeedbackConfig(observation="deterministic"),
        ),
        linear_config(
            model=GRID_FAMILIES["separable"],
            policy=PolicyConfig(kind="doubling_ucb_fw"),
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
    traces, _ = _engine_actions(config, seeds, 300)
    assert traces == [_reference_actions(config, s, 300)[0] for s in seeds]


@pytest.mark.parametrize("action_map", [None, (2, 2, 0)], ids=["identity", "map"])
def test_doubling_restart_reruns_the_round_robin(action_map):
    # the round robin runs on the estimator's own round count, which each
    # restart sets back to 0, so it runs again whatever the routing
    config = linear_config(
        model=GRID_FAMILIES["quadratic"],
        policy=PolicyConfig(kind="doubling_ucb_fw", doubling_beta=0.5),
        feedback=FeedbackConfig(action_map=action_map),
        horizons=(60,),
    )
    seeds = (5, 6, 7)
    traces, policy = _engine_actions(config, seeds, 60)
    references = [_reference_actions(config, s, 60)[0] for s in seeds]
    assert policy.boundaries == [8, 55]
    for b in policy.boundaries:
        for trace in traces + references:
            assert trace[b : b + 3] == [0, 1, 2]
    # the restart schedule and the estimator it resets live on one policy object
    assert isinstance(policy, policies.UcbFwPolicy)
    assert policy.block == 2
    assert policy.fb.rounds == 60 - 55


def _exp_design_presampled(sigma2, presample, centers=None, action_map=None):
    return linear_config(
        model=ModelConfig(kind="exp_design", sigma2=sigma2, centers=centers),
        policy=PolicyConfig(kind="presampled_ucb_fw", presample=presample),
        feedback=FeedbackConfig(action_map=action_map),
    )


@pytest.mark.parametrize(
    "config, shows",
    [
        # the stopping rule triggers after a different number of draws on
        # each seed, so the seeds leave phase 1 at different rounds
        pytest.param(
            _exp_design_presampled((1.0, 4.0, 2.0), GRID_PRESAMPLE[0]),
            lambda policy: len(set(policy.phase1_end_t.tolist())) > 1,
            id="staggered",
        ),
        # a large cap keeps the rule from triggering: arms end on their budget
        pytest.param(
            _exp_design_presampled(
                (1.0, 4.0, 2.0), PresampleConfig(variance_cap=50.0, horizon=1000, max_rounds_per_arm=6)
            ),
            lambda policy: not policy.stopping_triggered.all(),
            id="budget",
        ),
        # nine arms: numpy's pairwise sum of the hi brackets differs from
        # the left-to-right sum the floors use
        pytest.param(
            _exp_design_presampled((1.0, 4.0, 2.0, 0.5, 3.0, 1.5, 2.5, 0.7, 1.2), GRID_PRESAMPLE[0]),
            lambda policy: (
                policy.brackets_hat[:, :, 1].sum(axis=1)
                != policy.brackets_hat[:, :, 1].cumsum(axis=1)[:, -1]
            ).any(),
            id="nine_arms",
        ),
        pytest.param(
            _exp_design_presampled((1.0, 4.0, 2.0), GRID_PRESAMPLE[1]),
            lambda policy: (policy.phase1_end_t == 0).all(),
            id="known_brackets",
        ),
        # each arm's draws are squared around the center of the coefficient
        # it reports: the engine holds them per action, the reference per
        # coefficient and routes them
        pytest.param(
            _exp_design_presampled(
                (1.0, 4.0, 2.0), GRID_PRESAMPLE[0], centers=(1.0, -2.0, 0.5), action_map=(2, 0, 1)
            ),
            lambda policy: policy.fb.centers.tolist() == [0.5, 1.0, -2.0],
            id="routed_centers",
        ),
    ],
)
def test_presampled_state_matches_per_seed_loop(config, shows):
    # the action traces alone would not show a wrong bracket or floor that
    # happens to pick the same arms
    seeds = tuple(range(20, 28))
    traces, policy = _engine_actions(config, seeds, 300)
    for i, s in enumerate(seeds):
        trace, ref = _reference_actions(config, s, 300)
        assert traces[i] == trace
        assert len(ref.brackets_hat) == policy.fb.num_coeffs
        assert policy.brackets_hat[i].tolist() == [list(b) for b in ref.brackets_hat]
        assert policy.stopping_triggered[i].tolist() == ref.stopping_triggered
        assert policy.floors[i].tolist() == ref.floors
        assert policy.phase1_end_t[i] == ref.phase1_end_t
    assert shows(policy)


def test_presampled_brackets_do_not_depend_on_the_map():
    # both arms draw with sd 1 around known centers 1 and -1.  Under the map
    # (1, 0) action 0 reports coefficient 1, so its draws come around -1;
    # streams are keyed by action, so once centered they are the identity
    # run's draws up to the rounding of the shift, and each bracket (lo, hi)
    # must hold the true sd 1
    runs = []
    for action_map in (None, (1, 0)):
        config = _exp_design_presampled(
            (1.0, 1.0), PresampleConfig(), centers=(1.0, -1.0), action_map=action_map
        )
        runs.append(_engine_actions(config, (1, 2, 3, 4), 4000)[1])
    identity, mapped = runs
    np.testing.assert_allclose(mapped.brackets_hat, identity.brackets_hat, rtol=1e-12)
    assert mapped.stopping_triggered.tolist() == identity.stopping_triggered.tolist()
    assert mapped.phase1_end_t.tolist() == identity.phase1_end_t.tolist()
    assert (mapped.brackets_hat[:, :, 0] <= 1.0).all() and (mapped.brackets_hat[:, :, 1] >= 1.0).all()


def test_presampled_selection_passes_through_select(monkeypatch):
    # the held seeds choose through the plug-in policy's `select`, the one
    # hook a selection trace wraps, and get the same actions through it
    config = _exp_design_presampled((1.0, 4.0, 2.0), GRID_PRESAMPLE[1])
    seeds = (3, 4, 5)
    plain = run_trial(config, seeds)
    calls = []
    select = policies.UcbFwPolicy.select

    def counted(self, occ):
        calls.append(occ.t)
        return select(self, occ)

    monkeypatch.setattr(policies.UcbFwPolicy, "select", counted)
    assert run_trial(config, seeds) == plain
    assert len(calls) > 0
