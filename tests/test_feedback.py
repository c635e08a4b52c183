import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_loop import FeedbackState, gradient_estimate, route_and_update
from ucbfw.feedback import (
    INFINITE_DEVIATION,
    DeviationSpec,
    ObservationModel,
    ObservationSampler,
    deviation,
    deviation_radii,
    deviation_radius,
)
from ucbfw.losses import exp_design_loss, linear_loss, markowitz_loss

# ---------------------------------------------------------------- radii


def test_standard_radius_worked_value():
    spec = DeviationSpec.standard()
    v = deviation(spec, t=100, n_obs=4, delta=1e-4)
    assert v == pytest.approx(2.0 * math.sqrt(math.log(1e6) / 4.0))
    assert round(v, 4) == 3.7169  # ~3.7170 at the quoted precision


def test_general_radius_formula():
    # scale 1, exponent 1, log(t/delta) = 1, two observations
    assert deviation_radius(1.0, 1.0, t=1, n_obs=2, delta=math.exp(-1)) == pytest.approx(0.5)


def test_zero_scale_collapses_to_zero():
    spec = DeviationSpec.noiseless()
    assert deviation(spec, t=50, n_obs=1, delta=0.5) == 0.0


def test_zero_count_yields_infinite_sentinel():
    spec = DeviationSpec.standard()
    assert deviation(spec, t=10, n_obs=0, delta=0.5) == INFINITE_DEVIATION


def test_radius_argument_validation():
    spec = DeviationSpec.standard()
    with pytest.raises(ValueError):
        deviation(spec, t=0, n_obs=1, delta=0.5)
    with pytest.raises(ValueError):
        deviation(spec, t=10, n_obs=-1, delta=0.5)
    with pytest.raises(ValueError):
        deviation(spec, t=10, n_obs=1, delta=1.5)


def test_spec_validation():
    with pytest.raises(ValueError, match="exponent"):
        DeviationSpec(scale=1.0, exponent=0.7)
    with pytest.raises(ValueError, match="exponent"):
        DeviationSpec(scale=1.0, exponent=0.0)
    with pytest.raises(ValueError, match="scale"):
        DeviationSpec(scale=-1.0)
    with pytest.raises(ValueError, match="schedule"):
        DeviationSpec(delta_schedule="sometimes")
    with pytest.raises(ValueError, match="delta"):
        DeviationSpec(delta_schedule="fixed", delta_fixed=0.0)


def test_presets():
    assert DeviationSpec.standard().scale == 4.0
    assert DeviationSpec.subgaussian(2.0).scale == 4.0
    assert DeviationSpec.subgaussian_doubled(2.0).scale == 16.0
    assert DeviationSpec.noiseless().scale == 0.0


def test_delta_schedule():
    spec = DeviationSpec.standard()
    assert spec.delta_at(10) == pytest.approx(1e-2)
    fixed = DeviationSpec.standard(delta_schedule="fixed", delta_fixed=0.05)
    assert fixed.delta_at(10) == 0.05


@given(
    st.floats(0.1, 10.0),
    st.integers(2, 10_000),
    st.integers(1, 1000),
    st.floats(1e-6, 0.99),
)
def test_radius_decreases_in_count(scale, t, n, delta):
    spec = DeviationSpec(scale=scale)
    assert deviation(spec, t, n + 1, delta) < deviation(spec, t, n, delta)


@pytest.mark.parametrize("exponent", [0.5, 0.4, 0.25])
@pytest.mark.parametrize("schedule", ["inverse_t_squared", "fixed"])
def test_block_radii_equal_the_scalar_radius(exponent, schedule):
    # the engine's radii must be the floats `deviation` gives one by one;
    # np.power would round differently on some of them
    spec = DeviationSpec(scale=1.7, exponent=exponent, delta_schedule=schedule)
    counts = np.arange(1.0, 4001.0).reshape(40, 100)
    for t in (5, 977, 100_000):
        delta = spec.delta_at(t)
        want = [[deviation(spec, t, int(n), delta) for n in row] for row in counts]
        assert deviation_radii(spec, t, delta, counts).tolist() == want


def test_radius_uses_sqrt_at_exponent_one_half():
    # x ** 0.5 and sqrt(x) differ in the last bit for some x; every radius
    # path uses sqrt
    x = 4.0 * math.log(100 / 1e-4) / 3
    assert deviation(DeviationSpec.standard(), 100, 3, 1e-4) == math.sqrt(x)


# ---------------------------------------------------------------- routing


def test_running_mean_update():
    fb = FeedbackState.fresh(2, DeviationSpec.standard())
    route_and_update(fb, 1, 0.2)
    route_and_update(fb, 1, 0.4)
    assert fb.obs_counts == [0, 2]
    assert fb.means[1] == pytest.approx(0.3)


def test_mixed_map_routes_to_mapped_coefficient():
    fb = FeedbackState.fresh(3, DeviationSpec.standard(), action_to_coeff=(2, 0, 1))
    j = route_and_update(fb, 0, 5.0)
    assert j == 2
    assert fb.obs_counts == [0, 0, 1]
    assert fb.means[2] == 5.0


def test_starved_coefficient_map_only_updates_through_its_action():
    # two noise actions feed one coefficient, the third feeds another; the
    # remaining coefficient can never receive an observation
    fb = FeedbackState.fresh(3, DeviationSpec.standard(), action_to_coeff=(2, 2, 0))
    route_and_update(fb, 0, 0.1)
    route_and_update(fb, 1, -0.1)
    assert fb.obs_counts == [0, 0, 2]
    route_and_update(fb, 2, 0.4)
    assert fb.obs_counts == [1, 0, 2]
    assert fb.means[0] == pytest.approx(0.4)


@settings(max_examples=60)
@given(
    st.integers(2, 5).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, k - 1), min_size=k, max_size=k),
            st.lists(st.tuples(st.integers(0, k - 1), st.floats(-5, 5)), max_size=60),
        )
    )
)
def test_observation_count_conservation(args):
    k, amap, pulls = args
    fb = FeedbackState.fresh(k, DeviationSpec.standard(), action_to_coeff=amap)
    for action, obs in pulls:
        route_and_update(fb, action, obs)
    assert fb.rounds() == len(pulls)
    assert sum(fb.obs_counts) == len(pulls)


def test_means_match_plain_average():
    rng = np.random.default_rng(3)
    fb = FeedbackState.fresh(2, DeviationSpec.standard())
    values = rng.normal(size=200)
    for v in values:
        route_and_update(fb, 0, float(v))
    assert fb.means[0] == pytest.approx(float(np.mean(values)), abs=1e-12)


def test_sample_variance_estimator_matches_statistics():
    rng = np.random.default_rng(4)
    fb = FeedbackState.fresh(
        2, DeviationSpec.standard(), estimator="sample_variance"
    )
    values = [float(v) for v in rng.normal(2.0, 1.5, size=50)]
    for v in values:
        route_and_update(fb, 1, v)
    est = fb.estimates()
    assert est[1] == pytest.approx(statistics.variance(values), rel=1e-12)
    assert est[0] == 0.0  # unobserved


def test_centered_square_estimator():
    fb = FeedbackState.fresh(
        2,
        DeviationSpec.standard(),
        estimator="centered_square",
        centers=(1.0, 0.0),
    )
    for v in (2.0, 0.0):  # centered squares: 1.0, 1.0
        route_and_update(fb, 0, v)
    assert fb.estimates()[0] == pytest.approx(1.0)


def test_state_validation():
    with pytest.raises(ValueError, match="entries"):
        FeedbackState.fresh(3, DeviationSpec.standard(), action_to_coeff=(0, 1))
    with pytest.raises(ValueError, match="in \\[0, 3\\)"):
        FeedbackState.fresh(3, DeviationSpec.standard(), action_to_coeff=(0, 1, 3))
    with pytest.raises(ValueError, match="estimator"):
        FeedbackState.fresh(2, DeviationSpec.standard(), estimator="median")
    with pytest.raises(ValueError, match="centers"):
        FeedbackState.fresh(2, DeviationSpec.standard(), estimator="centered_square")


def test_reset_forgets_observations():
    fb = FeedbackState.fresh(2, DeviationSpec.standard())
    route_and_update(fb, 0, 1.0)
    fb.reset()
    assert fb.obs_counts == [0, 0]
    assert fb.means == [0.0, 0.0]


# ---------------------------------------------------------------- estimates


def test_gradient_estimate_linear():
    fb = FeedbackState.fresh(2, DeviationSpec.standard())
    route_and_update(fb, 0, 0.2)
    route_and_update(fb, 1, 0.4)
    ghat, radii = gradient_estimate(fb, linear_loss((0.0, 1.0)), (0.5, 0.5))
    assert ghat == pytest.approx([0.2, 0.4])
    d = deviation(fb.deviation_spec, 2, 1, fb.deviation_spec.delta_at(2))
    assert radii == pytest.approx([d, d])


def test_gradient_estimate_exp_design_sensitivity():
    fb = FeedbackState.fresh(
        2, DeviationSpec.standard(), estimator="centered_square", centers=(0.0, 0.0)
    )
    # centered squares of 2.0 are 4.0 -> sigma2 estimates (4, 4)... use
    # sqrt(2) draws for estimates (2, 2)
    v = math.sqrt(2.0)
    route_and_update(fb, 0, v)
    route_and_update(fb, 1, v)
    model = exp_design_loss((1.0, 4.0))
    ghat, radii = gradient_estimate(fb, model, (0.5, 0.5))
    assert ghat == pytest.approx([-8.0, -8.0])
    d = deviation(fb.deviation_spec, 2, 1, fb.deviation_spec.delta_at(2))
    assert radii == pytest.approx([4.0 * d, 4.0 * d])


def test_gradient_estimate_markowitz_risk_weight_sensitivity():
    fb = FeedbackState.fresh(2, DeviationSpec.standard())
    route_and_update(fb, 0, 0.5)
    route_and_update(fb, 1, 0.5)
    model = markowitz_loss(((1.0, 0.0), (0.0, 1.0)), 2.0, (0.4, 0.6))
    ghat, radii = gradient_estimate(fb, model, (0.5, 0.5))
    assert ghat == pytest.approx([0.0, 0.0])
    d = deviation(fb.deviation_spec, 2, 1, fb.deviation_spec.delta_at(2))
    assert radii == pytest.approx([2.0 * d, 2.0 * d])


def test_gradient_estimate_requires_every_coefficient_observed():
    fb = FeedbackState.fresh(2, DeviationSpec.standard())
    route_and_update(fb, 0, 0.2)
    with pytest.raises(ValueError, match="coefficient 1"):
        gradient_estimate(fb, linear_loss((0.0, 1.0)), (0.5, 0.5))


def test_estimate_coverage_under_prop1_radius():
    # identity map, gaussian observations, fixed delta: the per-coefficient
    # radius must cover the estimation error in all but ~delta of trials
    mu = (0.1, 0.5, -0.3)
    model = linear_loss(mu)
    spec = DeviationSpec.subgaussian(1.0, delta_schedule="fixed", delta_fixed=0.05)
    counts = (10, 15, 25)
    t_eval = 1000
    delta = 0.05
    rng = np.random.default_rng(20240814)
    trials = 10_000
    covered = 0
    total = 0
    for _ in range(trials):
        fb = FeedbackState.fresh(3, spec)
        for i, n in enumerate(counts):
            for v in rng.normal(mu[i], 1.0, size=n):
                route_and_update(fb, i, float(v))
        ghat = fb.estimates()
        for i, n in enumerate(counts):
            radius = deviation(spec, t_eval, n, delta)
            total += 1
            if abs(ghat[i] - mu[i]) <= radius:
                covered += 1
    assert covered / total >= 1.0 - delta - 0.01


# ---------------------------------------------------------------- sampling


def one_seed(model, seed):
    """A sampler for a one-seed block, drawing one float at a time."""
    sampler = ObservationSampler(model, (seed,))
    return lambda action: float(sampler.draw(action)[0])


def test_deterministic_observations():
    model = ObservationModel(kind="deterministic", means=(0.7, 0.1))
    draw = one_seed(model, 1)
    assert draw(0) == 0.7
    assert draw(0) == 0.7
    assert draw(1) == 0.1


def test_gaussian_streams_are_seed_deterministic():
    model = ObservationModel(kind="gaussian", means=(0.0, 1.0), sds=(1.0, 1.0))
    a = one_seed(model, 42)
    b = one_seed(model, 42)
    seq_a = [a(0) for _ in range(100)]
    seq_b = [b(0) for _ in range(100)]
    assert seq_a == seq_b
    c = one_seed(model, 43)
    assert [c(0) for _ in range(100)] != seq_a


def test_draws_do_not_depend_on_interleaving():
    model = ObservationModel(kind="gaussian", means=(0.0, 1.0), sds=(1.0, 1.0))
    plain = one_seed(model, 7)
    seq = [plain(0) for _ in range(50)]
    inter = one_seed(model, 7)
    got = []
    for i in range(50):
        got.append(inter(0))
        inter(1)  # interleaved pulls of the other action
    assert got == seq


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "deterministic"])
def test_draws_do_not_depend_on_chunk_or_block(kind, monkeypatch):
    # draw n of stream (seed, action) is the n-th value of that stream's
    # generator, whatever the top-up size and whichever seeds share a block
    model = ObservationModel(kind=kind, means=(0.3, 0.6), sds=(1.0, 2.0))
    seeds = (11, 12, 13)
    rng = np.random.default_rng(2)
    actions = rng.integers(0, 2, size=(700, 3))
    alone = []
    for i, seed in enumerate(seeds):
        gens = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, a)))) for a in (0, 1)]
        if kind == "gaussian":
            streams = [g.normal(m, sd, size=700) for g, m, sd in zip(gens, model.means, model.sds)]
        elif kind == "bernoulli":
            streams = [(g.random(700) < m).astype(float) for g, m in zip(gens, model.means)]
        else:
            streams = [np.full(700, m) for m in model.means]
        used = [0, 0]
        draws = []
        for a in actions[:, i]:
            draws.append(float(streams[a][used[a]]))
            used[a] += 1
        alone.append(draws)
        one = one_seed(model, seed)
        assert [one(int(a)) for a in actions[:, i]] == draws
    for chunk in (256, 7):
        monkeypatch.setattr(ObservationSampler, "CHUNK", chunk)
        block = ObservationSampler(model, seeds)
        rounds = [block.draw(a).tolist() for a in actions]
        assert [list(col) for col in zip(*rounds)] == alone


def test_bernoulli_mean_concentrates():
    model = ObservationModel(kind="bernoulli", means=(0.5, 0.2))
    draw = one_seed(model, 5)
    draws = [draw(0) for _ in range(100_000)]
    assert set(draws) <= {0.0, 1.0}
    assert abs(sum(draws) / len(draws) - 0.5) < 0.01


def test_observation_model_validation():
    with pytest.raises(ValueError, match="sd"):
        ObservationModel(kind="gaussian", means=(0.0, 1.0))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        ObservationModel(kind="bernoulli", means=(0.5, 1.2))
    with pytest.raises(ValueError, match="kind"):
        ObservationModel(kind="cauchy", means=(0.0,))


def test_subgaussian_parameters():
    g = ObservationModel(kind="gaussian", means=(0.0, 0.0), sds=(1.0, 2.0))
    assert g.subgaussian_parameter() == 4.0
    b = ObservationModel(kind="bernoulli", means=(0.5, 0.5))
    assert b.subgaussian_parameter() == 0.25
    d = ObservationModel(kind="deterministic", means=(0.3,))
    assert d.subgaussian_parameter() == 0.0
