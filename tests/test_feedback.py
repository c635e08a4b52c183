import math
import re
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_loop import (
    INFINITE_DEVIATION,
    FeedbackState,
    deviation,
    gradient_estimate,
    route_and_update,
)
from ucbfw import feedback
from ucbfw.feedback import (
    POLICY_STREAM_TAG,
    DeviationSpec,
    ObservationModel,
    ObservationSampler,
    deviation_radii,
    seeded_streams,
)
from ucbfw.harness import PolicyConfig
from ucbfw.losses import ExpDesignLoss, LinearLoss, MarkowitzLoss

# ---------------------------------------------------------------- radii


def test_standard_radius_worked_value():
    spec = DeviationSpec()
    v = deviation(spec, t=100, n_obs=4, delta=1e-4)
    assert v == pytest.approx(2.0 * math.sqrt(math.log(1e6) / 4.0))
    assert round(v, 4) == 3.7169  # ~3.7170 at the quoted precision


def test_general_radius_formula():
    # scale 1, exponent 1/4, log(t/delta) = 1, two observations
    spec = DeviationSpec(scale=1.0, exponent=0.25)
    assert deviation(spec, t=1, n_obs=2, delta=math.exp(-1)) == pytest.approx(0.5**0.25)


def test_zero_scale_collapses_to_zero():
    spec = DeviationSpec(scale=0.0)
    assert deviation(spec, t=50, n_obs=1, delta=0.5) == 0.0


def test_zero_count_yields_infinite_sentinel():
    spec = DeviationSpec()
    assert deviation(spec, t=10, n_obs=0, delta=0.5) == INFINITE_DEVIATION


def test_radius_argument_validation():
    spec = DeviationSpec()
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


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_and_observation_model_reject_non_finite_values(value):
    with pytest.raises(ValueError, match="deviation scale must be finite"):
        DeviationSpec(scale=value)
    with pytest.raises(ValueError, match="sigma2 must be finite"):
        PolicyConfig(sigma2=value)
    with pytest.raises(ValueError, match="sds must be finite"):
        ObservationModel(kind="gaussian", means=(0.0, 0.0), sds=(1.0, value))


def test_presets():
    # the default spec is the theorem1 preset's radius
    assert PolicyConfig().deviation_spec == DeviationSpec()
    assert PolicyConfig(deviation="prop1", sigma2=2.0).deviation_spec == DeviationSpec(scale=4.0)
    assert PolicyConfig(deviation="prop1_doubled", sigma2=2.0).deviation_spec.scale == 16.0
    assert PolicyConfig(deviation="noiseless").deviation_spec == DeviationSpec(scale=0.0)


def test_delta_schedule():
    assert DeviationSpec().delta_at(10) == pytest.approx(1e-2)


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
def test_block_radii_equal_the_scalar_radius(exponent):
    # the engine's radii must be the floats `deviation` gives one by one;
    # np.power would round differently on some of them
    spec = DeviationSpec(scale=1.7, exponent=exponent)
    counts = np.arange(1.0, 4001.0).reshape(40, 100)
    for t in (5, 977, 100_000):
        want = [[deviation(spec, t, int(n), spec.delta_at(t)) for n in row] for row in counts]
        assert deviation_radii(spec, t, counts).tolist() == want


def test_radius_uses_sqrt_at_exponent_one_half():
    # x ** 0.5 and sqrt(x) differ in the last bit for some x; every radius
    # path uses sqrt
    x = 4.0 * math.log(100 / 1e-4) / 3
    assert deviation(DeviationSpec(), 100, 3, 1e-4) == math.sqrt(x)


# ---------------------------------------------------------------- routing


def test_running_mean_update():
    fb = FeedbackState.fresh(2, DeviationSpec())
    route_and_update(fb, 1, 0.2)
    route_and_update(fb, 1, 0.4)
    assert fb.obs_counts == [0, 2]
    assert fb.means[1] == pytest.approx(0.3)


def test_mixed_map_routes_to_mapped_coefficient():
    fb = FeedbackState.fresh(3, DeviationSpec(), action_to_coeff=(2, 0, 1))
    j = route_and_update(fb, 0, 5.0)
    assert j == 2
    assert fb.obs_counts == [0, 0, 1]
    assert fb.means[2] == 5.0


def test_starved_coefficient_map_only_updates_through_its_action():
    # two noise actions feed one coefficient, the third feeds another; the
    # remaining coefficient can never receive an observation
    fb = FeedbackState.fresh(3, DeviationSpec(), action_to_coeff=(2, 2, 0))
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
    fb = FeedbackState.fresh(k, DeviationSpec(), action_to_coeff=amap)
    for action, obs in pulls:
        route_and_update(fb, action, obs)
    assert fb.rounds() == len(pulls)
    assert sum(fb.obs_counts) == len(pulls)


def test_means_match_plain_average():
    rng = np.random.default_rng(3)
    fb = FeedbackState.fresh(2, DeviationSpec())
    values = rng.normal(size=200)
    for v in values:
        route_and_update(fb, 0, float(v))
    assert fb.means[0] == pytest.approx(float(np.mean(values)), abs=1e-12)


def test_sample_variance_estimator_matches_statistics():
    rng = np.random.default_rng(4)
    fb = FeedbackState.fresh(
        2, DeviationSpec(), estimator="sample_variance"
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
        DeviationSpec(),
        estimator="centered_square",
        centers=(1.0, 0.0),
    )
    for v in (2.0, 0.0):  # centered squares: 1.0, 1.0
        route_and_update(fb, 0, v)
    assert fb.estimates()[0] == pytest.approx(1.0)


def test_state_validation():
    with pytest.raises(ValueError, match="entries"):
        FeedbackState.fresh(3, DeviationSpec(), action_to_coeff=(0, 1))
    with pytest.raises(ValueError, match="in \\[0, 3\\)"):
        FeedbackState.fresh(3, DeviationSpec(), action_to_coeff=(0, 1, 3))
    with pytest.raises(ValueError, match="estimator"):
        FeedbackState.fresh(2, DeviationSpec(), estimator="median")
    with pytest.raises(ValueError, match="centers"):
        FeedbackState.fresh(2, DeviationSpec(), estimator="centered_square")


def test_reset_forgets_observations():
    fb = FeedbackState.fresh(2, DeviationSpec())
    route_and_update(fb, 0, 1.0)
    fb.reset()
    assert fb.obs_counts == [0, 0]
    assert fb.means == [0.0, 0.0]


# ---------------------------------------------------------------- estimates


def test_gradient_estimate_linear():
    fb = FeedbackState.fresh(2, DeviationSpec())
    route_and_update(fb, 0, 0.2)
    route_and_update(fb, 1, 0.4)
    ghat, radii = gradient_estimate(fb, LinearLoss.build((0.0, 1.0)), (0.5, 0.5))
    assert ghat == pytest.approx([0.2, 0.4])
    d = deviation(fb.deviation_spec, 2, 1, fb.deviation_spec.delta_at(2))
    assert radii == pytest.approx([d, d])


def test_gradient_estimate_exp_design_sensitivity():
    fb = FeedbackState.fresh(
        2, DeviationSpec(), estimator="centered_square", centers=(0.0, 0.0)
    )
    # centered squares of 2.0 are 4.0 -> sigma2 estimates (4, 4)... use
    # sqrt(2) draws for estimates (2, 2)
    v = math.sqrt(2.0)
    route_and_update(fb, 0, v)
    route_and_update(fb, 1, v)
    model = ExpDesignLoss.build((1.0, 4.0))
    ghat, radii = gradient_estimate(fb, model, (0.5, 0.5))
    assert ghat == pytest.approx([-8.0, -8.0])
    d = deviation(fb.deviation_spec, 2, 1, fb.deviation_spec.delta_at(2))
    assert radii == pytest.approx([4.0 * d, 4.0 * d])


def test_gradient_estimate_markowitz_risk_weight_sensitivity():
    fb = FeedbackState.fresh(2, DeviationSpec())
    route_and_update(fb, 0, 0.5)
    route_and_update(fb, 1, 0.5)
    model = MarkowitzLoss.build(((1.0, 0.0), (0.0, 1.0)), 2.0, (0.4, 0.6))
    ghat, radii = gradient_estimate(fb, model, (0.5, 0.5))
    assert ghat == pytest.approx([0.0, 0.0])
    d = deviation(fb.deviation_spec, 2, 1, fb.deviation_spec.delta_at(2))
    assert radii == pytest.approx([2.0 * d, 2.0 * d])


def test_gradient_estimate_requires_every_coefficient_observed():
    fb = FeedbackState.fresh(2, DeviationSpec())
    route_and_update(fb, 0, 0.2)
    with pytest.raises(ValueError, match="coefficient 1"):
        gradient_estimate(fb, LinearLoss.build((0.0, 1.0)), (0.5, 0.5))


def test_estimate_coverage_under_prop1_radius():
    # identity map, gaussian observations, fixed delta: the per-coefficient
    # radius must cover the estimation error in all but ~delta of trials
    mu = (0.1, 0.5, -0.3)
    model = LinearLoss.build(mu)
    spec = DeviationSpec(scale=2.0)
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


def test_deterministic_observations(monkeypatch):
    model = ObservationModel(kind="deterministic", means=(0.7, 0.1))
    draw = one_seed(model, 1)
    assert draw(0) == 0.7
    assert draw(0) == 0.7
    assert draw(1) == 0.1

    # constant streams build no generators, past several top-ups too
    def no_streams(seeds, keys):
        raise AssertionError("a deterministic sampler built random streams")

    monkeypatch.setattr(feedback, "seeded_streams", no_streams)
    block = ObservationSampler(model, (3, 4, 5))
    actions = np.random.default_rng(0).integers(0, 2, size=(300, 3))
    assert [block.draw(a).tolist() for a in actions] == [[model.means[a] for a in row] for row in actions]


def _seeds_to_check():
    rng = np.random.default_rng(8)
    return [0, 2**32 - 1, 2**32, 2**64 - 1] + rng.integers(0, 2**64, size=8, dtype=np.uint64).tolist()


@pytest.mark.parametrize("seed", _seeds_to_check())
def test_seeded_streams_match_numpy(seed):
    # stream (seed, key) is numpy's Generator(PCG64(SeedSequence((seed, key))))
    keys = [*range(5), POLICY_STREAM_TAG]
    gaussian = seeded_streams([seed], keys)
    bernoulli = seeded_streams([seed], keys)
    for key, ours, ours_b in zip(keys, gaussian, bernoulli):
        ref = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, key)))) for _ in range(2)]
        assert ours.bit_generator.state == ref[0].bit_generator.state
        assert ours.normal(0.3, 2.0, 8).tolist() == ref[0].normal(0.3, 2.0, 8).tolist()
        assert (ours_b.random(8) < 0.4).tolist() == (ref[1].random(8) < 0.4).tolist()


def test_seeded_streams_are_seed_major():
    seeds, keys = _seeds_to_check(), [0, 1, POLICY_STREAM_TAG]
    streams = seeded_streams(seeds, keys)
    want = [np.random.PCG64(np.random.SeedSequence((s, k))).state for s in seeds for k in keys]
    assert [g.bit_generator.state for g in streams] == want


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeded_streams_refuse_seeds_outside_uint64(seed):
    with pytest.raises(ValueError, match=re.escape("seeds must be in [0, 2**64)")):
        seeded_streams([1, seed], [0])


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


class CountingStream:
    """A generator stand-in that counts the values drawn from it."""

    def __init__(self, gen):
        self.gen = gen
        self.drawn = 0

    def normal(self, mean, sd, n):
        self.drawn += n
        return self.gen.normal(mean, sd, n)

    def random(self, n):
        self.drawn += n
        return self.gen.random(n)


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "deterministic"])
def test_draws_do_not_depend_on_chunk_or_block(kind, monkeypatch):
    # draw n of stream (seed, action) is the n-th value of that stream's
    # generator, whatever the refill size and whichever seeds share a block
    model = ObservationModel(kind=kind, means=(0.3, 0.6), sds=(1.0, 2.0))
    seeds = (11, 12, 13)
    streams = []
    for seed in seeds:
        gens = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, a)))) for a in (0, 1)]
        if kind == "gaussian":
            streams.append([g.normal(m, sd, size=700) for g, m, sd in zip(gens, model.means, model.sds)])
        elif kind == "bernoulli":
            streams.append([(g.random(700) < m).astype(float) for g, m in zip(gens, model.means)])
        else:
            streams.append([np.full(700, m) for m in model.means])

    def alone(actions):
        """Each seed's draws, in round order, from numpy's streams."""
        out = []
        for i, seed_streams in enumerate(streams):
            used = [0, 0]
            draws = []
            for a in actions[:, i]:
                draws.append(float(seed_streams[a][used[a]]))
                used[a] += 1
            out.append(draws)
        return out

    rng = np.random.default_rng(2)
    actions = rng.integers(0, 2, size=(700, 3))
    expected = alone(actions)
    for i, seed in enumerate(seeds):
        one = one_seed(model, seed)
        assert [one(int(a)) for a in actions[:, i]] == expected[i]
    # (CHUNK, BUFFER_BYTES, t_max, refill) for a block of 3 seeds x 2 actions
    cases = [
        (64, 1 << 20, None, 64),  # no horizon: CHUNK
        (7, 1 << 20, 13, 7),  # t_max // 2 = 6, floored at CHUNK; drawn past t_max
        (64, 1 << 20, 700, 350),  # capped by the horizon, under the bytes' 10922
        (64, 1 << 20, 333, 166),  # t_max not a multiple of refill: a short last top-up
        (64, 16 * 6 * 100, 10**6, 100),  # set by the bytes
    ]
    for chunk, buffer_bytes, t_max, refill in cases:
        monkeypatch.setattr(ObservationSampler, "CHUNK", chunk)
        monkeypatch.setattr(feedback, "BUFFER_BYTES", buffer_bytes)
        block = ObservationSampler(model, seeds, t_max)
        assert block.refill == refill
        rounds = [block.draw(a).tolist() for a in actions]
        assert [list(col) for col in zip(*rounds)] == expected, (chunk, buffer_bytes, t_max)

    # t_max = 13 with refill 6: top-ups at rounds 0 and 6 draw 6 values per
    # low stream, the one at round 12 only the 1 round left, and from t_max
    # on, top-ups of 6 resume.  Seed 11 always plays action 0, seed 12
    # alternates, seed 13 always plays action 1.
    monkeypatch.setattr(ObservationSampler, "CHUNK", 4)
    monkeypatch.setattr(feedback, "BUFFER_BYTES", 1 << 20)
    block = ObservationSampler(model, seeds, 13)
    assert block.refill == 6
    if block._gens is not None:
        block._gens[:] = [CountingStream(g) for g in block._gens]
    steady = np.array([[0, t % 2, 1] for t in range(20)])
    rounds = [block.draw(a).tolist() for a in steady[:13]]
    if block._gens is not None:
        # streams (seed, action) in seed-major order; 39 values used
        assert [g.drawn for g in block._gens] == [13, 6, 12, 12, 6, 13]
    rounds += [block.draw(a).tolist() for a in steady[13:]]
    if block._gens is not None:
        assert [g.drawn for g in block._gens] == [25, 6, 18, 18, 6, 25]
    assert [list(col) for col in zip(*rounds)] == alone(steady)


@pytest.mark.parametrize("seeds, k, refill", [(4, 2, 8192), (100, 3, 218), (64, 1024, 64)])
def test_buffers_stay_within_buffer_bytes(seeds, k, refill):
    # a block's buffers hold at most BUFFER_BYTES, or CHUNK-sized refills
    # where those need more, so wide K refills CHUNK at a time.
    # Deterministic streams size the same buffer with no generators.
    model = ObservationModel(kind="deterministic", means=(0.5,) * k)
    sampler = ObservationSampler(model, range(seeds), t_max=10**6)
    assert sampler.refill == refill
    assert sampler._buf.nbytes <= max(feedback.BUFFER_BYTES, 16 * seeds * k * ObservationSampler.CHUNK)


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
