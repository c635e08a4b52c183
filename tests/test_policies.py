import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loop
from reference_loop import (
    FeedbackState,
    OccupationState as ListOccupation,
    argmin_tie_break,
    lcb_bandit_select,
    oracle_fw_select,
    route_and_update,
    ucb_fw_select,
    variance_stopping_tau,
)
from ucbfw.feedback import (
    DeviationSpec,
    FeedbackBlock,
    ObservationModel,
    ObservationSampler,
)
from ucbfw.losses import (
    FAMILIES,
    CobbDouglasLoss,
    ExpDesignLoss,
    LinearLoss,
    QuadraticLoss,
    SeparableLoss,
    sensitivity,
)
from ucbfw.policies import (
    DoublingUcbFwPolicy,
    FixedAllocationPolicy,
    LcbBanditPolicy,
    OracleFwPolicy,
    PresampleConfig,
    PresampledUcbFwPolicy,
    UcbFwPolicy,
    UniformPolicy,
    doubling_boundaries,
    epsilon_diagnostic,
    lowest_argmin,
)
from ucbfw.simplex import OccupationState


def make_occ(counts):
    occ = ListOccupation(len(counts))
    for i, n in enumerate(counts):
        for _ in range(n):
            occ.apply(i)
    return occ


def identity_fb(spec, values_per_coeff, **kw):
    fb = FeedbackState.fresh(len(values_per_coeff), spec, **kw)
    for i, values in enumerate(values_per_coeff):
        for v in values:
            route_and_update(fb, i, v)
    return fb


# The policy classes advance blocks of seeds; these helpers build one-seed
# blocks and run them with plain-int actions and float observations.


def block_occ(counts):
    occ = OccupationState(len(counts), seeds=1)
    occ.counts[0] = counts
    occ.t = sum(counts)
    return occ


def block_fb(spec, values_per_coeff, **kw):
    fb = FeedbackBlock(1, len(values_per_coeff), spec, **kw)
    for i, values in enumerate(values_per_coeff):
        for v in values:
            fb.update(np.array([i]), np.array([v]))
    return fb


def pick(policy, occ):
    return int(policy.select(occ)[0])


def step(policy, occ, a, obs):
    a = np.array([a])
    policy.observe(a, np.array([obs]))
    occ.apply(a)


# ---------------------------------------------------------------- tie break


def test_argmin_lowest_index():
    assert argmin_tie_break([0.2, 0.1, 0.1]) == 1
    assert argmin_tie_break([0.1, 0.1]) == 0
    assert argmin_tie_break([-0.2, 0.45, 0.1]) == 0


def test_argmin_lowest_index_passes_over_nan_as_fmin_does():
    # the plug-in selection's rule: NaN counts as +inf, an all-NaN row gives 0
    nan = math.nan
    rows = [
        [nan, 0.5, 0.2],
        [nan, 0.1, 0.1],
        [0.3, nan, 0.1],
        [0.1, nan, 0.1],
        [0.4, 0.2, nan],
        [0.2, 0.2, nan],
        [nan, nan, nan],
        [nan, math.inf, 0.0],
        [math.inf, nan, math.inf],
        [nan, -math.inf, nan],
    ]
    for row in rows:
        assert argmin_tie_break(row) == np.fmin(np.array(row), np.inf).argmin(), row


# ---------------------------------------------------------------- selection


def test_cold_start_forces_unobserved_coefficient():
    spec = DeviationSpec()
    fb = identity_fb(spec, [[0.1, 0.2, 0.3], [], [0.4, 0.5]])
    occ = make_occ((3, 0, 2))
    assert ucb_fw_select(fb, occ, LinearLoss.build((0.0, 0.0, 0.0))) == 1


def test_round_robin_prefix():
    spec = DeviationSpec()
    model = LinearLoss.build((0.3, 0.1, 0.2, 0.4))
    fb = FeedbackBlock(1, 4, spec)
    policy = UcbFwPolicy(model, fb)
    occ = OccupationState(4, seeds=1)
    prefix = []
    for _ in range(4):
        a = pick(policy, occ)
        prefix.append(a)
        step(policy, occ, a, 0.0)
    assert prefix == [0, 1, 2, 3]


def test_noiseless_selection_is_argmin_of_estimates():
    spec = DeviationSpec(scale=0.0)
    fb = identity_fb(spec, [[0.5], [0.2], [0.9]])
    occ = make_occ((1, 1, 1))
    assert ucb_fw_select(fb, occ, LinearLoss.build((0.0, 0.0, 0.0))) == 1


def test_less_explored_action_wins_on_equal_estimates():
    spec = DeviationSpec()
    fb = identity_fb(spec, [[0.5] * 5, [0.5]])
    occ = make_occ((5, 1))
    assert ucb_fw_select(fb, occ, LinearLoss.build((0.0, 0.0))) == 1


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.lists(st.floats(-2, 2), min_size=1, max_size=6),
        ),
        min_size=2,
        max_size=4,
    )
)
def test_block_selection_matches_reference_selection(groups):
    spec = DeviationSpec()
    values = [g[0] for g in groups]
    model = LinearLoss.build((0.0,) * len(values))
    counts = [len(v) for v in values]
    policy = UcbFwPolicy(model, block_fb(spec, values))
    assert pick(policy, block_occ(counts)) == ucb_fw_select(
        identity_fb(spec, values), make_occ(counts), model
    )


def test_block_selection_matches_reference_with_sensitivity():
    # exp_design multiplies the radius by 1/p_i^2; both paths must agree
    spec = DeviationSpec()
    model = ExpDesignLoss.build((1.0, 4.0))
    kw = dict(estimator="centered_square", centers=(0.0, 0.0))
    fb = FeedbackState.fresh(2, spec, **kw)
    block = FeedbackBlock(1, 2, spec, **kw)
    rng = np.random.default_rng(6)
    occ = ListOccupation(2)
    for a in rng.integers(0, 2, size=40):
        obs = float(rng.normal())
        route_and_update(fb, int(a), obs)
        block.update(np.array([a]), np.array([obs]))
        occ.apply(int(a))
    policy = UcbFwPolicy(model, block)
    assert pick(policy, block_occ(occ.counts)) == ucb_fw_select(fb, occ, model)


# ---------------------------------------------------------------- baselines


def test_lcb_bandit_examples():
    spec = DeviationSpec()
    fb = identity_fb(spec, [[0.3], [0.3]])
    assert lcb_bandit_select(fb) == 0
    fb2 = identity_fb(spec, [[], [0.1] * 5])
    assert lcb_bandit_select(fb2) == 0  # cold start
    # the scores are the estimator's estimates: sample variances 8 and 2
    # here, where the raw draw means 0 and 2 would pick action 0
    spec0 = DeviationSpec(scale=0.0)
    values = [[2.0, -2.0], [1.0, 3.0]]
    fb3 = identity_fb(spec0, values, estimator="sample_variance")
    assert fb3.estimates() == [8.0, 2.0]
    assert lcb_bandit_select(fb3) == 1
    block = block_fb(spec0, values, estimator="sample_variance")
    assert pick(LcbBanditPolicy(block), block_occ((2, 2))) == 1


def test_linear_trace_equivalence():
    # on a linear loss the plug-in gradient IS the empirical mean vector, so
    # the scalar bandit and the FW policy pick identical actions pathwise
    spec = DeviationSpec()
    model = LinearLoss.build((0.0, 0.5))
    obs_model = ObservationModel(kind="gaussian", means=(0.0, 0.5), sds=(1.0, 1.0))

    def run(policy_cls, *args):
        sampler = ObservationSampler(obs_model, (77,))
        fb = FeedbackBlock(1, 2, spec)
        policy = policy_cls(*args, fb)
        occ = OccupationState(2, seeds=1)
        actions = []
        for _ in range(2000):
            a = pick(policy, occ)
            actions.append(a)
            step(policy, occ, a, sampler.draw(a)[0])
        return actions

    ucb_actions = run(lambda fb_: UcbFwPolicy(model, fb_))
    lcb_actions = run(lambda fb_: LcbBanditPolicy(fb_))
    assert ucb_actions == lcb_actions


def test_oracle_fw_examples():
    assert oracle_fw_select(QuadraticLoss.build((0.5, 0.5)), (1.0, 0.0)) == 1
    assert oracle_fw_select(LinearLoss.build((0.1, 0.5)), (0.7, 0.3)) == 0
    assert oracle_fw_select(CobbDouglasLoss.build((0.5, 0.5)), (0.25, 0.75)) == 0


def test_noiseless_ucb_collapses_to_oracle():
    theta = (0.2, 0.3, 0.5)
    model = QuadraticLoss.build(theta)
    obs_model = ObservationModel(kind="deterministic", means=theta)

    def run(make_policy):
        sampler = ObservationSampler(obs_model, (3,))
        policy = make_policy()
        occ = OccupationState(3, seeds=1)
        actions = []
        for _ in range(500):
            a = pick(policy, occ)
            actions.append(a)
            step(policy, occ, a, sampler.draw(a)[0])
        return actions

    ucb = run(lambda: UcbFwPolicy(model, FeedbackBlock(1, 3, DeviationSpec(scale=0.0))))
    oracle = run(lambda: OracleFwPolicy(model))
    assert ucb == oracle


def test_uniform_policy_is_seeded_and_balanced():
    occ = OccupationState(2, seeds=1)
    a = UniformPolicy(2, seeds=(4,))
    b = UniformPolicy(2, seeds=(4,))
    seq_a = [pick(a, occ) for _ in range(1000)]
    seq_b = [pick(b, occ) for _ in range(1000)]
    assert seq_a == seq_b
    assert set(seq_a) == {0, 1}
    assert 350 < sum(seq_a) < 650


def test_fixed_allocation_tracks_weights_within_one():
    policy = FixedAllocationPolicy((0.25, 0.75))
    occ = OccupationState(2, seeds=1)
    for _ in range(1000):
        occ.apply(policy.select(occ))
        for i, w in enumerate((0.25, 0.75)):
            assert abs(occ.counts[0, i] - w * occ.t) <= 1.0


# ---------------------------------------------------------------- diagnostics


def one_row_epsilon(model, p, chosen):
    """`epsilon_diagnostic` at one point, as a one-row block."""
    return epsilon_diagnostic(model, np.array([p], dtype=float), np.array([chosen]))


def test_epsilon_examples():
    model = QuadraticLoss.build((0.5, 0.5))
    assert one_row_epsilon(model, (1.0, 0.0), chosen=0).tolist() == [pytest.approx(1.0)]
    assert lowest_argmin(model.true_gradient(np.array([[1.0, 0.0]]))).tolist() == [1]
    assert one_row_epsilon(model, (1.0, 0.0), chosen=1).tolist() == [0.0]


def test_epsilon_linear_equals_gap():
    model = LinearLoss.build((0.1, 0.5))
    assert one_row_epsilon(model, (0.5, 0.5), chosen=1).tolist() == [pytest.approx(0.4)]
    assert lowest_argmin(model.true_gradient(np.array([[0.5, 0.5]]))).tolist() == [0]


@given(
    st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    st.integers(0, 2),
)
def test_epsilon_nonnegative_and_equal_to_reference(raw, chosen):
    total = sum(raw)
    p = tuple(x / total for x in raw)
    model = QuadraticLoss.build((0.2, 0.3, 0.5))
    eps = one_row_epsilon(model, p, chosen).tolist()
    assert eps == [reference_loop.epsilon_diagnostic(model, p, chosen).epsilon]
    assert eps[0] >= 0.0


@given(st.lists(st.integers(0, 1), min_size=1, max_size=50))
def test_epsilon_linear_in_gap_set(actions):
    model = LinearLoss.build((0.1, 0.5))
    occ = OccupationState(2, seeds=1)
    for a in actions:
        eps = one_row_epsilon(model, [0.5, 0.5], a)
        assert eps[0] in (0.0, pytest.approx(0.4))
        occ.apply(a)


def _constant_gradient_models():
    mus = st.lists(st.floats(-2, 2), min_size=2, max_size=4)

    def separable(mu):
        lows = st.lists(st.floats(-1, 1), min_size=len(mu), max_size=len(mu))
        return lows.map(
            lambda lo: SeparableLoss.build(mu, [((-3.0, 0.0, 3.0), (v, v + 0.5, v + 2.0)) for v in lo])
        )

    return st.one_of(mus.map(LinearLoss.build), mus.flatmap(separable))


def test_constant_gradient_families_are_linear_and_separable():
    # the property below draws instances of exactly these families
    assert sorted(c.kind for c in FAMILIES.values() if c.constant_gradient) == ["linear", "separable"]


@settings(max_examples=60)
@given(_constant_gradient_models(), st.data())
def test_constant_gradient_families_do_not_read_p(model, data):
    # the engine passes p=None to these families and takes their epsilon
    # from the cached costs; every answer must be the one at the points
    k = model.num_actions
    s = data.draw(st.integers(1, 5))
    row = st.lists(st.floats(-3, 3), min_size=k, max_size=k)
    params = np.array(data.draw(st.lists(row, min_size=s, max_size=s)))
    weights = st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(lambda w: sum(w) > 0.0)
    p = np.array([[w / sum(ws) for w in ws] for ws in data.draw(st.lists(weights, min_size=s, max_size=s))])
    chosen = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=s, max_size=s)))
    assert model.gradient(params, None).tolist() == model.gradient(params, p).tolist()
    at_none, at_p = sensitivity(model, None), sensitivity(model, p)
    assert (at_none is None and at_p is None) or at_none.tolist() == at_p.tolist()
    eps = epsilon_diagnostic(model, None, chosen)
    g = model.true_gradient(p)
    star = g.argmin(axis=1)
    assert lowest_argmin(g).tolist() == [model.star] * s
    assert eps.tolist() == (g[np.arange(s), chosen] - g[np.arange(s), star]).tolist()
    for i in range(s):
        want = reference_loop.epsilon_diagnostic(model, p[i].tolist(), int(chosen[i]))
        assert eps[i] == want.epsilon


def _tied_constant_gradient_models():
    # costs that tie often, -0.0 against 0.0 included; the test above pins
    # the constant-gradient families to exactly these two
    mus = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), min_size=2, max_size=5)
    table = st.sampled_from(
        [
            ((-3.0, 0.0, 3.0), (1.0, 1.0, 1.0)),
            ((-1.0, 1.0), (-0.0, 0.0)),
            ((-1.0, 0.0, 1.0), (2.0, 0.5, 0.5)),
            ((0.0, 1.0), (-1.0, 2.0)),
        ]
    )

    def separable(mu):
        tables = st.lists(table, min_size=len(mu), max_size=len(mu))
        return tables.map(lambda t: SeparableLoss.build(mu, t))

    return st.one_of(mus.map(LinearLoss.build), mus.flatmap(separable))


@settings(max_examples=100)
@given(_tied_constant_gradient_models(), st.data())
def test_constant_gradient_epsilon_reads_the_cached_gaps(model, data):
    costs = model.costs_array.tolist()
    star = costs.index(min(costs))  # the lowest index of a minimum
    assert model.star == star
    assert not model.gaps.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        model.gaps[0] = 1.0
    k = model.num_actions
    chosen = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=6)))
    eps = epsilon_diagnostic(model, None, chosen)
    assert lowest_argmin(model.true_gradient(np.full((1, k), 1.0 / k))).tolist() == [star]
    want = np.array([costs[a] - costs[star] for a in chosen.tolist()])
    assert eps.tobytes() == want.tobytes()


# ---------------------------------------------------------------- stopping


def test_stopping_deterministic_example():
    res = variance_stopping_tau([0.9] * 100, horizon=100, delta=0.1)
    assert res.triggered
    assert res.tau == 19
    assert res.mean == pytest.approx(0.9)


def test_stopping_zero_stream_never_triggers():
    res = variance_stopping_tau([0.0] * 100, horizon=100, delta=0.1)
    assert not res.triggered
    assert res.tau == 100


def test_stopping_validation():
    with pytest.raises(ValueError, match="out of"):
        variance_stopping_tau([1.5], horizon=10, delta=0.1)
    with pytest.raises(ValueError, match="before the horizon"):
        variance_stopping_tau([0.0] * 5, horizon=10, delta=0.1)
    with pytest.raises(ValueError, match="delta"):
        variance_stopping_tau([0.5], horizon=10, delta=0.0)
    with pytest.raises(ValueError, match="horizon"):
        variance_stopping_tau([0.5], horizon=0, delta=0.1)


def test_stopping_tau_bound_monte_carlo():
    horizon, delta = 100, 0.1
    cap = 9.0 * math.log(2 * horizon / delta) / (2 * 0.25) + 1.0
    rng = np.random.default_rng(15)
    hits = 0
    for _ in range(200):
        stream = (rng.random(horizon) < 0.5).astype(float)
        res = variance_stopping_tau(stream, horizon, delta)
        if res.triggered:
            hits += 1
            assert res.tau <= cap
    assert hits >= 190  # mean-0.5 streams clear the threshold well before T


# ---------------------------------------------------------------- doubling


def test_doubling_boundaries_beta_half():
    assert doubling_boundaries(0.5, 10_000) == [8, 55, 2981]
    assert doubling_boundaries(0.5, 7) == []
    with pytest.raises(ValueError, match="beta"):
        doubling_boundaries(0.0, 100)
    with pytest.raises(ValueError, match="beta"):
        doubling_boundaries(0.7, 100)


@pytest.mark.parametrize("t_max", [7, 100, 2981, 10_000, 100_000])
def test_doubling_boundaries_match_the_one_step_loop(t_max):
    for beta in [0.5, 0.4, 0.3, 0.1, 0.05, 0.01, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5]:
        assert doubling_boundaries(beta, t_max) == reference_loop.doubling_boundaries(beta, t_max), beta


def test_doubling_boundaries_of_a_tiny_beta_are_quick():
    # r**j needs about log(log t)/beta steps to pass log(t); one j at a time
    # that took minutes at beta = 1e-9, and every end from 3 on is a restart
    start = time.perf_counter()
    assert doubling_boundaries(1e-9, 10_000) == list(range(3, 10_001))
    assert time.perf_counter() - start < 1.0


def _run_policy(policy, obs_model, seed, t_max, k):
    sampler = ObservationSampler(obs_model, (seed,))
    occ = OccupationState(k, seeds=1)
    actions = []
    for _ in range(t_max):
        a = pick(policy, occ)
        actions.append(a)
        step(policy, occ, a, sampler.draw(a)[0])
    return actions, occ


def test_doubling_matches_inner_before_first_boundary():
    spec = DeviationSpec()
    model = LinearLoss.build((0.0, 0.5))
    obs_model = ObservationModel(kind="gaussian", means=(0.0, 0.5), sds=(1.0, 1.0))
    plain, _ = _run_policy(
        UcbFwPolicy(model, FeedbackBlock(1, 2, spec)), obs_model, 21, 8, 2
    )
    doubling = DoublingUcbFwPolicy(model, FeedbackBlock(1, 2, spec), 0.5, 8)
    restarted, _ = _run_policy(doubling, obs_model, 21, 8, 2)
    assert restarted == plain


def test_doubling_resets_estimator_but_not_occupation():
    spec = DeviationSpec()
    model = LinearLoss.build((0.0, 0.5))
    obs_model = ObservationModel(kind="gaussian", means=(0.0, 0.5), sds=(1.0, 1.0))
    policy = DoublingUcbFwPolicy(model, FeedbackBlock(1, 2, spec), 0.5, 100)
    _, occ = _run_policy(policy, obs_model, 22, 100, 2)
    assert occ.t == 100
    assert policy.block == 2  # crossed 8 and 55
    # estimator only remembers observations after the latest restart
    assert policy.fb.obs_counts.sum() == 100 - 55


# ---------------------------------------------------------------- presample


def exp_design_block(spec=None):
    model = ExpDesignLoss.build((1.0, 4.0))
    fb = FeedbackBlock(
        1, 2, spec or DeviationSpec(), estimator="centered_square", centers=(0.0, 0.0)
    )
    return model, fb


def test_presample_known_brackets_floor_enforcement():
    cfg = PresampleConfig(brackets=((1.0, 1.0), (2.0, 2.0)))
    policy = PresampledUcbFwPolicy(*exp_design_block(), cfg)
    assert policy.phase1_end_t[0] == 0
    assert policy.floors[0] == pytest.approx([1 / 3, 2 / 3])
    occ = block_occ((2, 7))  # arm 0 at 2/9 < 1/3
    assert pick(policy, occ) == 0


def test_presample_defers_when_floors_hold():
    model, fb = exp_design_block()
    cfg = PresampleConfig(brackets=((1.0, 2.0), (2.0, 3.0)))
    policy = PresampledUcbFwPolicy(model, fb, cfg)
    assert policy.floors[0] == pytest.approx([0.2, 0.4])
    rng = np.random.default_rng(8)
    occ = OccupationState(2, seeds=1)
    for a in rng.integers(0, 2, size=10):
        step(policy, occ, int(a), float(rng.normal()))
    occ2 = block_occ((5, 5))  # both above floor at t=10
    assert pick(policy, occ2) == pick(UcbFwPolicy(model, fb), occ2)


def test_presample_stopping_mode_reaches_tracking():
    model = ExpDesignLoss.build((1.0, 4.0))
    obs_model = ObservationModel(kind="gaussian", means=(0.0, 0.0), sds=(1.0, 2.0))
    cfg = PresampleConfig(delta=0.1, variance_cap=8.0, horizon=3000)
    policy = PresampledUcbFwPolicy(*exp_design_block(), cfg)
    sampler = ObservationSampler(obs_model, (30,))
    occ = OccupationState(2, seeds=1)
    for _ in range(3000):
        a = pick(policy, occ)
        step(policy, occ, a, sampler.draw(a)[0])
    assert policy.phase1_end_t[0] > 0
    assert all(policy.stopping_triggered[0])
    assert all(lo <= hi for lo, hi in policy.brackets_hat[0])
    assert sum(policy.floors[0]) == pytest.approx(1 / math.sqrt(3))
    # pathwise floor contract after phase 1
    t, counts = occ.t, occ.counts[0]
    for i, f in enumerate(policy.floors[0]):
        assert counts[i] / t >= f - 5.0 / t


def test_presample_config_validation():
    with pytest.raises(ValueError, match="bracket 0"):
        PresampleConfig(brackets=((2.0, 1.0),))
    with pytest.raises(ValueError, match="delta"):
        PresampleConfig(delta=1.0)
    with pytest.raises(ValueError, match="cap"):
        PresampleConfig(variance_cap=0.0)
    with pytest.raises(ValueError, match="horizon"):
        PresampleConfig(horizon=0)
    # None, not 0, means the presample horizon
    for rounds in (0, -5):
        with pytest.raises(ValueError, match=f"max_rounds_per_arm must be >= 1, got {rounds}"):
            PresampleConfig(max_rounds_per_arm=rounds)
    assert PresampleConfig(max_rounds_per_arm=1).max_rounds_per_arm == 1
    with pytest.raises(ValueError, match="one bracket per arm"):
        PresampledUcbFwPolicy(*exp_design_block(), PresampleConfig(brackets=((1.0, 1.0),)))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_presample_config_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match="variance cap must be finite"):
        PresampleConfig(variance_cap=value)
    with pytest.raises(ValueError, match="bracket 0 must satisfy"):
        PresampleConfig(brackets=((0.5, value),))


# ---------------------------------------------------------------- block argmin


def test_block_argmin_follows_the_scalar_rules_row_by_row():
    rng = np.random.default_rng(12)
    values = rng.integers(0, 3, size=(40, 4)).astype(float)  # many ties
    values[3, 2] = np.nan
    values[5, 1:3] = np.nan
    values[6] = np.nan
    values[8, 0] = -np.inf
    values[9, 3] = np.inf
    values[10, 0] = np.nan
    values[11, 1:3] = (np.inf, -np.inf)
    # row 6 is all NaN, which gives action 0 as it does alone
    assert lowest_argmin(values).tolist() == [argmin_tie_break(r) for r in values.tolist()]


def test_plug_in_selection_passes_over_nan_scores():
    # the engine's lowest-index rule is the per-seed loop's: NaN scores are
    # passed over and an all-NaN row picks action 0
    means = [
        [math.nan, 0.5, 0.2],
        [0.3, math.nan, 0.1],
        [math.nan, math.nan, math.nan],
        [-math.inf, math.nan, 0.0],
        [math.inf, math.nan, math.inf],
    ]
    fb = FeedbackBlock(len(means), 3, DeviationSpec(scale=0.0))
    fb.obs_counts[:] = 1.0
    fb.means[:] = means
    fb.rounds = 3
    occ = OccupationState(3, seeds=len(means))
    occ.counts[:] = 1.0
    occ.t = 3
    policy = UcbFwPolicy(LinearLoss.build((0.0, 0.0, 0.0)), fb)
    assert policy.select(occ).tolist() == [argmin_tie_break(r) for r in means]
    # a subset of the seeds, as forced exploration passes its free rows
    rows = np.array([4, 1, 2])
    assert policy._plug_in(occ, rows).tolist() == [argmin_tie_break(means[i]) for i in rows]
    # the linear plug-in gradient is the running means themselves, which
    # scoring must leave as they were
    np.testing.assert_array_equal(fb.means, means)
