import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loop
from reference_loop import (
    FeedbackState,
    OccupationState as ListOccupation,
    lcb_bandit_select,
    oracle_fw_select,
    route_and_update,
    ucb_fw_select,
)
from ucbfw.feedback import (
    DeviationSpec,
    FeedbackBlock,
    ObservationModel,
    ObservationSampler,
)
from ucbfw.losses import (
    cobb_douglas_loss,
    exp_design_loss,
    linear_loss,
    quadratic_loss,
)
from ucbfw.policies import (
    DoublingUcbFwPolicy,
    FixedAllocationPolicy,
    LcbBanditPolicy,
    OracleFwPolicy,
    PolicySpec,
    PresampleConfig,
    PresampledUcbFwPolicy,
    UcbFwPolicy,
    UniformPolicy,
    argmin_tie_break,
    doubling_boundaries,
    epsilon_diagnostic,
    variance_stopping_tau,
)
from ucbfw.simplex import OccupationState


def make_occ(counts):
    occ = ListOccupation(len(counts))
    for i, n in enumerate(counts):
        for _ in range(n):
            occ.apply(i)
    return occ


def identity_fb(spec, values_per_coeff):
    fb = FeedbackState.fresh(len(values_per_coeff), spec)
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


def test_argmin_seeded_is_reproducible():
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    values = [0.5, 0.5, 0.5]
    picks1 = [argmin_tie_break(values, "seeded_random", rng1) for _ in range(20)]
    picks2 = [argmin_tie_break(values, "seeded_random", rng2) for _ in range(20)]
    assert picks1 == picks2
    assert set(picks1) <= {0, 1, 2}
    assert len(set(picks1)) > 1  # actually randomizes


def test_argmin_seeded_unique_min_needs_no_rng():
    assert argmin_tie_break([0.3, 0.2], "seeded_random") == 1


def test_argmin_seeded_tie_without_rng_errors():
    with pytest.raises(ValueError, match="rng"):
        argmin_tie_break([0.1, 0.1], "seeded_random")


# ---------------------------------------------------------------- selection


def test_cold_start_forces_unobserved_coefficient():
    spec = DeviationSpec.standard()
    fb = identity_fb(spec, [[0.1, 0.2, 0.3], [], [0.4, 0.5]])
    occ = make_occ((3, 0, 2))
    assert ucb_fw_select(fb, occ, linear_loss((0.0, 0.0, 0.0))) == 1


def test_round_robin_prefix():
    spec = DeviationSpec.standard()
    model = linear_loss((0.3, 0.1, 0.2, 0.4))
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
    spec = DeviationSpec.noiseless()
    fb = identity_fb(spec, [[0.5], [0.2], [0.9]])
    occ = make_occ((1, 1, 1))
    assert ucb_fw_select(fb, occ, linear_loss((0.0, 0.0, 0.0))) == 1


def test_less_explored_action_wins_on_equal_estimates():
    spec = DeviationSpec.standard()
    fb = identity_fb(spec, [[0.5] * 5, [0.5]])
    occ = make_occ((5, 1))
    assert ucb_fw_select(fb, occ, linear_loss((0.0, 0.0))) == 1


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
    spec = DeviationSpec.standard()
    values = [g[0] for g in groups]
    model = linear_loss((0.0,) * len(values))
    counts = [len(v) for v in values]
    policy = UcbFwPolicy(model, block_fb(spec, values))
    assert pick(policy, block_occ(counts)) == ucb_fw_select(
        identity_fb(spec, values), make_occ(counts), model
    )


def test_block_selection_matches_reference_with_sensitivity():
    # exp_design multiplies the radius by 1/p_i^2; both paths must agree
    spec = DeviationSpec.standard()
    model = exp_design_loss((1.0, 4.0))
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
    spec = DeviationSpec.standard()
    fb = identity_fb(spec, [[0.3], [0.3]])
    assert lcb_bandit_select(fb, make_occ((1, 1))) == 0
    fb2 = identity_fb(spec, [[], [0.1] * 5])
    assert lcb_bandit_select(fb2, make_occ((0, 5))) == 0  # cold start


def test_linear_trace_equivalence():
    # on a linear loss the plug-in gradient IS the empirical mean vector, so
    # the scalar bandit and the FW policy pick identical actions pathwise
    spec = DeviationSpec.standard()
    model = linear_loss((0.0, 0.5))
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
    assert oracle_fw_select(quadratic_loss((0.5, 0.5)), (1.0, 0.0)) == 1
    assert oracle_fw_select(linear_loss((0.1, 0.5)), (0.7, 0.3)) == 0
    assert oracle_fw_select(cobb_douglas_loss((0.5, 0.5)), (0.25, 0.75)) == 0


def test_noiseless_ucb_collapses_to_oracle():
    theta = (0.2, 0.3, 0.5)
    model = quadratic_loss(theta)
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

    ucb = run(lambda: UcbFwPolicy(model, FeedbackBlock(1, 3, DeviationSpec.noiseless())))
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
    model = quadratic_loss((0.5, 0.5))
    d = one_row_epsilon(model, (1.0, 0.0), chosen=0)
    assert d.epsilon.tolist() == [pytest.approx(1.0)]
    assert d.oracle_action.tolist() == [1]
    same = one_row_epsilon(model, (1.0, 0.0), chosen=1)
    assert same.epsilon.tolist() == [0.0]


def test_epsilon_linear_equals_gap():
    model = linear_loss((0.1, 0.5))
    d = one_row_epsilon(model, (0.5, 0.5), chosen=1)
    assert d.epsilon.tolist() == [pytest.approx(0.4)]
    assert d.oracle_action == 0


@given(
    st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    st.integers(0, 2),
)
def test_epsilon_nonnegative_and_equal_to_reference(raw, chosen):
    total = sum(raw)
    p = tuple(x / total for x in raw)
    model = quadratic_loss((0.2, 0.3, 0.5))
    eps = one_row_epsilon(model, p, chosen).epsilon.tolist()
    assert eps == [reference_loop.epsilon_diagnostic(model, p, chosen).epsilon]
    assert eps[0] >= 0.0


@given(st.lists(st.integers(0, 1), min_size=1, max_size=50))
def test_epsilon_linear_in_gap_set(actions):
    model = linear_loss((0.1, 0.5))
    occ = OccupationState(2, seeds=1)
    for a in actions:
        d = one_row_epsilon(model, [0.5, 0.5], a)
        assert d.epsilon[0] in (0.0, pytest.approx(0.4))
        occ.apply(a)


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
    spec = DeviationSpec.standard()
    model = linear_loss((0.0, 0.5))
    obs_model = ObservationModel(kind="gaussian", means=(0.0, 0.5), sds=(1.0, 1.0))
    plain, _ = _run_policy(
        UcbFwPolicy(model, FeedbackBlock(1, 2, spec)), obs_model, 21, 8, 2
    )
    inner = UcbFwPolicy(model, FeedbackBlock(1, 2, spec))
    wrapped, _ = _run_policy(DoublingUcbFwPolicy(inner, 0.5, 8), obs_model, 21, 8, 2)
    assert wrapped == plain


def test_doubling_resets_estimator_but_not_occupation():
    spec = DeviationSpec.standard()
    model = linear_loss((0.0, 0.5))
    obs_model = ObservationModel(kind="gaussian", means=(0.0, 0.5), sds=(1.0, 1.0))
    inner = UcbFwPolicy(model, FeedbackBlock(1, 2, spec))
    policy = DoublingUcbFwPolicy(inner, 0.5, 100)
    _, occ = _run_policy(policy, obs_model, 22, 100, 2)
    assert occ.t == 100
    assert policy.block == 2  # crossed 8 and 55
    # estimator only remembers observations after the latest restart
    assert inner.fb.obs_counts.sum() == 100 - 55


# ---------------------------------------------------------------- presample


def exp_design_inner(spec=None):
    model = exp_design_loss((1.0, 4.0))
    fb = FeedbackBlock(
        1, 2, spec or DeviationSpec.standard(), estimator="centered_square", centers=(0.0, 0.0)
    )
    return model, UcbFwPolicy(model, fb)


def test_presample_known_brackets_floor_enforcement():
    _, inner = exp_design_inner()
    cfg = PresampleConfig(brackets=((1.0, 1.0), (2.0, 2.0)))
    policy = PresampledUcbFwPolicy(inner, cfg, centers=(0.0, 0.0))
    assert policy.phase1_end_t[0] == 0
    assert policy.floors[0] == pytest.approx([1 / 3, 2 / 3])
    occ = block_occ((2, 7))  # arm 0 at 2/9 < 1/3
    assert pick(policy, occ) == 0


def test_presample_defers_when_floors_hold():
    _, inner = exp_design_inner()
    cfg = PresampleConfig(brackets=((1.0, 2.0), (2.0, 3.0)))
    policy = PresampledUcbFwPolicy(inner, cfg, centers=(0.0, 0.0))
    assert policy.floors[0] == pytest.approx([0.2, 0.4])
    rng = np.random.default_rng(8)
    occ = OccupationState(2, seeds=1)
    for a in rng.integers(0, 2, size=10):
        step(policy, occ, int(a), float(rng.normal()))
    occ2 = block_occ((5, 5))  # both above floor at t=10
    assert pick(policy, occ2) == pick(inner, occ2)


def test_presample_stopping_mode_reaches_tracking():
    model = exp_design_loss((1.0, 4.0))
    obs_model = ObservationModel(kind="gaussian", means=(0.0, 0.0), sds=(1.0, 2.0))
    _, inner = exp_design_inner()
    cfg = PresampleConfig(delta=0.1, variance_cap=8.0, horizon=3000)
    policy = PresampledUcbFwPolicy(inner, cfg, centers=(0.0, 0.0))
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
    _, inner = exp_design_inner()
    with pytest.raises(ValueError, match="one bracket per arm"):
        PresampledUcbFwPolicy(
            inner, PresampleConfig(brackets=((1.0, 1.0),)), centers=(0.0, 0.0)
        )


def test_policy_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        PolicySpec(kind="greedy")
    with pytest.raises(ValueError, match="tie break"):
        PolicySpec(tie_break="coin_flip")
    with pytest.raises(ValueError, match="weights"):
        PolicySpec(kind="fixed_allocation")
    with pytest.raises(ValueError, match="presample"):
        PolicySpec(kind="presampled_ucb_fw")
    with pytest.raises(ValueError, match="beta"):
        PolicySpec(doubling_beta=0.9)


# ---------------------------------------------------------------- block argmin


def _strict_scan(row):
    # the plug-in selection's rule: first strict minimum, NaN passed over
    best, best_u = 0, math.inf
    for i, u in enumerate(row):
        if u < best_u:
            best, best_u = i, u
    return best


def test_block_argmin_follows_the_scalar_rules_row_by_row():
    from ucbfw.policies import _TIE_STREAM_TAG, _TieBreaker

    rng = np.random.default_rng(12)
    values = rng.integers(0, 3, size=(40, 4)).astype(float)  # many ties
    values[3, 2] = np.nan
    values[5, 1:3] = np.nan
    values[6] = np.nan
    values[8, 0] = -np.inf
    values[9, 3] = np.inf
    seeds = tuple(range(500, 540))
    lowest = _TieBreaker("lowest_index", seeds)
    clean = np.delete(values, [6], axis=0)
    assert lowest.argmin(clean).tolist() == [argmin_tie_break(r) for r in clean.tolist()]
    with pytest.raises(ValueError):
        lowest.argmin(values[6:7])  # an all-NaN row fails as it does alone
    seeded = _TieBreaker("seeded_random", seeds)
    rows = np.arange(0, 40, 2)  # rows of a subset, named by their seed index
    finite = np.nan_to_num(values[rows], nan=5.0)
    picked = seeded.argmin(finite, rows)
    for i, row in enumerate(rows.tolist()):
        gen = np.random.default_rng(np.random.SeedSequence((seeds[row], _TIE_STREAM_TAG)))
        assert picked[i] == argmin_tie_break(finite[i].tolist(), "seeded_random", gen)


def test_plug_in_selection_passes_over_nan_scores():
    # the engine's lowest-index rule is the strict `<` scan of the per-seed
    # loop: NaN scores are passed over and an all-NaN row picks action 0
    means = [
        [math.nan, 0.5, 0.2],
        [0.3, math.nan, 0.1],
        [math.nan, math.nan, math.nan],
        [-math.inf, math.nan, 0.0],
        [math.inf, math.nan, math.inf],
    ]
    fb = FeedbackBlock(len(means), 3, DeviationSpec.noiseless())
    fb.obs_counts[:] = 1.0
    fb.means[:] = means
    fb.rounds = 3
    occ = OccupationState(3, seeds=len(means))
    occ.counts[:] = 1.0
    occ.t = 3
    policy = UcbFwPolicy(linear_loss((0.0, 0.0, 0.0)), fb)
    assert policy.select(occ).tolist() == [_strict_scan(r) for r in means]
