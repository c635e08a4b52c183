"""The per-seed simulation loop and scalar policies the engine replaced.

These are the list-path versions of `ucbfw.harness.run_trial`, of the
loss families' `gradient`, `true_gradient` and `sensitivity` formulas
(`gradient_from_params`, `loss_gradient`, `sensitivity`, with the tables'
scalar `interp`), of `OccupationState`, its float recurrence
`float_recurrence` and `epsilon_diagnostic`, of the estimator state
(`FeedbackState`, `route_and_update`, `gradient_estimate`) and its radius
`deviation`, of the selection rules (`argmin_tie_break`, `ucb_fw_select`,
`lcb_bandit_select`, `oracle_fw_select`), of the pre-sampling stopping rule
(`variance_stopping_tau`), of the doubling block ends
(`doubling_boundaries`, one j at a time) and of the policy classes, kept as
the reference the lockstep engine is tested against: `run_trial` here runs
one seed at a time, with one Python call per layer per round and plain
lists for every point and gradient, and must give the same TrialRecord as
the engine.  The observation sampler is the per-trial one with lazily extended buffers.
Only `value`, which the engine also evaluates one point at a time, and the
models' constants come from `ucbfw`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ucbfw.feedback import (
    ESTIMATOR_CENTERED_SQUARE,
    ESTIMATOR_MEAN,
    ESTIMATOR_SAMPLE_VARIANCE,
    ESTIMATORS,
    DeviationSpec,
    ObservationModel,
    check_action_map,
)
from ucbfw.harness import ExperimentConfig, TrialRecord, build_model
from ucbfw.losses import LossModel, loss_value, minimizer
from ucbfw.policies import (
    DOUBLING_UCB_FW,
    FIXED_ALLOCATION,
    LCB_BANDIT,
    ORACLE_FW,
    PRESAMPLED_UCB_FW,
    UCB_FW,
    UNIFORM,
    PresampleConfig,
)
from ucbfw.simplex import check_simplex

_POLICY_STREAM_TAG = 1 << 31


# ---------------------------------------------------------------- loss formulas


def interp(xs: Sequence[float], ys: Sequence[float], x: float) -> float:
    """numpy's scalar `interp`, step for step, so the result is the same
    float `np.interp` gives; the tables' list-path evaluation."""
    x = float(x)
    if x != x:
        return x
    j = bisect_right(xs, x) - 1
    if j < 0:
        return ys[0]
    if j >= len(xs) - 1:
        return ys[-1]
    x0, y0 = xs[j], ys[j]
    if x == x0:
        return y0
    x1, y1 = xs[j + 1], ys[j + 1]
    slope = (y1 - y0) / (x1 - x0)
    y = slope * (x - x0) + y0
    if y != y:
        # numpy's fallbacks: interpolate from the right end, then take
        # the flat segment's value
        y = slope * (x - x1) + y1
        if y != y and y0 == y1:
            y = y0
    return y


def _dot(xs: Sequence[float], ys: Sequence[float]) -> float:
    acc = 0.0
    for x, y in zip(xs, ys):
        acc += x * y
    return acc


def _require_interior(p: Sequence[float], kind: str) -> None:
    for i, v in enumerate(p):
        if v <= 0.0:
            raise ValueError(f"{kind} loss needs p strictly positive, coordinate {i} is {v}")


def _exp_design_gradient(model, params, p):
    _require_interior(p, model.kind)
    return [-s / (x * x) for s, x in zip(params, p)]


def _cobb_douglas_gradient(model, params, p):
    _require_interior(p, model.kind)
    return [-b / x for b, x in zip(params, p)]


_GRADIENTS = {
    "linear": lambda model, params, p: [float(v) for v in params],
    "quadratic": lambda model, params, p: [x - th for x, th in zip(p, params)],
    "exp_design": _exp_design_gradient,
    "cobb_douglas": _cobb_douglas_gradient,
    "markowitz": lambda model, params, p: [
        2.0 * _dot(row, p) - model.risk_weight * m for row, m in zip(model.covariance, params)
    ],
    "separable": lambda model, params, p: [
        interp(t.xs, t.ys, m) for t, m in zip(model.tables, params)
    ],
}

_SENSITIVITIES = {
    "exp_design": lambda model, p: [1.0 / (x * x) for x in p],
    "cobb_douglas": lambda model, p: [1.0 / x for x in p],
    "markowitz": lambda model, p: None if model.risk_weight == 1.0 else [model.risk_weight] * len(p),
    "separable": lambda model, p: [t.lipschitz() for t in model.tables],
}


def gradient_from_params(model: LossModel, params: Sequence[float], p: Sequence[float]) -> list[float]:
    """The family's gradient formula at one point with plugged-in `params`."""
    return _GRADIENTS[model.kind](model, params, p)


def loss_gradient(model: LossModel, p: Sequence[float]) -> list[float]:
    """The gradient at one point with the true parameters, as a fresh list."""
    return gradient_from_params(model, model.params, p)


def sensitivity(model: LossModel, p: Sequence[float]) -> list[float] | None:
    """Per-coordinate radius factors at one point; None when all are 1."""
    formula = _SENSITIVITIES.get(model.kind)
    return None if formula is None else formula(model, p)


# ---------------------------------------------------------------- occupation, epsilon


class OccupationState:
    """Round count t and per-action pull counts of one trajectory, as exact
    integers; `proportions` is a fresh list."""

    __slots__ = ("t", "counts", "num_actions")

    def __init__(self, num_actions: int):
        if num_actions < 2:
            raise ValueError(f"need at least 2 actions, got {num_actions}")
        self.t = 0
        self.num_actions = num_actions
        self.counts = [0] * num_actions

    def apply(self, action: int) -> "OccupationState":
        counts = self.counts
        if not 0 <= action < len(counts):
            raise IndexError(f"action {action} out of range for {len(counts)} actions")
        counts[action] += 1
        self.t += 1
        return self

    def proportions(self) -> list[float]:
        t = self.t
        if t == 0:
            raise ValueError("occupation measure is undefined before the first action")
        return [c / t for c in self.counts]


def float_recurrence(actions: Iterable[int], num_actions: int) -> list[float]:
    """Fold p_{t+1} = p_t + (e_a - p_t)/(t+1) in floats, starting from p_1 = e_{a_1}.

    Cross-check only: the returned vector should agree with the integer-count
    proportions to within accumulated rounding (~1e-11 at t = 1e6).
    """
    it = iter(actions)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("empty action sequence") from None
    p = [0.0] * num_actions
    p[first] = 1.0
    t = 1
    for a in it:
        t += 1
        inv = 1.0 / t
        for i in range(num_actions):
            p[i] -= p[i] * inv
        p[a] += inv
    return p


class StepDiagnostics(NamedTuple):
    chosen: int
    oracle_action: int
    epsilon: float
    fw_gap: float


def epsilon_diagnostic(model: LossModel, p: Sequence[float], chosen: int) -> StepDiagnostics:
    """Selection suboptimality eps = grad[chosen] - grad[oracle] >= 0 and the
    Frank-Wolfe gap grad.(p - e_oracle) at the pre-action point p."""
    g = loss_gradient(model, p)
    star = argmin_tie_break(g)
    gap = sum(gi * pi for gi, pi in zip(g, p)) - g[star]
    return StepDiagnostics(
        chosen=chosen, oracle_action=star, epsilon=g[chosen] - g[star], fw_gap=gap
    )


# ---------------------------------------------------------------- estimator state


INFINITE_DEVIATION = math.inf


def deviation(spec: DeviationSpec, t: int, n_obs: int, delta: float) -> float:
    """Radius around a parameter estimate built from n_obs observations.

    Returns the infinite sentinel when n_obs = 0, which forces exploration
    of the unobserved coefficient.
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if n_obs < 0:
        raise ValueError(f"observation count must be >= 0, got {n_obs}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if n_obs == 0:
        return INFINITE_DEVIATION
    if spec.scale == 0.0:
        return 0.0
    x = spec.scale * math.log(t / delta) / n_obs
    return math.sqrt(x) if spec.exponent == 0.5 else x**spec.exponent


@dataclass
class FeedbackState:
    """Per-coefficient observation counts and running parameter estimates.

    `action_to_coeff[a]` names the coefficient an observation from action a
    informs; the identity map is the plain bandit setting.  The estimator
    turns raw draws into parameter samples: the running mean of raw draws,
    the running mean of squared centered draws (known-center variance
    estimation), or a Welford sample variance.
    """

    obs_counts: list[int]
    means: list[float]
    action_to_coeff: tuple[int, ...]
    deviation_spec: DeviationSpec
    estimator: str = ESTIMATOR_MEAN
    centers: tuple[float, ...] | None = None
    m2: list[float] = field(default_factory=list)

    @classmethod
    def fresh(
        cls,
        num_coeffs: int,
        deviation_spec: DeviationSpec,
        action_to_coeff: Sequence[int] | None = None,
        estimator: str = ESTIMATOR_MEAN,
        centers: Sequence[float] | None = None,
    ) -> "FeedbackState":
        amap = check_action_map(action_to_coeff, num_coeffs)
        if estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {estimator!r}")
        if estimator == ESTIMATOR_CENTERED_SQUARE:
            if centers is None:
                raise ValueError("centered_square estimator needs known centers")
            centers = tuple(float(c) for c in centers)
        return cls(
            obs_counts=[0] * num_coeffs,
            means=[0.0] * num_coeffs,
            action_to_coeff=amap,
            deviation_spec=deviation_spec,
            estimator=estimator,
            centers=centers,
            m2=[0.0] * num_coeffs,
        )

    @property
    def num_coeffs(self) -> int:
        return len(self.obs_counts)

    def rounds(self) -> int:
        return sum(self.obs_counts)

    def reset(self) -> None:
        """Forget all observations (restart used by the doubling wrapper)."""
        k = len(self.obs_counts)
        self.obs_counts = [0] * k
        self.means = [0.0] * k
        self.m2 = [0.0] * k

    def estimates(self) -> list[float]:
        """Current parameter estimates; 0.0 for unobserved coefficients."""
        if self.estimator == ESTIMATOR_SAMPLE_VARIANCE:
            return [
                m2 / (n - 1) if n >= 2 else 0.0
                for m2, n in zip(self.m2, self.obs_counts)
            ]
        return list(self.means)


def route_and_update(fb: FeedbackState, action: int, obs: float) -> int:
    """Route a raw observation through the action map; returns the coefficient."""
    j = fb.action_to_coeff[action]
    if fb.estimator == ESTIMATOR_CENTERED_SQUARE:
        d = obs - fb.centers[j]
        value = d * d
    else:
        value = obs
    n = fb.obs_counts[j] + 1
    fb.obs_counts[j] = n
    delta = value - fb.means[j]
    fb.means[j] += delta / n
    if fb.estimator == ESTIMATOR_SAMPLE_VARIANCE:
        fb.m2[j] += delta * (value - fb.means[j])
    return j


def gradient_estimate(
    fb: FeedbackState, model: LossModel, p: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Plug-in gradient estimate and per-coordinate deviation radii at p.

    The radius for coefficient i is the parameter radius scaled by the
    family's sensitivity factor at p (how strongly coordinate i of the
    gradient moves per unit of parameter error).
    """
    t = fb.rounds()
    if t < 1:
        raise ValueError("gradient estimate undefined before any observation")
    for i, n in enumerate(fb.obs_counts):
        if n == 0:
            raise ValueError(
                f"coefficient {i} has no observations; selection must force "
                "exploration before estimating the gradient"
            )
    spec = fb.deviation_spec
    delta = spec.delta_at(t)
    ghat = gradient_from_params(model, fb.estimates(), p)
    sens = sensitivity(model, p)
    radii = [deviation(spec, t, n, delta) for n in fb.obs_counts]
    if sens is not None:
        radii = [s * r for s, r in zip(sens, radii)]
    return ghat, radii


def _cold_start(fb: FeedbackState) -> int | None:
    """Forced exploration: round robin for the first K rounds since the last
    reset, then any still-unobserved coefficient (its radius is infinite) by
    lowest index."""
    t = fb.rounds()
    if t < fb.num_coeffs:
        return t
    for i, n in enumerate(fb.obs_counts):
        if n == 0:
            return i
    return None


def argmin_tie_break(values: Sequence[float]) -> int:
    """Index of the smallest value, the lowest on ties, NaN counting as +inf:
    `policies.lowest_argmin` for one row."""
    return min(range(len(values)), key=lambda i: math.inf if math.isnan(values[i]) else values[i])


def ucb_fw_select(fb: FeedbackState, occ: OccupationState, model: LossModel) -> int:
    """Pull the action minimizing (gradient estimate - deviation radius)."""
    forced = _cold_start(fb)
    if forced is not None:
        return forced
    ghat, radii = gradient_estimate(fb, model, occ.proportions())
    scores = [g - r for g, r in zip(ghat, radii)]
    return argmin_tie_break(scores)


def lcb_bandit_select(fb: FeedbackState) -> int:
    """Scalar-bandit selection on the estimator's estimates (no loss model)."""
    forced = _cold_start(fb)
    if forced is not None:
        return forced
    spec = fb.deviation_spec
    t = fb.rounds()
    delta = spec.delta_at(t)
    scores = [
        m - deviation(spec, t, n, delta)
        for m, n in zip(fb.estimates(), fb.obs_counts)
    ]
    return argmin_tie_break(scores)


def oracle_fw_select(model: LossModel, p: Sequence[float]) -> int:
    """Exact Frank-Wolfe direction: the smallest true gradient coordinate."""
    return argmin_tie_break(loss_gradient(model, p))


class ObservationSampler:
    """Materialized per-action observation streams for one trial.

    Stream a is generated from SeedSequence((trial_seed, a)) and consumed in
    pull order, so draw n for action a is reproducible in isolation.  Draws
    are produced in chunks; chunking does not change the values.
    """

    CHUNK = 2048

    def __init__(self, obs_model: ObservationModel, trial_seed: int):
        self.obs_model = obs_model
        self.trial_seed = int(trial_seed)
        k = len(obs_model.means)
        self._gens = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.trial_seed, a))))
            for a in range(k)
        ]
        self._buffers: list[list[float]] = [[] for _ in range(k)]
        self._pos = [0] * k

    def draw(self, action: int) -> float:
        """Next observation for `action`; consumes one value of its stream."""
        pos = self._pos[action]
        buf = self._buffers[action]
        if pos >= len(buf):
            self._extend(action, max(self.CHUNK, pos + 1 - len(buf)))
            buf = self._buffers[action]
        self._pos[action] = pos + 1
        return buf[pos]

    def prefill(self, action: int, n: int) -> None:
        """Generate the first n draws of an action's stream in one shot."""
        need = n - len(self._buffers[action])
        if need > 0:
            self._extend(action, need)

    def _extend(self, action: int, n: int) -> None:
        model = self.obs_model
        gen = self._gens[action]
        if model.kind == "gaussian":
            arr = gen.normal(model.means[action], model.sds[action], size=n)
        elif model.kind == "bernoulli":
            arr = (gen.random(n) < model.means[action]).astype(float)
        else:
            arr = np.full(n, model.means[action])
        self._buffers[action].extend(arr.tolist())


class UcbFwPolicy:
    """Stateful wrapper around ucb_fw_select."""

    def __init__(self, model: LossModel, fb: FeedbackState):
        self.model = model
        self.fb = fb

    def select(self, occ: OccupationState) -> int:
        return ucb_fw_select(self.fb, occ, self.model)

    def observe(self, action: int, obs: float) -> None:
        route_and_update(self.fb, action, obs)

    def reset_estimator(self) -> None:
        self.fb.reset()


class LcbBanditPolicy:
    def __init__(self, fb: FeedbackState):
        self.fb = fb

    def select(self, occ: OccupationState) -> int:
        return lcb_bandit_select(self.fb)

    def observe(self, action: int, obs: float) -> None:
        route_and_update(self.fb, action, obs)


class OracleFwPolicy:
    """Noise-free Frank-Wolfe on the true gradient, round robin to start."""

    def __init__(self, model: LossModel):
        self.model = model

    def select(self, occ: OccupationState) -> int:
        if occ.t < occ.num_actions:
            return occ.t
        return oracle_fw_select(self.model, occ.proportions())

    def observe(self, action: int, obs: float) -> None:
        pass


class UniformPolicy:
    """Independent uniform action each round from the policy's own stream."""

    CHUNK = 4096

    def __init__(self, num_actions: int, trial_seed: int):
        self.num_actions = num_actions
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((int(trial_seed), _POLICY_STREAM_TAG)))
        )
        self._buf: list[int] = []
        self._pos = 0

    def select(self, occ: OccupationState) -> int:
        if self._pos >= len(self._buf):
            self._buf = self._gen.integers(0, self.num_actions, size=self.CHUNK).tolist()
            self._pos = 0
        a = self._buf[self._pos]
        self._pos += 1
        return a

    def observe(self, action: int, obs: float) -> None:
        pass


class FixedAllocationPolicy:
    """Deterministic tracking of target weights by largest deficit."""

    def __init__(self, weights: Sequence[float]):
        self.weights = tuple(check_simplex(tuple(float(w) for w in weights)))

    def select(self, occ: OccupationState) -> int:
        t_next = occ.t + 1
        counts = occ.counts
        best = 0
        best_d = -math.inf
        for i, w in enumerate(self.weights):
            d = w * t_next - counts[i]
            if d > best_d:
                best_d = d
                best = i
        return best

    def observe(self, action: int, obs: float) -> None:
        pass


def doubling_boundaries(beta: float, t_max: int) -> list[int]:
    """Block end times ceil(exp(r^j)) with r = 1/(1-beta), up to t_max, one
    j at a time."""
    if not 0.0 < beta <= 0.5:
        raise ValueError(f"beta must be in (0, 1/2], got {beta}")
    r = 1.0 / (1.0 - beta)
    out: list[int] = []
    j = 1
    while True:
        b = math.ceil(math.exp(r**j))
        if b > t_max:
            return out
        if not out or b > out[-1]:
            out.append(b)
        j += 1


class DoublingUcbFwPolicy:
    """Restart the estimator state at exponentially spaced block ends.

    Occupation counts are never reset; only the feedback state forgets, so
    each block re-explores with fresh confidence radii.
    """

    def __init__(self, inner: UcbFwPolicy, beta: float, t_max: int):
        self.inner = inner
        self.beta = beta
        self.boundaries = doubling_boundaries(beta, t_max)
        self._next_idx = 0
        self.block = 0

    def select(self, occ: OccupationState) -> int:
        if self._next_idx < len(self.boundaries) and occ.t >= self.boundaries[self._next_idx]:
            self.inner.reset_estimator()
            self._next_idx += 1
            self.block += 1
        return self.inner.select(occ)

    def observe(self, action: int, obs: float) -> None:
        self.inner.observe(action, obs)


@dataclass(frozen=True)
class StoppingResult:
    tau: int
    mean: float
    triggered: bool


def variance_stopping_tau(values: Iterable[float], horizon: int, delta: float) -> StoppingResult:
    """First time the running mean of a [0, 1] stream clears the anytime
    threshold sqrt(2*log(2*horizon/delta)/s); the triggered mean brackets the
    true mean within a factor [1/2, 3/2] with probability >= 1 - delta."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    log_term = 2.0 * math.log(2.0 * horizon / delta)
    total = 0.0
    s = 0
    for z in values:
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"stream value out of [0, 1]: {z!r}")
        s += 1
        total += z
        mean = total / s
        if mean >= math.sqrt(log_term / s):
            return StoppingResult(tau=s, mean=mean, triggered=True)
        if s >= horizon:
            return StoppingResult(tau=s, mean=mean, triggered=False)
    raise ValueError(f"stream ended after {s} values, before the horizon {horizon}")


class PresampledUcbFwPolicy:
    """Variance pre-sampling followed by floor-constrained plug-in selection.

    Phase 1 estimates per-arm deviation brackets (either given, or found by
    the stopping rule on squared draws scaled into [0, 1], centered on
    `centers[j]` for the coefficient j the arm reports), then keeps pulling
    the most deficient arm until every occupancy clears its floor
    p_floor_i = sigma_lo_i / sum_j sigma_hi_j.  Phase 2 enforces the
    floors and otherwise defers to the plug-in selection.  `phase1_end_t`
    records when the floors first all held.
    """

    def __init__(self, inner: UcbFwPolicy, config: PresampleConfig, centers: Sequence[float]):
        self.inner = inner
        self.config = config
        self.centers = tuple(float(c) for c in centers)
        k = len(self.inner.fb.obs_counts)
        self.num_actions = k
        self.floors: list[float] | None = None
        self.brackets_hat: list[tuple[float, float]] = []
        self.phase1_end_t: int | None = None
        self.stopping_triggered: list[bool] = []
        if config.brackets is not None:
            if len(config.brackets) != k:
                raise ValueError(
                    f"need one bracket per arm: {len(config.brackets)} vs {k}"
                )
            self.brackets_hat = [tuple(b) for b in config.brackets]
            self.stopping_triggered = [True] * k
            self._set_floors()
            self._phase = "track"
            self.phase1_end_t = 0
        else:
            self._phase = "estimate"
            self._arm = 0
            self._z_count = 0
            self._z_total = 0.0
            self._log_term = 2.0 * math.log(2.0 * config.horizon / config.delta)
            self._budget = config.max_rounds_per_arm or config.horizon

    def _set_floors(self) -> None:
        # left to right, as `sum()` did before Python 3.12
        hi_sum = 0.0
        for _, hi in self.brackets_hat:
            hi_sum += hi
        if hi_sum <= 0.0:
            self.floors = [0.0] * self.num_actions
        else:
            self.floors = [lo / hi_sum for lo, _ in self.brackets_hat]

    def _deficit_arm(self, occ: OccupationState) -> int | None:
        t_next = occ.t + 1
        counts = occ.counts
        best = None
        best_d = 0.0
        for i, f in enumerate(self.floors):
            d = f * t_next - counts[i]
            if d > best_d:
                best_d = d
                best = i
        return best

    def select(self, occ: OccupationState) -> int:
        if self._phase == "estimate":
            return self._arm
        if self._phase == "catchup":
            arm = self._deficit_arm(occ)
            if arm is None:
                self.phase1_end_t = occ.t
                self._phase = "track"
            else:
                return arm
        arm = self._deficit_arm(occ)
        if arm is not None:
            return arm
        return self.inner.select(occ)

    def observe(self, action: int, obs: float) -> None:
        self.inner.observe(action, obs)
        if self._phase != "estimate":
            return
        d = obs - self.centers[self.inner.fb.action_to_coeff[action]]
        z = min(1.0, d * d / self.config.variance_cap)
        self._z_count += 1
        self._z_total += z
        mean = self._z_total / self._z_count
        triggered = mean >= math.sqrt(self._log_term / self._z_count)
        if triggered or self._z_count >= self._budget:
            cap = self.config.variance_cap
            self.brackets_hat.append(
                (math.sqrt(mean * cap / 2.0), math.sqrt(3.0 * mean * cap / 2.0))
            )
            self.stopping_triggered.append(triggered)
            self._arm += 1
            self._z_count = 0
            self._z_total = 0.0
            if self._arm >= self.num_actions:
                self._set_floors()
                self._phase = "catchup"


def build_policy(config: ExperimentConfig, model: LossModel, trial_seed: int, t_max: int):
    """One seed's policy, on the feedback set-up the config derived."""
    cfg = config.policy
    if cfg.kind == UNIFORM:
        return UniformPolicy(model.num_actions, trial_seed)
    if cfg.kind == FIXED_ALLOCATION:
        return FixedAllocationPolicy(cfg.weights)
    if cfg.kind == ORACLE_FW:
        return OracleFwPolicy(model)
    # indexed by coefficient, as the model's are: readers route them
    centers = model.centers if model.variance_feedback else (0.0,) * model.num_actions
    fb = FeedbackState.fresh(
        model.num_actions,
        cfg.deviation_spec,
        action_to_coeff=config.feedback.action_map,
        estimator=config.estimator,
        centers=centers,
    )
    if cfg.kind == LCB_BANDIT:
        return LcbBanditPolicy(fb)
    inner = UcbFwPolicy(model, fb)
    if cfg.kind == UCB_FW:
        return inner
    if cfg.kind == DOUBLING_UCB_FW:
        return DoublingUcbFwPolicy(inner, cfg.doubling_beta, t_max)
    if cfg.kind == PRESAMPLED_UCB_FW:
        return PresampledUcbFwPolicy(inner, cfg.presample, centers)
    raise ValueError(f"unknown policy kind {cfg.kind!r}")


def run_trial(config: ExperimentConfig, seed: int, t_max: int | None = None) -> TrialRecord:
    """One seeded trajectory with error snapshots at the configured horizons."""
    model = build_model(config.model)
    info = minimizer(model)
    horizons = tuple(sorted(config.horizons))
    if t_max is None:
        t_max = horizons[-1]
    sampler = ObservationSampler(config.observations, seed)
    policy = build_policy(config, model, seed, t_max)
    occ = OccupationState(model.num_actions)
    loss_star = info.loss_star
    record_eps = config.record_epsilon
    k = model.num_actions

    errors: list[float] = []
    counts_snap: list[tuple[int, ...]] = []
    eps_snap: list[float] = []
    eps_total = 0.0
    hidx = 0
    next_h = horizons[0]
    select = policy.select
    observe = policy.observe
    draw = sampler.draw
    apply_ = occ.apply
    for _ in range(t_max):
        if record_eps:
            p_prev = [1.0 / k] * k if occ.t == 0 else occ.proportions()
            a = select(occ)
            eps_total += epsilon_diagnostic(model, p_prev, a).epsilon
        else:
            a = select(occ)
        observe(a, draw(a))
        apply_(a)
        if occ.t == next_h:
            errors.append(loss_value(model, occ.proportions()) - loss_star)
            counts_snap.append(tuple(occ.counts))
            eps_snap.append(eps_total)
            hidx += 1
            next_h = horizons[hidx] if hidx < len(horizons) else -1
    return TrialRecord(
        seed=seed,
        horizons=horizons[: len(errors)],
        errors=tuple(errors),
        counts=tuple(counts_snap),
        sum_epsilon=tuple(eps_snap) if record_eps else None,
    )
