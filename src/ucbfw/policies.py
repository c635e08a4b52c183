"""Action-selection policies over occupation states.

The central policy follows the plug-in Frank-Wolfe scheme: estimate the
gradient of the loss at the current proportion vector, widen each
coordinate downward by its confidence radius, and pull the action with the
smallest widened value, after the forced exploration that its `select`
also carries.  The update p_{t+1} = p_t + (e_a - p_t)/(t+1) is implicit
in the occupation bookkeeping, so a policy only ever picks the next action.

Baselines (uniform, fixed allocation, oracle gradient, and the scalar
bandit: the central policy on the linear loss of the estimator's estimates)
choose only through `select`; variance pre-sampling with occupancy floors
and block restarts of the estimator state are the central policy with a
forced first phase or a restart schedule.  A block of seeds advances in
lockstep: `select` takes a block `OccupationState` and returns one action
per seed, and `observe` takes one action and one observation per seed.
Each seed gets the action its trajectory alone would get.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .feedback import POLICY_STREAM_TAG, FeedbackBlock, deviation_radii, seeded_streams
from .losses import LinearLoss, LossModel, gradient_from_params, sensitivity
from .simplex import OccupationState, check_simplex

UCB_FW = "ucb_fw"
ORACLE_FW = "oracle_fw"
LCB_BANDIT = "lcb_bandit"
UNIFORM = "uniform"
FIXED_ALLOCATION = "fixed_allocation"
PRESAMPLED_UCB_FW = "presampled_ucb_fw"
DOUBLING_UCB_FW = "doubling_ucb_fw"

POLICY_KINDS = (
    UCB_FW,
    ORACLE_FW,
    LCB_BANDIT,
    UNIFORM,
    FIXED_ALLOCATION,
    PRESAMPLED_UCB_FW,
    DOUBLING_UCB_FW,
)


@dataclass(frozen=True)
class PresampleConfig:
    """Phase-1 setup for the pre-sampled policy.

    Either `brackets` gives known per-arm standard-deviation ranges, or the
    policy estimates them by running the variance stopping rule per arm on
    squared centered draws scaled into [0, 1] by `variance_cap`.  Each
    arm's stopping rule ends after at most `max_rounds_per_arm` draws
    (`horizon` draws when None).
    """

    brackets: tuple[tuple[float, float], ...] | None = None
    delta: float = 0.1
    variance_cap: float = 8.0
    horizon: int = 10_000
    max_rounds_per_arm: int | None = None

    def __post_init__(self):
        if self.brackets is not None:
            for i, (lo, hi) in enumerate(self.brackets):
                if not 0.0 <= lo <= hi < math.inf:
                    raise ValueError(f"bracket {i} must satisfy 0 <= lo <= hi < inf, got ({lo}, {hi})")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0.0 < self.variance_cap < math.inf:
            raise ValueError(f"variance cap must be finite and positive, got {self.variance_cap}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.max_rounds_per_arm is not None and self.max_rounds_per_arm < 1:
            raise ValueError(f"max_rounds_per_arm must be >= 1, got {self.max_rounds_per_arm}")


# an array operand: a Python scalar costs a conversion every call
_INF = np.array(np.inf)


def lowest_argmin(values: np.ndarray) -> np.ndarray:
    """Index of the smallest value in each row of an (S, K) block, the
    lowest index on ties, NaN counting as +inf."""
    return np.fmin(values, _INF).argmin(axis=1)


def epsilon_diagnostic(model: LossModel, p: np.ndarray | None, chosen: np.ndarray) -> np.ndarray:
    """Selection suboptimality eps = grad[chosen] - grad[oracle] >= 0 at the
    pre-action points p, an (S, K) block with one chosen action per row;
    one entry per row.

    With a constant gradient the model's cached costs are the gradient at
    every point and p is not read, so it may be None; the model caches
    their lowest-index argmin `star` and the `gaps` costs - costs[star],
    the same subtraction made once.
    """
    if model.constant_gradient:
        return model.gaps[chosen]
    g = model.true_gradient(p)
    rows = np.arange(len(p))
    return g[rows, chosen] - g[rows, lowest_argmin(g)]


class UcbFwPolicy:
    """Plug-in Frank-Wolfe selection for a block of seeds in lockstep.

    Each seed pulls the action minimizing (gradient estimate - deviation
    radius), the lowest index on ties, with the answer its trajectory alone
    would get.  The estimator's round count (the exploration clock), delta_t
    and log(t / delta_t) are shared by the block, so the log is taken once
    per round; a constant-gradient model never reads p, which is not formed.
    Subclasses reach `select` and `observe` through `super()`, so a hook on
    these class attributes sees every plug-in selection and update.
    """

    def __init__(self, model: LossModel, fb: FeedbackBlock):
        self.model = model
        self.fb = fb
        self._reads_p = not model.constant_gradient

    def select(self, occ: OccupationState) -> np.ndarray:
        """One action per seed.  Forced exploration comes first: round robin
        over the first K rounds since the last reset (`fb.rounds`), then the
        lowest-index unobserved coefficient (its radius is infinite), played
        as the action.  Every other seed gets the plug-in action."""
        fb = self.fb
        if fb.observed:  # so fb.rounds >= K: a round observes once per seed
            return self._plug_in(occ, None)
        if fb.rounds < fb.num_coeffs:
            return np.full(len(fb.obs_counts), fb.rounds)
        zero = fb.unobserved()
        if zero is None:
            return self._plug_in(occ, None)
        forced = np.where(zero.any(axis=1), zero.argmax(axis=1), -1)
        free = np.flatnonzero(forced < 0)
        if len(free):
            forced[free] = self._plug_in(occ, free)
        return forced

    def _plug_in(self, occ: OccupationState, rows: np.ndarray | None) -> np.ndarray:
        fb = self.fb
        p = occ.proportions() if self._reads_p else None
        est = fb.estimates()
        counts = fb.obs_counts
        if rows is not None:
            est, counts = est[rows], counts[rows]
            if p is not None:
                p = p[rows]
        ghat = gradient_from_params(self.model, est, p)
        sens = sensitivity(self.model, p)
        radii = deviation_radii(fb.deviation_spec, fb.rounds, counts)
        if sens is not None:
            radii *= sens
        # the radii are fresh, while ghat may be the running means themselves
        scores = np.subtract(ghat, radii, out=radii)
        return lowest_argmin(scores)

    def observe(self, actions: np.ndarray, obs: np.ndarray) -> None:
        self.fb.update(actions, obs)


class LcbBanditPolicy(UcbFwPolicy):
    """Scalar bandit on the estimator's estimates: UCB-FW on a linear loss,
    whose plug-in gradient is the estimates and whose sensitivity is None,
    so each seed pulls the action minimizing (estimate - radius).  The
    model's costs (all zero) are never read."""

    def __init__(self, fb: FeedbackBlock):
        super().__init__(LinearLoss.build((0.0,) * fb.num_coeffs), fb)


class OpenLoopPolicy:
    """A policy whose choices never read its observations."""

    def observe(self, actions: np.ndarray, obs: np.ndarray) -> None:
        pass


class OracleFwPolicy(OpenLoopPolicy):
    """Noise-free Frank-Wolfe on the true gradient, round robin to start."""

    def __init__(self, model: LossModel):
        self.model = model

    def select(self, occ: OccupationState) -> np.ndarray:
        if occ.t < occ.num_actions:
            return np.full(len(occ.counts), occ.t)
        return lowest_argmin(self.model.true_gradient(occ.proportions()))


class UniformPolicy(OpenLoopPolicy):
    """Independent uniform action each round from each seed's own stream."""

    CHUNK = 4096

    def __init__(self, num_actions: int, seeds: Sequence[int]):
        self.num_actions = num_actions
        self._gens = seeded_streams(seeds, (POLICY_STREAM_TAG,))
        self._buf = np.empty((0, len(self._gens)), dtype=np.int64)
        self._pos = 0

    def select(self, occ: OccupationState) -> np.ndarray:
        if self._pos >= len(self._buf):
            k, n = self.num_actions, self.CHUNK
            self._buf = np.stack([g.integers(0, k, size=n) for g in self._gens], axis=1)
            self._pos = 0
        a = self._buf[self._pos]
        self._pos += 1
        return a


class FixedAllocationPolicy(OpenLoopPolicy):
    """Deterministic tracking of target weights by largest deficit."""

    def __init__(self, weights: Sequence[float]):
        self._w = np.array(check_simplex(tuple(float(w) for w in weights)))

    def select(self, occ: OccupationState) -> np.ndarray:
        # first index of the largest deficit, as a strict `>` scan finds it
        return (self._w * (occ.t + 1) - occ.counts).argmax(axis=1)


def doubling_boundaries(beta: float, t_max: int) -> list[int]:
    """Block end times ceil(exp(r^j)) with r = 1/(1-beta), up to t_max."""
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
            # the next end needs r**j > log(b); jump to just short of the
            # first such j, about log(log b)/beta steps on for a small beta
            j = max(j, int(math.log(math.log(b)) / math.log(r)) - 1)
        j += 1


class DoublingUcbFwPolicy(UcbFwPolicy):
    """UCB-FW whose estimator state restarts at exponentially spaced block ends.

    Only the feedback state forgets, not the occupation counts, so each
    block re-runs the round robin, under any action map, with fresh radii.
    The block ends are shared, so the whole block of seeds restarts at once.
    """

    def __init__(self, model: LossModel, fb: FeedbackBlock, beta: float, t_max: int):
        super().__init__(model, fb)
        self.boundaries = doubling_boundaries(beta, t_max)
        self.block = 0

    def select(self, occ: OccupationState) -> np.ndarray:
        if self.block < len(self.boundaries) and occ.t >= self.boundaries[self.block]:
            self.fb.reset()
            self.block += 1
        return super().select(occ)


class PresampledUcbFwPolicy(UcbFwPolicy):
    """UCB-FW after variance pre-sampling, with occupancy floors.

    Phase 1 estimates per-arm deviation brackets (either given, or found by
    the stopping rule on squared draws around each arm's known mean
    `fb.centers[arm]`, scaled into [0, 1]), then keeps pulling the most
    deficient arm until every occupancy clears its floor
    p_floor_i = sigma_lo_i / sum_j sigma_hi_j.  Phase 2 enforces the floors
    and otherwise defers to the plug-in selection.

    Each seed of the block moves through the phases on its own: it samples
    arm `_arm` until that arm's stopping rule ends (`_arm == K` once every
    bracket is known).  Per seed, `brackets_hat` ((S, K, 2) pairs (lo, hi),
    NaN until found), `stopping_triggered` (S, K), `floors` (S, K, 0 until
    set) and `phase1_end_t` (the round the floors first all held, -1 until
    then) hold what phase 1 found.
    """

    def __init__(self, model: LossModel, fb: FeedbackBlock, config: PresampleConfig):
        super().__init__(model, fb)
        self.config = config
        s, k = fb.obs_counts.shape
        self.brackets_hat = np.full((s, k, 2), np.nan)
        self.stopping_triggered = np.zeros((s, k), dtype=bool)
        self.floors = np.zeros((s, k))
        self.phase1_end_t = np.full(s, -1)
        self._arm = np.zeros(s, dtype=np.int64)
        self._z_count = np.zeros(s, dtype=np.int64)
        self._z_total = np.zeros(s)
        self._log_term = 2.0 * math.log(2.0 * config.horizon / config.delta)
        self._budget = config.max_rounds_per_arm or config.horizon
        if config.brackets is not None:
            if len(config.brackets) != k:
                raise ValueError(
                    f"need one bracket per arm: {len(config.brackets)} vs {k}"
                )
            self.brackets_hat[:] = config.brackets
            self.stopping_triggered[:] = True
            self._arm[:] = k
            self._set_floors(np.arange(s))
            self.phase1_end_t[:] = 0

    def _set_floors(self, rows: np.ndarray) -> None:
        """Set the floors of the seeds in `rows`, whose brackets are all known."""
        # the hi sum runs left to right, as `fold_sum` does; numpy's
        # pairwise sum gives other floats from 8 arms on
        lo, hi = self.brackets_hat[rows, :, 0], self.brackets_hat[rows, :, 1]
        hi_sum = hi.cumsum(axis=1)[:, -1:]
        floors = np.zeros(lo.shape)
        np.divide(lo, hi_sum, out=floors, where=hi_sum > 0.0)
        self.floors[rows] = floors

    def select(self, occ: OccupationState) -> np.ndarray:
        out = self._arm.copy()
        rows = np.flatnonzero(out == self.fb.num_coeffs)
        if len(rows):
            d = self.floors[rows] * (occ.t + 1) - occ.counts[rows]
            # the most deficient arm, first on ties, while one is deficient
            out[rows] = d.argmax(axis=1)
            held = rows[d.max(axis=1) <= 0.0]
            if len(held):
                self.phase1_end_t[held[self.phase1_end_t[held] < 0]] = occ.t
                out[held] = super().select(occ)[held]
        return out

    def observe(self, actions: np.ndarray, obs: np.ndarray) -> None:
        super().observe(actions, obs)
        rows = np.flatnonzero(self._arm < self.fb.num_coeffs)
        if not len(rows):
            return
        d = obs[rows] - self.fb.centers[actions[rows]]
        cap = self.config.variance_cap
        x = d * d / cap
        z = np.where(x < 1.0, x, 1.0)  # min(1.0, x), which also maps NaN to 1.0
        self._z_count[rows] += 1
        self._z_total[rows] += z
        count = self._z_count[rows]
        mean = self._z_total[rows] / count
        triggered = mean >= np.sqrt(self._log_term / count)
        ended = triggered | (count >= self._budget)
        if not ended.any():
            return
        rows, mean = rows[ended], mean[ended]
        arm = self._arm[rows]
        self.brackets_hat[rows, arm, 0] = np.sqrt(mean * cap / 2.0)
        self.brackets_hat[rows, arm, 1] = np.sqrt(3.0 * mean * cap / 2.0)
        self.stopping_triggered[rows, arm] = triggered[ended]
        self._arm[rows] = arm + 1
        self._z_count[rows] = 0
        self._z_total[rows] = 0.0
        self._set_floors(rows[arm + 1 == self.fb.num_coeffs])
