"""Action-selection policies over occupation states.

The central policy follows the plug-in Frank-Wolfe scheme: estimate the
gradient of the loss at the current proportion vector, widen each
coordinate downward by its confidence radius, and pull the action with the
smallest widened value.  The update p_{t+1} = p_t + (e_a - p_t)/(t+1) is
implicit in the occupation bookkeeping, so a policy only ever picks the
next action.

Baselines (uniform, fixed allocation, oracle gradient, scalar bandit on
raw means) and two wrappers (variance pre-sampling with occupancy floors,
block restarts of the estimator state) share the same select/observe
interface.  The policy classes advance a block of seeds in lockstep:
`select` takes a block `OccupationState` and returns one action per seed,
and `observe` takes one action and one observation per seed.  Each seed
gets the action its trajectory alone would get.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .feedback import DeviationSpec, FeedbackBlock, deviation_radii
from .losses import LossModel, gradient_from_params, sensitivity
from .simplex import OccupationState, check_simplex

TIE_LOWEST = "lowest_index"
TIE_SEEDED = "seeded_random"

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

_POLICY_STREAM_TAG = 1 << 31
_TIE_STREAM_TAG = (1 << 31) + 1


@dataclass(frozen=True)
class PresampleConfig:
    """Phase-1 setup for the pre-sampled policy.

    Either `brackets` gives known per-arm standard-deviation ranges, or the
    policy estimates them by running the variance stopping rule per arm on
    squared centered draws scaled into [0, 1] by `variance_cap`.
    """

    brackets: tuple[tuple[float, float], ...] | None = None
    delta: float = 0.1
    variance_cap: float = 8.0
    horizon: int = 10_000
    max_rounds_per_arm: int | None = None

    def __post_init__(self):
        if self.brackets is not None:
            for i, (lo, hi) in enumerate(self.brackets):
                if not 0.0 <= lo <= hi:
                    raise ValueError(f"bracket {i} must satisfy 0 <= lo <= hi, got ({lo}, {hi})")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.variance_cap <= 0.0:
            raise ValueError(f"variance cap must be positive, got {self.variance_cap}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class PolicySpec:
    """Policy kind plus its knobs; the harness builds policy instances from it."""

    kind: str = UCB_FW
    deviation: DeviationSpec = DeviationSpec.standard()
    tie_break: str = TIE_LOWEST
    weights: tuple[float, ...] | None = None
    presample: PresampleConfig | None = None
    doubling_beta: float = 0.5

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.tie_break not in (TIE_LOWEST, TIE_SEEDED):
            raise ValueError(f"unknown tie break {self.tie_break!r}")
        if self.kind == FIXED_ALLOCATION:
            if self.weights is None:
                raise ValueError("fixed allocation needs weights")
            check_simplex(self.weights)
        if self.kind == PRESAMPLED_UCB_FW and self.presample is None:
            raise ValueError("presampled policy needs a presample config")
        if not 0.0 < self.doubling_beta <= 0.5:
            raise ValueError(f"doubling beta must be in (0, 1/2], got {self.doubling_beta}")


def argmin_tie_break(values: Sequence[float], tie_break: str = TIE_LOWEST, rng=None) -> int:
    best = min(values)
    if tie_break == TIE_LOWEST:
        for i, v in enumerate(values):
            if v == best:
                return i
    ties = [i for i, v in enumerate(values) if v == best]
    if len(ties) == 1:
        return ties[0]
    if rng is None:
        raise ValueError("seeded_random tie break needs an rng")
    return int(ties[int(rng.integers(len(ties)))])


class StepDiagnostics(NamedTuple):
    """Per-step optimality diagnostics against the true gradient at p."""

    chosen: np.ndarray
    oracle_action: np.ndarray | int
    epsilon: np.ndarray


def epsilon_diagnostic(model: LossModel, p: np.ndarray, chosen: np.ndarray) -> StepDiagnostics:
    """Selection suboptimality eps = grad[chosen] - grad[oracle] >= 0 at the
    pre-action points p, an (S, K) block with one chosen action per row.

    `epsilon` holds one entry per row, and so does `oracle_action` unless
    every row has the same one (constant gradient, where one row's gradient
    serves the block; its costs are finite, so its argmin is the
    lowest-index minimum).
    """
    if model.constant_gradient:
        g = model.true_gradient(p[:1])[0]
        star = int(g.argmin())
        return StepDiagnostics(chosen, star, g[chosen] - g[star])
    g = model.true_gradient(p)
    rows = np.arange(len(p))
    star = _TieBreaker().argmin(g)
    return StepDiagnostics(chosen, star, g[rows, chosen] - g[rows, star])


class _TieBreaker:
    """`argmin_tie_break` applied to every row of an (S, K) block of values.

    Rows whose minimum is unique and not NaN take numpy's argmin, which is
    the same index; the others (ties under seeded_random, any NaN) go
    through `argmin_tie_break` itself with that seed's own tie stream, so
    every row gets the answer, or the error, its own trial would.  Tie
    streams are made on first use; one made later holds the same values.
    """

    def __init__(self, tie_break: str = TIE_LOWEST, seeds: Sequence[int] = ()):
        self.tie_break = tie_break
        self.seeds = tuple(seeds)
        self._rngs: dict[int, np.random.Generator] = {}

    def _rng(self, row: int) -> np.random.Generator:
        gen = self._rngs.get(row)
        if gen is None:
            seq = np.random.SeedSequence((self.seeds[row], _TIE_STREAM_TAG))
            gen = self._rngs[row] = np.random.Generator(np.random.PCG64(seq))
        return gen

    def argmin(self, values: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """One index per row of `values`; `rows` names the seed of each row
        (all seeds in order when None)."""
        if self.tie_break == TIE_LOWEST:
            # the sum is NaN when some entry is NaN (or +inf meets -inf,
            # which the exact path below handles as well)
            if not math.isnan(values.sum()):
                return values.argmin(axis=1)
            odd = np.isnan(values).any(axis=1)
        else:
            low = values.min(axis=1, keepdims=True)
            ties = values == low
            odd = ties.sum(axis=1) != 1
            if not odd.any():
                return ties.argmax(axis=1)
        out = values.argmin(axis=1)
        for i in np.flatnonzero(odd).tolist():
            row = i if rows is None else int(rows[i])
            rng = self._rng(row) if self.tie_break == TIE_SEEDED else None
            out[i] = argmin_tie_break(values[i].tolist(), self.tie_break, rng)
        return out


def _with_forced_exploration(fb: FeedbackBlock, t: int, rows: np.ndarray | None, choose) -> np.ndarray:
    """One action per seed in `rows` (every seed when None).

    Forced exploration where it applies: round robin over the first K
    rounds, then any still-unobserved coefficient by lowest index (its
    radius is infinite), whose index is played as the action.  The other
    seeds get `choose(free_rows)`.
    """
    if t < fb.num_coeffs:
        return np.full(len(fb.obs_counts) if rows is None else len(rows), t)
    zero = fb.unobserved()
    if zero is None:
        return choose(rows)
    if rows is not None:
        zero = zero[rows]
    forced = np.where(zero.any(axis=1), zero.argmax(axis=1), -1)
    free = np.flatnonzero(forced < 0)
    if len(free):
        forced[free] = choose(free if rows is None else rows[free])
    return forced


class UcbFwPolicy:
    """Plug-in Frank-Wolfe selection for a block of seeds in lockstep.

    Each seed pulls the action minimizing (gradient estimate - deviation
    radius), with the answer its trajectory alone would get.
    The round count, delta_t and log(t / delta_t) are shared by the block,
    so the log is taken once per round.
    """

    def __init__(
        self,
        model: LossModel,
        fb: FeedbackBlock,
        tie_break: str = TIE_LOWEST,
        seeds: Sequence[int] = (),
    ):
        self.model = model
        self.fb = fb
        self.ties = _TieBreaker(tie_break, seeds)

    def select(self, occ: OccupationState) -> np.ndarray:
        if self.fb.observed and occ.t >= self.fb.num_coeffs:
            return self._plug_in(occ, None)
        return self.select_rows(occ, None)

    def select_rows(self, occ: OccupationState, rows: np.ndarray | None) -> np.ndarray:
        """Actions of the seeds in `rows` (every seed when None)."""
        return _with_forced_exploration(self.fb, occ.t, rows, lambda r: self._plug_in(occ, r))

    def _plug_in(self, occ: OccupationState, rows: np.ndarray | None) -> np.ndarray:
        fb = self.fb
        spec = fb.deviation_spec
        t = fb.rounds
        p = occ.proportions()
        est = fb.estimates()
        counts = fb.obs_counts
        if rows is not None:
            p, est, counts = p[rows], est[rows], counts[rows]
        ghat = gradient_from_params(self.model, est, p)
        sens = sensitivity(self.model, p)
        radii = deviation_radii(spec, t, spec.delta_at(t), counts)
        if sens is not None:
            radii *= sens
        scores = ghat - radii
        if self.ties.tie_break == TIE_SEEDED:
            return self.ties.argmin(scores, rows)
        # the lowest-index rule picks the first strict minimum and passes
        # NaN over (an all-NaN row gives 0); as +inf, NaN does the same in
        # numpy's argmin
        return np.fmin(scores, np.inf, out=scores).argmin(axis=1)

    def observe(self, actions: np.ndarray, obs: np.ndarray) -> None:
        self.fb.update(actions, obs)

    def reset_estimator(self) -> None:
        self.fb.reset()


class LcbBanditPolicy:
    """Scalar-bandit selection on raw running means (no loss model) for a
    block of seeds: each seed pulls the action minimizing (mean - radius)."""

    def __init__(self, fb: FeedbackBlock, tie_break: str = TIE_LOWEST, seeds: Sequence[int] = ()):
        self.fb = fb
        self.ties = _TieBreaker(tie_break, seeds)

    def select(self, occ: OccupationState) -> np.ndarray:
        return _with_forced_exploration(self.fb, occ.t, None, self._pick)

    def _pick(self, rows: np.ndarray | None) -> np.ndarray:
        fb = self.fb
        spec = fb.deviation_spec
        t = fb.rounds
        means, counts = fb.means, fb.obs_counts
        if rows is not None:
            means, counts = means[rows], counts[rows]
        scores = means - deviation_radii(spec, t, spec.delta_at(t), counts)
        return self.ties.argmin(scores, rows)

    def observe(self, actions: np.ndarray, obs: np.ndarray) -> None:
        self.fb.update(actions, obs)


class OracleFwPolicy:
    """Noise-free Frank-Wolfe on the true gradient, round robin to start."""

    def __init__(self, model: LossModel):
        self.model = model
        self.ties = _TieBreaker()

    def select(self, occ: OccupationState) -> np.ndarray:
        if occ.t < occ.num_actions:
            return np.full(len(occ.counts), occ.t)
        return self.ties.argmin(self.model.true_gradient(occ.proportions()))

    def observe(self, actions: np.ndarray, obs: np.ndarray) -> None:
        pass


class UniformPolicy:
    """Independent uniform action each round from each seed's own stream."""

    CHUNK = 4096

    def __init__(self, num_actions: int, seeds: Sequence[int]):
        self.num_actions = num_actions
        self._gens = [
            np.random.Generator(
                np.random.PCG64(np.random.SeedSequence((int(s), _POLICY_STREAM_TAG)))
            )
            for s in seeds
        ]
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

    def observe(self, actions: np.ndarray, obs: np.ndarray) -> None:
        pass


class FixedAllocationPolicy:
    """Deterministic tracking of target weights by largest deficit."""

    def __init__(self, weights: Sequence[float]):
        self.weights = tuple(check_simplex(tuple(float(w) for w in weights)))
        self._w = np.array(self.weights)

    def select(self, occ: OccupationState) -> np.ndarray:
        # first index of the largest deficit, as a strict `>` scan finds it
        return (self._w * (occ.t + 1) - occ.counts).argmax(axis=1)

    def observe(self, actions: np.ndarray, obs: np.ndarray) -> None:
        pass


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
        j += 1


class DoublingUcbFwPolicy:
    """Restart the estimator state at exponentially spaced block ends.

    Occupation counts are never reset; only the feedback state forgets, so
    each block re-explores with fresh confidence radii.  The block ends are
    the same for every seed, so the whole block of seeds restarts at once.
    """

    def __init__(self, inner: UcbFwPolicy, beta: float, t_max: int):
        self.inner = inner
        self.beta = beta
        self.boundaries = doubling_boundaries(beta, t_max)
        self._next_idx = 0
        self.block = 0

    def select(self, occ: OccupationState) -> np.ndarray:
        if self._next_idx < len(self.boundaries) and occ.t >= self.boundaries[self._next_idx]:
            self.inner.reset_estimator()
            self._next_idx += 1
            self.block += 1
        return self.inner.select(occ)

    def observe(self, actions: np.ndarray, obs: np.ndarray) -> None:
        self.inner.observe(actions, obs)


_ESTIMATE, _CATCHUP, _TRACK = 0, 1, 2


class PresampledUcbFwPolicy:
    """Variance pre-sampling followed by floor-constrained plug-in selection.

    Phase 1 estimates per-arm deviation brackets (either given, or found by
    the stopping rule on squared centered draws scaled into [0, 1]), then
    keeps pulling the most deficient arm until every occupancy clears its
    floor p_floor_i = sigma_lo_i / sum_j sigma_hi_j.  Phase 2 enforces the
    floors and otherwise defers to the plug-in selection.

    Each seed of the block moves through the phases on its own.  Per seed,
    `brackets_hat` and `stopping_triggered` list what phase 1 found,
    `floors` holds the floors once they are set, and `phase1_end_t` records
    when the floors first all held (-1 until then).
    """

    def __init__(self, inner: UcbFwPolicy, config: PresampleConfig, centers: Sequence[float]):
        self.inner = inner
        self.config = config
        self.centers = np.array([float(c) for c in centers])
        s, k = inner.fb.obs_counts.shape
        self.num_actions = k
        self.floors = np.zeros((s, k))
        self.phase1_end_t = np.full(s, -1)
        if config.brackets is not None:
            if len(config.brackets) != k:
                raise ValueError(
                    f"need one bracket per arm: {len(config.brackets)} vs {k}"
                )
            self.brackets_hat = [[tuple(b) for b in config.brackets] for _ in range(s)]
            self.stopping_triggered = [[True] * k for _ in range(s)]
            for row in range(s):
                self._set_floors(row)
            self._phase = np.full(s, _TRACK)
            self.phase1_end_t[:] = 0
        else:
            self.brackets_hat = [[] for _ in range(s)]
            self.stopping_triggered = [[] for _ in range(s)]
            self._phase = np.full(s, _ESTIMATE)
            self._arm = np.zeros(s, dtype=np.int64)
            self._z_count = np.zeros(s, dtype=np.int64)
            self._z_total = np.zeros(s)
            self._log_term = 2.0 * math.log(2.0 * config.horizon / config.delta)
            self._budget = config.max_rounds_per_arm or config.horizon

    def _set_floors(self, row: int) -> None:
        brackets = self.brackets_hat[row]
        hi_sum = sum(hi for _, hi in brackets)
        if hi_sum > 0.0:
            self.floors[row] = [lo / hi_sum for lo, _ in brackets]

    def _deficit_arm(self, occ: OccupationState, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The most deficient arm of each seed in `rows` (first on ties) and
        whether it is deficient at all."""
        d = self.floors[rows] * (occ.t + 1) - occ.counts[rows]
        arm = d.argmax(axis=1)
        return arm, d[np.arange(len(rows)), arm] > 0.0

    def select(self, occ: OccupationState) -> np.ndarray:
        phase = self._phase
        out = np.zeros(len(phase), dtype=np.int64)
        estimate = phase == _ESTIMATE
        if estimate.any():
            out[estimate] = self._arm[estimate]
        catchup = np.flatnonzero(phase == _CATCHUP)
        if len(catchup):
            arm, deficient = self._deficit_arm(occ, catchup)
            out[catchup[deficient]] = arm[deficient]
            done = catchup[~deficient]
            self.phase1_end_t[done] = occ.t
            phase[done] = _TRACK
        track = np.flatnonzero(phase == _TRACK)
        if len(track):
            arm, deficient = self._deficit_arm(occ, track)
            out[track[deficient]] = arm[deficient]
            free = track[~deficient]
            if len(free):
                out[free] = self.inner.select_rows(occ, free)
        return out

    def observe(self, actions: np.ndarray, obs: np.ndarray) -> None:
        self.inner.observe(actions, obs)
        rows = np.flatnonzero(self._phase == _ESTIMATE)
        if not len(rows):
            return
        d = obs[rows] - self.centers[actions[rows]]
        x = d * d / self.config.variance_cap
        z = np.where(x < 1.0, x, 1.0)  # min(1.0, x), which also maps NaN to 1.0
        self._z_count[rows] += 1
        self._z_total[rows] += z
        count = self._z_count[rows]
        mean = self._z_total[rows] / count
        triggered = mean >= np.sqrt(self._log_term / count)
        for i in np.flatnonzero(triggered | (count >= self._budget)).tolist():
            row = int(rows[i])
            m = float(mean[i])
            cap = self.config.variance_cap
            self.brackets_hat[row].append(
                (math.sqrt(m * cap / 2.0), math.sqrt(3.0 * m * cap / 2.0))
            )
            self.stopping_triggered[row].append(bool(triggered[i]))
            self._arm[row] += 1
            self._z_count[row] = 0
            self._z_total[row] = 0.0
            if self._arm[row] >= self.num_actions:
                self._set_floors(row)
                self._phase[row] = _CATCHUP
