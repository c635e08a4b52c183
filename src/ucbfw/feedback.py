"""Bandit feedback: observation streams, running estimators, confidence radii.

Observations are drawn from per-action streams keyed by (trial seed, action),
so the n-th draw for an action is a pure function of (trial seed, action, n)
and results do not depend on scheduling or on how many values are drawn per
call.  Each routed observation updates the running estimate of one loss
parameter; the deviation radius shrinks with that parameter's observation
count.

`FeedbackBlock` holds the counts and running estimates of a block of
seeds advanced in lockstep, as (S, K) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

INFINITE_DEVIATION = math.inf

DELTA_INVERSE_T_SQUARED = "inverse_t_squared"
DELTA_FIXED = "fixed"

ESTIMATOR_MEAN = "mean"
ESTIMATOR_CENTERED_SQUARE = "centered_square"
ESTIMATOR_SAMPLE_VARIANCE = "sample_variance"

ESTIMATORS = (ESTIMATOR_MEAN, ESTIMATOR_CENTERED_SQUARE, ESTIMATOR_SAMPLE_VARIANCE)


@dataclass(frozen=True)
class DeviationSpec:
    """Confidence radius (scale * log(t/delta) / n) ** exponent.

    `sigma2` is the sub-Gaussian parameter the observation distributions are
    required to satisfy.  The schedule controls delta_t: 1/t^2 by default,
    or a fixed confidence level.
    """

    scale: float = 4.0
    exponent: float = 0.5
    sigma2: float = 1.0
    delta_schedule: str = DELTA_INVERSE_T_SQUARED
    delta_fixed: float = 0.05

    def __post_init__(self):
        if self.scale < 0.0:
            raise ValueError(f"deviation scale must be nonnegative, got {self.scale}")
        if not 0.0 < self.exponent <= 0.5:
            raise ValueError(f"deviation exponent must be in (0, 1/2], got {self.exponent}")
        if self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.delta_schedule not in (DELTA_INVERSE_T_SQUARED, DELTA_FIXED):
            raise ValueError(f"unknown delta schedule {self.delta_schedule!r}")
        if not 0.0 < self.delta_fixed < 1.0:
            raise ValueError(f"fixed delta must be in (0, 1), got {self.delta_fixed}")

    @classmethod
    def standard(cls, **kw) -> "DeviationSpec":
        """Radius 2*sqrt(log(t/delta)/n), the default used by the rate checks."""
        return cls(scale=4.0, exponent=0.5, **kw)

    @classmethod
    def subgaussian(cls, sigma2: float = 1.0, **kw) -> "DeviationSpec":
        """Radius sqrt(2*sigma2*log(t/delta)/n), the plain sub-Gaussian radius."""
        return cls(scale=2.0 * sigma2, exponent=0.5, sigma2=sigma2, **kw)

    @classmethod
    def subgaussian_doubled(cls, sigma2: float = 1.0, **kw) -> "DeviationSpec":
        """Radius 2*sqrt(2*sigma2*log(t/delta)/n)."""
        return cls(scale=8.0 * sigma2, exponent=0.5, sigma2=sigma2, **kw)

    @classmethod
    def noiseless(cls, **kw) -> "DeviationSpec":
        """Zero radius; selection reduces to plugging in the point estimates."""
        return cls(scale=0.0, exponent=0.5, **kw)

    def delta_at(self, t: int) -> float:
        if self.delta_schedule == DELTA_FIXED:
            return self.delta_fixed
        return 1.0 / (t * t)


def deviation_radius(scale: float, exponent: float, t: int, n_obs: int, delta: float) -> float:
    """Bare radius formula (scale * log(t/delta) / n_obs) ** exponent.

    Exposed separately from DeviationSpec because the formula itself is
    meaningful for any positive exponent, while specs used by policies are
    restricted to exponents in (0, 1/2].
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if n_obs < 0:
        raise ValueError(f"observation count must be >= 0, got {n_obs}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if n_obs == 0:
        return INFINITE_DEVIATION
    if scale == 0.0:
        return 0.0
    x = scale * math.log(t / delta) / n_obs
    return math.sqrt(x) if exponent == 0.5 else x**exponent


def deviation_radii(spec: DeviationSpec, t: int, delta: float, counts: np.ndarray) -> np.ndarray:
    """`deviation(spec, t, n, delta)` for every count n of an array of positive counts.

    The log is taken once, with `math.log`, and the power with `math.sqrt`
    semantics (np.sqrt rounds correctly too); other exponents use Python's
    `**` per element, because `np.power` need not round as libm does.
    """
    x = spec.scale * math.log(t / delta) / counts
    if spec.exponent == 0.5:
        return np.sqrt(x)
    e = spec.exponent
    return np.array([v**e for v in x.ravel().tolist()]).reshape(x.shape)


def deviation(spec: DeviationSpec, t: int, n_obs: int, delta: float) -> float:
    """Radius around a parameter estimate built from n_obs observations.

    Returns the infinite sentinel when n_obs = 0, which forces exploration
    of the unobserved coefficient.
    """
    return deviation_radius(spec.scale, spec.exponent, t, n_obs, delta)


def check_action_map(action_map: Sequence[int] | None, num_coeffs: int) -> tuple[int, ...]:
    """The action-to-coefficient map with every entry checked; the identity when None."""
    if action_map is None:
        return tuple(range(num_coeffs))
    amap = tuple(int(a) for a in action_map)
    if len(amap) != num_coeffs:
        raise ValueError(f"map needs {num_coeffs} entries, got {len(amap)}")
    if any(not 0 <= j < num_coeffs for j in amap):
        raise ValueError(f"map entries must be in [0, {num_coeffs}), got {amap}")
    return amap


class FeedbackBlock:
    """Per-coefficient observation counts and running estimates of S seeds.

    Counts, running means and Welford sums are (S, K) arrays.  `update`
    routes each seed's observation through the action map
    (`action_to_coeff[a]` names the coefficient an observation of action a
    informs) and folds it into that coefficient's running mean of raw
    draws, of squared centered draws (known-center variance estimation), or
    Welford sample variance.  The arithmetic is that of a single trial, so
    each row holds exactly what that seed's trial alone would hold.  Every
    seed routes one observation per round, so the number of rounds since
    the last reset, `rounds`, is one integer for the whole block.
    """

    def __init__(
        self,
        num_seeds: int,
        num_coeffs: int,
        deviation_spec: DeviationSpec,
        action_to_coeff: Sequence[int] | None = None,
        estimator: str = ESTIMATOR_MEAN,
        centers: Sequence[float] | None = None,
    ):
        amap = check_action_map(action_to_coeff, num_coeffs)
        if estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {estimator!r}")
        if estimator == ESTIMATOR_CENTERED_SQUARE and centers is None:
            raise ValueError("centered_square estimator needs known centers")
        self.deviation_spec = deviation_spec
        self.estimator = estimator
        self.num_coeffs = num_coeffs
        self._centered = estimator == ESTIMATOR_CENTERED_SQUARE
        self._welford = estimator == ESTIMATOR_SAMPLE_VARIANCE
        # counts are whole numbers held as floats: exact, and dividing by
        # them gives the correctly rounded quotient of the integers, without
        # a conversion per round
        self.obs_counts = np.zeros((num_seeds, num_coeffs))
        self.means = np.zeros((num_seeds, num_coeffs))
        self.m2 = np.zeros((num_seeds, num_coeffs))
        self.rounds = 0
        self._map = None if amap == tuple(range(num_coeffs)) else np.array(amap)
        self._centers = None if centers is None else np.array(centers, dtype=float)
        self._row = np.arange(num_seeds) * num_coeffs
        self._flat = (self.obs_counts.reshape(-1), self.means.reshape(-1), self.m2.reshape(-1))
        self.observed = False

    def reset(self) -> None:
        """Forget all observations of every seed (the doubling restart)."""
        self.obs_counts.fill(0.0)
        self.means.fill(0.0)
        self.m2.fill(0.0)
        self.rounds = 0
        self.observed = False

    def unobserved(self) -> np.ndarray | None:
        """Mask of the coefficients each seed has not observed yet; None once
        every seed has observed every coefficient (counts only grow until the
        next reset, so that answer is kept)."""
        if self.observed:
            return None
        zero = self.obs_counts == 0.0
        if zero.any():
            return zero
        self.observed = True
        return None

    def estimates(self) -> np.ndarray:
        """Current parameter estimates, one row per seed; 0.0 where unobserved.

        For the mean estimators this is the running-mean array itself, which
        callers only read.
        """
        if self._welford:
            n = self.obs_counts
            out = np.zeros(self.m2.shape)
            np.divide(self.m2, n - 1.0, out=out, where=n >= 2.0)
            return out
        return self.means

    def update(self, actions: np.ndarray, obs: np.ndarray) -> None:
        """Route each seed's observation through the action map and fold it in."""
        j = actions if self._map is None else self._map[actions]
        if self._centered:
            d = obs - self._centers[j]
            value = d * d
        else:
            value = obs
        flat = self._row + j
        counts, means, m2 = self._flat
        n = counts[flat]
        n += 1.0
        counts[flat] = n
        old = means[flat]
        delta = value - old
        mean = delta / n
        mean += old  # old + delta / n
        means[flat] = mean
        if self._welford:
            m2[flat] += delta * (value - mean)
        self.rounds += 1


@dataclass(frozen=True)
class ObservationModel:
    """Per-action observation distributions (sub-Gaussian by contract).

    Kinds: gaussian (mean, sd per action), bernoulli (mean per action),
    deterministic (constant equal to the mean).
    """

    kind: str
    means: tuple[float, ...]
    sds: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "bernoulli", "deterministic"):
            raise ValueError(f"unknown observation kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.sds is None or len(self.sds) != len(self.means):
                raise ValueError("gaussian observations need one sd per action")
            if any(s < 0.0 for s in self.sds):
                raise ValueError("gaussian sds must be nonnegative")
        if self.kind == "bernoulli" and any(not 0.0 <= m <= 1.0 for m in self.means):
            raise ValueError("bernoulli means must be in [0, 1]")

    def subgaussian_parameter(self) -> float:
        if self.kind == "gaussian":
            return max(self.sds) ** 2
        if self.kind == "bernoulli":
            return 0.25
        return 0.0


class ObservationSampler:
    """Materialized observation streams of a block of seeds.

    Stream (s, a) is generated from SeedSequence((s, a)) and consumed in
    pull order, so draw n of action a for seed s is reproducible in
    isolation.  Each `draw` call is one round.  Every CHUNK rounds, each
    stream holding fewer than CHUNK unused draws gets CHUNK more, so no
    stream runs dry before the next top-up and the buffers hold under
    2 * CHUNK values per stream.  Chunking does not change the values.

    `draw` takes one action per seed (an int array; a plain int draws that
    action for every seed) and returns the seeds' observations as an array.
    """

    CHUNK = 64

    def __init__(self, obs_model: ObservationModel, seeds: Sequence[int]):
        self.obs_model = obs_model
        seeds = tuple(int(s) for s in seeds)
        k = len(obs_model.means)
        self._k = k
        self._gens = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence((s, a))))
            for s in seeds
            for a in range(k)
        ]
        streams = len(seeds) * k
        width = 2 * self.CHUNK
        self._buf = np.empty(streams * width)
        # next unused draw of each stream, as an index into the flat buffer,
        # and where its buffered draws end
        self._next = np.arange(streams) * width
        self._end = self._next.copy()
        self._row = np.arange(len(seeds)) * k
        self._until_top_up = 0

    def draw(self, action) -> np.ndarray:
        """Next observation of each seed's action; consumes one value of each
        stream drawn from."""
        if self._until_top_up == 0:
            self._top_up()
            self._until_top_up = self.CHUNK
        self._until_top_up -= 1
        stream = self._row + action
        i = self._next[stream]
        obs = self._buf[i]
        i += 1
        self._next[stream] = i
        return obs

    def _top_up(self) -> None:
        chunk = self.CHUNK
        width = 2 * chunk
        model = self.obs_model
        buf, nxt, end = self._buf, self._next, self._end
        unused = end - nxt
        low = np.flatnonzero(unused < chunk)
        for f, u, i in zip(low.tolist(), unused[low].tolist(), nxt[low].tolist()):
            a = f % self._k
            start = f * width
            buf[start : start + u] = buf[i : i + u]
            fresh = slice(start + u, start + u + chunk)
            gen = self._gens[f]
            if model.kind == "gaussian":
                buf[fresh] = gen.normal(model.means[a], model.sds[a], size=chunk)
            elif model.kind == "bernoulli":
                buf[fresh] = gen.random(chunk) < model.means[a]
            else:
                buf[fresh] = model.means[a]
            nxt[f] = start
            end[f] = start + u + chunk
