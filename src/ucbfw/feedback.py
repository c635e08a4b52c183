"""Bandit feedback: observation streams, running estimators, confidence radii.

Observations are drawn from per-action streams keyed by (trial seed, action),
so the n-th draw for an action is a pure function of (trial seed, action, n)
and results do not depend on scheduling or on how many values are drawn per
call.  Each routed observation updates the running estimate of one loss
parameter; the deviation radius shrinks with that parameter's observation
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .losses import LossModel, gradient_from_params, sensitivity

INFINITE_DEVIATION = math.inf

DELTA_INVERSE_T_SQUARED = "inverse_t_squared"
DELTA_FIXED = "fixed"

ESTIMATOR_MEAN = "mean"
ESTIMATOR_CENTERED_SQUARE = "centered_square"
ESTIMATOR_SAMPLE_VARIANCE = "sample_variance"

_ESTIMATORS = (ESTIMATOR_MEAN, ESTIMATOR_CENTERED_SQUARE, ESTIMATOR_SAMPLE_VARIANCE)


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
    return (scale * math.log(t / delta) / n_obs) ** exponent


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
        if estimator not in _ESTIMATORS:
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
