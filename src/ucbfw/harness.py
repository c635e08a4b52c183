"""Monte Carlo harness: seeded trials, aggregation, rate fits, bound checks.

A trial is fully determined by (experiment config, trial seed): observation
streams are keyed by (seed, action), policy randomness by (seed, stream
tag), so trials can run in any order or process layout and still aggregate
bit-identically once sorted by seed.

Trials run in blocks: `run_trial` advances one block of seeds in lockstep,
one round at a time on (S, K) arrays, and `run_experiment` plans the
blocks, contiguous runs of seeds, and hands them to its workers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .feedback import (
    ESTIMATOR_CENTERED_SQUARE,
    ESTIMATOR_MEAN,
    ESTIMATORS,
    DeviationSpec,
    FeedbackBlock,
    ObservationModel,
    ObservationSampler,
    check_action_map,
)
from .losses import FAMILIES, LossModel, fold_sum, loss_value, minimizer
from .policies import (
    DOUBLING_UCB_FW,
    FIXED_ALLOCATION,
    LCB_BANDIT,
    ORACLE_FW,
    POLICY_KINDS,
    PRESAMPLED_UCB_FW,
    UCB_FW,
    UNIFORM,
    DoublingUcbFwPolicy,
    FixedAllocationPolicy,
    LcbBanditPolicy,
    OracleFwPolicy,
    PresampleConfig,
    PresampledUcbFwPolicy,
    UcbFwPolicy,
    UniformPolicy,
    epsilon_diagnostic,
)
from .simplex import OccupationState, check_simplex

# Seeds per lockstep block.  `run_experiment` splits the seeds into at most
# `workers` parts, none smaller than MIN_BLOCK: a round costs about 15 us
# fixed plus 0.13 us per seed (K = 2, 2 CPUs), so a smaller part, whose
# round is mostly that fixed cost, gains little from a worker of its own.
# It cuts each part into blocks of at most MAX_BLOCK.  The sampler keeps a
# block's observation buffers within feedback.BUFFER_BYTES, or within
# 2 * CHUNK values per stream where that is larger, so MAX_BLOCK bounds
# them only once S * K exceeds 1024.
MIN_BLOCK = 64
MAX_BLOCK = 128

# The radius scale each deviation preset sets from sigma2, at exponent 1/2.
# A deviation given as a (scale, exponent) pair sets its radius itself.
DEVIATION_PRESETS = {
    # 2*sqrt(log(t/delta)/n), the default used by the rate checks
    "theorem1": lambda sigma2: 4.0,
    # sqrt(2*sigma2*log(t/delta)/n), the plain sub-Gaussian radius
    "prop1": lambda sigma2: 2.0 * sigma2,
    # 2*sqrt(2*sigma2*log(t/delta)/n)
    "prop1_doubled": lambda sigma2: 8.0 * sigma2,
    # zero: selection reduces to plugging in the point estimates
    "noiseless": lambda sigma2: 0.0,
}


@dataclass(frozen=True)
class ModelConfig:
    """Primitive description of a loss instance (see build_model).

    `build_model` keeps the model it builds in `built`, so one parsed config
    builds its model, and for Markowitz solves its minimizer, once: every
    later call, in this process or in a pool worker that receives the
    pickled config, returns that model.
    """

    kind: str
    mu: tuple[float, ...] | None = None
    theta: tuple[float, ...] | None = None
    sigma2: tuple[float, ...] | None = None
    beta: tuple[float, ...] | None = None
    covariance: tuple[tuple[float, ...], ...] | None = None
    risk_weight: float | None = None
    tables: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...] | None = None
    centers: tuple[float, ...] | None = None
    interior_floor: tuple[float, ...] | None = None
    built: LossModel | None = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class FeedbackConfig:
    """How observations are generated and folded into parameter estimates."""

    observation: str = "gaussian"
    noise_sd: float = 1.0
    action_map: tuple[int, ...] | None = None
    estimator: str | None = None


@dataclass(frozen=True)
class PolicyConfig:
    """Primitive description of a policy (see build_policy), checked when
    made.  `deviation` is a preset of DEVIATION_PRESETS or a (scale,
    exponent) pair, and `deviation_spec` is the radius it describes."""

    kind: str = UCB_FW
    deviation: str | tuple[float, float] = "theorem1"
    sigma2: float = 1.0
    weights: tuple[float, ...] | None = None
    presample: PresampleConfig | None = None
    doubling_beta: float = 0.5
    deviation_spec: DeviationSpec = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        # weights and presample are read by one kind each, which needs them
        if (self.kind == FIXED_ALLOCATION) != (self.weights is not None):
            raise ValueError(f"{self.kind} policy {'needs' if self.weights is None else 'takes no'} weights")
        if (self.kind == PRESAMPLED_UCB_FW) != (self.presample is not None):
            raise ValueError(f"{self.kind} policy {'needs' if self.presample is None else 'takes no'} presample")
        if self.weights is not None:
            check_simplex(self.weights)
        if not 0.0 < self.doubling_beta <= 0.5:
            raise ValueError(f"doubling beta must be in (0, 1/2], got {self.doubling_beta}")
        if not 0.0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and positive, got {self.sigma2}")
        if not isinstance(self.deviation, str):
            scale, exponent = self.deviation
            spec = DeviationSpec(scale, exponent)
        elif self.deviation in DEVIATION_PRESETS:
            spec = DeviationSpec(DEVIATION_PRESETS[self.deviation](self.sigma2))
        else:
            raise ValueError(
                f"unknown deviation preset {self.deviation!r}; "
                f"use one of {tuple(DEVIATION_PRESETS)} or a (scale, exponent) pair"
            )
        object.__setattr__(self, "deviation_spec", spec)


class ConfigFieldError(ValueError):
    """An experiment that cannot run; `path` names the config field at
    fault, such as ("policy", "weights")."""

    def __init__(self, path: tuple[str, ...], message: str):
        super().__init__(message)
        self.path = path


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment, checked when made: one that cannot run raises
    ConfigFieldError.  The check builds the model (kept on `model.built`)
    and keeps the feedback set-up every trial shares (see _feedback_setup)."""

    experiment: str
    model: ModelConfig
    policy: PolicyConfig
    feedback: FeedbackConfig
    horizons: tuple[int, ...]
    seed_count: int
    seed_base: int
    record_epsilon: bool = False
    out_dir: str | None = None
    observations: ObservationModel = field(init=False, compare=False, repr=False)
    estimator: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        problem = _experiment_problem(self)
        if problem is not None:
            raise ConfigFieldError(*problem)


@dataclass(frozen=True)
class TrialRecord:
    """Snapshots of one trial at each configured horizon."""

    seed: int
    horizons: tuple[int, ...]
    errors: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]
    sum_epsilon: tuple[float, ...] | None = None


@dataclass(frozen=True)
class AggregateResult:
    horizons: tuple[int, ...]
    mean_error: tuple[float, ...]
    stderr_error: tuple[float, ...]
    n: int


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual_rms: float
    horizons_used: tuple[int, ...]
    n_excluded: int


@dataclass(frozen=True)
class BoundRow:
    horizon: int
    empirical: float
    bound: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class BoundReport:
    selector: str
    supported: bool
    reason: str
    rows: tuple[BoundRow, ...]

    @property
    def passed(self) -> bool:
        return self.supported and all(r.passed for r in self.rows)


def build_model(cfg: ModelConfig) -> LossModel:
    """The loss instance `cfg` describes, built on the first call and kept on `cfg`."""
    if cfg.built is None:
        family = FAMILIES.get(cfg.kind)
        if family is None:
            raise ValueError(f"unknown model kind {cfg.kind!r}")
        missing = [name for name in family.needs if getattr(cfg, name) is None]
        if missing:
            raise ValueError(f"{cfg.kind} model needs {', '.join(missing)}")
        takes = ("kind",) + family.needs + family.options
        unread = [name for name, value in vars(cfg).items() if value is not None and name not in takes]
        if unread:
            raise ValueError(f"{cfg.kind} model takes {', '.join(takes[1:])}, not {', '.join(unread)}")
        model = family.build(**{name: getattr(cfg, name) for name in family.needs + family.options})
        # `built` is a cache, not part of the description, so it is set
        # past the frozen dataclass's __setattr__
        object.__setattr__(cfg, "built", model)
    return cfg.built


def _feedback_setup(
    fb_cfg: FeedbackConfig, model: LossModel, sigma2: float
) -> tuple[ObservationModel, str]:
    """The observation model and the estimator of `fb_cfg` on `model`, whose
    draws the radius declares sub-gaussian with parameter sigma2; ValueError
    when they cannot run.  Action a draws around the parameter of the
    coefficient it reports or, under variance feedback, around that
    coefficient's known center, the draw center the feedback block squares
    a's draws around (see build_policy): the one place centers are routed."""
    amap = check_action_map(fb_cfg.action_map, model.num_actions)
    variance = model.variance_feedback
    if variance:
        if fb_cfg.observation != "gaussian":
            raise ValueError("exp_design feedback draws gaussian observations")
        sds = tuple(math.sqrt(model.params[j]) for j in amap)
        means = tuple(model.centers[j] for j in amap)
    else:
        means = tuple(model.params[j] for j in amap)
        sds = tuple(fb_cfg.noise_sd for _ in means) if fb_cfg.observation == "gaussian" else None
    observations = ObservationModel(kind=fb_cfg.observation, means=means, sds=sds)
    estimator = fb_cfg.estimator or (ESTIMATOR_CENTERED_SQUARE if variance else ESTIMATOR_MEAN)
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    # the squared-draw estimators give variances, which only exp_design's
    # gradient reads; a mean family would take them for its means
    if estimator != ESTIMATOR_MEAN and not variance:
        raise ValueError(f"{estimator} estimator only applies to exp_design")
    if estimator == ESTIMATOR_MEAN and variance:
        raise ValueError("exp_design estimates variances; use centered_square or sample_variance")
    # the radius calibration assumes routed values are sub-gaussian with the
    # declared parameter; squared-draw estimators are covered by the
    # sensitivity factors instead, so only mean estimators are checked
    par = observations.subgaussian_parameter()
    if not variance and par > sigma2 + 1e-12:
        raise ValueError(
            f"observation sub-gaussian parameter {par} exceeds the declared "
            f"deviation sigma2 {sigma2}"
        )
    return observations, estimator


def build_policy(config: ExperimentConfig, model: LossModel, seeds: Sequence[int], t_max: int):
    """The policy of `config` for a lockstep block of trials, one per seed."""
    cfg = config.policy
    if cfg.kind == UNIFORM:
        return UniformPolicy(model.num_actions, seeds)
    if cfg.kind == FIXED_ALLOCATION:
        return FixedAllocationPolicy(cfg.weights)
    if cfg.kind == ORACLE_FW:
        return OracleFwPolicy(model)
    fb = FeedbackBlock(
        len(seeds),
        model.num_actions,
        cfg.deviation_spec,
        action_to_coeff=config.feedback.action_map,
        estimator=config.estimator,
        centers=config.observations.means if model.variance_feedback else (0.0,) * model.num_actions,
    )
    if cfg.kind == LCB_BANDIT:
        return LcbBanditPolicy(fb)
    if cfg.kind == UCB_FW:
        return UcbFwPolicy(model, fb)
    if cfg.kind == DOUBLING_UCB_FW:
        return DoublingUcbFwPolicy(model, fb, cfg.doubling_beta, t_max)
    return PresampledUcbFwPolicy(model, fb, cfg.presample)


def _experiment_problem(config: ExperimentConfig) -> tuple[tuple[str, ...], str] | None:
    """The first way `config` cannot run (its model, horizons, seeds,
    diagnostics, policy fields or feedback), as the path of the config
    field at fault and a message; None when it can, once the feedback
    set-up is kept on `config`."""
    try:
        model = build_model(config.model)
    except ValueError as exc:
        return ("model",), str(exc)
    horizons, k = config.horizons, model.num_actions
    if not horizons:
        return ("horizons",), "need at least one horizon"
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        return ("horizons",), f"horizons must be strictly increasing, got {horizons}"
    if horizons[0] < k:
        return ("horizons",), (
            f"first horizon {horizons[0]} is shorter than the forced round robin over {k} actions"
        )
    if config.seed_count < 1:
        return ("seed_count",), f"seed count must be >= 1, got {config.seed_count}"
    if config.seed_base < 0:
        return ("seed_base",), f"seed base must be >= 0, got {config.seed_base}"
    if config.seed_base + config.seed_count > 1 << 64:
        return ("seed_base",), (
            f"seeds must be below 2**64, got base {config.seed_base} with {config.seed_count} seeds"
        )
    if config.record_epsilon and not model.smooth_on_simplex:
        return ("record_epsilon",), (
            "per-step gradient diagnostics need a loss with simplex-wide "
            f"gradients; {model.kind} is undefined at the early boundary points"
        )
    weights = config.policy.weights
    if weights is not None and len(weights) != k:
        return ("policy", "weights"), f"need one weight per action: {len(weights)} vs {k}"
    brackets = config.policy.presample and config.policy.presample.brackets
    if brackets is not None and len(brackets) != k:
        return ("policy", "presample", "brackets"), f"need one bracket per arm: {len(brackets)} vs {k}"
    try:
        setup = _feedback_setup(config.feedback, model, config.policy.sigma2)
    except ValueError as exc:
        return ("feedback",), str(exc)
    # derived fields, set past the frozen dataclass's __setattr__
    for name, value in zip(("observations", "estimator"), setup):
        object.__setattr__(config, name, value)
    return None


def run_trial(
    config: ExperimentConfig, seeds: tuple[int, ...], t_max: int | None = None
) -> list[TrialRecord]:
    """One lockstep block: the record of each of `seeds`, in the order
    given, with error snapshots at the configured horizons up to t_max
    (the last horizon by default).  Every record is the one its seed gives
    alone."""
    if not seeds:
        return []
    model = build_model(config.model)
    info = minimizer(model)
    if t_max is None:
        t_max = config.horizons[-1]
    horizons = tuple(h for h in config.horizons if h <= t_max)
    sampler = ObservationSampler(config.observations, seeds, t_max)
    policy = build_policy(config, model, seeds, t_max)
    k = model.num_actions
    occ = OccupationState(k, seeds=len(seeds))
    loss_star = info.loss_star
    record_eps = config.record_epsilon
    # select leaves occ as it was; a constant-gradient epsilon reads no point
    eps_reads_p = not model.constant_gradient

    errors: list[list[float]] = []
    counts_snap: list[list[list[int]]] = []
    eps_snap: list[list[float]] = []
    eps_total = np.zeros(len(seeds))
    uniform = np.full((len(seeds), k), 1.0 / k)
    select = policy.select
    observe = policy.observe
    draw = sampler.draw
    apply_ = occ.apply
    for h in horizons:
        for _ in range(h - occ.t):
            a = select(occ)
            if record_eps:
                p_prev = None
                if eps_reads_p:
                    p_prev = uniform if occ.t == 0 else occ.proportions()
                eps_total += epsilon_diagnostic(model, p_prev, a)
            observe(a, draw(a))
            apply_(a)
        errors.append([loss_value(model, p) - loss_star for p in occ.proportions().tolist()])
        counts_snap.append(occ.counts.astype(np.int64).tolist())
        eps_snap.append(eps_total.tolist())
    return [
        TrialRecord(
            seed=s,
            horizons=horizons,
            errors=tuple(e[i] for e in errors),
            counts=tuple(tuple(c[i]) for c in counts_snap),
            sum_epsilon=tuple(e[i] for e in eps_snap) if record_eps else None,
        )
        for i, s in enumerate(seeds)
    ]


def _split(seeds: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """`seeds` cut into n contiguous blocks whose sizes differ by at most one."""
    size, extra = divmod(len(seeds), n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return [seeds[a:b] for a, b in zip(bounds, bounds[1:])]


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[TrialRecord]:
    """All seeded trials, returned in seed order regardless of worker layout."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seeds = tuple(config.seed_base + i for i in range(config.seed_count))
    # at most `workers` parts, none below MIN_BLOCK, each cut into blocks
    # of at most MAX_BLOCK; the blocks are contiguous and run in seed order
    parts = _split(seeds, max(1, min(workers, len(seeds) // MIN_BLOCK)))
    blocks = [block for part in parts for block in _split(part, -(-len(part) // MAX_BLOCK))]
    if len(parts) == 1:
        return [r for block in blocks for r in run_trial(config, block)]
    # imported here, so that single-worker runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # every block draws from numpy.random: loaded before the fork, no worker imports it
    import numpy.random

    with ProcessPoolExecutor(max_workers=len(parts)) as pool:
        return [r for records in pool.map(run_trial, [config] * len(blocks), blocks) for r in records]


def aggregate(records: Sequence[TrialRecord]) -> AggregateResult:
    """Mean and standard error per horizon, in seed order for bit stability."""
    if not records:
        raise ValueError("no records to aggregate")
    recs = sorted(records, key=lambda r: r.seed)
    horizons = recs[0].horizons
    for r in recs:
        if r.horizons != horizons:
            raise ValueError(
                f"records disagree on horizons: {r.horizons} vs {horizons}"
            )
    n = len(recs)
    errs = np.array([r.errors for r in recs], dtype=float)
    means = errs.mean(axis=0)
    if n > 1:
        # an infinite error leaves its horizon's spread NaN, without a warning
        with np.errstate(invalid="ignore"):
            stderr = errs.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        stderr = np.zeros_like(means)
    return AggregateResult(
        horizons=horizons,
        mean_error=tuple(float(v) for v in means),
        stderr_error=tuple(float(v) for v in stderr),
        n=n,
    )


def fit_rate(horizons: Sequence[int], mean_errors: Sequence[float]) -> RateFit:
    """Least-squares slope of log(mean error) against log(T).

    Nonpositive and non-finite means have no finite log; they are dropped
    with a warning, and fewer than 3 surviving points is an error.
    """
    if len(horizons) != len(mean_errors):
        raise ValueError("horizons and means must align")
    kept = [(t, e) for t, e in zip(horizons, mean_errors) if 0.0 < e < math.inf]
    excluded = len(horizons) - len(kept)
    if excluded:
        warnings.warn(
            f"rate fit dropped {excluded} nonpositive or non-finite mean error(s)", stacklevel=2
        )
    if len(kept) < 3:
        raise ValueError(f"rate fit needs >= 3 finite positive points, got {len(kept)}")
    x = np.log([t for t, _ in kept])
    y = np.log([e for _, e in kept])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        horizons_used=tuple(t for t, _ in kept),
        n_excluded=excluded,
    )


_INFINITE_C = "smoothness constant is infinite without an interior floor"


def _lemma1(model: LossModel, info, records):
    c = model.smoothness_C
    if not math.isfinite(c):
        return _INFINITE_C
    if not records or any(r.sum_epsilon is None for r in records):
        return "pathwise check needs records with epsilon sums"
    return lambda t, sum_epsilon: sum_epsilon / t + c * math.log(math.e * t) / t


# The pi^2 terms of _thm1 and _prop2 are sums over t of delta_t = 1/t^2, the
# confidence schedule DeviationSpec fixes.
def _thm1(model: LossModel, info, records):
    c = model.smoothness_C
    lam = 2.0 * model.sup_grad + model.sup_loss
    if not (math.isfinite(c) and math.isfinite(lam)):
        return "needs finite smoothness and sup norms"
    k = model.num_actions
    return lambda t: (
        4.0 * math.sqrt(3.0 * k * math.log(t) / t)
        + c * math.log(math.e * t) / t
        + (math.pi**2 / 6.0 + k) * lam / t
    )


def _prop2(model: LossModel, info, records):
    if not model.constant_gradient:
        return "applies to losses with constant gradient (vertex case)"
    gaps = model.gaps.tolist()
    if not all(g > 1e-12 for i, g in enumerate(gaps) if i != model.star):
        return "needs a unique vertex minimizer with positive gaps"
    inv_gaps = fold_sum(1.0 / g for i, g in enumerate(gaps) if i != model.star)
    k = model.num_actions
    scale = model.sup_grad
    return lambda t: 48.0 * math.log(t) / t * inv_gaps + 3.0 * (
        math.pi**2 / 3.0 + k
    ) * math.sqrt(k) * scale / t


def _thm4(model: LossModel, info, records):
    mu = model.strong_convexity
    eta = info.eta
    c = model.smoothness_C
    if mu <= 0.0:
        return "needs a strongly convex loss"
    if eta <= 0.0:
        return "needs an interior minimizer (eta > 0)"
    if not math.isfinite(c):
        return _INFINITE_C
    k = model.num_actions
    c1 = 96.0 * k / (mu * eta**2)
    c2 = 24.0 / (mu * eta**3) + c
    c3 = 24.0 * (20.0 / (mu * eta**2)) ** 2 * k + mu * eta**2 / 2.0 + c
    def env(t: float) -> float:
        lt = math.log(t)
        return c1 * lt * lt / t + c2 * lt / t + c3 / t
    return env


class Bound(NamedTuple):
    """A rate envelope.  `check(model, minimizer info, records)` gives the
    precondition the model fails, as a reason, or the envelope: a function
    of the horizon t, and for a pathwise bound also of a trial's epsilon sum
    up to t.  A pathwise bound is compared with each record, so the run
    must record epsilon sums; any other bound with the mean error."""

    check: Callable
    pathwise: bool = False


# The bound selectors: `lemma1` (pathwise), `thm1` (slow rate), `prop2`
# (vertex fast rate for losses with constant gradient), `thm4` (strongly
# convex fast rate).
BOUNDS = {
    "lemma1": Bound(_lemma1, pathwise=True),
    "thm1": Bound(_thm1),
    "prop2": Bound(_prop2),
    "thm4": Bound(_thm4),
}


def bound_check(
    agg: AggregateResult,
    model: LossModel,
    selector: str,
    records: Sequence[TrialRecord] | None = None,
    tol: float = 1e-9,
) -> BoundReport:
    """Compare empirical errors against the envelope of BOUNDS[selector].

    Each row is the candidate with the smallest margin at its horizon (the
    first one on a tie).  A model that fails the bound's precondition makes
    it unsupported rather than an error.
    """
    if selector not in BOUNDS:
        raise ValueError(f"unknown bound selector {selector!r}")
    bound = BOUNDS[selector]
    envelope = bound.check(model, minimizer(model), records)
    if isinstance(envelope, str):
        return BoundReport(selector=selector, supported=False, reason=envelope, rows=())
    rows = []
    for i, t in enumerate(agg.horizons):
        if bound.pathwise:
            candidates = [(r.errors[i], envelope(t, r.sum_epsilon[i])) for r in records]
        else:
            candidates = [(agg.mean_error[i], envelope(t))]
        err, value = min(candidates, key=lambda c: c[1] - c[0])
        margin = value - err
        rows.append(BoundRow(horizon=t, empirical=err, bound=value, margin=margin, passed=margin >= -tol))
    return BoundReport(selector=selector, supported=True, reason="", rows=tuple(rows))
