"""Monte Carlo harness: seeded trials, aggregation, rate fits, bound checks.

A trial is fully determined by (experiment config, trial seed): observation
streams are keyed by (seed, action), policy randomness by (seed, stream
tag), so trials can run in any order or process layout and still aggregate
bit-identically once sorted by seed.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .feedback import (
    ESTIMATOR_CENTERED_SQUARE,
    ESTIMATOR_MEAN,
    ESTIMATOR_SAMPLE_VARIANCE,
    DeviationSpec,
    FeedbackState,
    ObservationModel,
    ObservationSampler,
)
from .losses import (
    COBB_DOUGLAS,
    EXP_DESIGN,
    LINEAR,
    MARKOWITZ,
    QUADRATIC,
    SEPARABLE,
    LossModel,
    MinimizerInfo,
    PiecewiseLinear,
    cobb_douglas_loss,
    exp_design_loss,
    linear_loss,
    loss_value,
    markowitz_loss,
    minimizer,
    quadratic_loss,
    separable_loss,
)
from .policies import (
    DOUBLING_UCB_FW,
    FIXED_ALLOCATION,
    LCB_BANDIT,
    ORACLE_FW,
    PRESAMPLED_UCB_FW,
    TIE_SEEDED,
    UCB_FW,
    UNIFORM,
    DoublingUcbFwPolicy,
    FixedAllocationPolicy,
    LcbBanditPolicy,
    OracleFwPolicy,
    PolicySpec,
    PresampleConfig,
    PresampledUcbFwPolicy,
    UcbFwPolicy,
    UniformPolicy,
    epsilon_diagnostic,
)
from .simplex import OccupationState

_TIE_STREAM_TAG = (1 << 31) + 1

SMOOTH_KINDS = (LINEAR, QUADRATIC, MARKOWITZ, SEPARABLE)

DEVIATION_PRESETS = ("theorem1", "prop1", "prop1_doubled", "noiseless")


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
    """Primitive description of a policy (see build_policy)."""

    kind: str = UCB_FW
    deviation: str = "theorem1"
    deviation_scale: float | None = None
    deviation_exponent: float | None = None
    sigma2: float = 1.0
    delta_schedule: str = "inverse_t_squared"
    delta_fixed: float = 0.05
    tie_break: str = "lowest_index"
    weights: tuple[float, ...] | None = None
    presample: PresampleConfig | None = None
    doubling_beta: float = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: ModelConfig
    policy: PolicyConfig
    feedback: FeedbackConfig
    horizons: tuple[int, ...]
    seed_count: int
    seed_base: int
    record_epsilon: bool = False
    out_dir: str | None = None


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
        # `built` is a cache, not part of the description, so it is set
        # past the frozen dataclass's __setattr__
        object.__setattr__(cfg, "built", _build_model(cfg))
    return cfg.built


def _build_model(cfg: ModelConfig) -> LossModel:
    kind = cfg.kind
    if kind == LINEAR:
        if cfg.mu is None:
            raise ValueError("linear model needs mu")
        return linear_loss(cfg.mu)
    if kind == QUADRATIC:
        if cfg.theta is None:
            raise ValueError("quadratic model needs theta")
        return quadratic_loss(cfg.theta)
    if kind == EXP_DESIGN:
        if cfg.sigma2 is None:
            raise ValueError("exp_design model needs sigma2")
        return exp_design_loss(cfg.sigma2, centers=cfg.centers, interior_floor=cfg.interior_floor)
    if kind == COBB_DOUGLAS:
        if cfg.beta is None:
            raise ValueError("cobb_douglas model needs beta")
        return cobb_douglas_loss(cfg.beta, interior_floor=cfg.interior_floor)
    if kind == MARKOWITZ:
        if cfg.mu is None or cfg.covariance is None or cfg.risk_weight is None:
            raise ValueError("markowitz model needs mu, covariance and risk_weight")
        return markowitz_loss(cfg.covariance, cfg.risk_weight, cfg.mu)
    if kind == SEPARABLE:
        if cfg.mu is None or cfg.tables is None:
            raise ValueError("separable model needs mu and tables")
        tabs = [PiecewiseLinear(tuple(xs), tuple(ys)) for xs, ys in cfg.tables]
        return separable_loss(cfg.mu, tabs)
    raise ValueError(f"unknown model kind {kind!r}")


def build_deviation_spec(cfg: PolicyConfig) -> DeviationSpec:
    kw = dict(
        sigma2=cfg.sigma2,
        delta_schedule=cfg.delta_schedule,
        delta_fixed=cfg.delta_fixed,
    )
    if cfg.deviation == "custom":
        if cfg.deviation_scale is None or cfg.deviation_exponent is None:
            raise ValueError("custom deviation needs deviation_scale and deviation_exponent")
        return DeviationSpec(scale=cfg.deviation_scale, exponent=cfg.deviation_exponent, **kw)
    if cfg.deviation == "theorem1":
        return DeviationSpec.standard(**kw)
    if cfg.deviation == "prop1":
        del kw["sigma2"]
        return DeviationSpec.subgaussian(cfg.sigma2, **kw)
    if cfg.deviation == "prop1_doubled":
        del kw["sigma2"]
        return DeviationSpec.subgaussian_doubled(cfg.sigma2, **kw)
    if cfg.deviation == "noiseless":
        return DeviationSpec.noiseless(**kw)
    raise ValueError(
        f"unknown deviation preset {cfg.deviation!r}; use one of {DEVIATION_PRESETS} or 'custom'"
    )


def _default_estimator(model_kind: str) -> str:
    return ESTIMATOR_CENTERED_SQUARE if model_kind == EXP_DESIGN else ESTIMATOR_MEAN


def build_observation_model(fb_cfg: FeedbackConfig, model: LossModel) -> ObservationModel:
    k = model.num_actions
    amap = fb_cfg.action_map or tuple(range(k))
    if model.kind == EXP_DESIGN:
        if fb_cfg.observation != "gaussian":
            raise ValueError("exp_design feedback draws gaussian observations")
        sds = tuple(math.sqrt(model.params[j]) for j in amap)
        means = tuple(model.centers[j] for j in amap)
        return ObservationModel(kind="gaussian", means=means, sds=sds)
    means = tuple(model.params[j] for j in amap)
    if fb_cfg.observation == "gaussian":
        return ObservationModel(
            kind="gaussian", means=means, sds=tuple(fb_cfg.noise_sd for _ in means)
        )
    if fb_cfg.observation == "bernoulli":
        return ObservationModel(kind="bernoulli", means=means)
    if fb_cfg.observation == "deterministic":
        return ObservationModel(kind="deterministic", means=means)
    raise ValueError(f"unknown observation kind {fb_cfg.observation!r}")


def build_feedback_state(
    fb_cfg: FeedbackConfig, model: LossModel, dev_spec: DeviationSpec
) -> FeedbackState:
    estimator = fb_cfg.estimator or _default_estimator(model.kind)
    if estimator == ESTIMATOR_CENTERED_SQUARE and model.kind != EXP_DESIGN:
        raise ValueError("centered_square estimator only applies to exp_design")
    centers = model.centers if model.kind == EXP_DESIGN else None
    if estimator == ESTIMATOR_MEAN and model.kind == EXP_DESIGN:
        raise ValueError("exp_design estimates variances; use centered_square or sample_variance")
    return FeedbackState.fresh(
        model.num_actions,
        dev_spec,
        action_to_coeff=fb_cfg.action_map,
        estimator=estimator,
        centers=centers,
    )


def _check_subgaussian(obs_model: ObservationModel, dev_spec: DeviationSpec, model: LossModel):
    # the radius calibration assumes routed values are sub-gaussian with the
    # declared parameter; squared-draw estimators are covered by the
    # sensitivity factors instead, so only mean estimators are checked
    if model.kind == EXP_DESIGN:
        return
    par = obs_model.subgaussian_parameter()
    if par > dev_spec.sigma2 + 1e-12:
        raise ValueError(
            f"observation sub-gaussian parameter {par} exceeds the declared "
            f"deviation sigma2 {dev_spec.sigma2}"
        )


def build_policy_spec(cfg: PolicyConfig) -> PolicySpec:
    return PolicySpec(
        kind=cfg.kind,
        deviation=build_deviation_spec(cfg),
        tie_break=cfg.tie_break,
        weights=cfg.weights,
        presample=cfg.presample,
        doubling_beta=cfg.doubling_beta,
    )


def build_policy(
    spec: PolicySpec,
    model: LossModel,
    fb_cfg: FeedbackConfig,
    trial_seed: int,
    t_max: int,
):
    if spec.kind == UNIFORM:
        return UniformPolicy(model.num_actions, trial_seed)
    if spec.kind == FIXED_ALLOCATION:
        return FixedAllocationPolicy(spec.weights)
    if spec.kind == ORACLE_FW:
        return OracleFwPolicy(model)
    rng = None
    if spec.tie_break == TIE_SEEDED:
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((int(trial_seed), _TIE_STREAM_TAG)))
        )
    fb = build_feedback_state(fb_cfg, model, spec.deviation)
    if spec.kind == LCB_BANDIT:
        return LcbBanditPolicy(fb, spec.tie_break, rng)
    inner = UcbFwPolicy(model, fb, spec.tie_break, rng)
    if spec.kind == UCB_FW:
        return inner
    if spec.kind == DOUBLING_UCB_FW:
        return DoublingUcbFwPolicy(inner, spec.doubling_beta, t_max)
    if spec.kind == PRESAMPLED_UCB_FW:
        centers = model.centers if model.centers is not None else (0.0,) * model.num_actions
        return PresampledUcbFwPolicy(inner, spec.presample, centers)
    raise ValueError(f"unknown policy kind {spec.kind!r}")


def _validate_experiment(config: ExperimentConfig, model: LossModel) -> None:
    if not config.horizons:
        raise ValueError("need at least one horizon")
    if any(b <= a for a, b in zip(config.horizons, config.horizons[1:])):
        raise ValueError(f"horizons must be strictly increasing, got {config.horizons}")
    if config.horizons[0] < model.num_actions:
        raise ValueError(
            f"first horizon {config.horizons[0]} is shorter than the forced "
            f"round robin over {model.num_actions} actions"
        )
    if config.seed_count < 1:
        raise ValueError(f"seed count must be >= 1, got {config.seed_count}")
    if config.record_epsilon and model.kind not in SMOOTH_KINDS:
        raise ValueError(
            "per-step gradient diagnostics need a loss with simplex-wide "
            f"gradients; {model.kind} is undefined at the early boundary points"
        )


def run_trial(config: ExperimentConfig, seed: int, t_max: int | None = None) -> TrialRecord:
    """One seeded trajectory with error snapshots at the configured horizons."""
    model = build_model(config.model)
    _validate_experiment(config, model)
    info = minimizer(model)
    horizons = tuple(sorted(config.horizons))
    if t_max is None:
        t_max = horizons[-1]
    spec = build_policy_spec(config.policy)
    obs_model = build_observation_model(config.feedback, model)
    _check_subgaussian(obs_model, spec.deviation, model)
    sampler = ObservationSampler(obs_model, seed)
    policy = build_policy(spec, model, config.feedback, seed, t_max)
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


def _trial_task(args: tuple[ExperimentConfig, int]) -> TrialRecord:
    return run_trial(*args)


def run_experiment(
    config: ExperimentConfig, workers: int = 1, seed_base: int | None = None
) -> list[TrialRecord]:
    """All seeded trials, returned in seed order regardless of worker layout."""
    _validate_experiment(config, build_model(config.model))
    base = config.seed_base if seed_base is None else seed_base
    seeds = [base + i for i in range(config.seed_count)]
    if workers <= 1:
        records = [run_trial(config, s) for s in seeds]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_trial_task, [(config, s) for s in seeds]))
    records.sort(key=lambda r: r.seed)
    return records


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

    Nonpositive means cannot be log-transformed; they are dropped with a
    warning, and fewer than 3 surviving points is an error.
    """
    if len(horizons) != len(mean_errors):
        raise ValueError("horizons and means must align")
    kept = [(t, e) for t, e in zip(horizons, mean_errors) if e > 0.0]
    excluded = len(horizons) - len(kept)
    if excluded:
        warnings.warn(
            f"rate fit dropped {excluded} nonpositive mean error(s)", stacklevel=2
        )
    if len(kept) < 3:
        raise ValueError(f"rate fit needs >= 3 positive points, got {len(kept)}")
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


def _unsupported(selector: str, reason: str) -> BoundReport:
    return BoundReport(selector=selector, supported=False, reason=reason, rows=())


def bound_check(
    agg: AggregateResult,
    model: LossModel,
    selector: str,
    records: Sequence[TrialRecord] | None = None,
    tol: float = 1e-9,
) -> BoundReport:
    """Compare empirical errors against an evaluated theoretical envelope.

    Selectors: `lemma1` (pathwise, per trial, needs epsilon sums), `thm1`
    (slow rate), `prop2` (vertex fast rate for losses with constant
    gradient), `thm4` (strongly convex fast rate).  Missing constants make
    the bound unsupported rather than an error.
    """
    info = minimizer(model)
    k = model.num_actions
    if selector == "lemma1":
        c = model.smoothness_C
        if not math.isfinite(c):
            return _unsupported(selector, "smoothness constant is infinite without an interior floor")
        if not records or any(r.sum_epsilon is None for r in records):
            return _unsupported(selector, "pathwise check needs records with epsilon sums")
        rows = []
        for i, t in enumerate(agg.horizons):
            worst_margin = math.inf
            worst_err = 0.0
            worst_bound = 0.0
            for r in records:
                bound = r.sum_epsilon[i] / t + c * math.log(math.e * t) / t
                margin = bound - r.errors[i]
                if margin < worst_margin:
                    worst_margin = margin
                    worst_err = r.errors[i]
                    worst_bound = bound
            rows.append(
                BoundRow(
                    horizon=t,
                    empirical=worst_err,
                    bound=worst_bound,
                    margin=worst_margin,
                    passed=worst_margin >= -tol,
                )
            )
        return BoundReport(selector=selector, supported=True, reason="", rows=tuple(rows))

    if selector == "thm1":
        c = model.smoothness_C
        lam = 2.0 * model.sup_grad + model.sup_loss
        if not (math.isfinite(c) and math.isfinite(lam)):
            return _unsupported(selector, "needs finite smoothness and sup norms")
        def env(t: float) -> float:
            return (
                4.0 * math.sqrt(3.0 * k * math.log(t) / t)
                + c * math.log(math.e * t) / t
                + (math.pi**2 / 6.0 + k) * lam / t
            )
    elif selector == "prop2":
        if model.kind not in (LINEAR, SEPARABLE):
            return _unsupported(selector, "applies to losses with constant gradient (vertex case)")
        if info.gap_min is None:
            return _unsupported(selector, "needs a unique vertex minimizer with positive gaps")
        star = info.gaps.index(0.0)
        inv_gaps = sum(1.0 / g for i, g in enumerate(info.gaps) if i != star)
        scale = model.sup_grad
        def env(t: float) -> float:
            return 48.0 * math.log(t) / t * inv_gaps + 3.0 * (
                math.pi**2 / 3.0 + k
            ) * math.sqrt(k) * scale / t
    elif selector == "thm4":
        mu = model.strong_convexity
        eta = info.eta
        c = model.smoothness_C
        if mu <= 0.0:
            return _unsupported(selector, "needs a strongly convex loss")
        if eta <= 0.0:
            return _unsupported(selector, "needs an interior minimizer (eta > 0)")
        if not math.isfinite(c):
            return _unsupported(selector, "smoothness constant is infinite without an interior floor")
        c1 = 96.0 * k / (mu * eta**2)
        c2 = 24.0 / (mu * eta**3) + c
        c3 = 24.0 * (20.0 / (mu * eta**2)) ** 2 * k + mu * eta**2 / 2.0 + c
        def env(t: float) -> float:
            lt = math.log(t)
            return c1 * lt * lt / t + c2 * lt / t + c3 / t
    else:
        raise ValueError(f"unknown bound selector {selector!r}")

    rows = []
    for t, err in zip(agg.horizons, agg.mean_error):
        bound = env(float(t))
        margin = bound - err
        rows.append(
            BoundRow(horizon=t, empirical=err, bound=bound, margin=margin, passed=margin >= -tol)
        )
    return BoundReport(selector=selector, supported=True, reason="", rows=tuple(rows))
