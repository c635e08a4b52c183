"""Config parsing, result emission, and the command-line surface.

Configs are YAML with strict keys; every parse error names the offending
field.  CSV and summary emission format floats as %.12e so identical inputs
produce byte-identical files regardless of worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from . import checks
from .harness import (
    AggregateResult,
    BoundReport,
    ExperimentConfig,
    FeedbackConfig,
    ModelConfig,
    PolicyConfig,
    TrialRecord,
    aggregate,
    bound_check,
    build_feedback_state,
    build_model,
    build_observation_model,
    build_policy_spec,
    fit_rate,
    run_experiment,
    _check_subgaussian,
    _validate_experiment,
)
from .policies import FIXED_ALLOCATION, PRESAMPLED_UCB_FW, PresampleConfig

CSV_HEADER = "experiment,policy,loss,K,T,seed,error,sum_epsilon,bound_value,bound_pass"

BOUND_SELECTORS = ("lemma1", "thm1", "prop2", "thm4")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


def _expect_mapping(value: Any, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected a mapping, got {type(value).__name__}")
    return dict(value)


def _check_keys(section: dict, allowed: Sequence[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r} (allowed: {', '.join(allowed)})")


def _float_tuple(value: Any, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list of numbers")
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a list of numbers, got {value!r}") from None


def _int_value(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _float_value(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_model(section: dict) -> ModelConfig:
    _check_keys(
        section,
        ["kind", "mu", "theta", "sigma2", "beta", "covariance", "risk_weight",
         "tables", "centers", "interior_floor"],
        "model",
    )
    kind = section.get("kind")
    if not isinstance(kind, str):
        raise ConfigError("model.kind: required string")
    kw: dict[str, Any] = {"kind": kind}
    for name in ("mu", "theta", "sigma2", "beta", "centers", "interior_floor"):
        if name in section:
            kw[name] = _float_tuple(section[name], f"model.{name}")
    if "covariance" in section:
        rows = section["covariance"]
        if not isinstance(rows, list):
            raise ConfigError("model.covariance: expected a list of rows")
        kw["covariance"] = tuple(
            _float_tuple(row, f"model.covariance[{i}]") for i, row in enumerate(rows)
        )
    if "risk_weight" in section:
        kw["risk_weight"] = _float_value(section["risk_weight"], "model.risk_weight")
    if "tables" in section:
        tables = section["tables"]
        if not isinstance(tables, list):
            raise ConfigError("model.tables: expected a list of {xs, ys} tables")
        parsed = []
        for i, tab in enumerate(tables):
            tab = _expect_mapping(tab, f"model.tables[{i}]")
            _check_keys(tab, ["xs", "ys"], f"model.tables[{i}]")
            parsed.append(
                (
                    _float_tuple(tab.get("xs"), f"model.tables[{i}].xs"),
                    _float_tuple(tab.get("ys"), f"model.tables[{i}].ys"),
                )
            )
        kw["tables"] = tuple(parsed)
    return ModelConfig(**kw)


def _parse_presample(section: dict) -> PresampleConfig:
    _check_keys(
        section,
        ["brackets", "delta", "variance_cap", "horizon", "max_rounds_per_arm"],
        "policy.presample",
    )
    kw: dict[str, Any] = {}
    if "brackets" in section:
        rows = section["brackets"]
        if not isinstance(rows, list):
            raise ConfigError("policy.presample.brackets: expected a list of [lo, hi] pairs")
        pairs = []
        for i, row in enumerate(rows):
            pair = _float_tuple(row, f"policy.presample.brackets[{i}]")
            if len(pair) != 2:
                raise ConfigError(
                    f"policy.presample.brackets[{i}]: expected [lo, hi], got {row!r}"
                )
            pairs.append((pair[0], pair[1]))
        kw["brackets"] = tuple(pairs)
    if "delta" in section:
        kw["delta"] = _float_value(section["delta"], "policy.presample.delta")
    if "variance_cap" in section:
        kw["variance_cap"] = _float_value(section["variance_cap"], "policy.presample.variance_cap")
    if "horizon" in section:
        kw["horizon"] = _int_value(section["horizon"], "policy.presample.horizon")
    if "max_rounds_per_arm" in section and section["max_rounds_per_arm"] is not None:
        kw["max_rounds_per_arm"] = _int_value(
            section["max_rounds_per_arm"], "policy.presample.max_rounds_per_arm"
        )
    try:
        return PresampleConfig(**kw)
    except ValueError as exc:
        raise ConfigError(f"policy.presample: {exc}") from None


def _parse_policy(section: dict) -> PolicyConfig:
    _check_keys(
        section,
        ["kind", "deviation", "sigma2", "delta_schedule", "delta_fixed",
         "tie_break", "weights", "presample", "doubling_beta"],
        "policy",
    )
    kw: dict[str, Any] = {}
    if "kind" in section:
        if not isinstance(section["kind"], str):
            raise ConfigError("policy.kind: expected a string")
        kw["kind"] = section["kind"]
    if "deviation" in section:
        dev = section["deviation"]
        if isinstance(dev, str):
            kw["deviation"] = dev
        elif isinstance(dev, Mapping):
            _check_keys(dict(dev), ["scale", "exponent"], "policy.deviation")
            kw["deviation"] = "custom"
            kw["deviation_scale"] = _float_value(dev.get("scale"), "policy.deviation.scale")
            kw["deviation_exponent"] = _float_value(
                dev.get("exponent"), "policy.deviation.exponent"
            )
        else:
            raise ConfigError("policy.deviation: expected a preset name or {scale, exponent}")
    if "sigma2" in section:
        kw["sigma2"] = _float_value(section["sigma2"], "policy.sigma2")
    if "delta_schedule" in section:
        if section["delta_schedule"] not in ("inverse_t_squared", "fixed"):
            raise ConfigError(
                f"policy.delta_schedule: expected inverse_t_squared or fixed, "
                f"got {section['delta_schedule']!r}"
            )
        kw["delta_schedule"] = section["delta_schedule"]
    if "delta_fixed" in section:
        kw["delta_fixed"] = _float_value(section["delta_fixed"], "policy.delta_fixed")
    if "tie_break" in section:
        kw["tie_break"] = section["tie_break"]
    if "weights" in section:
        kw["weights"] = _float_tuple(section["weights"], "policy.weights")
    if "presample" in section:
        kw["presample"] = _parse_presample(_expect_mapping(section["presample"], "policy.presample"))
    if "doubling_beta" in section:
        kw["doubling_beta"] = _float_value(section["doubling_beta"], "policy.doubling_beta")
    return PolicyConfig(**kw)


def _parse_feedback(section: dict) -> FeedbackConfig:
    _check_keys(section, ["observation", "noise_sd", "map", "estimator"], "feedback")
    kw: dict[str, Any] = {}
    if "observation" in section:
        kw["observation"] = section["observation"]
    if "noise_sd" in section:
        kw["noise_sd"] = _float_value(section["noise_sd"], "feedback.noise_sd")
    if "map" in section:
        entries = section["map"]
        if not isinstance(entries, list):
            raise ConfigError("feedback.map: expected a list of coefficient indices")
        kw["action_map"] = tuple(_int_value(v, "feedback.map") for v in entries)
    if "estimator" in section:
        kw["estimator"] = section["estimator"]
    return FeedbackConfig(**kw)


def parse_config_data(data: Any, source: str = "<config>") -> ExperimentConfig:
    top = _expect_mapping(data, source)
    _check_keys(
        top,
        ["experiment", "model", "policy", "feedback", "horizons", "seeds",
         "record_epsilon", "output"],
        source,
    )
    experiment = top.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise ConfigError("experiment: required nonempty string")
    if "model" not in top:
        raise ConfigError("model: required section")
    model_cfg = _parse_model(_expect_mapping(top["model"], "model"))
    policy_cfg = _parse_policy(_expect_mapping(top.get("policy"), "policy"))
    feedback_cfg = _parse_feedback(_expect_mapping(top.get("feedback"), "feedback"))
    if "horizons" not in top or not isinstance(top["horizons"], list) or not top["horizons"]:
        raise ConfigError("horizons: required nonempty list of integers")
    horizons = tuple(_int_value(v, "horizons") for v in top["horizons"])
    seeds = _expect_mapping(top.get("seeds"), "seeds")
    _check_keys(seeds, ["count", "base"], "seeds")
    if "count" not in seeds or "base" not in seeds:
        raise ConfigError("seeds: required keys count and base")
    record_epsilon = top.get("record_epsilon", False)
    if not isinstance(record_epsilon, bool):
        raise ConfigError("record_epsilon: expected a boolean")
    out_dir = None
    if "output" in top:
        output = _expect_mapping(top["output"], "output")
        _check_keys(output, ["dir"], "output")
        if "dir" in output:
            if not isinstance(output["dir"], str):
                raise ConfigError("output.dir: expected a string")
            out_dir = output["dir"]
    seed_count = _int_value(seeds["count"], "seeds.count")
    seed_base = _int_value(seeds["base"], "seeds.base")
    if seed_base < 0:
        raise ConfigError(f"seeds.base: must be >= 0, got {seed_base}")
    config = ExperimentConfig(
        experiment=experiment,
        model=model_cfg,
        policy=policy_cfg,
        feedback=feedback_cfg,
        horizons=horizons,
        seed_count=seed_count,
        seed_base=seed_base,
        record_epsilon=record_epsilon,
        out_dir=out_dir,
    )
    _validate_config(config)
    return config


def _validate_config(config: ExperimentConfig) -> None:
    """Build every component once so invariant violations surface at parse time."""
    try:
        model = build_model(config.model)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None
    try:
        spec = build_policy_spec(config.policy)
    except ValueError as exc:
        raise ConfigError(f"policy: {exc}") from None
    k = model.num_actions
    if spec.kind == FIXED_ALLOCATION and len(spec.weights) != k:
        raise ConfigError(f"policy.weights: need one weight per action: {len(spec.weights)} vs {k}")
    brackets = spec.presample.brackets if spec.kind == PRESAMPLED_UCB_FW else None
    if brackets is not None and len(brackets) != k:
        raise ConfigError(
            f"policy.presample.brackets: need one bracket per arm: {len(brackets)} vs {k}"
        )
    try:
        obs = build_observation_model(config.feedback, model)
        _check_subgaussian(obs, spec.deviation, model)
        build_feedback_state(config.feedback, model, spec.deviation)
    except ValueError as exc:
        raise ConfigError(f"feedback: {exc}") from None
    try:
        _validate_experiment(config, model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(path: str | Path) -> ExperimentConfig:
    text = Path(path).read_text()
    # the libyaml loader, where PyYAML was built with it, gives the same data
    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    try:
        data = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid yaml in {path}: {exc}") from None
    return parse_config_data(data, source=str(path))


def normalize_config(config: ExperimentConfig) -> dict:
    """Canonical plain-data form; parsing it back yields an equal config."""
    model = {"kind": config.model.kind}
    for name in ("mu", "theta", "sigma2", "beta", "centers", "interior_floor"):
        value = getattr(config.model, name)
        if value is not None:
            model[name] = list(value)
    if config.model.covariance is not None:
        model["covariance"] = [list(row) for row in config.model.covariance]
    if config.model.risk_weight is not None:
        model["risk_weight"] = config.model.risk_weight
    if config.model.tables is not None:
        model["tables"] = [{"xs": list(xs), "ys": list(ys)} for xs, ys in config.model.tables]

    pol = config.policy
    policy: dict[str, Any] = {"kind": pol.kind}
    if pol.deviation == "custom":
        policy["deviation"] = {"scale": pol.deviation_scale, "exponent": pol.deviation_exponent}
    else:
        policy["deviation"] = pol.deviation
    policy["sigma2"] = pol.sigma2
    policy["delta_schedule"] = pol.delta_schedule
    policy["delta_fixed"] = pol.delta_fixed
    policy["tie_break"] = pol.tie_break
    if pol.weights is not None:
        policy["weights"] = list(pol.weights)
    if pol.presample is not None:
        pre: dict[str, Any] = {}
        if pol.presample.brackets is not None:
            pre["brackets"] = [list(b) for b in pol.presample.brackets]
        pre["delta"] = pol.presample.delta
        pre["variance_cap"] = pol.presample.variance_cap
        pre["horizon"] = pol.presample.horizon
        if pol.presample.max_rounds_per_arm is not None:
            pre["max_rounds_per_arm"] = pol.presample.max_rounds_per_arm
        policy["presample"] = pre
    policy["doubling_beta"] = pol.doubling_beta

    feedback: dict[str, Any] = {
        "observation": config.feedback.observation,
        "noise_sd": config.feedback.noise_sd,
    }
    if config.feedback.action_map is not None:
        feedback["map"] = list(config.feedback.action_map)
    if config.feedback.estimator is not None:
        feedback["estimator"] = config.feedback.estimator

    out: dict[str, Any] = {
        "experiment": config.experiment,
        "model": model,
        "policy": policy,
        "feedback": feedback,
        "horizons": list(config.horizons),
        "seeds": {"count": config.seed_count, "base": config.seed_base},
        "record_epsilon": config.record_epsilon,
    }
    if config.out_dir is not None:
        out["output"] = {"dir": config.out_dir}
    return out


def emit_config(config: ExperimentConfig) -> str:
    return yaml.safe_dump(normalize_config(config), sort_keys=False)


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.12e}"


def emit_csv(
    config: ExperimentConfig,
    records: Sequence[TrialRecord],
    agg: AggregateResult | None = None,
    bound: BoundReport | None = None,
) -> str:
    """Rows per (seed, horizon), then mean and stderr rows per horizon."""
    lines = [CSV_HEADER]
    if not records:
        return "\n".join(lines) + "\n"
    if agg is None:
        raise ValueError("aggregate rows are required when records are present")
    prefix = f"{config.experiment},{config.policy.kind},{config.model.kind},{len(build_model(config.model).params)}"
    recs = sorted(records, key=lambda r: r.seed)
    for r in recs:
        for i, t in enumerate(r.horizons):
            eps = _fmt(r.sum_epsilon[i]) if r.sum_epsilon is not None else ""
            lines.append(f"{prefix},{t},{r.seed},{_fmt(r.errors[i])},{eps},,")
    bound_rows = {row.horizon: row for row in bound.rows} if bound is not None else {}
    for i, t in enumerate(agg.horizons):
        row = bound_rows.get(t)
        bv = _fmt(row.bound) if row is not None else ""
        bp = ("true" if row.passed else "false") if row is not None else ""
        lines.append(f"{prefix},{t},mean,{_fmt(agg.mean_error[i])},,{bv},{bp}")
    for i, t in enumerate(agg.horizons):
        lines.append(f"{prefix},{t},stderr,{_fmt(agg.stderr_error[i])},,,")
    return "\n".join(lines) + "\n"


def emit_summary(
    config: ExperimentConfig,
    agg: AggregateResult,
    fit=None,
    bound: BoundReport | None = None,
) -> str:
    payload: dict[str, Any] = {
        "experiment": config.experiment,
        "policy": config.policy.kind,
        "loss": config.model.kind,
        "seeds": agg.n,
        "horizons": list(agg.horizons),
        "mean_error": [_fmt(v) for v in agg.mean_error],
        "stderr_error": [_fmt(v) for v in agg.stderr_error],
    }
    if fit is not None:
        payload["rate_fit"] = {
            "slope": _fmt(fit.slope),
            "intercept": _fmt(fit.intercept),
            "residual_rms": _fmt(fit.residual_rms),
            "horizons_used": list(fit.horizons_used),
            "n_excluded": fit.n_excluded,
        }
    if bound is not None:
        payload["bound"] = {
            "selector": bound.selector,
            "supported": bound.supported,
            "reason": bound.reason,
            "passed": bound.passed,
            "rows": [
                {
                    "T": r.horizon,
                    "empirical": _fmt(r.empirical),
                    "bound": _fmt(r.bound),
                    "margin": _fmt(r.margin),
                    "passed": r.passed,
                }
                for r in bound.rows
            ],
        }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _run_and_collect(config: ExperimentConfig, workers: int):
    records = run_experiment(config, workers=workers)
    return records, aggregate(records)


def _cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    if args.seed_base is not None:
        config = dataclasses.replace(config, seed_base=args.seed_base)
    records, agg = _run_and_collect(config, args.workers)
    out_dir = Path(args.out or config.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.experiment}.csv"
    csv_path.write_text(emit_csv(config, records, agg))
    summary_path = out_dir / f"{config.experiment}_summary.json"
    summary_path.write_text(emit_summary(config, agg))
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    for t, m, s in zip(agg.horizons, agg.mean_error, agg.stderr_error):
        print(f"T={t:>9d}  mean_error={m:.6e}  stderr={s:.6e}")
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    records, agg = _run_and_collect(config, args.workers)
    try:
        fit = fit_rate(agg.horizons, agg.mean_error)
    except ValueError as exc:
        print(f"rate fit error: {exc}", file=sys.stderr)
        return 1
    print(f"experiment={config.experiment} policy={config.policy.kind} loss={config.model.kind}")
    print(
        f"slope={fit.slope:+.4f} intercept={fit.intercept:+.4f} "
        f"residual_rms={fit.residual_rms:.4f} points={len(fit.horizons_used)}"
    )
    return 0


def _cmd_check_bounds(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    if args.theorem == "lemma1" and not config.record_epsilon:
        config = dataclasses.replace(config, record_epsilon=True)
        try:
            _validate_experiment(config, build_model(config.model))
        except ValueError as exc:
            raise ConfigError(f"check-bounds --theorem lemma1: {exc}") from None
    records, agg = _run_and_collect(config, args.workers)
    model = build_model(config.model)
    report = bound_check(agg, model, args.theorem, records=records)
    if not report.supported:
        print(f"{args.theorem}: unsupported for this model: {report.reason}")
        return 2
    ok = True
    for row in report.rows:
        status = "pass" if row.passed else "FAIL"
        ok = ok and row.passed
        print(
            f"T={row.horizon:>9d}  empirical={row.empirical:.6e}  "
            f"bound={row.bound:.6e}  margin={row.margin:+.6e}  {status}"
        )
    return 0 if ok else 2


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    results = checks.gradcheck(seed=args.seed, points=args.points)
    ok = True
    for res in results:
        status = "pass" if res.passed else "FAIL"
        ok = ok and res.passed
        print(f"{res.kind:<13s} max_rel_err={res.max_rel_err:.3e}  {status}")
    return 0 if ok else 2


def _cmd_selftest(args: argparse.Namespace) -> int:
    ok = True
    for name, passed, detail in checks.selftest():
        status = "pass" if passed else "FAIL"
        ok = ok and passed
        print(f"{name:<28s} {status}  {detail}")
    return 0 if ok else 2


def _int_at_least(low: int):
    """An argparse type: an integer >= low, else an error that argparse
    reports under the flag's name."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucbfw",
        description="Simulate proportion-tracking bandit policies and check their rate envelopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config (yaml)")
        p.add_argument("--workers", type=_int_at_least(1), default=1, help="parallel trial processes")

    p_run = sub.add_parser("run", help="run an experiment and write csv + summary")
    add_common(p_run)
    p_run.add_argument(
        "--seed-base", type=_int_at_least(0), default=None, help="override the seed base"
    )
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_rates = sub.add_parser("rates", help="fit the empirical convergence rate")
    add_common(p_rates)
    p_rates.set_defaults(func=_cmd_rates)

    p_bounds = sub.add_parser("check-bounds", help="compare mean errors to a bound envelope")
    add_common(p_bounds)
    p_bounds.add_argument("--theorem", required=True, choices=BOUND_SELECTORS)
    p_bounds.set_defaults(func=_cmd_check_bounds)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of every loss gradient")
    p_grad.add_argument("--seed", type=int, default=20240901)
    p_grad.add_argument("--points", type=int, default=100)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_self = sub.add_parser("selftest", help="run the quick invariant suite")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
