"""Config parsing, result emission, and the command-line surface.

Configs are YAML with strict keys; every parse error names the offending
field.  Each key is declared once, in the table of its section, from which
the parser takes its allowed keys, conversions and errors.  CSV and summary
emission format floats as %.12e so identical inputs produce byte-identical
files regardless of worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path
from typing import Any

import yaml

from . import checks
from .harness import (
    BOUNDS,
    AggregateResult,
    BoundReport,
    ConfigFieldError,
    ExperimentConfig,
    FeedbackConfig,
    ModelConfig,
    PolicyConfig,
    TrialRecord,
    aggregate,
    bound_check,
    build_model,
    fit_rate,
    run_experiment,
)
from .policies import PresampleConfig

CSV_HEADER = "experiment,policy,loss,K,T,seed,error,sum_epsilon,bound_value,bound_pass"


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


class _Section:
    """A mapping whose keys are table entries (key, field, kind), read by
    calling it with the data and where it sits, as a kind is.

    Each key is read by its kind, a function of (value, where), into its
    field (a key left out leaves the field's default); the section returns
    `build(**fields)`, or the fields when `build` is None.  An error of
    `build` is reported under the section, or under the key of the field it
    names.  An entry without a field fills several: its kind returns a dict
    of them.
    """

    def __init__(self, build, *entries, required=()):
        self.build = build
        self.entries = entries
        self.kinds = {key: (field, kind) for key, field, kind in entries}
        self.required = required

    def __call__(self, data: Any, where: str, prefix: str | None = None):
        data = {} if data is None else data
        if not isinstance(data, Mapping):
            raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
        missing = [key for key in self.required if key not in data]
        if missing:
            raise ConfigError(
                f"{where}: required keys {', '.join(self.required)}; missing {', '.join(missing)}"
            )
        prefix = f"{where}." if prefix is None else prefix
        fields: dict[str, Any] = {}
        for key, value in data.items():
            if key not in self.kinds:
                raise ConfigError(f"{where}: unknown key {key!r} (allowed: {', '.join(self.kinds)})")
            field, kind = self.kinds[key]
            parsed = kind(value, prefix + key)
            if field is None:
                fields.update(parsed)
            else:
                fields[field] = parsed
        if self.build is None:
            return fields
        try:
            return self.build(**fields)
        except ConfigFieldError as exc:
            raise ConfigError(f"{prefix}{self.key_of(exc.path)}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    def key_of(self, path: Sequence[str]) -> str | None:
        """The dotted key of a field path such as ("policy", "weights")."""
        for key, field, kind in self.entries:
            if field == path[0]:
                return key if len(path) == 1 else f"{key}.{kind.key_of(path[1:])}"
            inner = kind.key_of(path) if field is None and isinstance(kind, _Section) else None
            if inner is not None:
                return f"{key}.{inner}"
        return None


def _scalar(accepts: Callable[[Any], bool], what: str, convert: Callable = None) -> Callable:
    def parse(value: Any, where: str):
        if not accepts(value):
            raise ConfigError(f"{where}: expected {what}, got {value!r}")
        return value if convert is None else convert(value)

    return parse


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _at_least(low: int) -> Callable:
    def parse(value: Any, where: str) -> int:
        value = _INT(value, where)
        if value < low:
            raise ConfigError(f"{where}: must be >= {low}, got {value}")
        return value

    return parse


def _list_of(item: Callable, length: int | None = None) -> Callable:
    what = f"a list of {length}" if length else "a list"

    def parse(value: Any, where: str) -> tuple:
        if not isinstance(value, (list, tuple)) or len(value) != (length or len(value)):
            raise ConfigError(f"{where}: expected {what}, got {value!r}")
        return tuple([item(v, f"{where}[{i}]") for i, v in enumerate(value)])

    return parse


_STRING = _scalar(lambda v: isinstance(v, str) and v != "", "a nonempty string")
_BOOL = _scalar(lambda v: isinstance(v, bool), "a boolean")
_INT = _scalar(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_POSITIVE_OR_NULL = lambda value, where: None if value is None else _at_least(1)(value, where)
_NUMBER = _scalar(lambda v: _is_number(v) and math.isfinite(v), "a finite number", float)
# model parameters, which their family checks, naming the one at fault
_PARAM = _scalar(_is_number, "a number", float)


def _params(value: Any, where: str) -> tuple[float, ...]:
    """A list of model parameters, read in one pass (a Markowitz covariance has K^2)."""
    if not isinstance(value, (list, tuple)) or not all(map(_is_number, value)):
        raise ConfigError(f"{where}: expected a list of numbers, got {value!r}")
    return tuple(map(float, value))


_TABLE = _Section(
    lambda xs, ys: (xs, ys),
    ("xs", "xs", _params),
    ("ys", "ys", _params),
    required=("xs", "ys"),
)

_MODEL = _Section(
    ModelConfig,
    ("kind", "kind", _STRING),
    ("mu", "mu", _params),
    ("theta", "theta", _params),
    ("sigma2", "sigma2", _params),
    ("beta", "beta", _params),
    ("covariance", "covariance", _list_of(_params)),
    ("risk_weight", "risk_weight", _PARAM),
    ("tables", "tables", _list_of(_TABLE)),
    ("centers", "centers", _params),
    ("interior_floor", "interior_floor", _params),
    required=("kind",),
)

_PRESAMPLE = _Section(
    PresampleConfig,
    ("brackets", "brackets", _list_of(_list_of(_NUMBER, length=2))),
    ("delta", "delta", _NUMBER),
    ("variance_cap", "variance_cap", _NUMBER),
    ("horizon", "horizon", _INT),
    ("max_rounds_per_arm", "max_rounds_per_arm", _POSITIVE_OR_NULL),
)

_RADIUS = _Section(
    lambda scale, exponent: (scale, exponent),
    ("scale", "scale", _NUMBER),
    ("exponent", "exponent", _NUMBER),
    required=("scale", "exponent"),
)


def _deviation(value: Any, where: str) -> str | tuple[float, float]:
    """A preset name, or the (scale, exponent) pair of a {scale, exponent} radius."""
    if isinstance(value, str):
        return value
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where}: expected a preset name or {{scale, exponent}}")
    return _RADIUS(value, where)


_POLICY = _Section(
    PolicyConfig,
    ("kind", "kind", _STRING),
    ("deviation", "deviation", _deviation),
    ("sigma2", "sigma2", _NUMBER),
    ("weights", "weights", _list_of(_NUMBER)),
    ("presample", "presample", _PRESAMPLE),
    ("doubling_beta", "doubling_beta", _NUMBER),
)

_FEEDBACK = _Section(
    FeedbackConfig,
    ("observation", "observation", _STRING),
    ("noise_sd", "noise_sd", _NUMBER),
    ("map", "action_map", _list_of(_INT)),
    ("estimator", "estimator", _STRING),
)

_SEEDS = _Section(
    None,
    ("count", "seed_count", _at_least(1)),
    ("base", "seed_base", _at_least(0)),
    required=("count", "base"),
)

_EXPERIMENT = _Section(
    ExperimentConfig,
    ("experiment", "experiment", _STRING),
    ("model", "model", _MODEL),
    ("policy", "policy", _POLICY),
    ("feedback", "feedback", _FEEDBACK),
    ("horizons", "horizons", _list_of(_INT)),
    ("seeds", None, _SEEDS),
    ("record_epsilon", "record_epsilon", _BOOL),
    ("output", None, _Section(None, ("dir", "out_dir", _STRING))),
    required=("experiment", "model", "horizons", "seeds"),
)


def parse_config_data(data: Any, source: str = "<config>") -> ExperimentConfig:
    """The config `data` describes, checked as it is made, so that a config
    that cannot run fails here, naming a key."""
    return _EXPERIMENT(data, source, prefix="")


class _UniqueKeys:
    """A YAML loader mixin that refuses a key repeated within one mapping,
    of which the plain loaders keep the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode):
                if key.value in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key.value!r}", key.start_mark
                    )
                seen.add(key.value)
        return super().construct_mapping(node, deep=deep)


def parse_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        # the error's own text names the path, as in "[Errno 21] Is a directory: 'configs'"
        raise ConfigError(str(exc)) from None
    # the libyaml loader, where PyYAML was built with it, gives the same data
    base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    try:
        data = yaml.load(text, Loader=type("Loader", (_UniqueKeys, base), {}))
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid yaml in {path}: {exc}") from None
    return parse_config_data(data, source=str(path))


def _fmt(value: float) -> str:
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


def _replaced(config: ExperimentConfig, flag: str, **changes) -> ExperimentConfig:
    """`config` with the `changes` a command-line flag asks for; a change
    that leaves it unable to run is a ConfigError naming the flag."""
    try:
        return dataclasses.replace(config, **changes)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    if args.seed_base is not None:
        config = _replaced(config, f"run --seed-base {args.seed_base}", seed_base=args.seed_base)
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
    if BOUNDS[args.theorem].pathwise and not config.record_epsilon:
        config = _replaced(config, f"check-bounds --theorem {args.theorem}", record_epsilon=True)
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
    p_bounds.add_argument("--theorem", required=True, choices=tuple(BOUNDS))
    p_bounds.set_defaults(func=_cmd_check_bounds)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of every loss gradient")
    p_grad.add_argument("--seed", type=_int_at_least(0), default=20240901)
    p_grad.add_argument("--points", type=_int_at_least(1), default=100)
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


if __name__ == "__main__":
    sys.exit(main())
