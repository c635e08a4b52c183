import dataclasses
import json
import math
import multiprocessing
import pathlib
import pickle
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import yaml
from hypothesis import strategies as st

import ucbfw
from ucbfw import checks, cli, feedback, harness, losses, policies
from ucbfw.cli import (
    CSV_HEADER,
    ConfigError,
    emit_csv,
    emit_summary,
    main,
    parse_config,
    parse_config_data,
)
from ucbfw.harness import (
    aggregate,
    bound_check,
    build_model,
    fit_rate,
    run_experiment,
)
from ucbfw.harness import DEVIATION_PRESETS, PolicyConfig
from ucbfw.losses import FAMILIES
from ucbfw.policies import POLICY_KINDS

BASIC = {
    "experiment": "vertex",
    "model": {"kind": "linear", "mu": [0.1, 0.5]},
    "policy": {"kind": "ucb_fw", "deviation": "theorem1"},
    "feedback": {"observation": "gaussian", "noise_sd": 1.0},
    "horizons": [100, 300],
    "seeds": {"count": 2, "base": 7},
}


MARKOWITZ_MODEL = {
    "kind": "markowitz",
    "covariance": [[1.0, 0.2, 0.0], [0.2, 1.5, 0.1], [0.0, 0.1, 2.0]],
    "risk_weight": 1.3,
    "mu": [1.0, 0.5, -0.2],
}


def cfg_from(**overrides):
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in BASIC.items()}
    data.update(overrides)
    return parse_config_data(data)


# ---------------------------------------------------------------- parsing


def test_parse_basic_config():
    config = cfg_from()
    assert config.experiment == "vertex"
    assert config.model.mu == (0.1, 0.5)
    assert config.horizons == (100, 300)
    assert (config.seed_count, config.seed_base) == (2, 7)
    assert build_model(config.model).gaps == pytest.approx((0.0, 0.4))
    assert config.policy.deviation_spec.scale == 4.0


def test_parse_rejects_off_simplex_theta():
    with pytest.raises(ConfigError, match="model:"):
        cfg_from(model={"kind": "quadratic", "theta": [0.6, 0.6]})


def test_parse_error_messages_name_fields():
    with pytest.raises(ConfigError, match="unknown key 'modle'"):
        parse_config_data({**BASIC, "modle": {}})
    with pytest.raises(ConfigError, match="model.mu: expected a list"):
        cfg_from(model={"kind": "linear", "mu": 0.5})
    with pytest.raises(ConfigError, match="horizons"):
        parse_config_data({k: v for k, v in BASIC.items() if k != "horizons"})
    with pytest.raises(ConfigError, match="seeds: required keys"):
        cfg_from(seeds={"count": 2})
    with pytest.raises(ConfigError, match="seeds.count: expected an integer"):
        cfg_from(seeds={"count": True, "base": 7})
    # the one selection rule has no settable tie break or confidence schedule
    removed = {"tie_break": "lowest_index", "delta_schedule": "inverse_t_squared", "delta_fixed": 0.05}
    for key, value in removed.items():
        with pytest.raises(ConfigError, match=f"policy: unknown key '{key}'"):
            cfg_from(policy={key: value})
    with pytest.raises(ConfigError, match="record_epsilon"):
        cfg_from(record_epsilon="yes")
    with pytest.raises(ConfigError, match="output.dir"):
        cfg_from(output={"dir": 3})
    with pytest.raises(ConfigError, match="experiment"):
        cfg_from(experiment="")
    ragged = {**MARKOWITZ_MODEL, "covariance": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0]]}
    with pytest.raises(ConfigError, match=re.escape("model: covariance must be 3x3, got rows of lengths (3, 3, 1)")):
        cfg_from(model=ragged)
    with pytest.raises(ConfigError, match=re.escape("model: risk_weight must be nonnegative, got -1.0")):
        cfg_from(model={**MARKOWITZ_MODEL, "risk_weight": -1.0})
    with pytest.raises(ConfigError, match=re.escape("model: centers needs 2 coordinates, got 1")):
        cfg_from(model={"kind": "exp_design", "sigma2": [1.0, 4.0], "centers": [0.0]})
    with pytest.raises(ConfigError, match=re.escape("model: interior floor needs 2 coordinates, got 1")):
        cfg_from(model={"kind": "cobb_douglas", "beta": [0.5, 0.5], "interior_floor": [0.1]})
    with pytest.raises(ConfigError, match=re.escape("model: mu needs at least 2 coordinates")):
        cfg_from(model={"kind": "linear", "mu": [0.5]})
    with pytest.raises(ConfigError, match=re.escape("policy: expected a mapping, got int")):
        cfg_from(policy=3)
    with pytest.raises(ConfigError, match=re.escape("horizons: expected a list, got 5")):
        cfg_from(horizons=5)
    bad_bracket = {"kind": "presampled_ucb_fw", "presample": {"brackets": [[0.1, 0.2, 0.3], [0.1, 0.2]]}}
    with pytest.raises(
        ConfigError, match=re.escape("policy.presample.brackets[0]: expected a list of 2, got [0.1, 0.2, 0.3]")
    ):
        cfg_from(policy=bad_bracket)


def test_parse_rejects_bad_action_map():
    with pytest.raises(ConfigError, match="feedback: map needs 2 entries"):
        cfg_from(feedback={"map": [0, 1, 2]})
    with pytest.raises(ConfigError, match="feedback: map entries"):
        cfg_from(feedback={"map": [0, 5]})


def test_parse_accepts_markowitz_with_17_actions():
    k = 17
    model = {"kind": "markowitz", "covariance": np.eye(k).tolist(), "risk_weight": 1.0, "mu": [0.0] * k}
    info = cfg_from(model=model).model.built.minimizer()
    assert info.p_star == pytest.approx([1.0 / k] * k)


def test_parse_rejects_unknown_policy_and_deviation():
    with pytest.raises(ConfigError, match="policy:"):
        cfg_from(policy={"kind": "thompson"})
    with pytest.raises(ConfigError, match="policy.deviation"):
        cfg_from(policy={"deviation": {"scale": 1.0, "power": 0.5}})
    with pytest.raises(ConfigError, match="policy:"):
        cfg_from(policy={"deviation": "hoeffding"})
    # a {scale, exponent} radius is held as a pair; "custom" is no preset
    assert cfg_from(policy={"deviation": {"scale": 1.5, "exponent": 0.25}}).policy == PolicyConfig(
        deviation=(1.5, 0.25)
    )
    with pytest.raises(ConfigError, match="policy: unknown deviation preset 'custom'"):
        cfg_from(policy={"deviation": "custom"})
    with pytest.raises(
        ConfigError, match=re.escape("policy.deviation: expected a preset name or {scale, exponent}")
    ):
        cfg_from(policy={"deviation": 5})


def test_parse_subgaussian_mismatch_is_config_error():
    with pytest.raises(ConfigError, match="feedback: .*sub-gaussian"):
        cfg_from(
            policy={"deviation": "prop1", "sigma2": 1.0},
            feedback={"observation": "gaussian", "noise_sd": 2.0},
        )


def test_parse_config_file_and_yaml_error(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(BASIC))
    assert parse_config(path).experiment == "vertex"
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unclosed")
    with pytest.raises(ConfigError, match="invalid yaml"):
        parse_config(bad)


SHIPPED_CONFIGS = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.yaml"))


def test_shipped_configs_parse_alike_with_either_yaml_loader(tmp_path, monkeypatch):
    # parse_config takes libyaml's loader where PyYAML has it; the pure
    # Python SafeLoader must give an equal config for every shipped file
    assert len(SHIPPED_CONFIGS) == 6
    default = [parse_config(path) for path in SHIPPED_CONFIGS]
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unclosed")
    with pytest.raises(ConfigError, match="invalid yaml"):
        parse_config(bad)
    monkeypatch.setattr(yaml, "__with_libyaml__", False)
    assert [parse_config(path) for path in SHIPPED_CONFIGS] == default
    with pytest.raises(ConfigError, match="invalid yaml"):
        parse_config(bad)


# ---------------------------------------------------------------- table-drawn configs


def _table_keys(section, prefix=""):
    """Every key of the parser's tables, dotted; a section is walked into,
    a key read by a function (the deviation's, a preset or a mapping) is not."""
    for key, _, kind in section.entries:
        if isinstance(kind, cli._Section):
            yield from _table_keys(kind, f"{prefix}{key}.")
        else:
            yield prefix + key


def _simplex(k):
    return st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any).map(
        lambda w: [v / sum(w) for v in w]
    )


def _floats(lo, hi, k=None):
    one = st.floats(lo, hi, allow_nan=False)
    return one if k is None else st.lists(one, min_size=k, max_size=k)


def _table():
    # strictly increasing xs, monotone ys
    xs = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4, unique=True).map(sorted)
    steps = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)
    return st.tuples(xs, steps, st.booleans()).map(
        lambda t: {
            "xs": t[0],
            "ys": [(-1.0 if t[2] else 1.0) * sum(t[1][:i]) for i in range(len(t[0]))],
        }
    )


def _value_strategies(k, family, kind):
    """A strategy of valid values for each key of the tables, for K actions."""
    variance = family == "exp_design"
    cov = st.lists(_floats(-0.1, 0.1), min_size=k * k, max_size=k * k).map(
        lambda e: [[1.5 if i == j else e[min(i, j) * k + max(i, j)] for j in range(k)] for i in range(k)]
    )
    return {
        "experiment": st.text("abcxyz_", min_size=1, max_size=8),
        "model.kind": st.just(family),
        "model.mu": _floats(0.0, 1.0, k),
        "model.theta": _simplex(k),
        "model.sigma2": _floats(0.5, 4.0, k),
        "model.beta": _floats(0.05, 0.95, k),
        "model.covariance": cov,
        "model.risk_weight": _floats(0.0, 2.0),
        "model.tables": st.lists(_table(), min_size=k, max_size=k),
        "model.centers": _floats(-1.0, 1.0, k),
        "model.interior_floor": _floats(0.01, 1.0 / (k + 1), k),
        "policy.kind": st.just(kind),
        "policy.deviation": st.one_of(
            st.sampled_from(sorted(DEVIATION_PRESETS)),
            st.fixed_dictionaries({"scale": _floats(0.0, 5.0), "exponent": _floats(0.05, 0.5)}),
        ),
        # at least the noise below and its default of 1.0
        "policy.sigma2": _floats(1.0, 4.0),
        "policy.weights": _simplex(k),
        "policy.presample.brackets": st.lists(
            st.tuples(_floats(0.0, 2.0), _floats(0.0, 2.0)).map(sorted), min_size=k, max_size=k
        ),
        "policy.presample.delta": _floats(0.01, 0.5),
        "policy.presample.variance_cap": _floats(0.5, 10.0),
        "policy.presample.horizon": st.integers(1, 10_000),
        "policy.presample.max_rounds_per_arm": st.integers(1, 100),
        "policy.doubling_beta": _floats(0.01, 0.5),
        "feedback.observation": st.just("gaussian")
        if variance
        else st.sampled_from(["gaussian", "bernoulli", "deterministic"]),
        "feedback.noise_sd": _floats(0.0, 1.0),
        "feedback.map": st.lists(st.integers(0, k - 1), min_size=k, max_size=k),
        "feedback.estimator": st.sampled_from(["centered_square", "sample_variance"])
        if variance
        else st.just("mean"),
        "horizons": st.lists(st.integers(k, 10**6), min_size=1, max_size=4, unique=True).map(sorted),
        "seeds.count": st.integers(1, 1000),
        "seeds.base": st.integers(0, 2**32),
        "record_epsilon": st.booleans() if FAMILIES[family].smooth_on_simplex else st.just(False),
        "output.dir": st.text("abc/_", min_size=1, max_size=8),
    }


@st.composite
def table_configs(draw):
    """Config data drawn from the parser's own tables: every family, every
    policy kind, each required key present and each other key the chosen
    family and policy read either present or absent."""
    k = draw(st.integers(2, 4))
    family = draw(st.sampled_from(sorted(FAMILIES)))
    kind = draw(st.sampled_from(POLICY_KINDS))
    values = _value_strategies(k, family, kind)
    reads = {f"model.{name}" for name in ("kind",) + FAMILIES[family].needs}
    if kind != "ucb_fw":  # the default kind may be left out
        reads.update(("policy", "policy.kind"))
    owned = {"policy.weights": "fixed_allocation", "policy.presample": "presampled_ucb_fw"}

    def section(table, prefix):
        data = {}
        for key, _, sub in table.entries:
            path = prefix + key
            if path.startswith("model.") and path not in reads:
                if key not in FAMILIES[family].options or not draw(st.booleans()):
                    continue
            elif path in owned:
                if kind != owned[path]:
                    continue
            elif key not in table.required and path not in reads and not draw(st.booleans()):
                continue
            data[key] = draw(values[path]) if path in values else section(sub, path + ".")
        return data

    return section(cli._EXPERIMENT, "")


def test_table_drawn_configs_cover_every_key():
    assert set(_value_strategies(3, "linear", "ucb_fw")) == set(_table_keys(cli._EXPERIMENT))



def test_readme_example_is_the_vertex_config():
    # the first yaml block of README.md is configs/vertex_fast_rate.yaml
    root = pathlib.Path(__file__).parent.parent
    example = re.search(r"^```yaml\n(.*?)^```", (root / "README.md").read_text(), re.M | re.S).group(1)
    assert parse_config_data(yaml.safe_load(example)) == parse_config(root / "configs" / "vertex_fast_rate.yaml")


# ---------------------------------------------------------------- emission


def small_run(workers=1, **overrides):
    config = cfg_from(**overrides)
    records = run_experiment(config, workers=workers)
    return config, records, aggregate(records)


def test_emit_csv_header_only_for_empty_rows():
    config = cfg_from()
    assert emit_csv(config, []) == CSV_HEADER + "\n"


def test_emit_csv_requires_aggregate_with_records():
    config, records, _ = small_run()
    with pytest.raises(ValueError, match="aggregate"):
        emit_csv(config, records)


def test_emit_csv_cardinality_and_formatting():
    config, records, agg = small_run()
    text = emit_csv(config, records, agg)
    lines = text.strip().split("\n")
    # header + 2 seeds x 2 horizons + 2 mean + 2 stderr
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4 + 2 + 2
    seed_rows = [l for l in lines[1:] if ",mean," not in l and ",stderr," not in l]
    assert all(l.startswith("vertex,ucb_fw,linear,2,") for l in seed_rows)
    float_re = re.compile(r"-?\d\.\d{12}e[+-]\d{2,3}$")
    for line in seed_rows:
        err_field = line.split(",")[6]
        assert float_re.match(err_field), err_field


def test_emit_csv_bound_columns():
    config, records, agg = small_run()
    report = bound_check(agg, build_model(config.model), "prop2")
    text = emit_csv(config, records, agg, bound=report)
    mean_rows = [l for l in text.strip().split("\n") if ",mean," in l]
    assert len(mean_rows) == 2
    for row in mean_rows:
        fields = row.split(",")
        assert fields[8] != ""  # bound_value present
        assert fields[9] in ("true", "false")


def test_emit_csv_is_worker_invariant():
    for overrides in ({}, {"model": MARKOWITZ_MODEL}):
        config, records1, agg1 = small_run(workers=1, **overrides)
        _, records2, agg2 = small_run(workers=2, **overrides)
        assert emit_csv(config, records1, agg1) == emit_csv(config, records2, agg2)


def test_markowitz_bound_rows_emit_as_json():
    config, records, agg = small_run(model=MARKOWITZ_MODEL)
    model = build_model(config.model)
    report = bound_check(agg, model, "thm1")
    payload = json.loads(emit_summary(config, agg, bound=report))
    assert payload["bound"]["selector"] == "thm1"
    assert payload["bound"]["passed"] is report.passed
    # the same constants as numpy scalars give the same bound-row bytes
    as_numpy = dataclasses.replace(
        model, sup_loss=np.float64(model.sup_loss), sup_grad=np.float64(model.sup_grad)
    )
    assert emit_csv(config, records, agg, bound=report) == emit_csv(
        config, records, agg, bound=bound_check(agg, as_numpy, "thm1")
    )


def test_markowitz_run_solves_its_minimizer_once(tmp_path, monkeypatch):
    calls = []
    solve = losses._simplex_qp

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(losses, "_simplex_qp", counted)
    data = {**BASIC, "model": MARKOWITZ_MODEL, "seeds": {"count": 3, "base": 7}}
    config = parse_config(write_config(tmp_path, data))
    records = run_experiment(config, workers=1)
    agg = aggregate(records)
    emit_csv(config, records, agg)
    emit_summary(config, agg)
    bound_check(agg, build_model(config.model), "thm1", records=records)
    assert len(calls) == 1


def test_pickled_config_carries_its_built_model():
    config = cfg_from(model=MARKOWITZ_MODEL)
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config
    assert clone.model.built is not None
    assert clone.model.built == build_model(config.model)


def test_emit_summary_payload():
    config, records, agg = small_run(horizons=[100, 300, 900])
    fit = fit_rate(agg.horizons, agg.mean_error)
    report = bound_check(agg, build_model(config.model), "prop2")
    payload = json.loads(emit_summary(config, agg, fit=fit, bound=report))
    assert payload["experiment"] == "vertex"
    assert payload["seeds"] == 2
    assert len(payload["mean_error"]) == 3
    assert "slope" in payload["rate_fit"]
    assert payload["bound"]["selector"] == "prop2"
    bare = json.loads(emit_summary(config, agg))
    assert "rate_fit" not in bare and "bound" not in bare


def test_golden_csv_is_stable(tmp_path):
    config = parse_config_data(
        {
            "experiment": "golden_vertex",
            "model": {"kind": "linear", "mu": [0.1, 0.5]},
            "policy": {"kind": "ucb_fw", "deviation": "theorem1"},
            "feedback": {"observation": "gaussian", "noise_sd": 1.0},
            "horizons": [10, 100],
            "seeds": {"count": 2, "base": 7},
            "record_epsilon": True,
        }
    )
    records = run_experiment(config)
    agg = aggregate(records)
    report = bound_check(agg, build_model(config.model), "prop2")
    text = emit_csv(config, records, agg, bound=report)
    golden = pathlib.Path(__file__).parent / "data" / "golden_vertex.csv"
    assert text == golden.read_text()


# ---------------------------------------------------------------- commands


def write_config(tmp_path, data, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def test_run_command_writes_outputs(tmp_path, capsys):
    path = write_config(tmp_path, BASIC)
    out = tmp_path / "results"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    csv_text = (out / "vertex.csv").read_text()
    assert csv_text.startswith(CSV_HEADER)
    summary = json.loads((out / "vertex_summary.json").read_text())
    assert summary["experiment"] == "vertex"
    assert "mean_error" in capsys.readouterr().out


def test_run_command_seed_base_override(tmp_path):
    path = write_config(tmp_path, BASIC)
    out = tmp_path / "results"
    main(["run", "--config", str(path), "--out", str(out), "--seed-base", "500"])
    csv_text = (out / "vertex.csv").read_text()
    assert ",500," in csv_text and ",7," not in csv_text


def test_run_command_reports_a_seed_base_past_2_64(tmp_path, capsys):
    # the override is checked as the config's own seed base is: a config
    # error naming the flag, not a traceback
    path = write_config(tmp_path, BASIC)
    out = tmp_path / "results"
    assert main(["run", "--config", str(path), "--out", str(out), "--seed-base", str(2**64 - 1)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: run --seed-base {2**64 - 1}: seeds must be below 2**64")
    assert not out.exists()


def test_unreadable_config_path_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    assert main(["run", "--config", str(missing)]) == 1
    assert capsys.readouterr().err == f"config error: [Errno 2] No such file or directory: '{missing}'\n"
    assert main(["run", "--config", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"config error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_parse_rejects_a_negative_seed_base(tmp_path, capsys):
    # SeedSequence takes non-negative seeds only
    with pytest.raises(ConfigError, match=re.escape("seeds.base: must be >= 0, got -1")):
        cfg_from(seeds={"count": 2, "base": -1})
    assert cfg_from(seeds={"count": 2, "base": 0}).seed_base == 0
    path = write_config(tmp_path, {**BASIC, "seeds": {"count": 2, "base": -1}})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config error: seeds.base" in capsys.readouterr().err


def test_parse_rejects_seeds_at_or_above_2_64():
    # the streams are seeded by one pass over uint64 seeds
    with pytest.raises(ConfigError, match=re.escape("seeds.base: seeds must be below 2**64")):
        cfg_from(seeds={"count": 2, "base": 2**64 - 1})
    with pytest.raises(ConfigError, match=re.escape("seeds.base: seeds must be below 2**64")):
        cfg_from(seeds={"count": 1, "base": 2**64})
    assert cfg_from(seeds={"count": 2, "base": 2**64 - 2}).seed_base == 2**64 - 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seed-base", "-5"],
        ["run", "--workers", "0"],
        ["run", "--workers", "-3"],
        ["rates", "--workers", "0"],
        ["check-bounds", "--theorem", "lemma1", "--workers", "-1"],
        ["gradcheck", "--points", "0"],
        ["gradcheck", "--seed", "-1"],
    ],
)
def test_commands_reject_out_of_range_flags_by_name(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, BASIC)
    config = [] if argv[0] == "gradcheck" else ["--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *config])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be >= " in capsys.readouterr().err
    assert not (tmp_path / "vertex.csv").exists()


def test_run_experiment_rejects_fewer_than_one_worker_and_a_negative_seed_base():
    config = cfg_from()
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_experiment(config, workers=workers)
    with pytest.raises(ValueError, match="seed base must be >= 0, got -2"):
        run_experiment(dataclasses.replace(config, seed_base=-2))


def test_import_does_not_load_the_process_pool():
    # the pool modules, and numpy.random that pooled runs load before the
    # fork, are imported only where a multi-block run starts a pool
    src = str(pathlib.Path(ucbfw.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import ucbfw.cli, ucbfw.harness; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing') "
        "or m.split('.')[:2] == ['numpy', 'random']))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork", reason="pool workers are not forked here"
)
def test_pool_workers_import_nothing_after_the_fork(tmp_path):
    # a forked worker inherits the parent's modules; each block of a
    # two-block run of every shipped config lists what its worker imported
    # after the fork, and the parent should have loaded all of it already
    src = str(pathlib.Path(ucbfw.__file__).parents[1])
    paths = [str(path) for path in SHIPPED_CONFIGS]
    code = textwrap.dedent(
        f"""
        import dataclasses, json, os, sys
        sys.path.insert(0, {src!r})
        from ucbfw import cli, harness

        at_fork = []
        os.register_at_fork(after_in_child=lambda: at_fork.append(set(sys.modules)))
        run_trial = harness.run_trial

        def traced(config, seeds):
            records = run_trial(config, seeds)
            path = os.path.join({str(tmp_path)!r}, f"{{config.experiment}}-{{seeds[0]}}.json")
            with open(path, "w") as fh:
                json.dump(sorted(set(sys.modules) - at_fork[0]), fh)
            return records

        harness.run_trial = traced
        for path in {paths!r}:
            config = cli.parse_config(path)
            config = dataclasses.replace(
                config, horizons=config.horizons[:1], seed_count=2 * harness.MIN_BLOCK
            )
            harness.run_experiment(config, workers=2)
        """
    )
    subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=300)
    imported = {path.stem: json.loads(path.read_text()) for path in tmp_path.glob("*.json")}
    assert len(imported) == 2 * len(paths)
    assert imported == {name: [] for name in imported}


def test_run_command_config_errors_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["run", "--config", str(missing)]) == 1
    bad = write_config(
        tmp_path, {**BASIC, "model": {"kind": "quadratic", "theta": [0.6, 0.6]}}, "bad.yaml"
    )
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err


SEPARABLE_MODEL = {
    "kind": "separable",
    "mu": [0.2, 0.8],
    "tables": [
        {"xs": [0.0, 0.5, 1.0], "ys": [0.0, 1.0, 2.0]},
        {"xs": [0.0, 1.0], "ys": [1.0, 1.5]},
    ],
}


@pytest.mark.parametrize(
    "table, field, value, message",
    [
        (0, "xs", [0.0, math.nan, 1.0], "model: table 0: piecewise-linear xs has a non-finite entry"),
        (1, "ys", [1.0, math.inf], "model: table 1: piecewise-linear ys has a non-finite entry"),
    ],
    ids=["nan-in-xs", "inf-in-ys"],
)
def test_run_command_rejects_non_finite_table(tmp_path, capsys, table, field, value, message):
    model = json.loads(json.dumps(SEPARABLE_MODEL))
    model["tables"][table][field] = value
    path = write_config(tmp_path, {**BASIC, "model": model})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


NON_FINITE_MODELS = {
    "markowitz": {
        "kind": "markowitz",
        "covariance": [[1.0, 0.0], [0.0, 1.0]],
        "risk_weight": 1.0,
        "mu": [1.0, 0.0],
    },
    "exp_design": {
        "kind": "exp_design",
        "sigma2": [1.0, 2.0],
        "centers": [0.0, 0.0],
        "interior_floor": [0.1, 0.1],
    },
}


@pytest.mark.parametrize(
    "kind, field, index, value, message",
    [
        ("markowitz", "risk_weight", None, math.nan, "model: risk_weight must be finite, got nan"),
        ("markowitz", "risk_weight", None, math.inf, "model: risk_weight must be finite, got inf"),
        ("markowitz", "covariance", (0, 1), math.nan, "model: covariance has a non-finite entry"),
        ("markowitz", "covariance", (1, 1), math.inf, "model: covariance has a non-finite entry"),
        ("exp_design", "centers", (0,), math.nan, "model: centers has a non-finite entry"),
        ("exp_design", "centers", (1,), -math.inf, "model: centers has a non-finite entry"),
    ],
    ids=["nan-risk-weight", "inf-risk-weight", "nan-covariance", "inf-covariance", "nan-center", "inf-center"],
)
def test_run_command_rejects_non_finite_model_inputs(
    tmp_path, capsys, kind, field, index, value, message
):
    model = json.loads(json.dumps(NON_FINITE_MODELS[kind]))
    if index is None:
        model[field] = value
    else:
        target = model[field]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value
    path = write_config(tmp_path, {**BASIC, "model": model})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"feedback": {"estimator": "bogus"}}, "feedback: unknown estimator 'bogus'"),
        (
            {"feedback": {"estimator": "centered_square"}},
            "feedback: centered_square estimator only applies to exp_design",
        ),
        # a mean family's gradient would take the sample variances for its means
        (
            {"feedback": {"estimator": "sample_variance"}},
            "feedback: sample_variance estimator only applies to exp_design",
        ),
        (
            {
                "model": {"kind": "exp_design", "sigma2": [1.0, 4.0]},
                "policy": {"kind": "presampled_ucb_fw", "presample": {"brackets": [[1.0, 2.0]]}},
            },
            "policy.presample.brackets: need one bracket per arm: 1 vs 2",
        ),
        (
            {"policy": {"kind": "fixed_allocation", "weights": [0.5, 0.25, 0.25]}},
            "policy.weights: need one weight per action: 3 vs 2",
        ),
        # a non-finite number is refused by name; nan or inf radii would pin
        # every seed to action 0, and an infinite cap zeroes the floors
        ({"policy": {"sigma2": math.nan}}, "policy.sigma2: expected a finite number, got nan"),
        (
            {"policy": {"deviation": "prop1", "sigma2": math.inf}},
            "policy.sigma2: expected a finite number, got inf",
        ),
        ({"feedback": {"noise_sd": math.nan}}, "feedback.noise_sd: expected a finite number, got nan"),
        (
            {"policy": {"deviation": {"scale": math.inf, "exponent": 0.5}}},
            "policy.deviation.scale: expected a finite number, got inf",
        ),
        (
            {"policy": {"deviation": {"scale": math.nan, "exponent": 0.5}}},
            "policy.deviation.scale: expected a finite number, got nan",
        ),
        (
            {
                "model": {"kind": "exp_design", "sigma2": [1.0, 4.0]},
                "policy": {
                    "kind": "presampled_ucb_fw",
                    "presample": {"variance_cap": math.inf, "horizon": 1000},
                },
                "horizons": [1000],
            },
            "policy.presample.variance_cap: expected a finite number, got inf",
        ),
        # a stopping rule needs at least one draw; null means the presample horizon
        *(
            (
                {
                    "model": {"kind": "exp_design", "sigma2": [1.0, 4.0]},
                    "policy": {
                        "kind": "presampled_ucb_fw",
                        "presample": {"horizon": 1000, "max_rounds_per_arm": rounds},
                    },
                    "horizons": [1000],
                },
                f"policy.presample.max_rounds_per_arm: must be >= 1, got {rounds}",
            )
            for rounds in (-5, 0)
        ),
        # the experiment checks name the key at fault
        ({"seeds": {"count": 0, "base": 7}}, "seeds.count: must be >= 1, got 0"),
        ({"horizons": [100, 100]}, "horizons: horizons must be strictly increasing, got (100, 100)"),
        (
            {"horizons": [1, 100]},
            "horizons: first horizon 1 is shorter than the forced round robin over 2 actions",
        ),
        (
            {"model": {"kind": "exp_design", "sigma2": [1.0, 4.0]}, "record_epsilon": True},
            "record_epsilon: per-step gradient diagnostics need a loss with simplex-wide "
            "gradients; exp_design is undefined at the early boundary points",
        ),
    ],
    ids=[
        "unknown-estimator",
        "centered-square-off-exp-design",
        "sample-variance-off-exp-design",
        "bracket-count",
        "weight-count",
        "nan-sigma2",
        "inf-sigma2-prop1",
        "nan-noise-sd",
        "inf-deviation-scale",
        "nan-deviation-scale",
        "inf-variance-cap",
        "negative-max-rounds-per-arm",
        "zero-max-rounds-per-arm",
        "zero-seed-count",
        "repeated-horizon",
        "short-first-horizon",
        "record-epsilon-off-simplex",
    ],
)
def test_run_command_rejects_configs_that_would_fail_at_run_time(
    tmp_path, capsys, overrides, message
):
    path = write_config(tmp_path, {**BASIC, **overrides})
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"model": {"kind": "linear", "mu": [0.1, 0.5], "interior_floor": [0.3, 0.3]}},
            "model: linear model takes mu, not interior_floor",
        ),
        (
            {"model": {"kind": "linear", "mu": [0.1, 0.5], "theta": [0.5, 0.5]}},
            "model: linear model takes mu, not theta",
        ),
        (
            {"model": {"kind": "quadratic", "theta": [0.5, 0.5], "mu": [0.1, 0.5]}},
            "model: quadratic model takes theta, not mu",
        ),
        ({"policy": {"kind": "ucb_fw", "weights": [0.5, 0.5]}}, "policy: ucb_fw policy takes no weights"),
        (
            {"policy": {"kind": "ucb_fw", "presample": {"horizon": 100}}},
            "policy: ucb_fw policy takes no presample",
        ),
    ],
    ids=["floor-on-linear", "theta-on-linear", "mu-on-quadratic", "weights-on-ucb_fw", "presample-on-ucb_fw"],
)
def test_parse_rejects_fields_the_model_or_policy_never_reads(overrides, message):
    # such a field used to parse and change nothing in the records
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg_from(**overrides)


def test_rates_command_prints_slope(tmp_path, capsys):
    data = {**BASIC, "horizons": [100, 300, 900]}
    path = write_config(tmp_path, data)
    assert main(["rates", "--config", str(path)]) == 0
    assert "slope=" in capsys.readouterr().out


def test_rates_command_rejects_short_grid_cleanly(tmp_path, capsys):
    # two horizons cannot anchor a fit; expect a message, not a traceback
    path = write_config(tmp_path, BASIC)
    assert main(["rates", "--config", str(path)]) == 1
    assert "rate fit error" in capsys.readouterr().err


def test_check_bounds_pass_and_unsupported(tmp_path, capsys):
    oracle = {
        "experiment": "oracle",
        "model": {"kind": "quadratic", "theta": [0.5, 0.5]},
        "policy": {"kind": "oracle_fw", "deviation": "noiseless"},
        "feedback": {"observation": "deterministic"},
        "horizons": [10, 100],
        "seeds": {"count": 1, "base": 1},
    }
    path = write_config(tmp_path, oracle)
    # lemma1 needs epsilon sums; the command re-runs with recording enabled
    assert main(["check-bounds", "--config", str(path), "--theorem", "lemma1"]) == 0
    assert "pass" in capsys.readouterr().out

    floorless = {
        "experiment": "floorless",
        "model": {"kind": "exp_design", "sigma2": [1.0, 4.0]},
        "policy": {"kind": "ucb_fw"},
        "feedback": {"observation": "gaussian"},
        "horizons": [50],
        "seeds": {"count": 1, "base": 1},
    }
    path2 = write_config(tmp_path, floorless, "floorless.yaml")
    assert main(["check-bounds", "--config", str(path2), "--theorem", "thm1"]) == 2
    assert "unsupported" in capsys.readouterr().out


def test_check_bounds_lemma1_needs_simplex_wide_gradients(tmp_path, capsys):
    # lemma1 turns on the per-step epsilon diagnostic, which exp_design's
    # gradient does not allow even with an interior floor: a config error,
    # not a traceback
    floored = {
        "experiment": "floored",
        "model": {"kind": "exp_design", "sigma2": [1.0, 4.0], "interior_floor": [0.1, 0.1]},
        "policy": {"kind": "ucb_fw"},
        "feedback": {"observation": "gaussian"},
        "horizons": [50],
        "seeds": {"count": 1, "base": 1},
    }
    path = write_config(tmp_path, floored)
    assert main(["check-bounds", "--config", str(path), "--theorem", "lemma1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: check-bounds --theorem lemma1: ")
    assert "exp_design" in err


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--points", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 6


def test_gradcheck_gives_the_recorded_errors():
    # the exact worst relative errors at five points per family, recorded
    # when the gradients were evaluated as lists one point at a time; the
    # one-row block evaluation must give the same floats
    got = {r.kind: r.max_rel_err for r in checks.gradcheck(points=5)}
    assert got == {
        "linear": 5.075159384584901e-11,
        "quadratic": 3.27821220849673e-11,
        "exp_design": 8.54246975159068e-11,
        "cobb_douglas": 1.3225613635359832e-10,
        "markowitz": 1.5988129160428198e-10,
        "separable": 6.808179718310582e-11,
    }


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    rows = [line.split() for line in out.splitlines()]
    assert [row[0] for row in rows] == [
        "fold_agreement",
        "determinism",
        "deviation_standard",
        "deviation_unit",
        "stopping_example",
        "rate_fit_exact",
        "aggregate_shape",
        "fw_gap",
        "gradcheck",
    ]
    details = {row[0]: row[2] for row in rows if len(row) > 2}
    assert details["fold_agreement"] == "max_gap=0.00e+00"
    assert details["deviation_standard"] == "value=3.716922"
    assert details["deviation_unit"] == "value=0.500000"
    assert details["stopping_example"] == "tau=19"
    assert details["rate_fit_exact"] == "slope=-1.0000"


_RADII = feedback.deviation_radii
_MINIMIZER = harness.minimizer


def _end_every_arm_at_once(self, actions, obs):
    self._arm += 1


def _shifted_minimizer(model):
    info = _MINIMIZER(model)
    return dataclasses.replace(info, loss_star=info.loss_star - 1.0)


@pytest.mark.parametrize(
    "owner, name, wrong, failing",
    [
        (
            feedback,
            "deviation_radii",
            lambda spec, t, counts: 2.0 * _RADII(spec, t, counts),
            ["deviation_standard", "deviation_unit"],
        ),
        (policies.PresampledUcbFwPolicy, "observe", _end_every_arm_at_once, ["stopping_example"]),
        (harness, "minimizer", _shifted_minimizer, ["fw_gap"]),
    ],
    ids=["radii", "stopping", "loss_star"],
)
def test_selftest_fails_when_the_engine_rule_is_wrong(monkeypatch, capsys, owner, name, wrong, failing):
    # selftest checks the block code the engine runs, so a wrong radius,
    # stopping step or minimum loss shows up as FAIL
    monkeypatch.setattr(owner, name, wrong)
    assert main(["selftest"]) == 2
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows if row[1] == "FAIL"] == failing
