import dataclasses
import json
import math
import pathlib
import pickle
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import yaml

import ucbfw
from ucbfw import checks, losses
from ucbfw.cli import (
    CSV_HEADER,
    ConfigError,
    emit_config,
    emit_csv,
    emit_summary,
    main,
    normalize_config,
    parse_config,
    parse_config_data,
)
from ucbfw.harness import (
    aggregate,
    bound_check,
    build_deviation_spec,
    build_model,
    fit_rate,
    run_experiment,
)
from ucbfw.losses import minimizer

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
    gaps = minimizer(build_model(config.model)).gaps
    assert gaps == pytest.approx((0.0, 0.4))
    assert build_deviation_spec(config.policy).scale == 4.0


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
    with pytest.raises(ConfigError, match="delta_schedule"):
        cfg_from(policy={"delta_schedule": "never"})
    with pytest.raises(ConfigError, match="record_epsilon"):
        cfg_from(record_epsilon="yes")
    with pytest.raises(ConfigError, match="output.dir"):
        cfg_from(output={"dir": 3})
    with pytest.raises(ConfigError, match="experiment"):
        cfg_from(experiment="")


def test_parse_rejects_bad_action_map():
    with pytest.raises(ConfigError, match="feedback: map needs 2 entries"):
        cfg_from(feedback={"map": [0, 1, 2]})
    with pytest.raises(ConfigError, match="feedback: map entries"):
        cfg_from(feedback={"map": [0, 5]})


def test_parse_rejects_markowitz_above_the_action_limit():
    k = losses.MARKOWITZ_MAX_ACTIONS + 1
    model = {
        "kind": "markowitz",
        "covariance": np.eye(k).tolist(),
        "risk_weight": 1.0,
        "mu": [0.0] * k,
    }
    with pytest.raises(ConfigError, match=r"^model: covariance is 17x17, above the limit of 16"):
        cfg_from(model=model)


def test_parse_rejects_unknown_policy_and_deviation():
    with pytest.raises(ConfigError, match="policy:"):
        cfg_from(policy={"kind": "thompson"})
    with pytest.raises(ConfigError, match="policy.deviation"):
        cfg_from(policy={"deviation": {"scale": 1.0, "power": 0.5}})
    with pytest.raises(ConfigError, match="policy:"):
        cfg_from(policy={"deviation": "hoeffding"})


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


# ---------------------------------------------------------------- round trips


ROUND_TRIP_CONFIGS = [
    BASIC,
    {
        "experiment": "floors",
        "model": {"kind": "exp_design", "sigma2": [1.0, 4.0]},
        "policy": {
            "kind": "presampled_ucb_fw",
            "deviation": "theorem1",
            "presample": {"delta": 0.1, "variance_cap": 8.0, "horizon": 5000},
        },
        "feedback": {"observation": "gaussian"},
        "horizons": [5000],
        "seeds": {"count": 3, "base": 11},
    },
    {
        "experiment": "floors_known",
        "model": {"kind": "exp_design", "sigma2": [1.0, 4.0]},
        "policy": {
            "kind": "presampled_ucb_fw",
            "presample": {"brackets": [[1.0, 1.0], [2.0, 2.0]]},
        },
        "feedback": {"estimator": "sample_variance"},
        "horizons": [100],
        "seeds": {"count": 1, "base": 0},
        "output": {"dir": "out"},
    },
    {
        "experiment": "tables",
        "model": {
            "kind": "separable",
            "mu": [0.2, 0.8],
            "tables": [
                {"xs": [0.0, 1.0], "ys": [0.0, 2.0]},
                {"xs": [0.0, 1.0], "ys": [1.0, 1.5]},
            ],
        },
        "policy": {"deviation": {"scale": 1.5, "exponent": 0.25}},
        "feedback": {"observation": "bernoulli"},
        "horizons": [50, 100],
        "seeds": {"count": 2, "base": 3},
        "record_epsilon": True,
    },
    {
        "experiment": "blocks",
        "model": {
            "kind": "markowitz",
            "covariance": [[1.0, 0.2], [0.2, 1.5]],
            "risk_weight": 1.3,
            "mu": [1.0, 0.5],
        },
        "policy": {"kind": "doubling_ucb_fw", "doubling_beta": 0.4, "sigma2": 1.0},
        "feedback": {"observation": "gaussian", "noise_sd": 1.0},
        "horizons": [200],
        "seeds": {"count": 2, "base": 5},
    },
    {
        "experiment": "baseline",
        "model": {"kind": "cobb_douglas", "beta": [0.3, 0.7], "interior_floor": [0.1, 0.1]},
        "policy": {"kind": "fixed_allocation", "weights": [0.3, 0.7]},
        "feedback": {"observation": "deterministic"},
        "horizons": [100],
        "seeds": {"count": 1, "base": 9},
    },
    {
        # doubling_beta is kept for every kind, not only doubling_ucb_fw
        "experiment": "beta_of_plain_ucb",
        "model": {"kind": "linear", "mu": [0.1, 0.5]},
        "policy": {"kind": "ucb_fw", "doubling_beta": 0.3},
        "horizons": [100],
        "seeds": {"count": 1, "base": 2},
    },
]


@pytest.mark.parametrize("data", ROUND_TRIP_CONFIGS, ids=[c["experiment"] for c in ROUND_TRIP_CONFIGS])
def test_normalized_config_round_trips(data):
    config = parse_config_data(data)
    normalized = normalize_config(config)
    assert parse_config_data(normalized) == config
    # and through the yaml emitter as well
    assert parse_config_data(yaml.safe_load(emit_config(config))) == config


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


def test_parse_rejects_a_negative_seed_base(tmp_path, capsys):
    # SeedSequence takes non-negative seeds only
    with pytest.raises(ConfigError, match=re.escape("seeds.base: must be >= 0, got -1")):
        cfg_from(seeds={"count": 2, "base": -1})
    assert cfg_from(seeds={"count": 2, "base": 0}).seed_base == 0
    path = write_config(tmp_path, {**BASIC, "seeds": {"count": 2, "base": -1}})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "config error: seeds.base" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--seed-base", "-5"],
        ["run", "--workers", "0"],
        ["run", "--workers", "-3"],
        ["rates", "--workers", "0"],
        ["check-bounds", "--theorem", "lemma1", "--workers", "-1"],
    ],
)
def test_commands_reject_out_of_range_flags_by_name(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, BASIC)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(path)])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be >= " in capsys.readouterr().err
    assert not (tmp_path / "vertex.csv").exists()


def test_run_experiment_rejects_fewer_than_one_worker_and_a_negative_seed_base():
    config = cfg_from()
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_experiment(config, workers=workers)
    with pytest.raises(ValueError, match="seed base must be >= 0, got -1"):
        run_experiment(config, seed_base=-1)
    with pytest.raises(ValueError, match="seed base must be >= 0, got -2"):
        run_experiment(dataclasses.replace(config, seed_base=-2))


def test_import_does_not_load_the_process_pool():
    # the pool modules are imported only where a multi-block run starts one
    src = str(pathlib.Path(ucbfw.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import ucbfw.cli, ucbfw.harness; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
    ],
    ids=["unknown-estimator", "centered-square-off-exp-design", "bracket-count", "weight-count"],
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
