"""The benchmark's traced run must keep reaching every per-step loss hook.

`bench/tracing.py` counts calls by patching module attributes by name.  A
speed-up that stops calling one of them would silently zero that layer's
figures, so this runs two short experiments under the tracer and checks
that each hook was called and that tracing does not change the output.
"""

import sys
from pathlib import Path

import pytest

from ucbfw.cli import emit_csv, parse_config_data
from ucbfw.harness import aggregate, run_experiment

BENCH = Path(__file__).resolve().parent.parent / "bench"

HOOKS = (
    "policies.select",
    "losses.gradient",
    "losses.sensitivity",
    "policies.epsilon",
    "losses.loss_value",
)

EXPERIMENTS = {
    "separable-doubling": {
        "experiment": "traced_separable",
        "model": {
            "kind": "separable",
            "mu": [0.7, 0.3],
            "tables": [
                {"xs": [0.0, 0.5, 1.0], "ys": [1.0, 0.2, 0.0]},
                {"xs": [0.0, 0.5, 1.0], "ys": [0.2, 0.4, 0.6]},
            ],
        },
        "policy": {
            "kind": "doubling_ucb_fw",
            "deviation": {"scale": 1.5, "exponent": 0.5},
            "doubling_beta": 0.5,
        },
        "feedback": {"observation": "bernoulli"},
        "horizons": [200, 500],
        "seeds": {"count": 2, "base": 11},
        "record_epsilon": True,
    },
    "markowitz-k4": {
        "experiment": "traced_markowitz",
        "model": {
            "kind": "markowitz",
            "covariance": [
                [1.0, 0.2, 0.0, 0.1],
                [0.2, 1.5, 0.1, 0.0],
                [0.0, 0.1, 2.0, 0.3],
                [0.1, 0.0, 0.3, 1.2],
            ],
            "risk_weight": 1.3,
            "mu": [1.0, 0.5, -0.2, 0.8],
        },
        "policy": {"kind": "ucb_fw", "deviation": "theorem1"},
        "feedback": {"observation": "gaussian", "noise_sd": 1.0},
        "horizons": [200, 500],
        "seeds": {"count": 2, "base": 11},
        "record_epsilon": True,
    },
}


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _csv(data):
    config = parse_config_data(data)
    records = run_experiment(config, workers=1)
    return emit_csv(config, records, aggregate(records))


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_trace_reaches_every_loss_hook(name, tracer):
    data = EXPERIMENTS[name]
    traced = _csv(data)
    tracer.uninstall()
    assert traced == _csv(data)
    for hook in HOOKS:
        assert tracer.calls[hook] > 0, hook
