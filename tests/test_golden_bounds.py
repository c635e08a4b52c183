"""Golden bound reports: the summary of every bound selector on every
shipped config, byte for byte.

Each shipped config runs with 3 seeds, its horizons up to 1e4 and
per-step epsilon sums wherever its family allows them; two small linear
configs add the tied-vertex cases of prop2.  After an intended change to
the bound envelopes, rewrite the data file with

    PYTHONPATH=src python tests/test_golden_bounds.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from ucbfw.cli import emit_summary, parse_config, parse_config_data
from ucbfw.harness import aggregate, bound_check, build_model, run_experiment

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_bounds.json"
SELECTORS = ("lemma1", "thm1", "prop2", "thm4")


def _tied(name: str, mu: list[float]):
    return parse_config_data(
        {
            "experiment": name,
            "model": {"kind": "linear", "mu": mu},
            "policy": {"deviation": "prop1"},
            "horizons": [10, 100],
            "seeds": {"count": 2, "base": 3},
            "record_epsilon": True,
        }
    )


def _configs():
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        config = parse_config(path)
        yield dataclasses.replace(
            config,
            seed_count=3,
            horizons=tuple(t for t in config.horizons if t <= 10_000),
            record_epsilon=build_model(config.model).smooth_on_simplex,
        )
    # an exact tie, and a tie within the 1e-12 gap tolerance
    yield _tied("tied_vertex", [0.5, 0.5])
    yield _tied("near_tied_vertex", [0.5, 0.5 + 1e-13])


def bound_summaries() -> dict[str, dict[str, str]]:
    out = {}
    for config in _configs():
        records = run_experiment(config)
        agg = aggregate(records)
        model = build_model(config.model)
        out[config.experiment] = {
            selector: emit_summary(config, agg, bound=bound_check(agg, model, selector, records=records))
            for selector in SELECTORS
        }
    return out


def test_bound_summaries_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    summaries = bound_summaries()
    assert sorted(summaries) == sorted(golden)
    for name, by_selector in summaries.items():
        for selector, text in by_selector.items():
            assert text == golden[name][selector], f"{name} {selector}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(bound_summaries(), indent=1, sort_keys=True) + "\n")
