"""Golden runs: the summary of every bound selector and the CSV rows of
every shipped config, byte for byte.

Each shipped config runs with 3 seeds, its horizons up to 1e4 and
per-step epsilon sums wherever its family allows them; two small linear
configs add the tied-vertex cases of prop2.  After an intended change to
the bound envelopes or to the runs, rewrite both data files with

    PYTHONPATH=src python tests/test_golden_bounds.py
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib

import pytest

from ucbfw.cli import emit_csv, emit_summary, parse_config, parse_config_data
from ucbfw.harness import aggregate, bound_check, build_model, run_experiment

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden_bounds.json"
GOLDEN_CSV = ROOT / "tests" / "data" / "golden_runs.json"
SELECTORS = ("lemma1", "thm1", "prop2", "thm4")

pytestmark = pytest.mark.bitwise


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


@functools.cache
def golden_outputs() -> tuple[dict[str, dict[str, str]], dict[str, list[str]]]:
    """Per config, the bound summary of each selector and the lines of the
    CSV that `ucbfw run` writes."""
    summaries, csvs = {}, {}
    for config in _configs():
        records = run_experiment(config)
        agg = aggregate(records)
        model = build_model(config.model)
        summaries[config.experiment] = {
            selector: emit_summary(config, agg, bound=bound_check(agg, model, selector, records=records))
            for selector in SELECTORS
        }
        csvs[config.experiment] = emit_csv(config, records, agg).splitlines()
    return summaries, csvs


def test_bound_summaries_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    summaries = golden_outputs()[0]
    assert sorted(summaries) == sorted(golden)
    for name, by_selector in summaries.items():
        for selector, text in by_selector.items():
            assert text == golden[name][selector], f"{name} {selector}"


def test_csv_rows_match_the_golden_file():
    golden = json.loads(GOLDEN_CSV.read_text())
    csvs = golden_outputs()[1]
    assert sorted(csvs) == sorted(golden)
    for name, lines in csvs.items():
        assert lines == golden[name], name


if __name__ == "__main__":
    summaries, csvs = golden_outputs()
    GOLDEN.write_text(json.dumps(summaries, indent=1, sort_keys=True) + "\n")
    GOLDEN_CSV.write_text(json.dumps(csvs, indent=1, sort_keys=True) + "\n")
