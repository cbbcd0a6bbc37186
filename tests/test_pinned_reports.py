"""`eqdeg compute` on the demo problems reproduces pinned reports.

The values are pinned from a known-good run.  Everything but epsilon
and the tail bound must match exactly; those two are compared to 1e-12
relative, so a change that only reorders floating-point work still passes.
"""

import json
from pathlib import Path

import pytest

from eqdeg.cli import EXIT_OK, main

DEMO_PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"

S1 = [{"coeff": 1, "subgroup": "S1"}]
LIMIT_CLASS = {"level": 1, "value": S1 + [{"coeff": -1, "subgroup": {"Zk": 1}}]}
CHECKS = {"normalization_selftest": "pass", "restriction_consistency": "pass", "stabilization": "pass"}
COMMON_LINES = [
    "degree     : [S1/S1]",
    "level      : 1",
    "stabilized : [S1/S1] = [S1/S1] (levels 1..2)",
    "check normalization_selftest: pass",
    "check stabilization: pass",
    "check restriction_consistency: pass",
]

PINNED = {
    "normalization": {
        "problem": {"group": "S1", "kind": "abstract", "radius": 1.0, "variables": 2},
        "verdict": "zero of the map certified (nonzero degree)",
        "epsilon": 0.35357547071494505,
        "tail_bound": 0.0,
    },
    "quadratic_half": {
        "problem": {"dof": 1, "group": "S1", "kind": "hamiltonian", "lambda": 0.5, "radius": 1.0},
        "verdict": "periodic solution certified (nonzero degree)",
        "epsilon": 0.18822408508806657,
        "tail_bound": 0.0,  # a quadratic H has no terms of degree >= 3, so no tail
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_report_matches_the_pinned_values(name, tmp_path, capsys):
    pinned = PINNED[name]
    out = tmp_path / "report.json"
    assert main(["compute", str(DEMO_PROBLEMS / f"{name}.json"), "--json", str(out)]) == EXIT_OK

    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith(("epsilon", "tail bound"))] == (
        COMMON_LINES + [f"verdict    : {pinned['verdict']}", f"report written to {out}"]
    )

    report = json.loads(out.read_text())
    degree = report["degree"]
    assert report["problem"] == pinned["problem"]
    assert degree["value"] == S1
    assert degree["level"] == 1
    assert degree["stabilization"] == [S1, S1]
    assert degree["limit_class"] == LIMIT_CLASS
    assert report["checks"] == CHECKS
    assert report["verdict"] == pinned["verdict"]
    for key in ("epsilon", "tail_bound"):
        assert degree[key] == pytest.approx(pinned[key], rel=1e-12, abs=0.0)
