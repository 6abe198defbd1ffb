"""The demos that print verdicts run to the end and print the same ones."""

import os
import subprocess
import sys
from pathlib import Path

import cubeshadows

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = str(Path(cubeshadows.__file__).resolve().parents[1])

# demo -> lines its output must hold; timings and the last digits of demo
# 03's ascent are left out, and demo 04, about 4 s of sampling, is not run
VERDICTS = {
    "01_criterion_walkthrough.py": [
        "criterion says satisfied = True",
        "exhaustive check of 4 vertices:",
        "  exists_inside = True, agreeing with the criterion",
    ],
    "02_the_tenth_dimension.py": [
        "largest safe dimension: 9",
        "satisfied: False",
        "checked all 1024 vertices:",
        "  exists_inside = False",
    ],
    "03_extremal_directions.py": [
        "product at the analytic point: 2.08113883008419",
        "heavy coordinate a = 0.81124219, light coordinates b = 0.19490343",
    ],
    "05_oracle_vs_criterion.py": [
        "  4      400          400       0               0",
        "  8      400          400       0               0",
        " 12      400          400       0               0",
        "  [1.0, 1.0]: orthogonal vertex found = True, min |<vertex, u>| = 0.0",
        "  [1.0, 1.0, 2.0]: orthogonal vertex found = True, min |<vertex, u>| = 0.0",
        "  [1.0, 2.0, 3.0]: orthogonal vertex found = True, min |<vertex, u>| = 0.0",
        "  [1, 1, sqrt(2)]: orthogonal vertex found = False (irrational ratios miss)",
        "  identical verdicts: True",
    ],
}


def test_the_verdict_demos_print_their_verdicts():
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    runs = {
        name: subprocess.Popen(
            [sys.executable, str(DEMOS / name)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for name in VERDICTS
    }
    for name, proc in runs.items():
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, (name, err)
        lines = out.splitlines()
        for line in VERDICTS[name]:
            assert line in lines, (name, line)
