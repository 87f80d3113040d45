"""Run the example scripts end to end.

Each example runs as its own process in a temporary working directory
(some write ``hazard.vcd`` or ``dma-ctrl*.pla`` next to themselves) and
must exit 0 and print its closing claim.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: script -> the lines its closing claim must print
EXAMPLES = {
    "hazard_analysis.py": ["GLITCH found", "clean over 400"],
    "figure1_hazard_cost.py": ["reproduced"],
    "burst_mode_controller.py": ["no glitches found"],
    "closed_loop_simulation.py": ["zero glitches", "25/25 walks glitched"],
    "existence_check.py": [
        "hazard-free cover exists: False",
        "offending required cubes: -10 (output 0)",
    ],
    "canonicalization_walkthrough.py": [
        "canonical cube = b",
        "collapse to 3 canonical ones",
    ],
}

#: files the examples leave in their working directory
ARTIFACTS = {
    "hazard_analysis.py": ["hazard.vcd"],
    "burst_mode_controller.py": ["dma-ctrl.pla", "dma-ctrl.min.pla"],
}


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for claim in EXAMPLES[script]:
        assert claim in proc.stdout, f"{script}: missing {claim!r}"
    for name in ARTIFACTS.get(script, []):
        assert (tmp_path / name).is_file(), f"{script}: no {name}"
