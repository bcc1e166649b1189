"""The scripts in demos/ run to completion and print their headline lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

HEADLINES = {
    "classic_session_walkthrough.py": ["bit   alice     bob  status", "efficiency: ",
                                       "eve accuracy on secure bits: ", "shared key: "],
    "efficiency_vs_grid.py": ["levels  secure  efficiency",
                              "efficiency rises with grid resolution"],
    "eve_solution_family.py": ["wire triple Eve measures: ",
                               "bit assignments present in the family: ['H', 'L']"],
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("script", sorted(HEADLINES))
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for headline in HEADLINES[script]:
        assert any(line.lstrip().startswith(headline) for line in lines), headline
