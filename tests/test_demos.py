"""The demos that only print run end to end on the public API.

Demo 03 is left out: it rewrites the committed files under demos/output/.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script, expected",
    [
        ("01_dtw_alignment.py", "warping distance"),
        ("02_networks_and_entropy.py", "graph differential {"),
    ],
)
def test_demo_runs(script, expected, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
