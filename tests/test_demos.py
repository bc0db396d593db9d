"""The demos, and the README's quickstart, run end to end on the public API.

Demo 03 runs from a copy, because it writes its output next to itself; its
files must equal the committed demos/output/shock/.
"""

import re
import runpy
import shutil
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


def test_demo_03_reproduces_committed_output(tmp_path, capsys):
    script = shutil.copy(DEMOS / "03_shock_detection.py", tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert "closer-hub peak" in capsys.readouterr().out
    for name in ("metrics.csv", "gbe.svg", "hubs.svg"):
        written = (tmp_path / "output" / "shock" / name).read_bytes()
        assert written == (DEMOS / "output" / "shock" / name).read_bytes(), name


def test_readme_quickstart_runs(capsys):
    """The README's python quickstart runs as written: three rows, the
    first date's without closer hubs, since it has no differential."""
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and all(re.fullmatch(r"\d{4}-\d\d-\d\d \S+ \S+", line) for line in lines)
    assert lines[0].endswith(" None") and not lines[1].endswith(" None")
