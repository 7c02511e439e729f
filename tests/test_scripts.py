import math
import runpy
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_main_runs(script, tmp_path, monkeypatch, capsys):
    # each script's main() runs end to end against the package's current
    # API; output directories it creates land in tmp_path
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script))["main"]()
    assert capsys.readouterr().out


def test_stage_memory_reports_every_stage_on_a_small_grid(capsys, tmp_path, monkeypatch):
    # one row per stage run_pipeline calls and then write_outputs, each with
    # a finite tracemalloc peak, high-water mark and untraced wall time, and
    # a last line with what the result holds; the outputs land in a
    # temporary directory, not the working one
    monkeypatch.chdir(tmp_path)
    script = runpy.run_path(str(SCRIPT_DIR / "stage_memory.py"))
    script["main"](["--grid-n", "41", "--chart-n", "41"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-2:] == ["wall", "s"]
    rows = [line.split() for line in lines[2:-1]]
    assert [r[0] for r in rows] == list(script["STAGES"])
    assert rows[-1][0] == "write_outputs"
    for name, *numbers in rows:
        assert len(numbers) == 3 and all(math.isfinite(float(x)) for x in numbers), name
    held = lines[-1].split()
    assert held[:-2] == ["result", "of", "run_pipeline", "holds"] and held[-1] == "MB"
    assert float(held[-2]) > 0
    assert list(tmp_path.iterdir()) == []
