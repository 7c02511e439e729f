import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_main_runs(script, tmp_path, monkeypatch, capsys):
    # each script's main() runs end to end against the package's current
    # API; output directories it creates land in tmp_path
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script))["main"]()
    assert capsys.readouterr().out
