import json
import math
import re
import runpy
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))
# arguments for a script whose default run is too long for a test: bench.py
# on one small grid, once
SMOKE_ARGV = {"bench.py": (["--grids", "41", "--repeats", "1"],)}
# output_hashes.py's matrix on 41^2 grids: a run with meshes, one whose
# chart folds, the sampled metric and verify of the first run's composite
SMALL = ["--grid-n", "41", "--chart-n", "41"]
SMALL_RUNS = (
    ("flat", ["run", *SMALL, "--mesh-out", "m"]),
    ("fold", ["run", "--base-curve", "circle:0.05", *SMALL]),
    ("sampled", ["run", "--metric", "file:../g.csv", "--v-half", "0.03", *SMALL]),
    ("verify-flat", ["verify", "../flat/m_composite.obj", "--metric", "flat",
                     "--fields", "../flat/residuals.csv", "--residual-csv", "residuals.csv"]),
)


def script_main(script, monkeypatch):
    """The script's main(), with output_hashes.py's matrix on 41^2 grids."""
    main = runpy.run_path(str(script))["main"]
    if script.name == "output_hashes.py":
        monkeypatch.setitem(main.__globals__, "RUNS", SMALL_RUNS)
    return main


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_main_runs(script, tmp_path, monkeypatch, capsys):
    # each script's main() runs end to end against the package's current
    # API; output directories it creates land in tmp_path
    monkeypatch.chdir(tmp_path)
    script_main(script, monkeypatch)(*SMOKE_ARGV.get(script.name, ()))
    assert capsys.readouterr().out


def test_output_hashes_prints_a_stable_line_per_output(tmp_path, monkeypatch, capsys):
    # one sha256 line per file a run leaves, and per stdout, stderr and exit
    # code, in run order; a second pass prints the same lines, and nothing
    # is left in the working directory
    monkeypatch.chdir(tmp_path)
    main = script_main(SCRIPT_DIR / "output_hashes.py", monkeypatch)
    main()
    lines = capsys.readouterr().out.splitlines()
    main()
    assert capsys.readouterr().out.splitlines() == lines
    rows = [re.fullmatch(r"([0-9a-f]{64})  ([\w-]+)/(.+)", line) for line in lines]
    assert all(rows), lines
    names = [(r[2], r[3]) for r in rows]
    assert list(dict.fromkeys(r for r, _ in names)) == [name for name, _ in SMALL_RUNS]
    files = {run: [f for r, f in names if r == run] for run, _ in SMALL_RUNS}
    assert files["flat"] == ["m_composite.obj", "m_lifted.obj", "report.json", "residuals.csv",
                             "system_s.csv", "<stdout>", "<stderr>", "<exit 0>"]
    assert files["fold"] == ["<stdout>", "<stderr>", "<exit 1>"]
    assert files["sampled"] == ["report.json", "residuals.csv", "system_s.csv",
                                "<stdout>", "<stderr>", "<exit 2>"]
    assert files["verify-flat"] == ["residuals.csv", "verify_report.json",
                                    "<stdout>", "<stderr>", "<exit 0>"]
    assert list(tmp_path.iterdir()) == []


def test_bench_writes_every_stage_and_writer_per_column(tmp_path, monkeypatch, capsys):
    # two columns of the 41^2 matrix in one file: the second run keeps the
    # first's column, and each holds every stage and every file group, and
    # the time of the speed probe taken before the config
    monkeypatch.chdir(tmp_path)
    bench = runpy.run_path(str(SCRIPT_DIR / "bench.py"))
    stages = runpy.run_path(str(SCRIPT_DIR / "stage_memory.py"))["STAGES"]
    for column in ("parent", "change"):
        bench["main"](["--grids", "41", "--repeats", "1", "--column", column,
                       "--out", "b.json"])
    doc = json.loads((tmp_path / "b.json").read_text())
    assert list(doc["columns"]) == ["parent", "change"]
    assert list(doc["runs"]) == ["flat 41", "cos2 41", "example-cos2 41"]
    for key, run in doc["runs"].items():
        assert list(run) == ["parent", "change"], key
        for column in run.values():
            assert list(column["stages"]) == list(stages), key
            assert list(column["writers"]) == ["report", "system_s", "lifted_obj",
                                               "composite_obj"], key
            walls = [*column["stages"].values(), *column["writers"].values()]
            assert all(math.isfinite(w) and w >= 0 for w in walls), key
            assert math.isfinite(column["speed_probe_s"]) and column["speed_probe_s"] > 0, key
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json"]
    assert capsys.readouterr().out.splitlines()[-1] == "wrote b.json"


def test_stage_memory_reports_every_stage_on_a_small_grid(capsys, tmp_path, monkeypatch):
    # one row per stage run_pipeline calls and then write_outputs, each with
    # a finite tracemalloc peak, high-water mark and untraced wall time, a
    # line with what the result holds, one timed row per writer on its own,
    # a line with the peak memory of this process and its forked writers
    # together, and a last line with the largest writer's peak RSS; the
    # outputs land in a temporary directory, not the working one
    monkeypatch.chdir(tmp_path)
    script = runpy.run_path(str(SCRIPT_DIR / "stage_memory.py"))
    script["main"](["--grid-n", "41", "--chart-n", "41", "--mesh-out", "m"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-2:] == ["wall", "s"]
    end = next(k for k, line in enumerate(lines) if line.startswith("result of"))
    rows = [line.split() for line in lines[2:end]]
    assert [r[0] for r in rows] == list(script["STAGES"])
    assert rows[-1][0] == "write_outputs"
    for name, *numbers in rows:
        assert len(numbers) == 3 and all(math.isfinite(float(x)) for x in numbers), name
    held = lines[end].split()
    assert held[:-2] == ["result", "of", "run_pipeline", "holds"] and held[-1] == "MB"
    assert float(held[-2]) > 0
    assert lines[end + 1].split()[-2:] == ["wall", "s"]
    writers = [line.split() for line in lines[end + 2:-2]]
    assert [w[0] for w in writers] == ["report", "system_s", "lifted_obj", "composite_obj"]
    assert all(len(w) == 2 and float(w[1]) > 0 for w in writers)
    group = re.fullmatch(r"write_outputs: this process and its writers hold at most (\S+) MB "
                         r"\(peak summed Pss\), this process's VmHWM (\S+) MB", lines[-2])
    assert group and all(float(x) > 0 for x in group.groups()), lines[-2]
    rss = lines[-1].split()
    assert lines[-1].startswith("largest forked writer's peak RSS") and rss[-1] == "MB"
    assert float(rss[-2]) > 0
    assert list(tmp_path.iterdir()) == []
