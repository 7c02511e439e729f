import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import run_cli
from isoembed.cli import main
from isoembed.config import RunConfig, Tolerances, example_cos2_config, load_config, write_config
from isoembed.errors import BadParameter


def test_default_config_validates():
    RunConfig().validate()


def test_epsilon_out_of_range_message():
    cfg = RunConfig(epsilon=1.5)
    with pytest.raises(BadParameter, match=r"epsilon out of \(0,1\)"):
        cfg.validate()


def test_grid_must_fit_metric_domain():
    with pytest.raises(BadParameter):
        RunConfig(u_half=0.7).validate()


def test_chart_grid_count_below_three_rejected():
    with pytest.raises(BadParameter, match="grid counts must be at least 3"):
        RunConfig(chart_n_v=1).validate()


@pytest.mark.parametrize("key", ["chart_n_u", "chart_n_v"])
def test_chart_grid_count_below_five_rejected(key):
    # the chart's 4th-order stencils span five lines
    with pytest.raises(BadParameter, match="chart grid counts must be at least 5"):
        RunConfig(**{key: 4}).validate()
    RunConfig(**{key: 5}).validate()


def test_even_row_count_rejected():
    with pytest.raises(BadParameter):
        RunConfig(n_v=200).validate()


@pytest.mark.parametrize("name", ["metric_u_half", "metric_v_half", "epsilon", "delta",
                                  "u_half", "v_half", "n_u", "n_v", "chart_n_u",
                                  "chart_n_v"]
                         + [f.name for f in dataclasses.fields(Tolerances)
                            if f.name != "gate_isometry"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_rejected(name, value):
    cfg = RunConfig()
    setattr(cfg.tolerances if hasattr(cfg.tolerances, name) else cfg, name, value)
    with pytest.raises(BadParameter, match=f"{name} must be a finite number"):
        cfg.validate()


@pytest.mark.parametrize("overrides, message", [
    ({"report_json": "same.csv", "residual_csv": "same.csv"},
     "report_json and residual_csv both write same.csv"),
    ({"system_csv": "residuals.csv"}, "residual_csv and system_csv both write residuals.csv"),
    ({"mesh_out": "m", "report_json": "m_lifted.obj"},
     "report_json and mesh_out lifted OBJ both write m_lifted.obj"),
    ({"out_dir": "out", "system_csv": "./sub/../report.json"},
     "report_json and system_csv both write out/report.json"),
    ({"out_dir": "a/b", "mesh_out": "../b/r", "residual_csv": "r_composite.obj"},
     "residual_csv and mesh_out composite OBJ both write a/b/r_composite.obj"),
])
def test_output_files_must_be_distinct(overrides, message):
    with pytest.raises(BadParameter, match=re.escape(message)):
        RunConfig(**overrides).validate()


def test_distinct_output_files_validate():
    # an empty system_csv or mesh_out writes no file, so it names none
    RunConfig(system_csv="", mesh_out="report").validate()
    RunConfig(out_dir="out", mesh_out="sub/m", report_json="sub/m.json").validate()


def test_config_file_roundtrip(tmp_path):
    # every field off its default, so a key the writer drops fails the test
    cfg = RunConfig(metric="cos2", metric_u_half=0.6, metric_v_half=0.7,
                    family="c1_not_c2", epsilon=0.2, delta=0.3, u_half=0.09, v_half=0.05,
                    n_u=101, n_v=103, base_curve="circle:2", chart_n_u=301, chart_n_v=303,
                    out_dir="o", report_json="r.json", residual_csv="r.csv",
                    system_csv="s.csv", mesh_out="m")
    for f in dataclasses.fields(Tolerances):
        val = getattr(cfg.tolerances, f.name)
        setattr(cfg.tolerances, f.name, not val if isinstance(val, bool) else 3.0 * val)
    default = RunConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(RunConfig))
    assert all(getattr(cfg.tolerances, f.name) != getattr(default.tolerances, f.name)
               for f in dataclasses.fields(Tolerances))
    path = tmp_path / "run.cfg"
    write_config(cfg, str(path))
    cfg2 = load_config(str(path))
    assert cfg2 == cfg


def test_config_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[metric]\nname = flat\nwhatever = 3\n")
    with pytest.raises(BadParameter):
        load_config(str(p))
    # the Newton keys were read by nothing and are gone
    p.write_text("[tolerances]\nnewton_tol = 1e-10\n")
    with pytest.raises(BadParameter, match="unknown tolerance 'newton_tol'"):
        load_config(str(p))
    # so are the closed-form chart check's tolerance and the march's step
    # bound and guard band, now constants of the solver
    for line in ("s0_analytic_tol = 1e-8", "cfl = 0.5", "guard = 1e-6"):
        p.write_text(f"[tolerances]\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(BadParameter, match=f"unknown tolerance '{key}'"):
            load_config(str(p))


def test_removed_tolerance_flag_refused(capsys):
    # a usage error is a typed error: exit 1 and one line, never the
    # verdict failure's exit 2
    for flag, value in (("--s0-analytic-tol", "1e-8"), ("--cfl", "0.5"), ("--guard", "1e-6")):
        assert main(["run", flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: isoembed: ") and err.count("\n") == 1
        assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("text,value", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("FALSE", False), ("no", False), ("Off", False),
    ("ture", None), ("", None), ("2", None),
])
def test_config_gate_isometry_reads_only_boolean_words(tmp_path, text, value):
    # a typo must not silently turn the E/F gates off
    p = tmp_path / "gate.cfg"
    p.write_text(f"[tolerances]\ngate_isometry = {text}\n")
    if value is None:
        with pytest.raises(BadParameter, match="bad value for tolerances.gate_isometry"):
            load_config(str(p))
    else:
        assert load_config(str(p)).tolerances.gate_isometry is value


def test_config_missing_file():
    with pytest.raises(BadParameter):
        load_config("/nonexistent/nope.cfg")


def test_example_config_gates():
    cfg = example_cos2_config()
    assert cfg.metric == "cos2"
    assert cfg.family == "c1_not_c2"
    assert cfg.epsilon == cfg.delta == 0.1
    assert not cfg.tolerances.gate_isometry


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One small CLI run shared by the CLI assertions."""
    wd = tmp_path_factory.mktemp("cli")
    out = run_cli(["run", "--grid-n", "101", "--n-v", "101", "--mesh-out", "mesh",
                   "--out-dir", "out"], cwd=wd)
    return wd, out


def test_cli_run_passes(cli_run):
    wd, out = cli_run
    assert out.returncode == 0, out.stderr + out.stdout
    assert (wd / "out" / "report.json").exists()
    assert (wd / "out" / "residuals.csv").exists()
    assert (wd / "out" / "system_s.csv").exists()
    assert (wd / "out" / "mesh_lifted.obj").exists()
    assert (wd / "out" / "mesh_composite.obj").exists()
    doc = json.loads((wd / "out" / "report.json").read_text())
    assert doc["verdicts"] and all(doc["verdicts"].values())


def test_cli_bad_epsilon(cli_run):
    wd, _ = cli_run
    out = run_cli(["run", "--epsilon", "1.5"], cwd=wd)
    assert out.returncode == 1
    assert "epsilon out of (0,1)" in out.stderr


def test_cli_unknown_metric(tmp_path):
    out = run_cli(["run", "--metric", "nosuch"], cwd=tmp_path)
    assert out.returncode == 1
    # a typed error prints its message as is, not the repr of a KeyError
    assert out.stderr.startswith("error: unknown metric 'nosuch'; expected one of")


def test_cli_verdict_failure_exit_code(cli_run):
    wd, _ = cli_run
    out = run_cli(["run", "--grid-n", "81", "--n-v", "81", "--residual-tol", "1e-30",
                   "--out-dir", "fail_out"], cwd=wd)
    assert out.returncode == 2
    assert "FAIL" in out.stdout


def test_cli_config_file_with_override(cli_run, tmp_path):
    wd, _ = cli_run
    cfg = RunConfig(n_u=81, n_v=81)
    path = tmp_path / "small.cfg"
    write_config(cfg, str(path))
    out = run_cli(["run", "--config", str(path), "--out-dir", "cfg_out",
                   "--metric", "flat"], cwd=wd)
    assert out.returncode == 0, out.stderr


def test_cli_verify_roundtrip_idempotent(cli_run):
    wd, _ = cli_run
    out = run_cli(["verify", "out/mesh_composite.obj", "--metric", "flat",
                   "--fields", "out/residuals.csv", "--report-json", "out/verify.json"],
                  cwd=wd)
    assert out.returncode == 0, out.stderr
    run_doc = json.loads((wd / "out" / "report.json").read_text())
    ver_doc = json.loads((wd / "out" / "verify.json").read_text())
    for key in ("isometry_e", "isometry_f", "isometry_g"):
        assert ver_doc["residuals"][key]["sup"] == run_doc["residuals"][key]["sup"]


def test_cli_verify_tampered_mesh(cli_run):
    wd, _ = cli_run
    src = (wd / "out" / "mesh_composite.obj").read_text().splitlines()
    moved = 0
    out_lines = []
    for ln in src:
        if ln.startswith("v ") and not moved and "0 0 0" not in ln:
            x, y, z = map(float, ln.split()[1:])
            ln = f"v {x + 1e-2:.17g} {y:.17g} {z:.17g}"
            moved = 1
        out_lines.append(ln)
    (wd / "out" / "tampered.obj").write_text("\n".join(out_lines) + "\n")
    ref_out = run_cli(["verify", "out/mesh_composite.obj", "--metric", "flat",
                       "--fields", "out/residuals.csv", "--report-json", "out/vt_ref.json"],
                      cwd=wd)
    assert ref_out.returncode == 0, ref_out.stderr
    out = run_cli(["verify", "out/tampered.obj", "--metric", "flat",
                   "--fields", "out/residuals.csv", "--report-json", "out/vt.json"],
                  cwd=wd)
    assert out.returncode == 0
    doc = json.loads((wd / "out" / "vt.json").read_text())
    ref = json.loads((wd / "out" / "vt_ref.json").read_text())
    assert doc["residuals"]["isometry_e"]["sup"] > 100 * ref["residuals"]["isometry_e"]["sup"]


def test_cli_verify_wrong_size_fields(cli_run, tmp_path):
    wd, _ = cli_run
    bad = tmp_path / "fields.csv"
    bad.write_text("ubar,vbar,f,g\n0,0,0,0\n0,1,0,0\n1,0,0,0\n")
    out = run_cli(["verify", "out/mesh_composite.obj", "--metric", "flat",
                   "--fields", str(bad)], cwd=wd)
    assert out.returncode == 1
    assert re.search(r"^error: .*: rows do not form a complete 2x2 grid$", out.stderr, re.M), \
        out.stderr


# a 3x3 fields table (f = ubar, g = vbar) and its mesh, valid for `verify`
_FIELDS_3X3 = "ubar,vbar,f,g\n" + "".join(f"{u},{v},{u},{v}\n"
                                           for u in range(3) for v in range(3))
_MESH_3X3 = "".join(f"v {u} {v} 0\n" for u in range(3) for v in range(3))
_VERIFY = ["verify", "mesh.obj", "--metric", "flat", "--fields", "fields.csv"]
_VERIFY_FILES = {"fields.csv": _FIELDS_3X3, "mesh.obj": _MESH_3X3}
_SMALL_CFG = "[grid]\nn_u = 41\nn_v = 41\n[chart]\nn_u = 41\nn_v = 41\n"
# G = 1 + 0.02 u sampled on a 41^2 lattice over [-0.4, 0.4]^2
_METRIC_CSV = "ubar,vbar,G\n" + "".join(
    f"{u:.17g},{v:.17g},{1.0 + 0.02 * u:.17g}\n"
    for u in np.linspace(-0.4, 0.4, 41) for v in np.linspace(-0.4, 0.4, 41))
_CURVE_CSV = "v,x,y\n" + "".join(f"{t:.17g},{t:.17g},0\n" for t in np.linspace(-1, 1, 201))
_SMALL = ["--grid-n", "41", "--n-v", "41", "--chart-n", "41"]


def _swap_lines(text, a, b):
    lines = text.splitlines(keepends=True)
    lines[a], lines[b] = lines[b], lines[a]
    return "".join(lines)


@pytest.mark.parametrize("files, args, message", [
    ({"bad.cfg": "[metric\nname = flat\n"}, ["run", "--config", "bad.cfg"],
     "bad.cfg: not a valid config file"),
    ({"bad.cfg": "[tolerances]\ns0_tol = abc\n"}, ["run", "--config", "bad.cfg"],
     "bad.cfg: bad value for tolerances.s0_tol: abc"),
    ({}, ["run", "--s0-tol", "nan"], "s0_tol must be a finite number"),
    ({"fields.csv": _FIELDS_3X3.replace("0,1,0,1", "0,1,x,1"), "mesh.obj": _MESH_3X3},
     _VERIFY, "fields.csv: could not convert string to float: 'x'"),
    ({"fields.csv": _FIELDS_3X3.replace("0,1,0,1", "0,1,0"), "mesh.obj": _MESH_3X3},
     _VERIFY, "fields.csv: every row needs 4 cells"),
    # data rows (0, 1) and (1, 0) swapped: the grid is complete, its order is not
    ({"fields.csv": _swap_lines(_FIELDS_3X3, 2, 4), "mesh.obj": _MESH_3X3},
     _VERIFY, "fields.csv: rows are not the 3x3 grid in row-major order"),
    ({"mesh.obj": _MESH_3X3}, _VERIFY, "cannot read fields fields.csv"),
    ({"fields.csv": _FIELDS_3X3, "mesh.obj": _MESH_3X3.replace("v 1 1 0", "v 1 1")},
     _VERIFY, "mesh.obj: malformed vertex or '# valid' line"),
    ({"fields.csv": _FIELDS_3X3, "mesh.obj": "# valid \n" + _MESH_3X3},
     _VERIFY, "mesh.obj: malformed vertex or '# valid' line"),
    ({"fields.csv": _FIELDS_3X3, "mesh.obj": "# valid 0 -5:2\n" + _MESH_3X3},
     _VERIFY, "mesh.obj: mask run -5:2 of row 0 out of range for nv=3"),
    ({"fields.csv": _FIELDS_3X3, "mesh.obj": "# valid 0 0:99\n" + _MESH_3X3},
     _VERIFY, "mesh.obj: mask run 0:99 of row 0 out of range for nv=3"),
    ({"fields.csv": _FIELDS_3X3, "mesh.obj": "# valid 0 2:1\n" + _MESH_3X3},
     _VERIFY, "mesh.obj: mask run 2:1 of row 0 out of range for nv=3"),
    ({"fields.csv": _FIELDS_3X3}, _VERIFY, "cannot read mesh mesh.obj"),
    ({"afile": ""}, ["run", "--grid-n", "41", "--n-v", "41", "--chart-n", "41",
                     "--out-dir", "afile/out"], "cannot create output directory afile/out"),
    ({}, ["run", "--report-json", "same.csv", "--residual-csv", "same.csv"],
     "report_json and residual_csv both write same.csv"),
    ({}, ["run", "--system-csv", "residuals.csv"],
     "residual_csv and system_csv both write residuals.csv"),
    ({}, ["run", "--mesh-out", "m", "--report-json", "m_lifted.obj"],
     "report_json and mesh_out lifted OBJ both write m_lifted.obj"),
    ({"fields.csv": _FIELDS_3X3, "mesh.obj": _MESH_3X3},
     _VERIFY + ["--report-json", "x", "--residual-csv", "./x"],
     "--report-json and --residual-csv both write x"),
    # an output over an input of the command
    (_VERIFY_FILES, _VERIFY + ["--report-json", "mesh.obj"],
     "--report-json would overwrite the input MESH: mesh.obj"),
    (_VERIFY_FILES, _VERIFY + ["--report-json", "./fields.csv"],
     "--report-json would overwrite the input --fields: fields.csv"),
    ({"fields.csv": _FIELDS_3X3, "verify_report.json": _MESH_3X3},
     ["verify", "verify_report.json", "--metric", "flat", "--fields", "fields.csv"],
     "--report-json would overwrite the input MESH: verify_report.json"),
    (_VERIFY_FILES, _VERIFY + ["--residual-csv", "fields.csv"],
     "--residual-csv would overwrite the input --fields: fields.csv"),
    (_VERIFY_FILES, _VERIFY + ["--residual-csv", "./mesh.obj"],
     "--residual-csv would overwrite the input MESH: mesh.obj"),
    ({"c.cfg": _SMALL_CFG}, ["run", "--config", "c.cfg", "--report-json", "c.cfg"],
     "report_json would overwrite the input --config: c.cfg"),
    ({"m.csv": _METRIC_CSV}, ["run", "--metric", "file:m.csv", *_SMALL,
                              "--residual-csv", "m.csv"],
     "residual_csv would overwrite the input metric: m.csv"),
    ({"m_lifted.obj": _METRIC_CSV}, ["example-cos2", "--metric", "file:m_lifted.obj",
                                     *_SMALL, "--out-dir", "out", "--mesh-out", "../m"],
     "mesh_out lifted OBJ would overwrite the input metric: m_lifted.obj"),
    ({"curve.csv": _CURVE_CSV}, ["run", "--base-curve", "file:curve.csv", *_SMALL,
                                 "--report-json", "curve.csv"],
     "report_json would overwrite the input base_curve: curve.csv"),
    # a gate that is not a finite number fails every node or none
    (_VERIFY_FILES, _VERIFY + ["--e-res-tol", "nan"], "--e-res-tol must be a finite number: nan"),
    (_VERIFY_FILES, _VERIFY + ["--f-res-tol", "inf"], "--f-res-tol must be a finite number: inf"),
    (_VERIFY_FILES, _VERIFY + ["--e-res-tol=-inf"], "--e-res-tol must be a finite number: -inf"),
], ids=["ini_no_bracket", "tolerance_not_a_number", "tolerance_nan",
        "fields_cell_not_a_number", "fields_row_short", "fields_rows_out_of_order",
        "fields_missing", "mesh_vertex_malformed", "mesh_valid_line_without_row",
        "mesh_valid_run_negative", "mesh_valid_run_past_nv", "mesh_valid_run_reversed",
        "mesh_missing", "out_dir_under_a_file", "run_report_is_residual_csv",
        "run_system_csv_is_residual_csv", "run_report_is_lifted_obj",
        "verify_report_is_residual_csv", "verify_report_is_mesh", "verify_report_is_fields",
        "verify_default_report_is_mesh", "verify_residual_csv_is_fields",
        "verify_residual_csv_is_mesh", "run_report_is_config",
        "run_residual_csv_is_metric_csv", "example_mesh_is_metric_csv",
        "run_report_is_base_curve_csv", "verify_gate_nan", "verify_gate_inf",
        "verify_gate_minus_inf"])
def test_cli_bad_outside_input_is_a_typed_error(tmp_path, files, args, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = run_cli(args, cwd=tmp_path)
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: "), out.stderr
    assert message in out.stderr
    assert "Traceback" not in out.stderr
    for name, text in files.items():
        assert (tmp_path / name).read_text() == text


def test_cli_example_cos2_refuses_config(tmp_path):
    # the example's settings are built in: only `run` reads a config file
    (tmp_path / "c.cfg").write_text(_SMALL_CFG)
    out = run_cli(["example-cos2", "--config", "c.cfg", *_SMALL, "--out-dir", "ex"],
                  cwd=tmp_path)
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert "unrecognized arguments: --config c.cfg" in out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]
    assert (tmp_path / "c.cfg").read_text() == _SMALL_CFG


def test_cli_gated_verify(cli_run):
    wd, _ = cli_run
    out = run_cli(["verify", "out/mesh_composite.obj", "--metric", "flat",
                   "--fields", "out/residuals.csv", "--e-res-tol", "1e-30"], cwd=wd)
    assert out.returncode == 2


def test_cli_example_cos2(tmp_path):
    out = run_cli(["example-cos2", "--out-dir", "ex"], cwd=tmp_path)
    assert out.returncode == 0, out.stderr + out.stdout
    doc = json.loads((tmp_path / "ex" / "report.json").read_text())
    assert doc["verdicts"]["detector"] is True
    assert doc["verdicts"]["curvature_stencil"] is True
    meta = doc["meta"]
    assert meta["detector_hits"] > 100
    assert abs(meta["detector_near_initial_u"]) <= 3e-3
    assert meta["defect_locus"], "report must carry the flagged jump locus"
    # isometry triple is reported but not gated in this scenario
    assert doc["residuals"]["isometry_e"]["gated"] is False
    assert np.isfinite(doc["residuals"]["isometry_g"]["sup"])


def test_tolerances_cover_all_flags():
    # every tolerance field surfaces as a CLI flag
    from isoembed.cli import build_parser

    parser = build_parser()
    text = parser.format_help()
    run_actions = None
    for a in parser._subparsers._group_actions[0].choices.items():
        if a[0] == "run":
            run_actions = a[1]
    opts = run_actions.format_help()
    import dataclasses
    for f in dataclasses.fields(Tolerances):
        assert "--" + f.name.replace("_", "-") in opts
    for f in dataclasses.fields(RunConfig):
        if f.name == "tolerances":
            continue
        assert "--" + f.name.replace("_", "-") in opts
