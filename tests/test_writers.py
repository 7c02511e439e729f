"""Byte oracle for the file writers.

The reference writers below format every cell on its own, node by node.
The package's writers format blocks of ROW_BLOCK u-rows at once; a column
finite everywhere whose bits are the same on every u-row (or v-line) is
formatted once per v-line (or u-row), and each vertex index of the faces
once per block. They must reproduce the reference bytes on hand-built
fields that hit every formatting case: NaN holes, inf (which no field of a
run holds), -0.0, NaN ranks, a rank column NaN on every node, block
boundaries, an all-masked row, a surface with no valid cell, and shared
columns that hold -0.0 and 0.0 on one line or miss sharing by the last
bit, by the sign of a zero or by one NaN.

write_outputs forks one writer per file group; its files must be the
inline route's bytes, and a failing writer must give the serial order's
one error and leave no child behind.
"""

import dataclasses
import os

import numpy as np
import pytest

from isoembed import cli, pipeline, surface as surface_mod
from isoembed.config import RunConfig
from isoembed.errors import IoFailure
from isoembed.fields import Grid2D
from isoembed.report import (
    CSV_COLUMNS,
    NodeTable,
    VerificationReport,
    write_report,
    write_system_csv,
)
from isoembed.surface import ROW_BLOCK, EmbeddedSurface, _mask_runs, export_obj, lift
from isoembed.system_s import SystemReport

# not a multiple of ROW_BLOCK, and more than two blocks
NU, NV = 2 * ROW_BLOCK + 5, 7


# ---------------------------------------------------------------- reference


def _cell(fld, i, j):
    if fld is None or not np.isfinite(fld[i, j]):
        return "NA"
    return f"{fld[i, j]:.17g}"


def reference_residual_csv(path, table):
    grid = table.grid
    us = grid.u_coords
    vs = grid.v_coords
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i in range(grid.nu):
            for j in range(grid.nv):
                row = [f"{us[i]:.17g}", f"{vs[j]:.17g}"]
                row += [_cell(fld, i, j) for fld in table.fields_in_order()]
                fh.write(",".join(row) + "\n")


def reference_system_csv(path, grid, sys_report):
    with open(path, "w", newline="") as fh:
        fh.write("node,E_val,G_val,G_closed_form,rank_coeff,rank_aug,aug_det\n")
        for i in range(grid.nu):
            for j in range(grid.nv):
                if not sys_report.mask[i, j]:
                    continue
                cells = [
                    f"({i};{j})",
                    _cell(sys_report.e_val, i, j),
                    _cell(sys_report.g_val, i, j),
                    _cell(sys_report.g_closed, i, j),
                ]
                rc = sys_report.rank_coeff[i, j]
                ra = sys_report.rank_aug[i, j]
                cells.append("NA" if not np.isfinite(rc) else str(int(rc)))
                cells.append("NA" if not np.isfinite(ra) else str(int(ra)))
                cells.append(_cell(sys_report.aug_det, i, j))
                fh.write(",".join(cells) + "\n")


def reference_obj(surface, path):
    grid = surface.grid
    pos = surface.position
    m = surface.mask
    lines = [f"# isoembed surface provenance={surface.provenance} nu={grid.nu} nv={grid.nv}"]
    for i in range(grid.nu):
        runs = " ".join(f"{a}:{b}" for a, b in _mask_runs(m[i]))
        lines.append(f"# valid {i} {runs}".rstrip())
    lines.extend(
        f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}" if ok else "v 0 0 0"
        for ok, p in zip(m.ravel(), pos.reshape(-1, 3))
    )
    cell_ok = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]
    for i, j in np.argwhere(cell_ok):
        a = i * grid.nv + j + 1
        b = (i + 1) * grid.nv + j + 1
        lines.append(f"f {a} {b} {b + 1}")
        lines.append(f"f {a} {b + 1} {a + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ------------------------------------------------------------------ inputs


def _grid(nu=NU, nv=NV):
    return Grid2D.centered(0.1, 0.3, nu, nv)


def _mask(nu=NU, nv=NV):
    """Masked nodes scattered, crossing the first block boundary, one empty row."""
    m = np.ones((nu, nv), dtype=bool)
    m[0, 0] = False
    m[3, 2:5] = False
    # a masked run from the end of the first block into the second
    m[ROW_BLOCK - 1, nv - 2:] = False
    m[ROW_BLOCK, :2] = False
    m[ROW_BLOCK + 4, :] = False  # all-masked row
    m[nu - 1, nv - 1] = False
    return m


def _values(seed, nu=NU, nv=NV):
    """Values over many decades with both signs, -0.0, and NaN/inf in the mask."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((nu, nv)) * 10.0 ** rng.integers(-20, 20, (nu, nv))
    vals[1, 1] = -0.0
    vals[2, 3] = 0.0
    vals[4, 4] = np.nan
    vals[5, 5] = np.inf
    vals[6, 0] = -np.inf
    vals[7, 6] = 1.0 / 3.0
    return vals


def _field(seed, mask=None):
    """_values NaN off the mask; its infinities stay, so the writers' own
    finiteness test is exercised."""
    return np.where(_mask() if mask is None else mask, _values(seed), np.nan)


def _table():
    grid = _grid()
    full = np.ones((NU, NV), dtype=bool)
    return NodeTable(
        grid=grid, f=_field(1), g=_field(2, mask=full), jac=_field(3),
        e_res=_field(4), f_res=None, g_res=_field(6, mask=np.zeros((NU, NV), bool)),
        aug_det=_field(7), dg=None,
    )


def _ranks(seed):
    rng = np.random.default_rng(seed)
    r = rng.integers(0, 4, (NU, NV)).astype(float)
    r[2, 2] = np.nan
    r[ROW_BLOCK, 3] = np.nan
    r[ROW_BLOCK + 1, :] = np.nan
    return r


def _system_report():
    mask = _mask()
    fields = [_field(s) for s in (11, 12, 13, 14)]
    return SystemReport(
        e_val=fields[0], g_val=fields[1], g_closed=fields[2],
        rank_coeff=_ranks(21), rank_aug=_ranks(22), aug_det=fields[3],
        row_residual_sup=float("nan"), mask=mask,
    )


def _surface(mask):
    rng = np.random.default_rng(5)
    pos = rng.standard_normal((NU, NV, 3)) * 10.0 ** rng.integers(-12, 12, (NU, NV, 3))
    pos[1, 1] = (-0.0, 0.0, -0.0)
    pos[2, 2, 0] = np.nan  # a valid vertex with a non-finite coordinate
    pos[3, 1, 2] = np.inf
    pos[~mask] = np.nan
    return EmbeddedSurface(grid=_grid(), position=pos, mask=mask, provenance="composite")


def _report():
    return VerificationReport(meta={"case": "oracle"}, residuals={}, checks={},
                              masked_count=0)


def _same_bits_on_every_u_row(a):
    """Whether the 2-D array holds the same bits on every u-row, compared as
    integers, so -0.0 and 0.0 differ."""
    bits = a.view(np.uint64)
    return bool((bits == bits[:1]).all())


def _line():
    """A v-line's values with -0.0 and 0.0 on it."""
    line = np.linspace(-1.0, 2.0, NV) / 3.0
    line[1], line[4] = -0.0, 0.0
    return line


def _shared_columns():
    """(by_v, by_u): a column the same on every u-row and one the same on
    every v-line."""
    by_v = np.tile(_line(), (NU, 1))
    by_u = np.repeat((np.arange(NU) - 3.0)[:, None] / 7.0, NV, axis=1)
    return by_v, by_u


@pytest.fixture
def formatted_once(monkeypatch):
    """(format, count) of each text array the writers format ahead of their
    lines, in call order."""
    calls = []
    texts_of = surface_mod.texts_of

    def spy(fmt, values):
        calls.append((fmt, values.size))
        return texts_of(fmt, values)

    monkeypatch.setattr(surface_mod, "texts_of", spy)
    return calls


# ------------------------------------------------------------------- tests


def test_residual_csv_matches_reference(tmp_path):
    table = _table()
    assert NU % ROW_BLOCK != 0
    write_report(_report(), str(tmp_path / "r.json"), str(tmp_path / "new.csv"), table)
    reference_residual_csv(str(tmp_path / "ref.csv"), table)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    text = new.decode()
    assert ",-0," in text and ",NA," in text and "nan" not in text and "inf" not in text


def test_residual_csv_single_partial_block(tmp_path):
    grid = _grid(nu=3, nv=3)
    fld = np.array([[0.5, -0.0, np.nan]] * 3)
    fld[1] = fld[2, 1] = np.nan
    table = NodeTable(grid=grid, f=fld, g=fld)
    write_report(_report(), str(tmp_path / "r.json"), str(tmp_path / "new.csv"), table)
    reference_residual_csv(str(tmp_path / "ref.csv"), table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_system_csv_matches_reference(tmp_path):
    rep = _system_report()
    write_system_csv(str(tmp_path / "new.csv"), _grid(), rep)
    reference_system_csv(str(tmp_path / "ref.csv"), _grid(), rep)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    # the all-masked row has no line, NaN ranks read NA
    assert f"({ROW_BLOCK + 4};" not in new.decode()
    assert ",NA,NA," in new.decode()


def _shared_table_and_system(by_v, by_u):
    table = NodeTable(grid=_grid(), f=by_v, g=by_u, jac=_field(3))
    rep = _system_report()
    rep.e_val, rep.g_val = by_v, by_u
    # a rank the same on every node, formatted once per v-line, and one NaN
    # on every node, which must read NA and never reach a "%d," format
    rep.rank_coeff = np.full((NU, NV), 2.0)
    rep.rank_aug = np.full((NU, NV), np.nan)
    return table, rep


def _write_both_csvs(tmp_path, table, rep):
    """The package's and the reference bytes of both CSVs."""
    write_report(_report(), str(tmp_path / "r.json"), str(tmp_path / "new.csv"), table)
    reference_residual_csv(str(tmp_path / "ref.csv"), table)
    write_system_csv(str(tmp_path / "new_s.csv"), _grid(), rep)
    reference_system_csv(str(tmp_path / "ref_s.csv"), _grid(), rep)
    return [((tmp_path / new).read_bytes(), (tmp_path / ref).read_bytes())
            for new, ref in (("new.csv", "ref.csv"), ("new_s.csv", "ref_s.csv"))]


def test_csv_shared_value_columns_match_reference(tmp_path, formatted_once):
    by_v, by_u = _shared_columns()
    assert _same_bits_on_every_u_row(by_v) and _same_bits_on_every_u_row(by_u.T)
    table, rep = _shared_table_and_system(by_v, by_u)
    (new, ref), (new_s, ref_s) = _write_both_csvs(tmp_path, table, rep)
    assert new == ref and new_s == ref_s
    # residuals.csv: ubar, vbar, f and g once per line each; system_s.csv:
    # (i; and j), E_val, G_val and rank_coeff; the NaN ranks never
    assert formatted_once == [("%.17g,", NU), ("%.17g,", NV), ("%.17g,", NV), ("%.17g,", NU),
                              ("(%d;", NU), ("%d),", NV), ("%.17g,", NV), ("%.17g,", NU),
                              ("%d,", NV)]
    lines = new_s.decode().splitlines()[1:]
    assert all(line.split(",")[5] == "NA" for line in lines)
    assert all(line.split(",")[4] == "2" for line in lines)
    text = new.decode()
    assert ",-0," in text and ",0," in text


@pytest.mark.parametrize("case", ["last_bit", "signed_zero", "nan"])
def test_csv_column_that_misses_sharing_is_formatted_per_node(tmp_path, formatted_once, case):
    by_v, by_u = _shared_columns()
    i, j = ROW_BLOCK + 2, 1
    # by_v[0, 1] is -0.0, which == 0.0 as a float but not as bits
    by_v[i, j] = {"last_bit": np.nextafter(by_v[0, j], np.inf), "signed_zero": 0.0,
                  "nan": np.nan}[case]
    assert not _same_bits_on_every_u_row(by_v)
    table, rep = _shared_table_and_system(by_v, by_u)
    (new, ref), (new_s, ref_s) = _write_both_csvs(tmp_path, table, rep)
    assert new == ref and new_s == ref_s
    # f and E_val are no longer formatted ahead of their lines
    assert formatted_once == [("%.17g,", NU), ("%.17g,", NV), ("%.17g,", NU),
                              ("(%d;", NU), ("%d),", NV), ("%.17g,", NU), ("%d,", NV)]
    cell = "NA" if case == "nan" else f"{by_v[i, j]:.17g}"
    assert new.decode().splitlines()[1 + i * NV + j].split(",")[2] == cell


def test_system_csv_empty_mask(tmp_path):
    rep = _system_report()
    rep.mask = np.zeros((NU, NV), dtype=bool)
    write_system_csv(str(tmp_path / "new.csv"), _grid(), rep)
    reference_system_csv(str(tmp_path / "ref.csv"), _grid(), rep)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("case", ["masked", "full", "no_cell", "empty"])
def test_obj_matches_reference(tmp_path, case):
    if case == "masked":
        mask = _mask()
        # a valid cell whose two vertex rows sit in different blocks
        assert mask[ROW_BLOCK - 1: ROW_BLOCK + 1, 3:5].all()
    elif case == "full":
        mask = np.ones((NU, NV), dtype=bool)
    elif case == "no_cell":
        # checkerboard: many valid vertices but no fully valid cell
        mask = (np.add.outer(np.arange(NU), np.arange(NV)) % 2) == 0
    else:
        mask = np.zeros((NU, NV), dtype=bool)
    surface = _surface(mask)
    export_obj(surface, str(tmp_path / "new.obj"))
    reference_obj(surface, str(tmp_path / "ref.obj"))
    new = (tmp_path / "new.obj").read_bytes()
    assert new == (tmp_path / "ref.obj").read_bytes()
    if case in ("no_cell", "empty"):
        assert b"\nf " not in new


def test_pipeline_outputs_match_reference(cos2_run, tmp_path):
    """The cos2 narrow-box run has masked composite vertices and system nodes."""
    assert not cos2_run.composite.mask.all()
    export_obj(cos2_run.composite, str(tmp_path / "new.obj"))
    reference_obj(cos2_run.composite, str(tmp_path / "ref.obj"))
    assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()
    write_system_csv(str(tmp_path / "new.csv"), cos2_run.grid, cos2_run.sys_report)
    reference_system_csv(str(tmp_path / "ref.csv"), cos2_run.grid, cos2_run.sys_report)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _row_shared_surface(mask):
    """The hand-built surface with its third coordinate the same on every
    u-row, -0.0 on one v-line and 0.0 on another."""
    surface = _surface(mask)
    surface.position[:, :, 2] = _line()
    return surface


@pytest.mark.parametrize("mask", ["masked", "full"])
def test_obj_row_shared_coordinate_matches_reference(tmp_path, mask):
    surface = _row_shared_surface(_mask() if mask == "masked" else np.ones((NU, NV), bool))
    assert _same_bits_on_every_u_row(surface.position[:, :, 2])
    export_obj(surface, str(tmp_path / "new.obj"))
    reference_obj(surface, str(tmp_path / "ref.obj"))
    new = (tmp_path / "new.obj").read_bytes()
    assert new == (tmp_path / "ref.obj").read_bytes()
    text = new.decode()
    assert " -0\n" in text and " 0\n" in text


@pytest.mark.parametrize("case", ["last_bit", "signed_zero"])
def test_obj_coordinate_off_by_the_last_bit_is_formatted_per_node(tmp_path, case):
    surface = _row_shared_surface(np.ones((NU, NV), bool))
    z = surface.position[:, :, 2]
    i, j = (ROW_BLOCK + 2, 3) if case == "last_bit" else (ROW_BLOCK + 2, 1)
    # z[0, 1] is -0.0, which == 0.0 as a float but not as bits
    z[i, j] = np.nextafter(z[0, j], np.inf) if case == "last_bit" else 0.0
    assert not _same_bits_on_every_u_row(z)
    export_obj(surface, str(tmp_path / "new.obj"))
    reference_obj(surface, str(tmp_path / "ref.obj"))
    new = (tmp_path / "new.obj").read_bytes()
    assert new == (tmp_path / "ref.obj").read_bytes()
    vertices = new.decode().splitlines()[NU + 1:]
    assert vertices[i * NV + j].endswith(f" {z[i, j]:.17g}")


def test_real_lift_and_residual_csv_match_reference(small_run, tmp_path):
    lifted = lift(small_run.chart)
    # the lift's height is v on every u-row: its texts are shared
    assert _same_bits_on_every_u_row(lifted.position[:, :, 2])
    export_obj(lifted, str(tmp_path / "new.obj"))
    reference_obj(lifted, str(tmp_path / "ref.obj"))
    assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()
    write_report(_report(), str(tmp_path / "r.json"), str(tmp_path / "new.csv"), small_run.table)
    reference_residual_csv(str(tmp_path / "ref.csv"), small_run.table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_export_obj_missing_directory_is_io_failure(tmp_path):
    surface = _surface(_mask())
    with pytest.raises(IoFailure, match="cannot write mesh"):
        export_obj(surface, str(tmp_path / "no_such_dir" / "mesh.obj"))


# ------------------------------------------ write_outputs, one writer a group

SMALL = ["--grid-n", "41", "--chart-n", "41", "--out-dir", "out"]
# the file groups of a run with meshes: report.json with residuals.csv,
# system_s.csv, the lifted OBJ, the composite OBJ
GROUPS = 4


@pytest.fixture(params=["fork", "inline"])
def route(request, monkeypatch):
    """The writers' route: the fork calls on the forked one, None inline."""
    if request.param == "inline":
        monkeypatch.delattr(os, "fork")
        return None
    return request.getfixturevalue("forks")


@pytest.fixture(scope="module")
def small_run():
    return pipeline.run_pipeline(RunConfig(n_u=41, n_v=41, chart_n_u=41, chart_n_v=41,
                                           mesh_out="mesh"))


def _written_to(result, out_dir):
    return dataclasses.replace(result, config=dataclasses.replace(result.config,
                                                                  out_dir=str(out_dir)))


def _files(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("argv, count, groups", [
    (["run", "--mesh-out", "mesh"], 5, GROUPS),
    # example-cos2 writes no mesh
    (["example-cos2"], 3, 2),
], ids=["flat_meshes", "example_cos2"])
def test_forked_writers_give_the_inline_bytes(argv, count, groups, tmp_path, monkeypatch,
                                              forks):
    codes, files = [], []
    for route in ("fork", "inline"):
        if route == "inline":
            monkeypatch.delattr(os, "fork")
        (tmp_path / route).mkdir()
        monkeypatch.chdir(tmp_path / route)
        codes.append(cli.main(argv + SMALL))
        files.append(_files(tmp_path / route / "out"))
    assert forks == [1] * groups
    assert codes[0] == codes[1]
    assert len(files[0]) == count
    assert files[0] == files[1]


@pytest.mark.parametrize("argv, blocked, message", [
    # both OBJs fail; the lifted one comes first
    (["--mesh-out", "sub/m"], ["sub/m_lifted.obj", "sub/m_composite.obj"],
     "cannot write mesh out/sub/m_lifted.obj"),
    # residuals.csv alone
    (["--mesh-out", "m", "--residual-csv", "sub/r.csv"], ["sub/r.csv"],
     "cannot write CSV out/sub/r.csv"),
    # system_s.csv alone
    (["--mesh-out", "m", "--system-csv", "sub/s.csv"], ["sub/s.csv"],
     "cannot write CSV out/sub/s.csv"),
    # system_s.csv comes before the composite OBJ
    (["--mesh-out", "sub/m", "--system-csv", "sub/s.csv"],
     ["sub/s.csv", "sub/m_composite.obj"], "cannot write CSV out/sub/s.csv"),
], ids=["both", "parent_only", "child_only", "system_and_composite"])
def test_failing_writer_gives_one_error_and_leaves_no_child(route, argv, blocked, message,
                                                           tmp_path, monkeypatch, capsys):
    # a directory where a writer's file goes makes that writer fail
    monkeypatch.chdir(tmp_path)
    for path in blocked:
        (tmp_path / "out" / path).mkdir(parents=True)
    code = cli.main(["run", *SMALL, *argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {message}: ") and err.count("\n") == 1, err
    if route is not None:
        assert route == [1] * GROUPS
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_outputs_in_a_missing_subdirectory_are_written(route, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", *SMALL, "--mesh-out", "sub/m"]) == 0
    files = sorted(p.relative_to(tmp_path / "out").as_posix()
                   for p in (tmp_path / "out").rglob("*") if p.is_file())
    assert files == ["report.json", "residuals.csv", "sub/m_composite.obj",
                     "sub/m_lifted.obj", "system_s.csv"]


def test_child_error_keeps_its_type_and_message(small_run, tmp_path, monkeypatch, forks):
    def failing(*args):
        raise ValueError("no system table")

    monkeypatch.setattr(pipeline, "write_system_csv", failing)
    with pytest.raises(ValueError, match="^no system table$"):
        pipeline.write_outputs(_written_to(small_run, tmp_path))
    assert forks == [1] * GROUPS
    # the other groups' files are whole
    for name in ("residuals.csv", "mesh_lifted.obj", "mesh_composite.obj"):
        assert (tmp_path / name).read_bytes().endswith(b"\n"), name


def test_child_ending_without_an_error_is_an_io_failure(small_run, tmp_path, monkeypatch,
                                                        forks):
    parent = os.getpid()

    def end_child(*args):
        if os.getpid() != parent:  # never end the test process itself
            os._exit(3)

    monkeypatch.setattr(pipeline, "write_system_csv", end_child)
    with pytest.raises(IoFailure, match="output writer process ended with exit code 3"):
        pipeline.write_outputs(_written_to(small_run, tmp_path))
    assert forks == [1] * GROUPS
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _TwoArgError(Exception):
    """Pickles, but unpickling calls __init__ with one argument and fails."""

    def __init__(self, first, second):
        super().__init__(first)


def test_child_error_that_will_not_unpickle_still_reaps_every_child(small_run, tmp_path,
                                                                    monkeypatch, forks):
    def failing(*args):
        raise _TwoArgError("no report", "twice")

    # the first group's reap raises; the three after it must still be reaped
    monkeypatch.setattr(pipeline, "write_report", failing)
    with pytest.raises(TypeError, match="missing 1 required positional argument"):
        pipeline.write_outputs(_written_to(small_run, tmp_path))
    assert forks == [1] * GROUPS
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    for name in ("system_s.csv", "mesh_lifted.obj", "mesh_composite.obj"):
        assert (tmp_path / name).read_bytes().endswith(b"\n"), name
