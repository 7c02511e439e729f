"""Byte oracle for the file writers.

The reference writers below format every cell on its own, node by node.
The package's writers format blocks of ROW_BLOCK u-rows at once and must
reproduce the reference bytes on hand-built fields that hit every
formatting case: masked nodes, NaN and inf inside the mask, -0.0, NaN
ranks, block boundaries, an all-masked row and a surface with no valid
cell.
"""

import numpy as np
import pytest

from isoembed.errors import IoFailure
from isoembed.fields import Grid2D, ScalarField2D
from isoembed.report import (
    CSV_COLUMNS,
    NodeTable,
    VerificationReport,
    write_report,
    write_system_csv,
)
from isoembed.surface import ROW_BLOCK, EmbeddedSurface, _mask_runs, export_obj
from isoembed.system_s import SystemReport

# not a multiple of ROW_BLOCK, and more than two blocks
NU, NV = 2 * ROW_BLOCK + 5, 7


# ---------------------------------------------------------------- reference


def _cell(fld, i, j):
    if fld is None or not fld.mask[i, j]:
        return "NA"
    v = fld.values[i, j]
    if not np.isfinite(v):
        return "NA"
    return f"{v:.17g}"


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
                rc = sys_report.rank_coeff.values[i, j]
                ra = sys_report.rank_aug.values[i, j]
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
    grid = _grid()
    m = _mask() if mask is None else mask
    # ScalarField2D would mark non-finite nodes invalid; keep them inside
    # the mask so the writers' own finiteness test is exercised
    return ScalarField2D(grid, _values(seed), mask=m)


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
    return ScalarField2D(_grid(), r, mask=np.ones((NU, NV), dtype=bool))


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
    return VerificationReport(meta={"case": "oracle"}, residuals={}, verdicts={},
                              masked_count=0)


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
    fld = ScalarField2D(grid, np.array([[0.5, -0.0, np.nan]] * 3),
                        mask=np.array([[True, True, True], [False] * 3, [True, False, True]]))
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


def test_export_obj_missing_directory_is_io_failure(tmp_path):
    surface = _surface(_mask())
    with pytest.raises(IoFailure, match="cannot write mesh"):
        export_obj(surface, str(tmp_path / "no_such_dir" / "mesh.obj"))
