"""Run configuration: defaults, INI-style config files, CLI overrides.

The file format is flat key = value pairs under section headers
([metric], [initial], [grid], [chart], [tolerances], [output]); every key
has a command-line override flag. Defaults reproduce the acceptance runs
with no flags at all.
"""

from __future__ import annotations

import configparser
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields

from .errors import BadParameter


@dataclass
class Tolerances:
    residual_tol: float = 1e-6        # PDE substitution residual gate
    cfl: float = 0.5                  # marching step restriction factor
    guard: float = 1e-6               # f_u mask band below 1
    jacobian_tol: float = 1e-8        # |J| certificate threshold
    jacobian_oracle_tol: float = 1e-4 # initial-row closed-form agreement (rel)
    rank_fraction: float = 0.99       # certified nodes with ranks (2,2), |aug det| ok
    aug_det_tol: float = 1e-6
    pullback_tol: float = 1e-4        # three rows of the system, sup
    e_val_tol: float = 1e-4           # |E - 1| sup
    g_match_rel_tol: float = 1e-6     # solved-vs-closed-form G, relative, interior
    curvature_tol: float = 1e-4       # stencil curvature vs analytic
    s0_tol: float = 1e-4              # chart identities, numeric derivatives
    s0_analytic_tol: float = 1e-8     # chart identities, analytic derivatives
    lift_tol: float = 1e-6            # induced metric of the lift vs (1, 0, G0+1)
    e_res_tol: float = 1e-3           # composite |E - 1| sup
    f_res_tol: float = 1e-3           # composite |F| sup
    detector_tol: float = 1e-2        # second-difference jump threshold
    positivity_floor: float = 1e-8    # validate_metric positivity threshold
    slope_bound: float = 1e6          # validate_metric first-difference bound
    gate_isometry: bool = True        # gate composite E/F residuals (G never gated)


def refuse_shared_paths(paths):
    """Raise BadParameter when two output files, {name: path}, are one file
    after os.path.normpath: the later writer would overwrite the earlier."""
    seen = {}
    for name, path in paths.items():
        norm = os.path.normpath(path)
        if norm in seen:
            raise BadParameter(f"{seen[norm]} and {name} both write {norm}")
        seen[norm] = name


@dataclass
class RunConfig:
    metric: str = "flat"
    metric_u_half: float = 0.5
    metric_v_half: float = 0.5
    family: str = "linear_ramp"
    epsilon: float = 0.1
    delta: float = 0.1
    u_half: float = 0.1
    v_half: float = 0.1
    n_u: int = 201
    n_v: int = 201
    base_curve: str = "auto"          # auto | line | circle:R | kinked:R | file:<path>
    chart_n_u: int = 401
    chart_n_v: int = 401
    out_dir: str = "."
    report_json: str = "report.json"
    residual_csv: str = "residuals.csv"
    system_csv: str = "system_s.csv"
    mesh_out: str = ""                # prefix for OBJ meshes; empty = skip
    tolerances: Tolerances = field(default_factory=Tolerances)

    def validate(self):
        # NaN fails no comparison below, nor any tolerance gate, so it is
        # rejected first
        for obj in (self, self.tolerances):
            for f in fields(obj):
                val = getattr(obj, f.name)
                if isinstance(val, numbers.Real) and not math.isfinite(val):
                    raise BadParameter(f"{f.name} must be a finite number: {val}")
        if not (0.0 < self.epsilon < 1.0):
            raise BadParameter(f"epsilon out of (0,1): {self.epsilon}")
        if self.delta <= 0.0:
            raise BadParameter(f"delta must be positive: {self.delta}")
        if min(self.n_u, self.n_v, self.chart_n_u, self.chart_n_v) < 3:
            raise BadParameter("grid counts must be at least 3")
        if min(self.chart_n_u, self.chart_n_v) < 5:
            raise BadParameter("chart grid counts must be at least 5 (4th-order chart stencils)")
        if self.u_half <= 0 or self.v_half <= 0:
            raise BadParameter("grid half-widths must be positive")
        if self.u_half > self.metric_u_half or self.v_half > self.metric_v_half:
            raise BadParameter("grid must fit inside the metric domain")
        if self.n_v % 2 == 0:
            raise BadParameter("n_v must be odd so the line v = 0 is a grid row")
        outputs = {"report_json": self.report_json, "residual_csv": self.residual_csv}
        if self.system_csv:
            outputs["system_csv"] = self.system_csv
        if self.mesh_out:
            outputs["mesh_out lifted OBJ"] = self.mesh_out + "_lifted.obj"
            outputs["mesh_out composite OBJ"] = self.mesh_out + "_composite.obj"
        refuse_shared_paths({k: os.path.join(self.out_dir, v) for k, v in outputs.items()})
        return self

    def to_meta(self):
        d = asdict(self)
        d["tolerances"] = asdict(self.tolerances)
        return d


def example_cos2_config() -> RunConfig:
    """Built-in scenario: analytic metric, C^1-but-not-C^2 initial data.

    The wide default box makes the composite's isometry gap visible, so the
    E/F residuals are reported, not gated; the gated checks are curvature,
    the defect detector, solver residuals, certificates and the system rows.
    """
    cfg = RunConfig(metric="cos2", family="c1_not_c2", epsilon=0.1, delta=0.1)
    cfg.tolerances.gate_isometry = False
    cfg.tolerances.jacobian_oracle_tol = 1e-3  # kink column degrades the stencil
    cfg.tolerances.g_match_rel_tol = 1e-5
    return cfg


_SECTION_KEYS = {
    "metric": {"name": ("metric", str), "u_half": ("metric_u_half", float),
               "v_half": ("metric_v_half", float)},
    "initial": {"family": ("family", str), "epsilon": ("epsilon", float),
                "delta": ("delta", float)},
    "grid": {"u_half": ("u_half", float), "v_half": ("v_half", float),
             "n_u": ("n_u", int), "n_v": ("n_v", int)},
    "chart": {"base_curve": ("base_curve", str), "n_u": ("chart_n_u", int),
              "n_v": ("chart_n_v", int)},
    "output": {"dir": ("out_dir", str), "report_json": ("report_json", str),
               "residual_csv": ("residual_csv", str), "system_csv": ("system_csv", str),
               "mesh_out": ("mesh_out", str)},
}

_TOL_FIELDS = {f.name: f.type for f in fields(Tolerances)}


def load_config(path: str) -> RunConfig:
    """Parse an INI-style config file into a RunConfig."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {name: parser.items(name) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise BadParameter(f"{path}: not a valid config file: {exc}") from None
    if not read:
        raise BadParameter(f"cannot read config file {path}")
    cfg = RunConfig()
    for section, keys in _SECTION_KEYS.items():
        for key, raw in sections.get(section, ()):
            if key not in keys:
                raise BadParameter(f"{path}: unknown key '{key}' in [{section}]")
            attr, cast = keys[key]
            try:
                setattr(cfg, attr, cast(raw))
            except ValueError as exc:
                raise BadParameter(f"{path}: bad value for {section}.{key}: {raw}") from exc
    for key, raw in sections.get("tolerances", ()):
        if key not in _TOL_FIELDS:
            raise BadParameter(f"{path}: unknown tolerance '{key}'")
        try:
            if key == "gate_isometry":
                # 1/0, true/false, yes/no, on/off in any case; a typo is an
                # error, not False
                val = parser.BOOLEAN_STATES[raw.strip().lower()]
            else:
                val = float(raw)
        except (KeyError, ValueError) as exc:
            raise BadParameter(f"{path}: bad value for tolerances.{key}: {raw}") from exc
        setattr(cfg.tolerances, key, val)
    return cfg


def write_config(cfg: RunConfig, path: str):
    """Write a config file that reproduces cfg (inverse of load_config)."""
    parser = configparser.ConfigParser()
    parser["metric"] = {"name": cfg.metric, "u_half": repr(cfg.metric_u_half),
                        "v_half": repr(cfg.metric_v_half)}
    parser["initial"] = {"family": cfg.family, "epsilon": repr(cfg.epsilon),
                         "delta": repr(cfg.delta)}
    parser["grid"] = {"u_half": repr(cfg.u_half), "v_half": repr(cfg.v_half),
                      "n_u": str(cfg.n_u), "n_v": str(cfg.n_v)}
    parser["chart"] = {"base_curve": cfg.base_curve, "n_u": str(cfg.chart_n_u),
                       "n_v": str(cfg.chart_n_v)}
    parser["output"] = {"dir": cfg.out_dir, "report_json": cfg.report_json,
                        "residual_csv": cfg.residual_csv, "system_csv": cfg.system_csv,
                        "mesh_out": cfg.mesh_out}
    tol = asdict(cfg.tolerances)
    parser["tolerances"] = {k: repr(v) for k, v in tol.items()}
    with open(path, "w") as fh:
        parser.write(fh)
