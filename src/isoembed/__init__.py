"""Local isometric embedding of geodesic-form 2-metrics in E^3.

Pipeline: solve two characteristic initial-value problems for the
parameter change, certify its Jacobian, solve the per-node linear system
relating the two metric forms, build a planar geodesic chart, lift it to a
surface, compose, and measure every identity of the construction as a
residual with an explicit tolerance.
"""

from .config import RunConfig, Tolerances, example_cos2_config, load_config
from .fields import Grid2D
from .initial import InitialData, make_initial
from .ivp import SolveReport, c2_defect_scan, solve_f, solve_g
from .metric import (
    GeodesicMetric2D,
    Rect,
    curvature_field,
    make_metric,
    validate_metric,
)
from .pipeline import PipelineResult, run_pipeline, write_outputs
from .plane import (
    BaseCurve,
    ChartProfile,
    PlaneChart,
    build_chart,
    chart_checks,
    fit_chart_profile,
    make_base_curve,
)
from .report import (
    VerificationReport,
    compatibility_residual,
    isometry_residual,
    write_report,
)
from .reparam import (
    ParamChange,
    build_param_change,
    certify_invertible,
    jacobian,
    jacobian_initial_closed_form,
)
from .surface import (
    EmbeddedSurface,
    compose,
    export_obj,
    induced_metric,
    lift,
    regularity_check,
)
from .system_s import (
    SystemS,
    assemble,
    augmented_det_residual,
    rank_checks,
    solve_for_EG,
    solve_system_grid,
)

__version__ = "0.1.0"
