"""Chern-connection curvature engine for invariant and chart Hermitian
metrics, with the conformal normalization toolkit and the example
registry."""

from .forms import (CoframeAlgebra, InvariantForm, DimensionMismatch,
                    NotIntegrable, wedge, ext_d, del_part, dbar_part)
from .scalars import QQi, I_EXACT
from .invariant import (HermitianMetric, SurfaceMetricParams,
                        chern_connection, chern_curvature, ricci,
                        scalar_chern, scalar_third, torsion, lee_form,
                        is_gauduchon, gauduchon_degree, einstein_residual,
                        bogomolov_lubke, scan)
from .chart import (ChartMetricField, ScalarField, curvature_at, fd_oracle,
                    ricci_matrices_at, chern_laplacian_at, conformal_check,
                    first_ce_from_potential, registered_metrics,
                    registered_factors, sample_points)
from .yamabe import (PeriodicGrid, YamabeProblem, solve_chya,
                     conformal_scalar_law, gauduchon_degree_grid,
                     make_problem, load_problem, PositiveDegreeOpen)
from . import catalog, structfile

__all__ = [
    "CoframeAlgebra", "InvariantForm", "DimensionMismatch", "NotIntegrable",
    "wedge", "ext_d", "del_part", "dbar_part", "QQi", "I_EXACT",
    "HermitianMetric", "SurfaceMetricParams", "chern_connection",
    "chern_curvature", "ricci", "scalar_chern", "scalar_third", "torsion",
    "lee_form", "is_gauduchon", "gauduchon_degree", "einstein_residual",
    "bogomolov_lubke", "scan",
    "ChartMetricField", "ScalarField", "curvature_at", "fd_oracle",
    "ricci_matrices_at", "chern_laplacian_at", "conformal_check",
    "first_ce_from_potential", "registered_metrics", "registered_factors",
    "sample_points", "PeriodicGrid", "YamabeProblem", "solve_chya",
    "conformal_scalar_law", "gauduchon_degree_grid", "make_problem",
    "load_problem", "PositiveDegreeOpen", "catalog", "structfile",
]

__version__ = "0.1.0"
