"""Curvature structure engine for closed-form semi-Riemannian metrics.

Pipeline: expression kernel (exprcore) -> dense component tensors and
curvature products (tensor) -> Christoffel/Riemann/Ricci/derived curvatures
(curvature) -> numeric structure classification (classify), with built-in
metrics and published reference data (catalog) and a CLI front end (cli).
"""

from .catalog import BUILTIN_IDS, MetricSpec, builtin, load_metric
from .classify import (DEFAULT_POINTS, DEFAULT_SEED, DEFAULT_TOL,
                       CoefficientFit, SamplePlan, StructureReport,
                       build_sample_plan, classify_metric, compare_metrics,
                       verify_component_tables)
from .curvature import CurvatureBundle, build_bundle
from .exprcore import EvalError, Expr, ParseError, differentiate, parse_expr
from .tensor import ComponentTensor, MetricData, dot_action, invert_metric, \
    kulkarni_nomizu, tachibana

__version__ = "0.1.0"
