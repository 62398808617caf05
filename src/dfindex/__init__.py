"""Numerical engine for boundary characterizations of the strong
Diederich-Fornaess index on domains in Hermitian coordinate charts.

The building blocks are exact third-order jet differentiation
(:mod:`dfindex.jets`, :mod:`dfindex.fields`), the Chern connection with its
Hessian operators (:mod:`dfindex.geometry`), boundary frames and Levi data
(:mod:`dfindex.boundary`), the forms alpha and beta (:mod:`dfindex.forms`),
margin evaluators with a convex feasibility search (:mod:`dfindex.estimator`),
and the worm-domain family as executable ground truth (:mod:`dfindex.worm`).
"""

__version__ = "0.1.0"

from .boundary import (
    BoundaryPoint,
    CollarPath,
    DomainSpec,
    LeviData,
    NormalFrame,
    ProjectionError,
    collar_levi_compare,
    find_collar_depth,
    levi_data,
    normal_frame,
    point_at_depth,
    project_to_boundary,
    sample_boundary,
    second_fundamental_form,
    transport_along_normal,
)
from .domains import ball_domain, ellipsoid_domain, make_domain
from .estimator import (
    DFEstimate,
    EtaCertificate,
    HBasis,
    Problem,
    boundary_margin,
    collect_sites,
    dual_bound,
    estimate_index,
    feasibility_search,
    geometric_margin,
    interior_check,
    poly_basis,
    vectorfield_margin,
)
from .fields import ChartDomainError, ScalarField, complex_hessian, wirtinger
from .forms import (
    SubmanifoldPatch,
    alpha,
    alpha_geometric,
    beta_geometric,
    beta_mixed,
    beta_unmixed,
    loop_alpha_integral,
    pullback_alpha_dclosed,
)
from .geometry import (
    CTVector,
    MetricField,
    VectorField,
    covariant_derivative,
    curvature,
    curvature_contraction,
    h3_op,
    hess_op,
    torsion,
)
from .jets import Jet, JetOrderError
from .worm import (
    WormParams,
    riccati_feasibility,
    riccati_threshold,
    s_gamma_reference,
    sgamma_points,
    worm_domain,
    worm_metric,
    worm_reduction_basis,
)
