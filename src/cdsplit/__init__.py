"""cdsplit: numerical verification toolkit for weighted curvature bounds on
chart metrics — generalized Ricci tensors, curvature-dimension sampling,
warped-product criteria, geodesic conservation, and Laplacian comparison."""

from .chart_core import (
    FDSteps,
    MetricSpec,
    ScalarField,
    VectorField,
    hessian_scalar,
    metric_at,
    point_jet,
    ricci_numeric,
    weighted_laplacian,
)
from .comparison_suite import (
    ComparisonSample,
    RadialModel,
    bochner_inequality_margin,
    bochner_residual,
    comparison_bound,
    radial_comparison_check,
    riccati_comparison_trace,
    rigidity_check,
)
from .geodesic_flow import (
    GeodesicTrace,
    clairaut_constant,
    completeness_diagnostic,
    f_along_geodesic,
    geodesic_integrate,
    write_trace_csv,
)
from .warped_products import (
    FlatFiber,
    RiccatiReport,
    SphereFiber,
    SplitSpaceSpec,
    TwistedProductSpec,
    riccati_obstruction,
    split_cd_threshold,
    twisted_ricci_analytic,
)
from .weighted_curvature import (
    CDReport,
    GridSpec,
    box_grid,
    cd_verify,
    generalized_ricci,
    min_relative_eigenvalue,
    split_grid,
)

__version__ = "0.1.0"
