"""Gap-ratio toolkit: how evenly does a finite sample cover a metric space?

A sample is scored by r (half its minimum pairwise distance), R (the
covering radius over the host space) and their quotient GR = R/r.  The
package evaluates these exactly where the metric allows, runs the greedy
farthest-point sampler with its per-step guarantees, approximates the best
k-sample through static and streaming grid coresets, certifies the
domination-problem reductions behind the hardness of GR = 1, and audits
planar samples through Delaunay angles and star discrepancy.
"""

from .certify import (sweep_fpi_guarantees, sweep_fpi_vs_oracle,
                      sweep_graph_lower_bound, sweep_reduction_certificates)
from .coreset import (EpsParams, GridCoreset, approx_sample, best_k_subset,
                      build_grid_coreset, static_params)
from .errors import CertificationError, GapError, GuardExceeded
from .fpi import (FpiStep, FpiTrace, farthest_point_insertion,
                  fpi_ratio_bound, rho)
from .geometry import (AngleAuditReport, SquareGapReport, Triangulation,
                       circumcircle_margins, covering_radius_unit_square,
                       delaunay, delaunay_angle_audit, gap_report_unit_square)
from .measures import (DiscrepancyReport, analytic_bounds,
                       gap_based_discrepancy_bound, star_discrepancy)
from .metric import (FiniteMetric, GapReport, Graph, PointCloud, Sample,
                     build_cloud, build_euclidean, build_explicit,
                     build_graph, build_graph_metric, diameter, gap_fraction,
                     gap_ratio, make_sample, max_gap, min_gap)
from .oracle import (OracleResult, check_eds_equivalence,
                     check_genmet_equivalence, genmet_reduce,
                     is_efficient_dominating, is_independent_dominating,
                     optimal_gap_ratio)
from .streaming import (StreamParams, StreamState, stream_finalize,
                        stream_ingest, stream_init, stream_params,
                        stream_reps)

__version__ = "0.1.0"

__all__ = [
    "CertificationError", "GapError", "GuardExceeded",
    "PointCloud", "Graph", "FiniteMetric", "Sample", "GapReport",
    "build_cloud", "build_graph", "build_euclidean", "build_graph_metric",
    "build_explicit", "make_sample", "min_gap", "max_gap", "gap_ratio",
    "gap_fraction", "diameter",
    "FpiStep", "FpiTrace", "farthest_point_insertion", "fpi_ratio_bound",
    "rho",
    "OracleResult", "optimal_gap_ratio", "is_independent_dominating",
    "is_efficient_dominating", "genmet_reduce", "check_genmet_equivalence",
    "check_eds_equivalence",
    "EpsParams", "GridCoreset", "static_params", "build_grid_coreset",
    "best_k_subset", "approx_sample",
    "StreamParams", "StreamState", "stream_params", "stream_init",
    "stream_ingest", "stream_reps", "stream_finalize",
    "Triangulation", "SquareGapReport", "AngleAuditReport", "delaunay",
    "circumcircle_margins", "covering_radius_unit_square",
    "gap_report_unit_square", "delaunay_angle_audit",
    "DiscrepancyReport", "star_discrepancy", "gap_based_discrepancy_bound",
    "analytic_bounds",
    "sweep_fpi_guarantees", "sweep_fpi_vs_oracle", "sweep_graph_lower_bound",
    "sweep_reduction_certificates",
    "__version__",
]
