"""Volume entropy of finite metric graphs.

Core objects: MetricGraph (dart-based multigraph with positive edge
lengths), the weighted non-backtracking transfer matrix B(t) whose
spectral radius crossing rho(B(h)) = 1 defines the entropy h, path
generating functions evaluated by Cholesky solves of the symmetric
vertex matrix M(t) (weighted Ihara-Bass), incremental
edge/vertex-addition solvers, a brute-force enumeration oracle with the
counting identities, and the persistent entropy curve over the
edge-length filtration.
"""

from .counting import (BacktrackingBoundReport, BacktrackingEntropy,
                       BoundsReport, CountProfile, CountSlopeEstimate,
                       EnumerationSpec, LaplaceReport, PathKind,
                       RecursionReport, backtracking_bound,
                       backtracking_entropy, entropy_from_counts,
                       enumerate_paths, growth_bounds, horizon_for_budget,
                       laplace_check, verify_recursions)
from .entropy import EntropyResult, rho_curve, volume_entropy
from .errors import (DisconnectedPair, DivergentSeries, EntrographError,
                     HorizonTooLarge, InsufficientData, InvalidDartIndex,
                     MarginTooSmall, NonConvergence, NonPositiveLength,
                     PreconditionError, TooFewAttachments, UnknownFormat,
                     UnknownVertex, ValidationFailed)
from .genfun import (GenFunValue, attachment_darts, check_symmetry, f_from,
                     f_path, g_primitive, primitive_matrix)
from .graph import (ComponentKind, Dart, MetricGraph, ReduceResult, add_edge,
                    add_vertex, components, delete_edge, delete_vertex,
                    first_betti, reduce, same_graph, validate)
from .graphio import (ParseError, generate_graph, load_graph, parse_graph,
                      parse_graph_edgelist, parse_graph_json,
                      serialize_edgelist, serialize_json)
from .incremental import (AsymptoticFit, ConstantEstimate, EditResult,
                          VertexPrediction, entropy_after_edge,
                          entropy_after_vertex, estimate_constant_C,
                          fit_edge_asymptotic, predict_edge_asymptotic,
                          predict_vertex_asymptotic)
from .persistence import (CurveStep, EntropyCurve, StepStrategy,
                          curve_from_json, export_curve, filter_at,
                          persistent_entropy, thresholds)
from .spectral import (PerronData, TransferMatrix, TransferMode,
                       build_transfer, spectral_radius, vertex_matrix)

__version__ = "0.1.0"
