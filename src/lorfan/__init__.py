"""Exact-arithmetic toolkit for simplicial tropical fans.

Represents marked fans with rational data, checks balancing of Minkowski
weights, computes mixed degrees of divisors, decides convexity and
quasiprojectivity by exact linear programming, and certifies the Lorentzian
property through the two-dimensional star characterization, with
Alexandrov-Fenchel and log-concavity reports on top.
"""

from .errors import (
    BalancingError,
    ConvexityError,
    DimensionError,
    InputError,
    InternalError,
    LorfanError,
    PreconditionError,
)
from .linalg import Inertia, inertia
from .lp import strict_feasible
from .fan import (
    MarkedFan,
    StarData,
    int_mark,
    is_complete,
    is_unpinched,
    point_fan,
    product_fan,
    require_fan,
    star,
    stellar_subdivide,
    validate,
)
from .weights import (
    Divisor,
    MinkowskiWeight,
    TropicalFan,
    check_balancing,
    constant_weight,
    divisor_action,
    indicator_divisor,
    mixed_degree,
    pullback_divisor,
    push_divisor_to_star,
    quadratic_form,
    star_weight,
    transport_weight,
)
from .convexity import ConvexityCertificate, classify_convexity, find_strictly_convex
from .lorentzian import (
    AFReport,
    LorentzianCertificate,
    af_report,
    definition_sample_check,
    is_lorentzian,
    volume_polynomial,
)
from .matroids import (
    Matroid,
    bergman_fan,
    complete_graph_matroid,
    fano_matroid,
    graphic_matroid,
    matroid_from_bases,
    uniform_matroid,
)
from .ops import (
    MixedVolumeResult,
    act_divisor_fan,
    polytope_bridge,
    product_tropical,
    tropical_modification,
)

__version__ = "0.1.0"
