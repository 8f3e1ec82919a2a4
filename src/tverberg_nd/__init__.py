"""No-dimensional Tverberg partitions with verifiable certificates.

Split n points into k parts whose convex hulls all meet one ball of
dimension-independent radius; also the one-point-per-class variant and
joint depth balls for several point sets at once. Every algorithm
returns a certificate object whose claims can be rechecked from the
original input.
"""

from .colorful import (
    ColorfulCertificate,
    ColorInstance,
    check_colorful_certificate,
    colorful_radius_bound,
    partition_colorful,
)
from .geom import (
    Ball,
    PointSet,
    centroid,
    diameter_bound,
    diameter_exact,
    diameter_upper,
)
from .hamsandwich import (
    DepthCertificate,
    align_centroids,
    check_depth_certificate,
    generalized_ham_sandwich,
    joint_depth_ball,
)
from .lifting import (
    GraphStats,
    LiftingGraph,
    make_custom_graph,
    make_graph,
    q_dot,
    quadratic_form,
    stats,
)
from .oracle import (
    EnumerationReport,
    ExplicitLift,
    depth_2d_exact,
    enumerate_colorful,
    enumerate_traversals,
    explicit_q_vectors,
    explicit_tensor,
)
from .tverberg import (
    CertificateError,
    CheckResult,
    InfeasibleError,
    TverbergCertificate,
    check_certificate,
    partition_balanced,
    partition_general,
    partition_nearly_balanced,
    radius_bound,
    traversal_norm_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "CertificateError",
    "CheckResult",
    "ColorInstance",
    "ColorfulCertificate",
    "DepthCertificate",
    "EnumerationReport",
    "ExplicitLift",
    "GraphStats",
    "InfeasibleError",
    "LiftingGraph",
    "PointSet",
    "TverbergCertificate",
    "align_centroids",
    "centroid",
    "check_certificate",
    "check_colorful_certificate",
    "check_depth_certificate",
    "colorful_radius_bound",
    "depth_2d_exact",
    "diameter_bound",
    "diameter_exact",
    "diameter_upper",
    "enumerate_colorful",
    "enumerate_traversals",
    "explicit_q_vectors",
    "explicit_tensor",
    "generalized_ham_sandwich",
    "joint_depth_ball",
    "make_custom_graph",
    "make_graph",
    "partition_balanced",
    "partition_colorful",
    "partition_general",
    "partition_nearly_balanced",
    "q_dot",
    "quadratic_form",
    "radius_bound",
    "stats",
    "traversal_norm_bound",
    "__version__",
]
