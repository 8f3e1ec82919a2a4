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
    make_graph,
    quadratic_form,
    stats,
)
from .oracle import depth_2d_exact
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
    "generalized_ham_sandwich",
    "joint_depth_ball",
    "make_graph",
    "partition_balanced",
    "partition_colorful",
    "partition_general",
    "partition_nearly_balanced",
    "quadratic_form",
    "radius_bound",
    "stats",
    "traversal_norm_bound",
    "__version__",
]
