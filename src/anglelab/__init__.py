"""Self-similar point sets with angle gaps, and angle analysis of finite clouds.

Setting the environment variable ANGLELAB_THREADS before this package is
first imported caps the thread count of the underlying numeric libraries.
"""

import os as _os

_threads = _os.environ.get("ANGLELAB_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .anglefind import (
    RegularityParams,
    RightAngleWitness,
    TriangleWitness,
    almost_regular_triangle,
    near_extreme_witness,
    near_right_witness,
    ramsey_bound,
    regularity_params,
)
from .content import (
    ContentResult,
    DyadicGrid,
    ZoomResult,
    dense_cube,
    dyadic_content,
    from_points,
    microset_zoom,
)
from .dimension import (
    MinkowskiEstimate,
    PackingReport,
    WellSpreadResult,
    minkowski_dimension_estimate,
    packing_number_greedy,
    well_spread_subset,
)
from .errors import AngleLabError
from .geom import (
    AngleInterval,
    PointCloud,
    TripleWitness,
    angle_at,
    angle_spectrum,
    line_pair_angle,
    regular_simplex,
    spectrum_hits,
)
from .ifs import (
    AvoidanceCertificate,
    Homothety,
    HomotheticIFS,
    RectangleWitness,
    avoidance_certificate,
    direction_deviation_bound,
    gasket_ifs,
    iterate_cloud,
    rectangle_in,
    separation_gap,
    similarity_dimension,
)

__all__ = [
    "AngleLabError",
    "AngleInterval",
    "AvoidanceCertificate",
    "ContentResult",
    "DyadicGrid",
    "Homothety",
    "HomotheticIFS",
    "MinkowskiEstimate",
    "PackingReport",
    "PointCloud",
    "RectangleWitness",
    "RegularityParams",
    "RightAngleWitness",
    "TriangleWitness",
    "TripleWitness",
    "WellSpreadResult",
    "ZoomResult",
    "almost_regular_triangle",
    "angle_at",
    "angle_spectrum",
    "avoidance_certificate",
    "dense_cube",
    "direction_deviation_bound",
    "dyadic_content",
    "from_points",
    "gasket_ifs",
    "iterate_cloud",
    "line_pair_angle",
    "microset_zoom",
    "minkowski_dimension_estimate",
    "near_extreme_witness",
    "near_right_witness",
    "packing_number_greedy",
    "ramsey_bound",
    "rectangle_in",
    "regular_simplex",
    "regularity_params",
    "separation_gap",
    "similarity_dimension",
    "spectrum_hits",
    "well_spread_subset",
]
