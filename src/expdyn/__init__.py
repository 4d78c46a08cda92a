"""Numerics for the dynamics of exponential polynomials.

Functions of the form f(z) = sum_j Q_j(z) exp(b_j z^d + P_j(z)) are
evaluated in overflow-safe log domain, their orbits classified with
escape certificates, the sets where no single term dominates measured,
large annuli tiled into injectivity-scale squares with sampled image
density bounds, and the results rendered and aggregated from the command
line (`expdyn --help`).
"""

from .exceptional import (
    c1_constant,
    dist_to_E1_measured,
    e2_measure,
    in_E_mask,
)
from .funcs import (
    ExpPoly,
    ExpPolyTerm,
    HypothesisReport,
    bundled_function,
    check_extra_condition,
    check_hypotheses,
    eval_direct,
    eval_log_batch,
    function_from_dict,
    function_to_dict,
    load_function,
)
from .grid import (
    DensityReport,
    SquareTile,
    Tiling,
    default_sigma,
    good_square_near,
    is_good_square,
    square_density_bound,
)
from .measure import (
    AnnulusReport,
    CounterexampleParams,
    annulus_area,
    annulus_scan,
    b_measure_closed_form,
    b_measure_quadrature,
    b_wedge_halfwidth,
    counterexample_check,
)
from .orbits import (
    ESCAPE_CERTIFIED,
    NON_ESCAPE_OBSERVED,
    UNDETERMINED,
    ClassifyParams,
    classify_batch,
    iterate_max_modulus,
    log_max_modulus,
)
from .poly import Poly
from .raster import (
    ImageBuffer,
    Viewport,
    read_ppm,
    render_classification,
    render_exceptional,
    write_ppm,
)

__version__ = "0.1.0"
