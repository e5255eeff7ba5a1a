"""femwarp: finite-element mesh warping for triangular and tetrahedral
meshes, with small-step homotopy warping, maximin untangling, and
closed-form annulus oracles."""

from .mesh import (
    Mesh,
    QualityReport,
    Topology,
    aspect_ratio,
    count_reversals,
    inverse_mean_ratio,
    max_edge_length,
    quality_report,
    signed_measure,
    signed_measures,
    validate,
)
from .assembly import (
    WeightSystem,
    assemble_stiffness,
    build_weights,
    local_stiffness,
    log_barrier_weights,
    uniform_weights,
)
from .solve import Factorization, factor, gauss_seidel, solve_multi
from .warp import (
    AffineMotion,
    BoundaryMotion,
    TabulatedMotion,
    WarpReport,
    annulus_rotation_motion,
    femwarp_step,
    nonlinear3d_motion,
    shear_motion,
    small_step_femwarp,
    warp_trajectory,
)
from .untangle import LocalSubmesh, hybrid_warp, maximin_reposition, untangle
from .analytic import (
    AnnulusSpec,
    annulus_coeffs,
    annulus_jac_det,
    annulus_map,
    infinitesimal_rotation_map,
    nonlinear3d_map,
    rectangle_shear_map,
    reversal_bound_check,
    type1_predicate,
)
from .generators import gen_annulus, gen_box_tets, gen_rectangle

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
