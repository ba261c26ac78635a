"""Exact Hausdorff-content solvers, coarea slicing, cone coverings,
disjoint-ball decompositions with certified inequalities, cubical-grid
deformations, isoperimetric filling certificates and nerve-based width
bounds, on finite metric models (voxel sets and nets)."""

__version__ = "0.1.0"

from .config import RunConfig
from .content import (
    ContentResult,
    exact_content,
    greedy_content,
    volume_lower_bound,
)
from .cone import ConeCertificate, cone_covering, cone_coverage_check
from .coarea import (
    DistanceToPoint,
    DistanceToSet,
    ExplicitValues,
    SliceProfile,
    best_slice,
    coarea_integral,
    slice_profile,
)
from .decomposition import (
    Constants,
    Decomposition,
    FillingCertificate,
    TildeContent,
    decompose,
    fill,
    improvement_sequence,
    improvement_step,
    verify_decomposition,
    vitali_select,
)
from .errors import (
    DecompositionViolation,
    InputError,
    PushoutPreconditionError,
    UncoverableError,
    VerificationError,
)
from .pushout import (
    CubicalGrid,
    DeformationTrace,
    average_point,
    cube_equality_check,
    grid_R_for_content,
    loomis_whitney_check,
    skeleton_descend,
)
from .space import (
    AllGridBalls,
    Ball,
    CentersIn,
    Covering,
    FixedFamily,
    NetSpace,
    RadiusCapped,
    VoxelSpace,
    ball_members,
    grid_ball,
    intersect_families,
    load_matrix_net,
    load_space,
    save_space,
    space_diameter,
    space_radius,
)
from .width import NerveComplex, nerve, width_bound

__all__ = [name for name in dir() if not name.startswith("_")]
