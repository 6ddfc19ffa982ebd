"""Pointwise exterior calculus of Hermitian vector spaces.

Exact wedge/contraction/Hodge algebra over an orthonormal frame, the
complex-structure bigrading of forms, Lefschetz-type operators and their
contraction pairings, spectral theory of 2-forms as skew maps, a complex
coframe calculus in three dimensions, and named verification campaigns
replaying each identity.
"""

from .errors import (
    ContractionUnderflowError,
    DegreeMismatchError,
    DegreeOverflowError,
    DegreeUnderflowError,
    FrameInconsistencyError,
    FrameRankError,
    HodgeLabError,
    IllConditionedSpectrumError,
    InvalidDerivativeError,
    InvalidFrameError,
    InvalidTransitionError,
    InvariantViolationError,
    MomentInconsistencyError,
    NotAValidFrameError,
    NotInLambdaPError,
    SpaceMismatchError,
)
from .exterior import (
    Form,
    Space,
    adjoint_wedge,
    contract,
    hodge_star,
    inner,
    wedge,
)
from .hermitian import (
    ComplexStructure,
    bb_j,
    bidegree_project,
    curly_j,
    in_lambda_p,
    j_pullback,
    lambda_basis,
)
from .lefschetz import (
    alpha_from_holomorphic,
    is_primitive,
    kahler_form,
    lefschetz_lstar,
    p_k,
    primitive_basis,
)
from .tensor_maps import (
    FormValuedMap,
    antisymmetrize,
    a_restricted_rank,
    contraction_identity_check,
    holomorphic_q,
    split_type,
    torsion_bullet,
    van_kernel_dimension,
)
from .harmonic import (
    SkewEndo,
    SpectralDecomposition,
    compatible_patch_dim6,
    endo_form,
    form_endo,
    moment_recover,
    spectral,
    splitting_q,
    stab_expand,
    symplectic_candidate,
    triple,
)
from .frames import (
    ComplexForm,
    FrameTriple,
    TransitionData,
    cross,
    obstruction_kernel,
    r_matrix,
    star_triple,
    symmetric_skew_split,
    transition_p,
)
from .campaigns import Campaign, Report, run_campaign

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
