"""Equivariant gradient degree toolkit.

Exact Euler-ring arithmetic for the circle and finite cyclic groups, the
finite-dimensional equivariant gradient degree with an independent Brouwer
oracle, a spectral Galerkin pipeline with empirical stabilization
certificates, and degree-based existence tests for periodic solutions of
Hamiltonian systems.
"""

from .errors import (
    AffinityFailure,
    BadNumber,
    BoundaryZero,
    DegenerateZero,
    DegreeError,
    DimensionLimit,
    EquivarianceFailure,
    GroupMismatch,
    InputError,
    MarginFailure,
    MultiplierMismatch,
    NearSingular,
    NoncompactZeroSet,
    NonFiniteField,
    NotAGradient,
    SliceMarginFailure,
    StabilizationFailure,
    SupportFailure,
    UnresolvedZeroCluster,
    ZeroOutsideFixedSpace,
)
from .euler_ring import (
    CIRCLE,
    FULL,
    DirectLimitClass,
    GroupDescriptor,
    RingElement,
    SubgroupClass,
    basis_element,
    limit_class_equal,
    ring_element_from_json,
    ring_element_to_json,
    unit,
    unit_class,
    zero,
)
from .reps import (
    EquivariantSymOp,
    Layout,
    Rep,
    ShellBasis,
    SpectralOperator,
    canonical_layout,
    rep_from_json,
    rep_to_json,
    shell_index,
    shell_operator,
)
from .domains import Ball, IntersectionDomain, ProductDomain, ShellDomain, UnionDomain
from .polynomials import Polynomial
from .finite_degree import (
    GradientField,
    OrbitNormalForm,
    brouwer_oracle,
    field_from_operator,
    grad_degree,
    linear_degree,
    orbit_normal_form_degree,
    orbit_normal_form_field,
    product_degree,
    product_field,
)
from .galerkin import (
    BallSpec,
    DegreeResult,
    LocalMapSpec,
    OtopyPath,
    RegionSpec,
    certify_margin,
    correction_factor,
    deg_along_otopy,
    deg_infinite,
    direct_sum_local_maps,
    normalization_map,
    potential_nonlinearity,
    scalar_nonlinearity,
    shell_degrees,
    shell_field,
    zero_nonlinearity,
)
from .hamiltonian import (
    DegreeJumpTable,
    HamiltonianSpec,
    LoopState,
    PeriodicCertificate,
    default_quadrature_size,
    degree_jump,
    hamiltonian_gradient,
    local_map,
    loop_operator,
    periodic_existence,
    quadratic_spectral_degree,
    state_to_coords,
    coords_to_state,
)

__version__ = "0.1.0"
