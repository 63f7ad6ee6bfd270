"""Exact polynomial models of sp(2n) representations.

Sparse rational polynomials and normal-ordered Weyl-algebra operators drive
everything: simplicial harmonic/monogenic kernel spaces, highest-weight-vector
verification, the Weyl dimension formula, tensor decompositions with the
symplectic spinor modules, the sl(2) extremal projector and the symplectic
Rarita-Schwinger operator.
"""

from .poly import (
    MultiDegree,
    Monomial,
    Poly,
    PolyParseError,
    UniverseMismatch,
    VarId,
    graded_dimension,
    monomial_basis,
    parse_poly,
    poly_from_json,
)
from .weyl import (
    ClosureNotClosed,
    RealizationElement,
    WeylOp,
    apply_op,
    build_sp2n_realization,
    commutator,
    compose,
    contraction_op,
    dirac_adjoint_op,
    dirac_op,
    euler_op,
    laplacian_op,
    lie_closure,
    pairing_derivs_op,
    pairing_vars_op,
    parse_weyl_op,
    r_squared_op,
)
from .roots import (
    NotDominant,
    RootSystemSp,
    Weight,
    epsilon_to_omega,
    is_dominant,
    omega_to_epsilon,
    spinor_tails,
    weyl_dim,
)
from .kernels import (
    GradedSpec,
    HwvReport,
    KernelBasis,
    determinantal_hwv,
    fischer_layer_dims,
    hwv_verify,
    joint_kernel,
    orthogonal_harmonic_kernel,
    poly_space_dim,
    symplectic_harmonic_kernel,
    symplectic_monogenic_kernel,
)
from .tensor import (
    DecompSummand,
    cartan_product,
    tensor_with_spinor,
)
from .transvector import (
    CalibrationReport,
    NotHomogeneous,
    ProjectorReport,
    SingularWeight,
    Sl2Triple,
    dirac_sl2_triple,
    extremal_project,
    rs_apply,
    rs_calibrate,
    transvector_project_dsx,
)
from .suites import SuiteReport, run_suite

__version__ = "0.1.0"
