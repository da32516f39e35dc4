"""Exact finite-dimensional computations for weak C*-Hopf algebras: duals,
integrals, module algebras, crossed products and Jones towers, with every
structural identity verified by dense linear algebra."""

from .algebra import (
    Element,
    StarAlgebra,
    Subspace,
    commutant,
    invert,
    is_positive,
    make_star_algebra,
    multiply,
    sqrt_positive,
)
from .hopf import (
    AxiomReport,
    WeakHopfAlgebra,
    arrow_left,
    arrow_right,
    boundary_subalgebra,
    dual,
    hypercenter,
    is_pure,
    make_weak_hopf,
    verify_weak_hopf,
)
from .integrals import (
    HaarData,
    LeftIntegral,
    classify,
    dual_integral,
    haar,
    integral_index,
    jones_projection,
    left_integral_space,
    p_dual,
    right_integral_space,
)
from .modules import (
    ModuleAlgebra,
    cond_expectation,
    fixed_points,
    galois_test,
    invariant_state,
    is_minimal,
    is_outer,
    is_regular,
    make_module_algebra,
    modular_check,
    quasi_basis,
)
from .crossed import (
    CrossedProduct,
    commutant_suite,
    crossed_product,
    dual_action,
    gns_cross,
    hat_expectation,
    regular_homomorphism,
    tlj_elements,
)
from .tower import Tower, basic_construction_check, build_tower, commutant_table, \
    depth2_check

__version__ = "0.1.0"
