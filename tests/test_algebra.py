import numpy as np
import pytest

from weakhopf import algebra as alg
from weakhopf.errors import (
    AssociativityViolation,
    NotSelfAdjoint,
    ParentMismatch,
    Singular,
    StarViolation,
)

RNG = np.random.default_rng(20240811)


def group_algebra_tables(mtab, inv):
    """Group algebra with g* = g^{-1}."""
    n = len(mtab)
    mult = np.zeros((n, n, n), dtype=complex)
    star = np.zeros((n, n), dtype=complex)
    for i in range(n):
        star[i, inv[i]] = 1.0
        for j in range(n):
            mult[i, j, mtab[i][j]] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    return mult, unit, star


def cz2():
    mult, unit, star = group_algebra_tables([[0, 1], [1, 0]], [0, 1])
    return alg.make_star_algebra(mult, unit, star, labels=["e", "g"])


def matrix_units_2():
    """M_2(C) on basis E11, E12, E21, E22 with E_ij* = E_ji."""
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    n = 4
    mult = np.zeros((n, n, n), dtype=complex)
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                mult[i, j, idx[(a, d)]] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[idx[(1, 1)]] = unit[idx[(2, 2)]] = 1.0
    star = np.zeros((n, n), dtype=complex)
    for (a, b), i in idx.items():
        star[i, idx[(b, a)]] = 1.0
    return alg.make_star_algebra(mult, unit, star,
                                 labels=["E11", "E12", "E21", "E22"])


# -- make_star_algebra -------------------------------------------------------

def test_group_algebra_z2_valid():
    A = cz2()
    assert A.dim == 2


def test_bad_star_rejected():
    mult, unit, _ = group_algebra_tables([[0, 1], [1, 0]], [0, 1])
    star = np.array([[1.0, 0.0], [1.0, 0.0]])  # maps both to identity
    with pytest.raises(StarViolation):
        alg.make_star_algebra(mult, unit, star)


def test_bad_associativity_rejected():
    A = matrix_units_2()
    mult = A.mult.copy()
    mult[1, 2] = 0.0
    mult[1, 2, 3] = 1.0  # E12*E21 := E22, then (E12 E21)E11 != E12(E21 E11)
    with pytest.raises(AssociativityViolation):
        alg.make_star_algebra(mult, A.unit, A.star)


def test_matrix_units_valid_by_enumeration():
    # independent oracle: associativity of matrix units by direct enumeration
    A = matrix_units_2()
    assert A.dim == 4
    E12, E21, E11 = A.basis_element(1), A.basis_element(2), A.basis_element(0)
    assert (E12 * E21).close_to(E11)


# -- multiply / regular representation ---------------------------------------

def test_unit_multiplication():
    A = cz2()
    a = A.element([0.3, -2.1j])
    assert (A.one * a).close_to(a) and (a * A.one).close_to(a)


def test_group_law():
    A = cz2()
    g = A.basis_element(1)
    assert (g * g).close_to(A.one)


def test_parent_mismatch():
    A, B = cz2(), matrix_units_2()
    with pytest.raises(ParentMismatch):
        A.one * B.one


def test_left_regular_rep_is_homomorphism():
    # the left regular representation L_x = A.left_mult_matrix(x): L_a L_b = L_ab
    A = matrix_units_2()
    assert np.allclose(A.left_mult_matrix(A.one.coords), np.eye(4))
    for _ in range(20):
        a = A.element(RNG.standard_normal(4) + 1j * RNG.standard_normal(4))
        b = A.element(RNG.standard_normal(4) + 1j * RNG.standard_normal(4))
        la, lb, lab = (A.left_mult_matrix(x.coords) for x in (a, b, a * b))
        assert np.abs(la @ lb - lab).max() < 1e-12


def test_regular_rep_z2_permutation():
    A = cz2()
    g = A.basis_element(1)
    assert np.allclose(A.left_mult_matrix(g.coords), np.array([[0, 1], [1, 0]]))


# -- positivity / roots / inverses -------------------------------------------

def test_positive_examples_z2():
    A = cz2()
    e, g = A.basis()
    assert alg.is_positive(A.one)
    assert alg.is_positive(e - g)          # eigenvalues 0, 2 on characters
    assert not alg.is_positive(e - 3 * g)  # eigenvalues -2, 4
    with pytest.raises(NotSelfAdjoint):
        alg.is_positive(A.element([1.0, 1.0j]))


def test_sqrt_scalar_and_spectral():
    A = cz2()
    e, g = A.basis()
    assert alg.sqrt_positive(A.one).close_to(A.one)
    r = alg.sqrt_positive(2 * e)
    assert r.close_to(np.sqrt(2) * e)
    # spectral calculus on characters, verified by squaring
    a = 0.25 * (5 * e + 3 * g)
    r = alg.sqrt_positive(a)
    assert (r * r).close_to(a)
    assert r.star().close_to(r) and alg.is_positive(r)


def test_sqrt_random_positive_matrix_algebra():
    A = matrix_units_2()
    for _ in range(100):
        c = A.element(RNG.standard_normal(4) + 1j * RNG.standard_normal(4))
        a = c.star() * c
        r = alg.sqrt_positive(a)
        assert (r * r - a).norm() < 1e-9
        # root commutes with its argument (stays in the generated subalgebra)
        assert (r * a - a * r).norm() < 1e-9


def test_invert():
    A = cz2()
    e, g = A.basis()
    assert alg.invert(A.one).close_to(A.one)
    assert alg.invert(2 * A.one).close_to(0.5 * A.one)
    with pytest.raises(Singular):
        alg.invert(e + g)  # left multiplication has eigenvalue 0


# -- commutants ---------------------------------------------------------------

def test_center_of_factor_is_scalars():
    A = matrix_units_2()
    Z = A.center()
    assert Z.dim == 1
    assert Z.contains_coords(A.unit.reshape(-1, 1))


def test_commutant_of_diagonals():
    A = matrix_units_2()
    diag = alg.Subspace(A, np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex))
    C = alg.commutant(diag, A)
    assert C.dim == 2
    assert C.equals(diag)
    assert C.certify() == {"subalgebra": True, "star_closed": True, "unital": True}


def test_commutant_bicommutant_monotone():
    A = matrix_units_2()
    S = alg.Subspace(A, np.array([[1, 0, 0, 0]], dtype=complex).T)
    CC = alg.commutant(alg.commutant(S, A), A)
    assert CC.contains_subspace(S)


def test_star_antimultiplicative_random():
    A = matrix_units_2()
    for _ in range(20):
        a = A.element(RNG.standard_normal(4) + 1j * RNG.standard_normal(4))
        b = A.element(RNG.standard_normal(4) + 1j * RNG.standard_normal(4))
        assert ((a * b).star() - b.star() * a.star()).norm() < 1e-12


def test_trace_form_positive_definite():
    for A in (cz2(), matrix_units_2()):
        g = A.trace_gram()
        assert np.abs(g - g.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(g).min() > 0


def test_subalgebra_on_basis():
    A = matrix_units_2()
    diag = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)
    sub, incl = alg.subalgebra_on_basis(A, diag)
    assert sub.dim == 2
    x = sub.element([2.0, 3.0])
    y = sub.element([1.0, -1.0])
    lifted = A.element(incl @ (x * y).coords)
    direct = A.element(incl @ x.coords) * A.element(incl @ y.coords)
    assert lifted.close_to(direct)
