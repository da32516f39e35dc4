import tracemalloc

import numpy as np
import pytest

import weakhopf._linalg as la
from weakhopf import crossed as cr
from weakhopf import examples as ex
from weakhopf import modules as mo
from weakhopf import tower as tw
from weakhopf.algebra import Subspace, commutant
from weakhopf.config import SLACK_SOLVED, tolerance
from weakhopf.errors import DimensionBudgetExceeded


@pytest.fixture(scope="module")
def pauli_top(pauli):
    """The dual expectation of the dim-64 level of the depth-2 m2-pauli
    tower and the dim-16 relative commutant its quasi-basis lives in."""
    T = tw.build_tower(pauli[1], 2)
    lv = T.levels[3]
    rel = commutant(Subspace(lv.algebra, T.include_map(0, 2)), lv.algebra)
    return mo.ConditionalExpectation(lv.algebra, lv.expectation), rel


def test_canonical_seed_dims(cz2):
    T = tw.build_tower(ex.canonical_dual_module(cz2), 3)
    assert T.dims() == [1, 2, 4, 8, 16]
    assert tw.depth2_check(T)


def test_m2_seed_dims(m2_action):
    T = tw.build_tower(m2_action[1], 2)
    assert T.dims() == [2, 4, 8, 16]
    assert tw.depth2_check(T)


def test_quasi_basis_on_commutant_stays_below_one_n4_table(m2_action):
    # the depth-2 system restricted to a dim-4 relative commutant of the
    # dim-16 top level has 2 * 16^2 * 4^2 entries; building the full
    # 2 * 16^4 system first would need two dm^4 tables
    T = tw.build_tower(m2_action[1], 2)
    lv = T.levels[3]
    XA = lv.algebra
    rel = commutant(Subspace(XA, T.include_map(0, 2)), XA)
    assert (XA.dim, rel.dim) == (16, 4)
    E = mo.ConditionalExpectation(XA, lv.expectation)
    tracemalloc.start()
    try:
        mo.quasi_basis(E, subspace=rel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * XA.dim ** 4


def test_quasi_basis_at_the_pauli_top_stays_below_64_mib(pauli_top):
    # the 4096 x 256 system, the solve's [a | b] and its QR copy take 48 MiB;
    # with the rows 0 = 0 kept they would take 96 MiB
    E, rel = pauli_top
    tracemalloc.start()
    try:
        mo.quasi_basis(E, subspace=rel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_pauli_top_system_leaves_out_its_zero_equations(pauli_top):
    E, rel = pauli_top
    XA, b = E.algebra, rel.basis
    n, k = XA.dim, rel.dim
    assert (n, k) == (64, 16)
    sys, rhs = mo._quasi_basis_system(XA, E.table, b)
    assert sys.shape == (4096, k * k)
    # the full 2 n^2 rows: test_kernel's formula, embedded in rel (x) rel
    terms = ("qmr,tr,pts,pa,qb->msab", "mpr,tr,tqs,pa,qb->msab")
    full = np.vstack([np.einsum(t, XA.mult, E.table, XA.mult, b, b, optimize=True)
                      .reshape(n * n, k * k) for t in terms])
    full_rhs = np.concatenate([np.eye(n).reshape(-1)] * 2)
    # the rows 0 = 0 whatever the basis: the same formulas on |mult|, |table|
    # and an all-ones basis
    ones, mult, table = np.ones((n, k)), np.abs(XA.mult), np.abs(E.table)
    bound = np.vstack([np.einsum(t, mult, table, mult, ones, ones, optimize=True)
                       .reshape(n * n, k * k) for t in terms])
    kept = bound.any(axis=1) | (full_rhs != 0)
    assert not full[~kept].any() and not full_rhs[~kept].any()
    # 2048 rows carry an entry above rounding level; 2048 more hold entries
    # below 1e-13 that come out exactly zero or not with the BLAS thread
    # count and the basis, and stay either way
    above = (np.abs(full).max(axis=1) > 1e-13) | (full_rhs != 0)
    assert above.sum() == 2048 and kept[above].all()
    assert np.abs(sys - full[kept]).max() < 1e-12
    assert np.array_equal(rhs, full_rhs[kept])
    vec, ns = la.affine_solutions(full, full_rhs)
    index = (b @ vec.reshape(k, k) @ b.T).reshape(-1) @ XA.mult.reshape(n * n, n)
    qb = mo.quasi_basis(E, subspace=rel)
    assert qb.nullity == ns.shape[1] == 192
    assert np.abs(qb.index.coords - index).max() < SLACK_SOLVED * tolerance()


def test_depth_zero(m2_action):
    T = tw.build_tower(m2_action[1], 0)
    assert T.dims() == [2, 4]


def test_budget(m2_action):
    with pytest.raises(DimensionBudgetExceeded):
        tw.build_tower(m2_action[1], 3, budget=30)


def test_commutant_table_regular(m2_action):
    T = tw.build_tower(m2_action[1], 2)
    rep = tw.commutant_table(T)
    assert rep["regular"]
    assert rep["n_commutant_dims"] == [2, 4, 8]
    assert rep["center_dims"] == [1, 2, 1]
    assert all(rep["regular_table"].values())
    assert len(set(rep["joint_center_dims"])) == 1


def test_commutant_table_pauli(pauli):
    T = tw.build_tower(pauli[1], 1)
    rep = tw.commutant_table(T)
    assert rep["regular"]
    assert rep["n_commutant_dims"] == [4, 16]
    # factor at every level: pure algebra acting outerly on a factor
    assert rep["center_dims"] == [1, 1]


def test_basic_construction_m2(m2_action):
    rep = tw.basic_construction_check(m2_action[1])
    assert rep["galois"]
    assert rep["generated_dim"] == rep["crossed_dim"] == 8
    assert rep["index_gap_norm"] < 1e-9
    assert (rep["index"] - 2 * m2_action[1].target.one).norm() < 1e-9


def test_basic_construction_collapsed_strict_inequality(collapsed_action):
    rep = tw.basic_construction_check(collapsed_action[1])
    assert not rep["galois"]
    assert rep["generated_dim"] == rep["image_dim"] < rep["crossed_dim"]
    assert rep["index_gap_norm"] > 1e-6
    from weakhopf.algebra import is_positive
    gap = rep["index_bound"] - rep["index"]
    assert is_positive(gap + 1e-12 * rep["index"].parent.one)


def test_trivial_acting_algebra_collapses():
    W = ex.trivial_weak_hopf()
    M, _, _ = ex.matrix_algebra(2)
    act = np.eye(M.dim, dtype=complex)[np.newaxis, :, :]
    MA = mo.make_module_algebra(W, M, act)
    rep = tw.basic_construction_check(MA)
    assert rep["crossed_dim"] == M.dim
    assert rep["galois"]
    hd = W.haar()
    assert (hd.h - W.alg.one).norm() < 1e-12     # e = 1, the triple collapses


def test_regularity_propagates(m2_action, pauli):
    # the dual action on M x A is regular for every regular seed
    for _, MA in (m2_action, pauli):
        assert mo.is_regular(MA)
        X = cr.crossed_product(MA)
        dual_mod = cr.dual_action(X)
        assert mo.is_regular(dual_mod)


def test_outer_factor_tower(pauli):
    # pure algebra, outer on a factor: the crossed product is a factor,
    # the dual is pure, and the dual action is outer
    W, MA = pauli
    from weakhopf.hopf import is_pure
    assert is_pure(W)
    assert MA.target.center().dim == 1
    assert mo.is_outer(MA)
    X = cr.crossed_product(MA)
    assert X.algebra.center().dim == 1
    assert is_pure(W.dual())
    assert mo.is_outer(X.as_module)


def test_jones_relation_for_random_integrals(m2_action, rng):
    # e_l x e_l = E_l(x) e_l inside M x A for positive normalized
    # nondegenerate integrals
    from weakhopf import integrals as itg
    W, MA = m2_action
    M = MA.target
    X = cr.crossed_product(MA)
    XA = X.algebra
    for _ in range(3):
        l = itg.random_positive_integral(W, rng)
        e = X.embed_a @ itg.jones_projection(l).coords
        E = mo.cond_expectation(MA, l)
        for p in range(M.dim):
            x = X.embed_m[:, p]
            lhs = XA.product_coords(XA.product_coords(e, x), e)
            ex_ = X.embed_m @ E.table[:, p]
            assert np.abs(lhs - XA.product_coords(ex_, e)).max() < 1e-8
            assert np.abs(lhs - XA.product_coords(e, ex_)).max() < 1e-8


def test_derived_tower_matches_alternating_pattern(m2_action):
    # N' & M_i dims follow |A_L|, |A|, |A|^2/|A_L|
    T = tw.build_tower(m2_action[1], 2)
    rep = tw.commutant_table(T)
    assert rep["derived_dims_expected"] == [2, 4, 8]


def test_tower_level_basic_construction(m2_action):
    T = tw.build_tower(m2_action[1], 2)
    rep0 = T.basic_construction(0)
    assert rep0["galois"] and rep0["crossed_dim"] == 8
    rep1 = T.basic_construction(1)
    assert rep1["galois"] and rep1["crossed_dim"] == 16


def test_jones_relation_at_higher_level(m2_action, rng):
    # the Jones relation with a random positive normalized integral of the
    # dual, one level up the tower
    from weakhopf import integrals as itg
    T = tw.build_tower(m2_action[1], 2)
    MA1 = T.levels[2].module            # dual algebra acting on M x A
    X2 = T.levels[3].crossed
    XA2 = X2.algebra
    W1 = MA1.hopf
    l = itg.random_positive_integral(W1, rng)
    e = X2.embed_a @ itg.jones_projection(l).coords
    E = mo.cond_expectation(MA1, l)
    for p in range(MA1.target.dim):
        x = X2.embed_m[:, p]
        lhs = XA2.product_coords(XA2.product_coords(e, x), e)
        ex_ = X2.embed_m @ E.table[:, p]
        assert np.abs(lhs - XA2.product_coords(ex_, e)).max() < 1e-9
