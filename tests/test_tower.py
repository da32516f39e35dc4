import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakhopf._linalg as la
from weakhopf import crossed as cr
from weakhopf import examples as ex
from weakhopf import modules as mo
from weakhopf import tower as tw
from weakhopf._contract import evaluate
from weakhopf.algebra import StarAlgebra, Subspace, commutant
from weakhopf.config import SLACK_COMPOSITE, SLACK_SOLVED, tolerance
from weakhopf.errors import DimensionBudgetExceeded
from weakhopf.hopf import WeakHopfAlgebra


@pytest.fixture(scope="module")
def pauli_tower(pauli):
    return tw.build_tower(pauli[1], 2)


def test_canonical_seed_dims(cz2):
    T = tw.build_tower(ex.canonical_dual_module(cz2), 3)
    assert T.dims() == [1, 2, 4, 8, 16]
    assert tw.depth2_check(T)


def test_m2_seed_dims(m2_action):
    T = tw.build_tower(m2_action[1], 2)
    assert T.dims() == [2, 4, 8, 16]
    assert tw.depth2_check(T)


# the depth-2 towers of the built-in seeds whose top level has at most 81
# dimensions (dual-s3, dual-z4/0,2 and dual-z2xz2/0,1 reach 216 and 128),
# and the depth-3 tower of C[Z2] acting on its dual
WITNESS_SEEDS = ["m2-z2", "m2-collapsed", "m2-pauli", "dual-z2", "dual-z3", "dual-z4",
                 "dual-z2xz2", "dual-z2/0,1", "dual-z3/0,1,2"]
AGREEMENT_SEEDS = ["m2-z2", "m2-collapsed", "dual-z3", "dual-z2/0,1", "m2-pauli",
                   "canonical-z2"]


@pytest.fixture(scope="module")
def towers(cz2, pauli_tower):
    out = {name: tw.build_tower(ex.named_action(name), 2)
           for name in WITNESS_SEEDS if name != "m2-pauli"}
    out["m2-pauli"] = pauli_tower
    out["canonical-z2"] = tw.build_tower(ex.canonical_dual_module(cz2), 3)
    return out


def _checked_levels(T):
    """(level, relative commutant) at every level depth2_check certifies."""
    for k in range(2, len(T.levels)):
        XA = T.levels[k].algebra
        yield T.levels[k], commutant(Subspace(XA, T.include_map(k - 3, k - 1)), XA)


def _index(lv, tensor):
    """sum tensor[p, q] e_p e_q in the level's algebra."""
    return tensor.reshape(-1) @ lv.algebra.mult.reshape(-1, lv.algebra.dim)


def _central(lv, tensor):
    return lv.algebra.center().contains_coords(_index(lv, tensor)[:, None])


def _quasi_basis_gaps(lv, tensor):
    XA = lv.algebra
    return [gap for gap, _ in evaluate({"mult": XA.mult, "table": lv.expectation,
                                        "tensor": tensor, "eye": np.eye(XA.dim)},
                                       *cr.QUASI_BASIS)]


@pytest.mark.parametrize("name", AGREEMENT_SEEDS)
def test_witness_and_search_agree(towers, name):
    # the index does not depend on the quasi-basis: the witness's index is
    # that of a quasi-basis solved for over the whole level, at every level
    # of at most 36 dimensions (the dim-64 Pauli level's index is checked
    # against 1 (x) Ind by hat_expectation)
    checked = 0
    for lv, rel in _checked_levels(towers[name]):
        assert tw._witness_holds(lv, rel)
        if lv.algebra.dim > 36:
            continue
        qb = mo.quasi_basis(mo.ConditionalExpectation(lv.algebra, lv.expectation))
        gap = _index(lv, lv.canonical_tensor) - qb.index.coords
        assert np.abs(gap).max() < SLACK_SOLVED * tolerance()
        checked += 1
    assert checked


@pytest.mark.parametrize("name", WITNESS_SEEDS + ["canonical-z2"])
def test_every_witness_is_accepted_without_a_search(towers, name):
    assert tw.depth2_check(towers[name])


def _haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rebased(MA, rng):
    """MA with A and M each on a Haar-random unitary basis f_a = sum_i
    U[i, a] e_i."""
    W, M = MA.hopf, MA.target
    P, U = _haar_unitary(rng, W.dim), _haar_unitary(rng, M.dim)

    def algebra(A, V):
        Vi = V.conj().T
        return StarAlgebra(np.einsum("ia,jb,ijk,ck->abc", V, V, A.mult, Vi, optimize=True),
                           Vi @ A.unit,
                           np.einsum("ia,ik,ck->ac", V.conj(), A.star, Vi, optimize=True))

    Q = P.conj().T
    Wp = WeakHopfAlgebra(algebra(W.alg, P),
                         np.einsum("ia,iuv,bu,cv->abc", P, W.cop, Q, Q, optimize=True),
                         P.T @ W.counit, Q @ W.antipode @ P)
    act = np.einsum("ia,pb,ipq,cq->abc", P, U, MA.act, U.conj().T, optimize=True)
    return mo.make_module_algebra(Wp, algebra(M, U), act)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(["m2-z2", "m2-collapsed", "dual-z3", "dual-z2/0,1"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_witness_is_accepted_in_random_bases(name, seed):
    # the seeds' towers in fresh bases, as the benchmark's small family
    # builds them: no witness is refused, so no verdict turns False
    T = tw.build_tower(_rebased(ex.named_action(name), np.random.default_rng(seed)), 2)
    assert len(T.levels) == 4
    assert tw.depth2_check(T)


def _m2_top(m2_action):
    """A fresh depth-2 m2-z2 tower, its dim-16 top level and that level's
    relative commutant."""
    T = tw.build_tower(m2_action[1], 2)
    lv, rel = list(_checked_levels(T))[-1]
    assert lv.algebra.dim == 16
    return T, lv, rel


def _moves_off_one_leg(lv, rel):
    """Two solutions of the null space of the unconstrained quasi-basis
    system: one whose columns stay in rel while its rows leave it, and one
    whose rows stay while its columns leave."""
    XA, n = lv.algebra, lv.algebra.dim
    sys, rhs = mo._quasi_basis_system(XA, lv.expectation)
    moves = la.affine_solutions(sys, rhs)[1].T.reshape(-1, n, n)
    off = np.eye(n) - rel.basis @ rel.basis.conj().T
    out = []
    for leg in (lambda m: off @ m, lambda m: m @ off.T):
        c = la.null_space(np.stack([leg(m).reshape(-1) for m in moves], axis=1))[:, 0]
        out.append(np.tensordot(c, moves, axes=1))
    return out


def test_a_witness_off_the_relative_commutant_is_refused(m2_action):
    T, lv, rel = _m2_top(m2_action)
    witness = lv.canonical_tensor
    # quasi-bases of the whole algebra that leave rel (x) rel on one leg
    for move, legs in zip(_moves_off_one_leg(lv, rel), ((True, False), (False, True))):
        moved = witness + move
        assert max(_quasi_basis_gaps(lv, moved)) <= tolerance() and _central(lv, moved)
        assert (rel.contains_coords(moved), rel.contains_coords(moved.T)) == legs
        assert np.abs(move).max() > 1e-2
        lv.canonical_tensor = moved
        assert not tw._witness_holds(lv, rel)
        assert not tw.depth2_check(T)


def test_a_witness_that_misses_an_identity_is_refused(m2_action):
    T, lv, rel = _m2_top(m2_action)
    t, witness = tolerance(), lv.canonical_tensor
    # scaled by 1 + 1e-7 the witness stays in rel (x) rel with a central
    # index, and its identities miss by about 1e-7: above tol, below the
    # SLACK_COMPOSITE * tol that hat_expectation allows
    scaled = (1 + 1e-7) * witness
    assert rel.contains_coords(scaled) and rel.contains_coords(scaled.T)
    assert _central(lv, scaled)
    assert t < max(_quasi_basis_gaps(lv, scaled)) < SLACK_COMPOSITE * t
    # one entry moved by 1e-6
    p, q = np.unravel_index(np.abs(witness).argmax(), witness.shape)
    nudged = witness.copy()
    nudged[p, q] += 1e-6
    assert max(_quasi_basis_gaps(lv, nudged)) > t
    for moved in (scaled, nudged):
        lv.canonical_tensor = moved
        assert not tw._witness_holds(lv, rel)
        assert not tw.depth2_check(T)


def test_a_witness_whose_index_leaves_the_center_is_refused(m2_action, monkeypatch):
    T, lv, rel = _m2_top(m2_action)
    XA = lv.algebra
    assert XA.center().dim == 1 and _central(lv, lv.canonical_tensor)
    # the cached center (the crossed products, so the algebra, are shared
    # by every tower of this seed) replaced for this test by a space that
    # leaves the index out: the witness still passes its other two
    # conditions, and is refused
    monkeypatch.setitem(XA._cache, ("center", tolerance()),
                        Subspace(XA, np.zeros((XA.dim, 0))))
    witness = lv.canonical_tensor
    assert rel.contains_coords(witness) and rel.contains_coords(witness.T)
    assert max(_quasi_basis_gaps(lv, witness)) <= tolerance()
    assert not tw._witness_holds(lv, rel)
    assert not tw.depth2_check(T)


def test_a_broken_expectation_fails_on_both_paths(m2_action, rng):
    T, lv, rel = _m2_top(m2_action)
    n = lv.algebra.dim
    lv.expectation = lv.expectation + 1e-3 * rng.standard_normal((n, n))
    assert not tw._witness_holds(lv, rel)
    assert not tw.depth2_check(T)


def test_depth2_check_on_the_pauli_tower_stays_below_8_mib(pauli_tower):
    # the witness needs n^2 tables and the slices of its two identities.
    # The centers are derived first,
    # as commutant_table derives them before depth2_check in `wha tower`.
    for lv in pauli_tower.levels:
        lv.algebra.center()
    tracemalloc.start()
    try:
        assert tw.depth2_check(pauli_tower)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


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
