"""Every rewritten contraction against its reference np.einsum formula.

The reference formulas live only in this file.  Random complex tensors take
a different size on every index the contraction lets vary, so that a
swapped axis fails on shape or on value.  Identities that are evaluated
inline inside a verifier are compared through the residual and location
that the verifier reports when a perturbed table makes it fail.
"""

import types

import numpy as np
import pytest

from weakhopf import _linalg as la
from weakhopf import crossed as cr
from weakhopf import examples as ex
from weakhopf import tower as tw
from weakhopf._contract import pair_products, split_product
from weakhopf.algebra import (
    StarAlgebra,
    Subspace,
    make_star_algebra,
    subalgebra_on_basis,
)
from weakhopf.errors import (
    ActionAxiomViolation,
    AssociativityViolation,
    AxiomViolation,
    StarViolation,
    UnitViolation,
)
from weakhopf.integrals import LeftIntegral, dual_integral
from weakhopf.modules import (
    ModuleAlgebra,
    _counital_rows,
    _quasi_basis_system,
    galois_test,
    hopf_adjoint_table,
    implementer_space,
    invariant_state,
    make_module_algebra,
    quasi_basis,
    to_coaction,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _rand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(got, ref):
    ref = np.asarray(ref)
    assert got.shape == ref.shape
    scale = max(1.0, float(np.abs(ref).max()))
    assert float(np.abs(got - ref).max()) <= 1e-12 * scale


def _peak(gap):
    """(max, argmax index) of |gap| as the verifiers report them."""
    gap = np.abs(gap)
    return float(gap.max()), tuple(int(x) for x in
                                   np.unravel_index(int(gap.argmax()), gap.shape))


def _assert_reports(exc, gap):
    worst, where = _peak(gap)
    assert exc.residual == pytest.approx(worst, rel=1e-12)
    assert exc.where == where


# ---------------------------------------------------------------------------
# the shared kernels


def test_pair_products(rng):
    mult, xs, ys = _rand(rng, 5, 5, 5), _rand(rng, 5, 3), _rand(rng, 5, 4)
    _close(pair_products(mult, xs, ys), np.einsum("ia,jb,ijk->abk", xs, ys, mult))


def test_split_product(rng):
    act = _rand(rng, 3, 4, 5)                 # [u, p, a]
    mult = _rand(rng, 5, 5, 6)                # [a, b, k]
    cop, d1 = _rand(rng, 2, 3, 3), _rand(rng, 3, 3)
    _close(split_product(cop, act, mult),
           np.einsum("iuv,upa,vqb,abk->ipqk", cop, act, act, mult))
    _close(split_product(d1, act, mult),
           np.einsum("uv,upa,vqb,abk->pqk", d1, act, act, mult))


# ---------------------------------------------------------------------------
# StarAlgebra on a contiguous table


def test_star_algebra_from_transposed_view(rng):
    base = _rand(rng, 4, 4, 4)
    view = base.transpose(2, 0, 1)
    assert not view.flags.c_contiguous
    A = StarAlgebra(view, _rand(rng, 4), _rand(rng, 4, 4))
    assert A.mult.flags.c_contiguous
    x, y = _rand(rng, 4), _rand(rng, 4)
    _close(A.product_coords(x, y), np.einsum("i,j,ijk->k", x, y, view))
    _close(A.left_mult_matrix(x), np.einsum("i,ijk->kj", x, view))
    _close(A.right_mult_matrix(x), np.einsum("j,ijk->ki", x, view))
    tr = np.einsum("kjj->k", view)
    _close(A.trace_gram(), np.einsum("ip,pjk,k->ij", A.star, view, tr))


def test_associativity_residual(rng):
    mult = _rand(rng, 4, 4, 4)
    ref = np.einsum("ijp,pkq->ijkq", mult, mult) - np.einsum("jkp,ipq->ijkq", mult, mult)
    with pytest.raises(AssociativityViolation) as info:
        make_star_algebra(mult, np.eye(4)[0], np.eye(4))
    worst, (i, j, k, _) = _peak(ref)
    assert info.value.residual == pytest.approx(worst, rel=1e-12)
    assert info.value.where == (f"e{i}", f"e{j}", f"e{k}")


def test_unit_law_residual(rng):
    A = ex.matrix_algebra(2)[0]
    unit = A.unit + 1e-3 * _rand(rng, 4)
    lu = np.einsum("i,ijk->jk", unit, A.mult) - np.eye(4)
    ru = np.einsum("j,ijk->ik", unit, A.mult) - np.eye(4)
    with pytest.raises(UnitViolation) as info:
        make_star_algebra(A.mult, unit, A.star, labels=A.labels)
    assert info.value.residual == pytest.approx(
        max(np.abs(lu).max(), np.abs(ru).max()), rel=1e-12)


def test_antimultiplicativity_residual(rng):
    A = ex.matrix_algebra(2)[0]
    b = _rand(rng, 4, 4)
    star = b @ np.linalg.inv(np.conj(b))          # involutive, not antimultiplicative
    ref = np.einsum("ijk,kl->ijl", np.conj(A.mult), star) \
        - np.einsum("jp,iq,pql->ijl", star, star, A.mult)
    with pytest.raises(StarViolation, match="antimultiplicative") as info:
        make_star_algebra(A.mult, A.unit, star, labels=A.labels)
    worst, (i, j, _) = _peak(ref)
    assert info.value.residual == pytest.approx(worst, rel=1e-12)
    assert info.value.where == (A.labels[i], A.labels[j])


def test_certify_and_subalgebra_on_basis(rng):
    A = ex.matrix_algebra(3)[0]
    diag = np.eye(9)[:, [0, 4, 8]]                 # E11, E22, E33
    S = Subspace(A, diag @ np.linalg.qr(_rand(rng, 3, 3))[0], orthonormalize=False)
    assert S.certify() == {"subalgebra": True, "star_closed": True, "unital": True}

    sub, B = subalgebra_on_basis(A, diag @ _rand(rng, 3, 3))
    _close(sub.mult, np.einsum("ia,jb,ijk,kc->abc", B, B, A.mult, B.conj()))
    _close(sub.star, np.einsum("ia,ik,kc->ac", B.conj(), A.star, B.conj()))

    # E12, E21 span no subalgebra: the first failing pair is reported
    span = np.eye(9)[:, [1, 3]] @ _rand(rng, 2, 2)
    B = la.orth(span)
    prods = np.einsum("ia,jb,ijk->abk", B, B, A.mult)
    first = next((a, b) for a in range(2) for b in range(2)
                 if not la.contains(B, prods[a, b].reshape(-1, 1)))
    with pytest.raises(AssociativityViolation) as info:
        subalgebra_on_basis(A, span)
    assert info.value.where == first


# ---------------------------------------------------------------------------
# module algebras


def test_module_algebra_maps(rng):
    hopf = types.SimpleNamespace(dim=3)
    target = types.SimpleNamespace(dim=4, unit=_rand(rng, 4))
    MA = ModuleAlgebra(hopf, target, _rand(rng, 3, 4, 4))
    a, m = _rand(rng, 3), _rand(rng, 4)
    _close(MA.act_op(a), np.einsum("i,ipq->qp", a, MA.act))
    _close(MA.apply_coords(a, m), np.einsum("i,ipq,p->q", a, MA.act, m))
    _close(MA.act_on_unit(), np.einsum("ipq,p->iq", MA.act, target.unit))
    proj = _rand(rng, 3, 3)
    ref = np.vstack([np.einsum("i,ipq->qp", np.eye(3)[i] - proj[:, i], MA.act)
                     for i in range(3)])
    _close(_counital_rows(MA, proj), ref)


@pytest.fixture
def pauli_parts():
    W, MA = ex.m2_pauli_action()          # W dim 16 on M dim 4
    return W, MA.target, MA.act


def test_composition_law_residual(rng, pauli_parts):
    W, M, act = pauli_parts
    act = act + 1e-3 * _rand(rng, *act.shape)
    ref = np.einsum("ijr,rpq->ijpq", W.alg.mult, act) \
        - np.einsum("jpr,irq->ijpq", act, act)
    with pytest.raises(ActionAxiomViolation, match="composition") as info:
        make_module_algebra(W, M, act)
    _assert_reports(info.value, ref)


def test_product_law_residual(rng, pauli_parts):
    W, M, act = pauli_parts
    mult = M.mult + 1e-3 * _rand(rng, 4, 4, 4)
    skewed = StarAlgebra(mult, M.unit, M.star)
    ref = np.einsum("pqr,irk->ipqk", mult, act) \
        - np.einsum("iuv,upa,vqb,abk->ipqk", W.cop, act, act, mult)
    with pytest.raises(ActionAxiomViolation, match="product law") as info:
        make_module_algebra(W, skewed, act)
    _assert_reports(info.value, ref)


def test_star_law_residual(rng, pauli_parts):
    W, M, act = pauli_parts
    star = M.star + 1e-3 * _rand(rng, 4, 4)
    skewed = StarAlgebra(M.mult, M.unit, star)
    lower = W.alg.star.T @ np.conj(W.antipode)
    ref = np.einsum("ipq,qr->ipr", np.conj(act), star) \
        - np.einsum("ui,ps,usr->ipr", lower, star, act)
    with pytest.raises(ActionAxiomViolation, match="star law") as info:
        make_module_algebra(W, skewed, act)
    _assert_reports(info.value, ref)


def test_unit_splitting_residual(rng):
    W, MA = ex.m2_pauli_action()
    d1 = W.delta_one() + 1e-3 * _rand(rng, 16, 16)
    W._cache["D1"] = d1          # only the splitting check reads Delta(1)
    ref = np.einsum("uv,upa,vqb,abk->pqk", d1, MA.act, MA.act, MA.target.mult) \
        - MA.target.mult
    with pytest.raises(ActionAxiomViolation, match="splitting") as info:
        make_module_algebra(W, MA.target, MA.act)
    _assert_reports(info.value, ref)


def test_coaction_law_residuals(rng, pauli_parts):
    W, M, act = pauli_parts
    Wd = W.dual()
    rho = np.transpose(act, (1, 2, 0))

    # the dual's Delta(1) is not symmetric here, so both weak unit laws
    # see a transposed factor
    to_coaction(ModuleAlgebra(W, M, act))

    def rejected(match, mult=M.mult, unit=M.unit, star=M.star):
        skewed = ModuleAlgebra(W, StarAlgebra(mult, unit, star), act)
        with pytest.raises(ActionAxiomViolation, match=match) as info:
            to_coaction(skewed)
        return info.value.residual

    mult = M.mult + 1e-3 * _rand(rng, 4, 4, 4)
    ref = np.einsum("pqr,rsi->pqsi", mult, rho) \
        - np.einsum("pai,qbj,abs,ijk->pqsk", rho, rho, mult, Wd.alg.mult)
    assert rejected("multiplicative", mult=mult) == pytest.approx(np.abs(ref).max(), rel=1e-12)

    star = M.star + 1e-3 * _rand(rng, 4, 4)
    ref = np.einsum("pr,rsi->psi", star, rho) \
        - np.einsum("pqi,qs,ij->psj", np.conj(rho), star, Wd.alg.star)
    assert rejected("star-preserving", star=star) == pytest.approx(np.abs(ref).max(), rel=1e-12)

    unit = M.unit + 1e-3 * _rand(rng, 4)
    rho1 = np.einsum("p,pqi->qi", unit, rho)
    ref = np.einsum("ak,qu,auj->qjk", Wd.delta_one(), rho1, Wd.alg.mult) \
        - np.einsum("qi,ijk->qjk", rho1, Wd.cop)
    assert rejected("weak unit law fails", unit=unit) == pytest.approx(np.abs(ref).max(), rel=1e-12)


def test_hopf_adjoint_table():
    W = ex.m2_pauli_action()[0]
    ref = np.einsum("iuv,upr,qv,rqs->ips", W.cop, W.alg.mult, W.antipode, W.alg.mult,
                    optimize=True)
    _close(hopf_adjoint_table(W), ref)


def test_implementer_space(pauli_parts):
    W, M, act = pauli_parts
    MA = ModuleAlgebra(W, M, act)
    da, dm = W.dim, M.dim
    ct = np.zeros((da, dm, dm, da, dm), dtype=complex)
    idx = np.arange(da)
    ct[idx, :, :, idx, :] = np.einsum("pjs->jsp", M.mult)[np.newaxis]
    x = np.einsum("iuv,uqm,jm->iqvj", W.cop, act, np.eye(dm))
    ct -= np.einsum("iqvj,jps->iqsvp", x, M.mult)
    ref = la.null_space(ct.reshape(da * dm * dm, da * dm))
    got = implementer_space(MA)
    assert got.shape == ref.shape and ref.shape[1] > 0
    assert la.span_equal(got, ref)


def test_gns_gram():
    _, MA = ex.m2_inner_z2_action()
    M = MA.target
    tr = M.trace_vector()
    gns = invariant_state(MA, tr / (tr @ M.unit))
    _close(gns.gram, np.einsum("ps,sqt,t->pq", M.star, M.mult, gns.omega))


def test_quasi_basis_system(rng):
    n, k = 5, 3
    M = StarAlgebra(_rand(rng, n, n, n), _rand(rng, n), _rand(rng, n, n))
    table, basis = _rand(rng, n, n), _rand(rng, n, k)
    a1 = np.einsum("qmr,tr,pts->mspq", M.mult, table, M.mult).reshape(n * n, n * n)
    a2 = np.einsum("mpr,tr,tqs->mspq", M.mult, table, M.mult).reshape(n * n, n * n)
    embed = np.einsum("pa,qb->pqab", basis, basis).reshape(n * n, k * k)
    sys, rhs = _quasi_basis_system(M, table, basis)
    _close(sys, np.vstack([a1, a2]) @ embed)
    _close(rhs, np.concatenate([np.eye(n).reshape(-1)] * 2))


def test_quasi_basis_on_a_subspace(rng):
    _, MA = ex.m2_inner_z2_action()
    E = MA.haar_expectation()
    M = E.algebra
    S = Subspace(M, np.linalg.qr(_rand(rng, 4, 4))[0], orthonormalize=False)
    embed = np.einsum("pa,qb->pqab", S.basis, S.basis).reshape(16, 16)
    a1 = np.einsum("qmr,tr,pts->mspq", M.mult, E.table, M.mult).reshape(16, 16)
    a2 = np.einsum("mpr,tr,tqs->mspq", M.mult, E.table, M.mult).reshape(16, 16)
    rhs = np.concatenate([np.eye(4).reshape(-1)] * 2)
    vec = np.linalg.lstsq(np.vstack([a1, a2]) @ embed, rhs, rcond=None)[0]
    tensor = (embed @ vec).reshape(4, 4)
    qb = quasi_basis(E, subspace=S)
    assert np.abs(qb.tensor - tensor).max() < 1e-10
    assert np.abs(qb.index.coords - np.einsum("pq,pqs->s", tensor, M.mult)).max() < 1e-10


def test_galois_support_and_rank():
    _, MA = ex.m2_collapsed_action()          # not Galois: p != 1
    X = cr.crossed_product(MA)
    XA, em = X.algebra, X.embed_m
    eh = X.embed_a @ MA.hopf.haar().h.coords
    sandwiches = np.einsum("au,b,abc,dv,cdk->uvk", em, eh, XA.mult, em, XA.mult,
                           optimize=True)
    tensor = quasi_basis(MA.haar_expectation()).tensor
    p, galois, rank = galois_test(MA)
    assert not galois
    _close(p.coords, np.einsum("uv,uvk->k", tensor, sandwiches))
    assert rank == np.linalg.matrix_rank(sandwiches.reshape(-1, XA.dim), tol=1e-9)


# ---------------------------------------------------------------------------
# crossed products


@pytest.fixture
def pauli_crossed():
    _, MA = ex.m2_pauli_action()
    return MA, cr.crossed_product(MA)


def test_crossed_structure_constants(pauli_crossed):
    MA, X = pauli_crossed
    W, M = MA.hopf, MA.target
    dm, da = M.dim, W.dim
    reps = X.lift.reshape(dm, da, X.dim)
    prods = np.einsum("piA,qjB,iuv,uqr,prs,vjk->ABsk", reps, reps, W.cop, MA.act,
                      M.mult, W.alg.mult, optimize=True)
    _close(X.algebra.mult, np.einsum("ABsk,skC->ABC", prods, np.conj(reps)))
    dstar = np.einsum("ic,cuv->iuv", W.alg.star, W.cop)
    sbig = np.einsum("iuv,ps,usr->pirv", dstar, M.star, MA.act)
    sbig = sbig.reshape(dm * da, dm * da).T
    _close(X.algebra.star, (X.proj @ sbig @ np.conj(X.lift)).T)


def test_embeddings(pauli_crossed):
    MA, X = pauli_crossed
    W, M = MA.hopf, MA.target
    blocks = X.proj.reshape(X.dim, M.dim, W.dim)
    _close(X.embed_m, np.einsum("dpi,i->dp", blocks, W.alg.unit))
    _close(X.embed_a, np.einsum("dpi,p->di", blocks, M.unit))


def test_covariance_residual(rng, pauli_crossed):
    MA, X = pauli_crossed
    W, XA = MA.hopf, X.algebra
    act = MA.act + 1e-3 * _rand(rng, *MA.act.shape)
    skewed = ModuleAlgebra(W, MA.target, act)
    skewed._cache.update(MA._cache)          # keep the unperturbed image data
    X.base = skewed
    em, ea = X.embed_m, X.embed_a
    lhs = np.einsum("ipq,dq->dip", act, em)
    rhs = np.einsum("iuv,au,bp,abc,ew,wv,ced->dip", W.cop, ea, em, XA.mult,
                    ea, W.antipode, XA.mult, optimize=True)
    with pytest.raises(AxiomViolation, match="covariance") as info:
        X._verify(np.transpose(W.cop, (2, 1, 0)))
    assert info.value.residual == pytest.approx(np.abs(lhs - rhs).max(), rel=1e-10)


def test_hat_expectation_table(pauli_crossed):
    MA, X = pauli_crossed
    W, M = MA.hopf, MA.target
    lam = W.haar().hhat
    E = cr.hat_expectation(X, lam)
    mulam = MA.image_data().mu @ np.einsum("ios,s->oi", W.cop, lam.coords)
    lifted = X.lift.reshape(M.dim, W.dim, X.dim)
    ref = X.embed_m @ np.einsum("piA,ri,prs->sA", lifted, mulam, M.mult)
    _close(E.table, ref)
    _close(E.index.coords, np.einsum("AB,ABC->C", E.canonical_tensor, X.algebra.mult))
    l_dual = dual_integral(LeftIntegral(W.dual(), lam))
    dl = W.delta_coords(l_dual.element.coords)
    _close(E.canonical_tensor, np.einsum("uv,Av,Bu->AB", dl, X.embed_a,
                                         X.embed_a @ W.antipode_inv()))


def test_quasi_basis_residual(rng):
    n = 5
    M = StarAlgebra(_rand(rng, n, n, n), _rand(rng, n), _rand(rng, n, n))
    table, tensor = _rand(rng, n, n), _rand(rng, n, n)
    a1 = np.einsum("pq,qmr,tr,pts->ms", tensor, M.mult, table, M.mult)
    a2 = np.einsum("pq,mpr,tr,tqs->ms", tensor, M.mult, table, M.mult)
    ref = max(np.abs(a1 - np.eye(n)).max(), np.abs(a2 - np.eye(n)).max())
    assert cr._quasi_basis_residual(M, table, tensor) == pytest.approx(ref, rel=1e-12)


def test_regular_rep_blocks(rng, pauli_crossed):
    MA, X = pauli_crossed
    reg = cr.regular_homomorphism(X)
    M, A = MA.target, MA.hopf.alg
    dm, da = M.dim, A.dim
    _close(reg.ell, np.stack([np.einsum("i,ijk->kj", e, A.mult) for e in np.eye(da)]))
    xs, ys = _rand(rng, 3, dm, da, da), _rand(rng, 2, dm, da, da)
    _close(reg.block_product(xs[0], ys[0]),
           np.einsum("pab,qbc,pqr->rac", xs[0], ys[0], M.mult))
    _close(reg._block_products(xs, ys),
           np.einsum("spab,tqbc,pqr->stacr", xs, ys, M.mult))
    hhat = MA.hopf.haar().hhat.coords
    _close(reg.gram_a, np.einsum("ip,pjk,k->ij", A.star, A.mult, hhat))
    reps = X.lift.reshape(dm, da, X.dim)
    _close(reg.images, np.einsum("piC,pqs,sab,ibc->Cqac", reps, MA.coaction(),
                                 reg.tau_l, reg.ell, optimize=True))
    adjs = reg.gram_a_inv @ np.conj(xs).swapaxes(-1, -2) @ reg.gram_a
    _close(reg.block_star(xs), np.einsum("rq,srab->sqab", M.star, adjs))
    _close(reg.block_star(xs[1]), np.einsum("rq,rab->qab", M.star, adjs[1]))


def test_regular_rep_residuals(rng, pauli_crossed):
    MA, X = pauli_crossed
    W = MA.hopf
    Wd, A = W.dual(), W.alg
    reg = cr.regular_homomorphism(X)

    tau_r = reg.tau_r
    reg.tau_r = tau_r + 1e-3 * _rand(rng, *tau_r.shape)
    lhs = np.einsum("sAC,Cqac->sAqac", X.as_module.act, reg.images)
    rhs = np.einsum("suv,uab,Aqbc,wv,wcd->sAqad", Wd.cop, reg.tau_r, reg.images,
                    Wd.antipode, reg.tau_r, optimize=True)
    worst = np.abs(lhs - rhs).max()
    assert reg.intertwining_residual() == pytest.approx(worst, rel=1e-10)

    reg.tau_r = tau_r
    reg.ell = reg.ell + 1e-3 * _rand(rng, *reg.ell.shape)
    ref = np.einsum("iab,sbc->isac", reg.ell, reg.tau_l) \
        - np.einsum("ujs,ijk,uab,kbc->isac", A.mult, W.cop, reg.tau_l, reg.ell,
                    optimize=True)
    with pytest.raises(AxiomViolation, match="exchange") as info:
        reg._check_translations(W, Wd)
    assert info.value.residual == pytest.approx(np.abs(ref).max(), rel=1e-12)


# ---------------------------------------------------------------------------
# towers


@pytest.mark.parametrize("dominant", [0, 1])
def test_jones_relation_residual(rng, dominant):
    # e x e against E(x) e (term 0) and against e E(x) (term 1); the
    # perturbation is drawn until the named term carries the maximum
    _, MA = ex.m2_inner_z2_action()
    T = tw.build_tower(MA, 2)
    lv = T.levels[3]
    XA, e0, incl = lv.algebra, lv.jones, lv.include
    ex_ = incl @ T.levels[2].expectation                       # E(x), columns
    for _ in range(100):
        e = e0 + 1e-3 * _rand(rng, XA.dim)
        exe = np.einsum("a,xp,axc,b,cbd->dp", e, incl, XA.mult, e, XA.mult)
        terms = [np.abs(exe - np.einsum("xp,b,xbd->dp", ex_, e, XA.mult)).max(),
                 np.abs(exe - np.einsum("a,xp,axd->dp", e, ex_, XA.mult)).max()]
        if terms[dominant] > 1.05 * terms[1 - dominant]:
            break
    else:
        pytest.fail("no perturbation separates the two terms")
    lv.jones = e
    with pytest.raises(AxiomViolation, match="Jones") as info:
        tw._verify_jones_relations(T)
    assert info.value.residual == pytest.approx(max(terms), rel=1e-10)
