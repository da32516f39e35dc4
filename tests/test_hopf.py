import tracemalloc

import numpy as np
import pytest

import weakhopf._linalg as la
from weakhopf import _checks, _contract
from weakhopf import examples as ex
from weakhopf import hopf
from weakhopf.algebra import Element, StarAlgebra, Subspace
from weakhopf.config import tolerance
from weakhopf.errors import AxiomViolation, ParentMismatch


def test_axioms_pass_on_group_hopf(cz2, cz3, cs3):
    for W in (cz2, cz3, cs3):
        rep = hopf.verify_weak_hopf(W)
        assert rep.passed()
        assert rep.relaxed_passed() and rep.strong_implied()


def test_axioms_pass_on_semidirect_family(wz2z2, wz2_klein, wz3s3):
    for W in (wz2z2, wz2_klein, wz3s3):
        assert hopf.verify_weak_hopf(W).passed()


def test_axioms_pass_on_twisted_pauli(pauli):
    assert hopf.verify_weak_hopf(pauli[0]).passed()


def test_duals_pass(all_instances):
    for name, W in all_instances.items():
        rep = hopf.verify_weak_hopf(W.dual())
        assert rep.passed(), (name, rep.failures())


def test_broken_counit_fails_iia(cz2):
    W = hopf.WeakHopfAlgebra(cz2.alg, cz2.cop, np.zeros(2), cz2.antipode)
    rep = hopf.verify_weak_hopf(W)
    assert "IIa" in rep.failures()
    assert rep.residuals["IIa"] >= 1.0
    with pytest.raises(AxiomViolation):
        hopf.make_weak_hopf(cz2.alg, cz2.cop, np.zeros(2), cz2.antipode)


def test_non_finite_residuals_fail(cz2):
    counit = cz2.counit.copy()
    counit[0] = np.nan
    rep = hopf.verify_weak_hopf(
        hopf.WeakHopfAlgebra(cz2.alg, cz2.cop, counit, cz2.antipode))
    nan = [k for k, v in rep.residuals.items() if np.isnan(v)]
    assert nan and rep.failures() == nan
    assert not rep.passed()
    assert np.isnan(rep.max_residual())
    names = hopf.AXIOM_NAMES + hopf.DERIVED_NAMES
    for key, check in [("coproduct_one_commutator", "relaxed_passed"),
                       ("IIIc", "strong_implied")]:
        rep = hopf.AxiomReport(dict.fromkeys(names, 0.0), True)
        assert getattr(rep, check)()
        rep.residuals[key] = np.nan
        assert not getattr(rep, check)()
        assert rep.failures() == [key]


def test_verify_memory(wz3s3, monkeypatch):
    # with one-row slices no join fits, so the dense path runs: the suite's
    # n^4 tables are formed one row of their leading index at a time and
    # only the right half of axiom Ia is held whole, so the peak stays
    # within two complex n^4 tables
    monkeypatch.setattr(_checks, "SLICE_BYTES", 1)
    monkeypatch.setattr(_checks, "DENSE_SLICE_BYTES", 1)
    n = wz3s3.dim
    tracemalloc.start()
    try:
        hopf.verify_weak_hopf(wz3s3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * n ** 4


# name -> (group, normal subgroup) of C[H] x_Ad G, or the twisted Pauli instance
BUILTIN = {"z2": ("z2", None), "z3": ("z3", None), "z4": ("z4", None),
           "z2xz2": ("z2xz2", None), "s3": ("s3", None), "z2/0,1": ("z2", [0, 1]),
           "z2xz2/0,1": ("z2xz2", [0, 1]), "s3/0,1,2": ("s3", [0, 1, 2]),
           "s3/all": ("s3", list(range(6))), "pauli": None}


def _builtin(name):
    if BUILTIN[name] is None:
        return ex.m2_pauli_action()[0]
    group, sub = BUILTIN[name]
    return ex.group_weak_hopf(ex.named_group(group), sub)


def _rebased(W, P):
    """W on the basis f_a = sum_i P[i, a] e_i, for any invertible P."""
    Q, A = np.linalg.inv(P), W.alg
    mult = np.einsum("ia,jb,ijk,ck->abc", P, P, A.mult, Q, optimize=True)
    star = np.einsum("ia,ik,ck->ac", P.conj(), A.star, Q, optimize=True)
    cop = np.einsum("ia,iuv,bu,cv->abc", P, W.cop, Q, Q, optimize=True)
    return hopf.WeakHopfAlgebra(StarAlgebra(mult, Q @ A.unit, star), cop,
                                P.T @ W.counit, Q @ W.antipode @ P)


def _monomial_unitary(rng, n):
    """A permutation times phases: it keeps every exact zero of the tables."""
    P = np.zeros((n, n), dtype=complex)
    P[rng.permutation(n), np.arange(n)] = np.exp(2j * np.pi * rng.random(n))
    return P


def _haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def ws3():
    """C[S3] x_Ad S3, dim 36: mult and cop have at most n^2 nonzeros."""
    return ex.group_weak_hopf(ex.symmetric_group_3(), list(range(6)))


def test_ia_and_ic_take_nonzero_lists(ws3, joins, dense_steps):
    # Ia joins P, Q, their product and the left side; Ic joins t1 and t2;
    # each of the two projection identities joins t1 with an antipode table
    # and Delta(1) with mult.  No step runs dense and no n^4 table is
    # formed: the peak stays below one.
    n = ws3.dim
    for V in (ws3, ws3.dual()):
        del joins[:]
        rep, peak = _peak(lambda: hopf.verify_weak_hopf(V))
        assert rep.passed() and len(joins) == 10 and not dense_steps
        assert peak < 16 * n ** 4
    # the same algebra in a Haar-random basis runs the dense path, where
    # each slice of t1 is formed once for Ic and both projection identities
    rng = np.random.default_rng(5)
    U = _rebased(ws3, _haar_unitary(rng, n))
    del joins[:]
    assert hopf.verify_weak_hopf(U).passed()
    assert not joins and dense_steps.count(hopf.T1[0]) == len(_checks.row_slices(n, n ** 3))


def test_joins_beyond_one_slice_take_the_dense_path(wz3s3, monkeypatch, joins, dense_steps):
    # the term count of a join is known before it runs: with a slice of
    # 100 entries no join of S3/A3 fits, and the dense path gives the same
    # residuals; at one row per slice, t1 is formed once per row
    listed = hopf.verify_weak_hopf(wz3s3)
    del joins[:]
    monkeypatch.setattr(_checks, "SLICE_BYTES", 16 * 100)
    monkeypatch.setattr(_checks, "DENSE_SLICE_BYTES", 16 * 100)
    dense = hopf.verify_weak_hopf(wz3s3)
    assert not joins and dense.passed()
    assert dense_steps.count(hopf.T1[0]) == wz3s3.dim
    for key, value in dense.residuals.items():
        assert abs(listed.residuals[key] - value) <= 1e-15, key


def test_ic_subtracts_into_t1_after_the_projection_identities(rng, force_dense):
    # on the dense path Ic reads t1 after both projection identities and
    # subtracts its right side from it: a slice holds at most t1 and that
    # side (32 n^4 bytes), and never |gap| beside both (40 n^4 bytes)
    force_dense()
    n = 12
    cop, mult = (rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
                 for _ in range(2))
    tables = {"cop": cop, "mult": mult, "D1": cop[0], "xS(y)": mult, "S^-1(y)x": mult}
    _, peak = _peak(lambda: _contract.evaluate(tables, hopf.IC, hopf.PROJECTION_R,
                                               hopf.PROJECTION_L_INV))
    assert peak < 36 * n ** 4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("table", ["mult", "cop"])
def test_non_finite_tables_take_the_dense_path(wz3s3, joins, bad, table):
    mult, cop = wz3s3.alg.mult.copy(), wz3s3.cop.copy()
    {"mult": mult, "cop": cop}[table][1, 2, 3] = bad
    W = hopf.WeakHopfAlgebra(StarAlgebra(mult, wz3s3.alg.unit, wz3s3.alg.star),
                             cop, wz3s3.counit, wz3s3.antipode)
    with np.errstate(invalid="ignore", over="ignore"):
        rep = hopf.verify_weak_hopf(W)
    # Ia reads both tables, Ic only cop, so a non-finite mult leaves Ic on
    # its two joins; 0 * NaN and 0 * inf are NaN
    assert len(joins) == (2 if table == "mult" else 0)
    for key in ("Ia", "Ic") if table == "cop" else ("Ia",):
        assert np.isnan(rep.residuals[key]) and key in rep.failures()
    if table == "mult":
        assert "Ic" not in rep.failures()


def test_perturbed_coproduct_fails_ia_as_on_the_dense_path(ws3, joins, force_dense):
    cop = ws3.cop.copy()
    cop[tuple(np.argwhere(cop != 0)[100])] *= 1.001
    W = hopf.WeakHopfAlgebra(ws3.alg, cop, ws3.counit, ws3.antipode)
    rep = hopf.verify_weak_hopf(W)
    assert len(joins) == 10 and "Ia" in rep.failures() and rep.residuals["Ia"] > 1e-4
    force_dense()
    dense = hopf.verify_weak_hopf(W)
    assert rep.failures() == dense.failures()
    for key, value in dense.residuals.items():
        assert abs(rep.residuals[key] - value) <= 1e-15, key


def _verdict(rep):
    return rep.passed(), rep.failures(), rep.antipode_invertible


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("name", list(BUILTIN))
def test_verdict_does_not_depend_on_a_unitary_basis(name, dual, force_dense):
    # a unitary change of basis is a *-isomorphism of weak Hopf algebras:
    # the verdict stays, and on the monomial basis, where the suite runs
    # over nonzero lists, every residual equals the dense path's
    W = _builtin(name)
    W = W.dual() if dual else W
    n = W.dim
    rng = np.random.default_rng([n, dual, len(name)])
    want = _verdict(hopf.verify_weak_hopf(W))
    assert want[0]
    mono = _rebased(W, _monomial_unitary(rng, n))
    haar = _rebased(W, _haar_unitary(rng, n))
    assert all(_contract.listed(t) is not None for t in (mono.alg.mult, mono.cop))
    assert any(_contract.listed(t) is None for t in (haar.alg.mult, haar.cop))
    listed = hopf.verify_weak_hopf(mono)
    assert _verdict(listed) == want
    force_dense()
    dense = hopf.verify_weak_hopf(mono)
    assert _verdict(dense) == want and _verdict(hopf.verify_weak_hopf(haar)) == want
    for key, value in dense.residuals.items():
        assert abs(listed.residuals[key] - value) <= 1e-15, key


@pytest.mark.xfail(strict=True, reason="verdicts depend on a conditioned basis "
                                       "and on the scale of the tables")
@pytest.mark.parametrize("P", [np.diag(np.logspace(-2, 2, 18)), 1e4 * np.eye(18)],
                         ids=["diag-logspace-2-2", "scale-1e4"])
def test_verdict_does_not_depend_on_basis_or_scale(wz3s3, P):
    # S3/A3 on these bases fails Ia (1.1e-8), and counital_sandwich and
    # counit_positive (3.1e-7), though it is the same weak Hopf algebra
    assert _verdict(hopf.verify_weak_hopf(_rebased(wz3s3, P))) == (True, [], True)


def test_double_dual_is_bit_exact(wz2z2, pauli):
    for W in (wz2z2, pauli[0]):
        Wdd = W.dual().dual()
        assert Wdd is W


def test_dual_product_matches_convolution_formula(wz2z2):
    # dual product on functions: (phi * psi)(h,g) = |H|^{-1} sum_t
    # phi(h t^{-1}, t g) psi(t, g)
    W = wz2z2
    G, H = W.group_data["G"], W.group_data["H"]
    idx = W.group_data["index"]
    hpos = {h: i for i, h in enumerate(H)}
    D = W.dual_alg
    rng = np.random.default_rng(5)
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    prod = D.product_coords(phi, psi)
    for (hi, g), k in idx.items():
        h = H[hi]
        expect = sum(phi[idx[(hpos[G.mul(h, G.inv(t))], G.mul(t, g))]]
                     * psi[idx[(hpos[t], g)]] for t in H) / len(H)
        assert abs(prod[k] - expect) < 1e-12


def test_arrow_examples_group_algebra(cz3):
    # g -> delta_k = delta_{k g^{-1}}
    W = cz3
    G = W.group_data["G"]
    for gi in range(3):
        g = W.alg.basis_element(W.group_data["index"][(0, gi)])
        for ki in range(3):
            delta = W.functional(np.eye(3)[ki])
            moved = W.arrow_left(g, delta)
            target = np.eye(3)[G.mul(ki, G.inv(gi))]
            assert np.abs(moved.coords - target).max() < 1e-12


def test_arrow_semidirect_formula(wz2z2, rng):
    # phi -> (h,g) = |H|^{-1} sum_t phi(t, g) (h t^{-1}, t g)
    W = wz2z2
    G, H = W.group_data["G"], W.group_data["H"]
    idx = W.group_data["index"]
    hpos = {h: i for i, h in enumerate(H)}
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for (hi, g), k in idx.items():
        h = H[hi]
        expect = np.zeros(4, dtype=complex)
        for t in H:
            expect[idx[(hpos[G.mul(h, G.inv(t))], G.mul(t, g))]] += \
                phi[idx[(hpos[t], g)]] / len(H)
        got = np.einsum("kis,k,s->i", W.cop, np.eye(4)[k], phi)
        assert np.abs(got - expect).max() < 1e-12


def test_unit_arrow_is_identity(wz2z2, rng):
    W = wz2z2
    phi = W.functional(rng.standard_normal(4))
    assert W.arrow_left(W.alg.one, phi).close_to(phi)


def test_arrow_parent_checks(cz2, cz3):
    with pytest.raises(ParentMismatch):
        cz2.arrow_left(cz3.alg.one, cz2.functional(np.ones(2)))


def test_counital_examples(cz2, wz2z2):
    # ordinary Hopf: eps_R(a) = eps(a) 1^
    W = cz2
    for i in range(2):
        out = W.counital("R") @ np.eye(2)[i]
        assert np.abs(out - W.eps_coords(np.eye(2)[i]) * W.dual_alg.unit).max() < 1e-12
    # semidirect family: a(1) S(a(2)) = (h, 1)
    W = wz2z2
    idx = W.group_data["index"]
    p24 = W.counital("hL") @ W.counital("R")
    for (hi, g), k in idx.items():
        assert np.abs(p24[:, k] - np.eye(4)[idx[(hi, 0)]]).max() < 1e-12
    # and S(a(1)) a(2) = (g^-1 h g, g^-1 h^-1 g)
    G, H = W.group_data["G"], W.group_data["H"]
    hpos = {h: i for i, h in enumerate(H)}
    p23 = W.counital("hR") @ W.counital("L")
    for (hi, g), k in idx.items():
        h = H[hi]
        gi = G.inv(g)
        tgt = idx[(hpos[G.conj(gi, h)], G.conj(gi, G.inv(h)))]
        assert np.abs(p23[:, k] - np.eye(4)[tgt]).max() < 1e-12


def test_counital_sandwich_random(all_instances):
    for W in all_instances.values():
        EL, ER = W.counital("L"), W.counital("R")
        hEL, hER = W.counital("hL"), W.counital("hR")
        for a in (EL, ER):
            for b in (hEL, hER):
                assert np.abs(a @ b @ a - a).max() < 1e-9


def test_boundary_dims_and_checks(group_instances):
    for name, W in group_instances.items():
        AL = hopf.boundary_subalgebra(W, "L")
        AR = hopf.boundary_subalgebra(W, "R")
        nH = len(W.group_data["H"])
        assert AL.dim == AR.dim == nH, name
        Wd = W.dual()
        assert Wd.boundary("L").dim == Wd.boundary("R").dim == nH


@pytest.mark.parametrize("side", ["L", "R"])
def test_a_boundary_that_is_not_a_subalgebra_is_refused(wz2z2, side, monkeypatch):
    # the cached boundary replaced for this test by a span without the unit
    W = wz2z2
    off = Subspace(W.alg, np.eye(W.dim)[-1])
    assert not off.contains_coords(W.alg.unit.reshape(-1, 1))
    monkeypatch.setitem(W._cache, ("boundary", side, tolerance()), off)
    with pytest.raises(AxiomViolation, match="not a unital") as exc:
        hopf.boundary_subalgebra(W, side)
    assert exc.value.where == side


def test_boundary_explicit_spans(wz2z2):
    W = wz2z2
    idx = W.group_data["index"]
    G, H = W.group_data["G"], W.group_data["H"]
    hpos = {h: i for i, h in enumerate(H)}
    left = np.array([np.eye(4)[idx[(hpos[h], G.identity)]] for h in H]).T
    right = np.array([np.eye(4)[idx[(hpos[h], G.inv(h))]] for h in H]).T
    assert la.span_equal(W.boundary("L").basis, left)
    assert la.span_equal(W.boundary("R").basis, right)


def test_dual_boundaries_are_marginal_functions(wz2z2):
    # A^_L: functions of h alone; A^_R: functions of g^{-1} h g
    W = wz2z2
    Wd = W.dual()
    idx = W.group_data["index"]
    G, H = W.group_data["G"], W.group_data["H"]
    fn_h = []
    for h0 in H:
        v = np.zeros(4)
        for (hi, g), k in idx.items():
            if H[hi] == h0:
                v[k] = 1.0
        fn_h.append(v)
    assert la.span_equal(Wd.boundary("L").basis, np.array(fn_h).T)
    fn_conj = []
    for h0 in H:
        v = np.zeros(4)
        for (hi, g), k in idx.items():
            if G.conj(G.inv(g), H[hi]) == h0:
                v[k] = 1.0
        fn_conj.append(v)
    assert la.span_equal(Wd.boundary("R").basis, np.array(fn_conj).T)


def test_mu_iso(all_instances):
    for name, W in all_instances.items():
        for side in ("L", "R"):
            fwd, bwd = hopf.mu_iso(W, side)
            dom = W.boundary("R" if side == "L" else "L")
            assert np.abs(bwd @ (fwd @ dom.basis) - dom.basis).max() < 1e-9, name


def test_purity(cz2, wz2z2, pauli):
    assert hopf.is_pure(cz2)
    assert not hopf.is_pure(wz2z2)          # |H| > 1
    assert hopf.is_pure(wz2z2.dual())
    assert hopf.is_pure(pauli[0])           # twisted group algebra is a factor


def test_hypercenter(cz2, wz2z2, pauli):
    assert hopf.hypercenter(cz2).dim == 1
    Z = hopf.hypercenter(wz2z2)
    Zd = hopf.hypercenter(wz2z2.dual())
    assert Z.dim == Zd.dim == 1
    assert hopf.hypercenter(pauli[0]).dim == 1


def test_pure_instances_have_trivial_hypercenter(all_instances):
    for W in all_instances.values():
        if hopf.is_pure(W):
            assert hopf.hypercenter(W).dim == 1


def test_counit_positive(all_instances):
    for W in all_instances.values():
        rep = hopf.verify_weak_hopf(W)
        assert rep.residuals["counit_positive"] < 1e-9


def test_boundary_pair_identities(all_instances):
    # a b(1) S(b(2)) = eps(a(1) b) a(2) and its three mirror forms
    for name, W in all_instances.items():
        A, cop, smat = W.alg, W.cop, W.antipode
        mult, eps = A.mult, W.counit
        sinv = W.antipode_inv()
        E2 = np.einsum("ijr,r->ij", mult, eps)
        p_ls = np.einsum("iuv,pv,upq->qi", cop, smat, mult, optimize=True)
        p_sl = np.einsum("iuv,pu,pvq->qi", cop, smat, mult, optimize=True)
        q_l = np.einsum("iuv,pu,vpq->qi", cop, sinv, mult, optimize=True)
        q_r = np.einsum("iuv,pv,puq->qi", cop, sinv, mult, optimize=True)
        lhs1 = np.einsum("pj,ipq->ijq", p_ls, mult, optimize=True)
        rhs1 = np.einsum("iuq,uj->ijq", cop, E2, optimize=True)
        assert np.abs(lhs1 - rhs1).max() < 1e-9, name
        lhs2 = np.einsum("pi,pjq->ijq", p_sl, mult, optimize=True)
        rhs2 = np.einsum("jqv,iv->ijq", cop, E2, optimize=True)
        assert np.abs(lhs2 - rhs2).max() < 1e-9, name
        lhs3 = np.einsum("pj,ipq->ijq", q_l, mult, optimize=True)
        rhs3 = np.einsum("iqv,vj->ijq", cop, E2, optimize=True)
        assert np.abs(lhs3 - rhs3).max() < 1e-9, name
        lhs4 = np.einsum("pi,pjq->ijq", q_r, mult, optimize=True)
        rhs4 = np.einsum("juq,iu->ijq", cop, E2, optimize=True)
        assert np.abs(lhs4 - rhs4).max() < 1e-9, name


def test_star_conjugations(wz2z2, pauli):
    for W in (wz2z2, pauli[0]):
        lower, bar = hopf.star_conjugations(W)
        hd = W.haar()
        one = W.alg.one
        assert bar(one).close_to(one)
        assert bar(hd.g).close_to(
            Element(W.alg, np.linalg.solve(W.alg.left_mult_matrix(hd.g.coords),
                                           W.alg.unit)))
        AL, AR = W.boundary("L"), W.boundary("R")
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = Element(W.alg, rng.standard_normal(W.dim)
                        + 1j * rng.standard_normal(W.dim))
            assert bar(bar(x)).close_to(x)
            assert lower(lower(x)).close_to(x)
        for j in range(AL.dim):
            v = Element(W.alg, AL.basis[:, j])
            assert AR.contains_element(bar(v))
        # the semidirect lower involution on basis elements
        if W is wz2z2:
            idx = W.group_data["index"]
            G, H = W.group_data["G"], W.group_data["H"]
            hpos = {h: i for i, h in enumerate(H)}
            for (hi, g), k in idx.items():
                got = lower(Element(W.alg, np.eye(4)[k]))
                s = W.s_coords(np.eye(4)[k])
                expect = W.alg.star_coords(np.conj(s))
                assert np.abs(got.coords - expect).max() < 1e-12
