import json

import numpy as np

import weakhopf._linalg as la
from weakhopf import crossed as cr
from weakhopf import examples as ex
from weakhopf import integrals as itg
from weakhopf import modules as mo
from weakhopf import serialize as ser
from weakhopf import tower as tw
from weakhopf.algebra import Subspace
from weakhopf.cli import main


def test_dims_and_identification_with_group_crossed_product(m2_action, selection):
    """M_2 x (C[Z2] x_Ad Z2) is the ordinary crossed product M_2 x_alpha Z2
    through m x (h,g) -> m u(h) x_alpha g."""
    W, MA = m2_action
    X = cr.crossed_product(MA)
    assert X.dim == 8 and X.relation_rank == 8

    # ordinary group crossed product via the C[G] Hopf algebra
    G = ex.cyclic_group(2)
    WG = ex.group_weak_hopf(G)
    M, toc, _ = ex.matrix_algebra(2)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    alpha = ex.adjoint_action_table(M, toc, {0: np.eye(2, dtype=complex), 1: sz})
    MAG = ex.partly_inner_action(WG, M, alpha, [toc(np.eye(2))])
    XG = cr.crossed_product(MAG)
    assert XG.dim == 8

    # the identification on pre-tensors: m (x) (h,g) -> m u(h) (x) g, applied
    # to the picked representatives of the basis classes of X
    u = {0: M.unit, 1: toc(sz)}
    idx = W.group_data["index"]
    reps = selection(X)
    phi = np.zeros((8, 8), dtype=complex)
    for p in range(4):
        for (hi, g), k in idx.items():
            mu_h = M.product_coords(np.eye(4)[p], u[hi])
            dst = XG.project(np.outer(mu_h, np.eye(2)[g]))
            phi += np.outer(dst, reps[p, k])
    # phi is a well-defined algebra isomorphism
    assert np.linalg.matrix_rank(phi) == 8
    XA, XGA = X.algebra, XG.algebra
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        lhs = phi @ XA.product_coords(x, y)
        rhs = XGA.product_coords(phi @ x, phi @ y)
        assert np.abs(lhs - rhs).max() < 1e-9
    assert np.abs(phi @ XA.unit - XGA.unit).max() < 1e-9


def test_heisenberg_double_is_full_matrix_algebra(cz2):
    X = cr.crossed_product(ex.canonical_dual_module(cz2))
    assert X.dim == 4
    assert X.algebra.center().dim == 1


def test_trivial_hopf_crossed_product():
    W = ex.trivial_weak_hopf()
    M, _, _ = ex.matrix_algebra(2)
    act = np.eye(M.dim, dtype=complex)[np.newaxis, :, :]
    MA = mo.make_module_algebra(W, M, act)
    X = cr.crossed_product(MA)
    assert X.dim == M.dim
    for p in range(M.dim):
        for q in range(M.dim):
            lhs = X.algebra.product_coords(X.embed_m[:, p], X.embed_m[:, q])
            assert np.abs(lhs - X.embed_m @ M.mult[p, q]).max() < 1e-12


def test_quotient_well_defined(m2_action, rng, selection):
    """Products of representatives are independent of the representative."""
    W, MA = m2_action
    X = cr.crossed_product(MA)
    dm, da = MA.target.dim, W.dim
    rel_basis = la.null_space(X.proj)           # the relations: what proj kills
    assert rel_basis.shape[1] == X.relation_rank
    cop, act = W.cop, MA.act
    multm, multa = MA.target.mult, W.alg.mult
    lift = selection(X).reshape(dm * da, X.dim)

    def pre_product(xv, yv):
        xm = xv.reshape(dm, da)
        ym = yv.reshape(dm, da)
        return np.einsum("pi,qj,iuv,uqr,prs,vjk->sk", xm, ym, cop, act,
                         multm, multa, optimize=True).reshape(-1)

    for _ in range(5):
        x = lift @ (rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim))
        y = lift @ (rng.standard_normal(X.dim) + 1j * rng.standard_normal(X.dim))
        r = rel_basis @ rng.standard_normal(rel_basis.shape[1])
        base = X.proj @ pre_product(x, y)
        assert np.abs(X.proj @ pre_product(x + r, y) - base).max() < 1e-9
        assert np.abs(X.proj @ pre_product(x, y + r) - base).max() < 1e-9
        # star also descends
        sx = X.algebra.star_coords(X.proj @ x)
        sxr = X.algebra.star_coords(X.proj @ (x + r))
        assert np.abs(sx - sxr).max() < 1e-9


def test_center_intersections(m2_action):
    # M & C(M x A) = N & C(M) = N & C(M x A)
    _, MA = m2_action
    X = cr.crossed_product(MA)
    XA = X.algebra
    N = MA.fixed_points()
    M = MA.target
    cx = XA.center()
    m_img = la.orth(X.embed_m)
    m_cap = la.intersect(m_img, cx.basis)
    ncm = la.intersect(N.basis, M.center().basis)
    ncm_img = la.orth(X.embed_m @ ncm)
    n_cap = la.intersect(la.orth(X.embed_m @ N.basis), cx.basis)
    assert la.span_equal(m_cap, ncm_img)
    assert la.span_equal(m_cap, n_cap)


def test_dual_action_properties(m2_action, rng):
    W, MA = m2_action
    X = cr.crossed_product(MA)
    mod = cr.dual_action(X)
    # the dual unit acts as the identity
    one_hat = W.dual_alg.unit
    x = rng.standard_normal(X.dim)
    assert np.abs(mod.apply_coords(one_hat, x) - x).max() < 1e-12
    # boundary dimensions transfer
    assert mod.image_data().m_r.dim == W.dual().boundary("L").dim


def test_hat_expectation_group_formula(m2_action):
    # E(m x_alpha g) = m delta(g) for the dual Haar functional
    W, MA = m2_action
    M = MA.target
    X = cr.crossed_product(MA)
    hd = W.haar()
    E = cr.hat_expectation(X, hd.hhat)
    _, toc, _ = ex.matrix_algebra(2)
    sz = toc(np.array([[1, 0], [0, -1]]))
    u = {0: M.unit, 1: sz}
    idx = W.group_data["index"]
    rng = np.random.default_rng(1)
    m = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for (hi, g), k in idx.items():
        # m x (h, g) corresponds to m u(h) x_alpha g
        vec = X.project(np.outer(m, np.eye(4)[k]))
        out = E.apply_coords(vec)
        mu_h = M.product_coords(m, u[hi])
        expect = X.embed_m @ mu_h if g == 0 else np.zeros(X.dim)
        assert np.abs(out - expect).max() < 1e-9


def test_hat_expectation_m2_index(m2_action):
    W, MA = m2_action
    X = cr.crossed_product(MA)
    hd = W.haar()
    lam = itg.dual_integral(itg.LeftIntegral(W, hd.h))
    E = cr.hat_expectation(X, lam)
    ind_ref = X.embed_a @ itg.LeftIntegral(W, hd.h).n_r.coords
    # Ind E = 1 x n_R(l) with l dual to lam, here l = h normalized
    assert np.abs(E.index.coords - ind_ref).max() < 1e-9


def test_exchange_identities_in_dual_crossed_product(wz2z2, rng):
    """lam(2) (a -> S^{-1} lam(1)) = <a(1)|S^{-1} lam> a(2) S(a(3)) and
    lam(2) l S^{-1}(lam(1)) = 1, inside A^ x A."""
    W = wz2z2
    Wd = W.dual()
    MA = ex.canonical_dual_module(W)
    X = cr.crossed_product(MA)
    XA = X.algebra
    for _ in range(3):
        l = itg.random_left_integral(W, rng)
        lam = itg.dual_integral(l)
        dlam = Wd.delta_coords(lam.element.coords)
        shat_inv = np.linalg.inv(Wd.antipode)

        total = np.zeros(X.dim, dtype=complex)
        for u in range(W.dim):
            for v in range(W.dim):
                if abs(dlam[u, v]) < 1e-15:
                    continue
                term = XA.product_coords(
                    XA.product_coords(X.embed_m @ np.eye(W.dim)[v],
                                      X.embed_a @ l.element.coords),
                    X.embed_m @ shat_inv[:, u])
                total += dlam[u, v] * term
        assert np.abs(total - XA.unit).max() < 1e-8

        slam = shat_inv @ lam.element.coords
        p24 = W.counital("hL") @ W.counital("R")
        for i in range(W.dim):
            a = np.eye(W.dim)[i]
            lhs = np.zeros(X.dim, dtype=complex)
            for u in range(W.dim):
                for v in range(W.dim):
                    if abs(dlam[u, v]) < 1e-15:
                        continue
                    arrow = W.alg.right_mult_matrix(a).T @ shat_inv[:, u]
                    lhs += dlam[u, v] * XA.product_coords(
                        X.embed_m @ np.eye(W.dim)[v], X.embed_m @ arrow)
            # <a(1) | S^{-1} lam> a(2) S(a(3)) through the counital projection,
            # embedded on the A side of the quotient
            da = W.delta_coords(a)
            rhs = np.zeros(X.dim, dtype=complex)
            for x in range(W.dim):
                for y in range(W.dim):
                    if abs(da[x, y]) < 1e-15:
                        continue
                    rhs += da[x, y] * slam[x] * (X.embed_a @ (p24 @ np.eye(W.dim)[y]))
            assert np.abs(lhs - rhs).max() < 1e-8


def test_regular_homomorphism(m2_action, wz2z2):
    for MA in (m2_action[1], ex.canonical_dual_module(wz2z2)):
        X = cr.crossed_product(MA)
        reg = cr.regular_homomorphism(X)
        assert reg.intertwining_residual() < 1e-9
        # image dimension equals the crossed-product dimension
        assert la.rank(reg.images.reshape(X.dim, -1).T) == X.dim


def test_gns_cross_report(m2_action):
    _, MA = m2_action
    M = MA.target
    tr = M.trace_vector()
    gns = mo.invariant_state(MA, tr / (tr @ M.unit))
    X = cr.crossed_product(MA)
    gc = cr.gns_cross(X, gns)
    rep = gc.report()
    assert rep["cyclic_rank_gap"] == 0
    assert rep["separating"] == 0.0
    for key in ("state_through_expectation", "norm_ratio", "norm_match",
                "compressed_representation", "compression_formula",
                "range_projection_formula"):
        assert rep[key] < 1e-8, key


def test_gns_cross_group_state(m2_action):
    # omega_cros(m x_alpha g) = omega(m) delta(g)
    W, MA = m2_action
    M = MA.target
    tr = M.trace_vector() / 2.0
    gns = mo.invariant_state(MA, tr)
    X = cr.crossed_product(MA)
    gc = cr.gns_cross(X, gns)
    _, toc, _ = ex.matrix_algebra(2)
    sz = toc(np.array([[1, 0], [0, -1]]))
    u = {0: M.unit, 1: sz}
    idx = W.group_data["index"]
    rng = np.random.default_rng(2)
    m = rng.standard_normal(4)
    for (hi, g), k in idx.items():
        vec = X.project(np.outer(m, np.eye(4)[k]))
        val = gc.state_cros(vec)
        mu_h = M.product_coords(m, u[hi])
        expect = complex(tr @ mu_h) if g == 0 else 0.0
        assert abs(val - expect) < 1e-9


def test_tlj_elements(m2_action, cz2, wz2z2, rng):
    cases = [m2_action[1],
             ex.canonical_dual_module(cz2),
             ex.canonical_dual_module(wz2z2)]
    for MA in cases:
        W = MA.hopf
        X = cr.crossed_product(MA)
        hd = W.haar()
        _, _, rep = cr.tlj_elements(X, itg.LeftIntegral(W, hd.h))
        assert max(rep.values()) < 1e-8
    # a random positive normalized nondegenerate integral on the M2 case
    W, MA = m2_action
    X = cr.crossed_product(MA)
    l = itg.random_positive_integral(W, rng)
    _, _, rep = cr.tlj_elements(X, l)
    assert max(rep.values()) < 1e-8


def test_tlj_scalar_weights_for_group_algebra(cz2):
    # for C[G] and l = h: e is already idempotent, e^ squares to |G| e^
    W = cz2
    MA = ex.canonical_dual_module(W)
    X = cr.crossed_product(MA)
    hd = W.haar()
    e, ehat, _ = cr.tlj_elements(X, itg.LeftIntegral(W, hd.h))
    XA2 = e.parent
    assert (e * e - e).norm() < 1e-9
    assert (ehat * ehat - 2.0 * ehat).norm() < 1e-9


def test_commutant_suite_explicit_spans(m2_action):
    W, MA = m2_action
    M = MA.target
    X = cr.crossed_product(MA)
    rep = cr.commutant_suite(X)
    assert rep["dim_m_commutant"] == 2
    assert rep["dim_n_commutant_in_m"] == 2
    assert rep["dim_n_commutant"] == 4
    assert rep["dim_center"] == 2
    assert rep["regular"] and rep["galois"] and rep["standard"] and rep["outer"]

    # explicit: M' & X = span{u(h) h^{-1}}; in the quotient coordinates these
    # are exactly the embedded right-boundary elements (h, h^{-1}), which the
    # identification with the group crossed product reads as u(h) x h^{-1}
    idx = W.group_data["index"]
    XA = X.algebra
    cols = []
    for hi, h in enumerate(W.group_data["H"]):
        ghi = W.group_data["G"].inv(h)
        cols.append(X.embed_a @ np.eye(4)[idx[(hi, ghi)]])
    span = np.array(cols).T
    from weakhopf.algebra import commutant as alg_commutant
    m_comm = alg_commutant(Subspace(XA, X.embed_m), XA)
    assert la.span_equal(m_comm.basis, span)
    # the center is spanned by the characters of H applied to those elements
    center = XA.center()
    chs = np.array([cols[0] + cols[1], cols[0] - cols[1]]).T
    assert la.span_equal(center.basis, chs)


def test_expectation_invariant_ideals(collapsed_action):
    """Ideals invariant under the dual expectation factor as
    (I & M) x A; checked for the zero ideal and for the span generated by
    the complement of the Galois support when it happens to be invariant."""
    _, MA = collapsed_action
    W = MA.hopf
    X = cr.crossed_product(MA)
    XA = X.algebra
    hd = W.haar()
    E = cr.hat_expectation(X, hd.hhat)
    p, is_gal, _ = mo.galois_test(MA)
    assert not is_gal
    q = XA.unit - p.coords
    # two-sided ideal generated by q
    cols = []
    for i in range(XA.dim):
        li = XA.left_mult_matrix(np.eye(XA.dim)[i])
        for j in range(XA.dim):
            rj = XA.right_mult_matrix(np.eye(XA.dim)[j])
            cols.append(rj @ (li @ q))
    ideal = la.orth(np.array(cols).T)
    invariant = la.contains(ideal, la.orth(E.table @ ideal))
    if invariant:
        # I = (I & M) x A as spans
        m_img = la.orth(X.embed_m)
        cap = la.intersect(ideal, m_img)
        prods = []
        for j in range(cap.shape[1]):
            for i in range(W.dim):
                prods.append(XA.product_coords(cap[:, j], X.embed_a[:, i]))
        span = la.orth(np.array(prods).T) if prods else np.zeros((XA.dim, 0))
        assert la.span_equal(ideal, span)
    # the zero ideal factors trivially
    assert la.intersect(np.zeros((XA.dim, 0)), la.orth(X.embed_m)).shape[1] == 0


def test_galois_map_quotient(m2_action):
    """The two tensor-quotient models agree: F and its inverse identify
    M (x)_{A_L} A^ with M x A, and F(gamma(m (x) m')) = m h m'."""
    W, MA = m2_action
    M = MA.target
    A = W.alg
    Wd = W.dual()
    X = cr.crossed_product(MA)
    XA = X.algebra
    dm, da = M.dim, A.dim
    pre = dm * da
    hd = W.haar()
    lam = itg.dual_integral(itg.LeftIntegral(W, hd.h)).element

    # quotient Y = M (x)_{A_L} A^ with a . phi = phi S^{-1}(eps_R(a))
    AL = W.boundary("L")
    mu = MA.image_data().mu
    shat_inv = np.linalg.inv(Wd.antipode)
    rels = []
    for j in range(AL.dim):
        b = AL.basis[:, j]
        xb = shat_inv @ (W.counital("R") @ b)
        rmat = Wd.alg.right_mult_matrix(xb)      # phi -> phi * S^{-1}(eps_R b)
        rb = M.right_mult_matrix(mu @ b)
        for p in range(dm):
            for s in range(da):
                v = np.zeros((dm, da), dtype=complex)
                v[:, s] += rb[:, p]
                v[p, :] -= rmat[:, s]
                rels.append(v.reshape(pre))
    rels = np.array(rels).T
    ylift = la.null_space(rels.conj().T)
    yproj = ylift.conj().T
    assert ylift.shape[1] == X.dim

    # F: Y -> X from id (x) (psi -> h <- psi); inverse from a -> S^{-1}(a -> lam)
    h_l = np.einsum("k,kso->os", hd.h.coords, W.cop)       # h <- f^s
    lam_r = np.array([A.right_mult_matrix(np.eye(da)[j]).T @ lam.coords
                      for j in range(da)]).T
    g_inv = shat_inv @ lam_r
    fmap = np.zeros((X.dim, X.dim), dtype=complex)
    gmap = np.zeros((X.dim, X.dim), dtype=complex)
    for c in range(X.dim):
        v = (ylift[:, c]).reshape(dm, da)
        fmap[:, c] = X.project((v @ h_l.T).reshape(pre))
        w = X.lift_coords(np.eye(X.dim)[c])
        gmap[:, c] = yproj @ (w @ g_inv.T).reshape(pre)
    assert np.abs(fmap @ gmap - np.eye(X.dim)).max() < 1e-8
    assert np.abs(gmap @ fmap - np.eye(X.dim)).max() < 1e-8

    # gamma(m (x) m') = (m (x) 1^) rho(m'), pushed through F, is m h m'
    rho = MA.coaction()
    eh = X.embed_a @ hd.h.coords
    for p in range(dm):
        for q in range(dm):
            pre_t = np.zeros((dm, da), dtype=complex)
            for r in range(dm):
                pre_t += np.outer(M.mult[p, r], rho[q, r])
            y = yproj @ pre_t.reshape(pre)
            lhs = fmap @ y
            rhs = XA.product_coords(
                XA.product_coords(X.embed_m[:, p], eh), X.embed_m[:, q])
            assert np.abs(lhs - rhs).max() < 1e-8


# ---------------------------------------------------------------------------
# the crossed product is a cached derived object of its module algebra


def _count_constructions(monkeypatch):
    built = []
    init = cr.CrossedProduct.__init__

    def spy(self, base, tol=None):
        built.append(base)
        init(self, base, tol=tol)

    monkeypatch.setattr(cr.CrossedProduct, "__init__", spy)
    return built


def test_crossed_command_builds_two_crossed_products(monkeypatch, tmp_path, capsys):
    path = tmp_path / "ma.json"
    path.write_text(json.dumps(ser.module_algebra_record(ex.named_action("m2-z2"))))
    built = _count_constructions(monkeypatch)
    assert main(["crossed", str(path)]) == 0
    capsys.readouterr()
    # M x A, shared by the commutant suite and the Galois test, and
    # (M x A) x A^ for the Temperley-Lieb elements
    assert len(built) == 2 and built[1] is not built[0]


def test_basic_construction_builds_one_crossed_product(monkeypatch):
    MA = ex.named_action("m2-z2")
    built = _count_constructions(monkeypatch)
    tw.basic_construction_check(MA)
    assert built == [MA]


def test_crossed_product_is_cached_per_tolerance():
    MA = ex.named_action("m2-z2")
    X = cr.crossed_product(MA)
    assert cr.crossed_product(MA) is X
    assert cr.crossed_product(MA, tol=1e-9) is X
    assert cr.crossed_product(MA, tol=1e-8) is not X


def test_commutant_suite_derives_outerness_once(monkeypatch):
    MA = ex.named_action("m2-pauli")
    X = cr.crossed_product(MA)
    calls = []
    real = mo.implementer_space

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(mo, "implementer_space", spy)
    rep = cr.commutant_suite(X)
    # is_outer directly, and again inside is_regular
    assert rep["outer"] and rep["regular"]
    assert calls == [MA]
