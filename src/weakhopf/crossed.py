"""Crossed products M x A as explicit quotients of M (x) A, with their
*-algebra structure, embeddings, dual action, expectations back onto M with
canonical quasi-bases, the regular homomorphism into M (x) End(A), the GNS
extension, Temperley-Lieb elements, and relative-commutant reports.
"""

import numpy as np

from . import _linalg as la
from ._checks import outside, require, residual
from ._contract import Table, build, evaluate, gathered, owned, row_maxima
from .algebra import Element, Subspace, commutant, invert, make_star_algebra
from .config import SLACK_COMPOSITE, SLACK_SOLVED, memo, tolerance
from .errors import ActionAxiomViolation, AxiomViolation, ParentMismatch
from .modules import ConditionalExpectation, make_module_algebra

__all__ = [
    "CrossedProduct",
    "crossed_product",
    "dual_action",
    "hat_expectation",
    "RegularRep",
    "regular_homomorphism",
    "GnsCross",
    "gns_cross",
    "tlj_elements",
    "commutant_suite",
]


class CrossedProduct:
    """The quotient of M (x) A by m (x) b a ~ m (b |> 1) (x) a for b in the
    left boundary, carrying the crossed-product *-algebra.

    Its basis is a set of classes of pure tensors f_p (x) e_i, picked by
    column-pivoted QR of C^H for an orthonormal basis C of the complement
    of the relations, and labelled "f_p#e_i" by the labels of M and A:
    class B is that of f_ps[B] (x) e_js[B].  proj, the oblique projection
    (C^H[:, picks])^-1 C^H, takes coordinates on M (x) A to coordinates on
    the classes: proj[:, ps * dim A + js] = I, and proj kills the
    relations.  For group-type and Pauli actions every class of a pure
    tensor is a multiple of one picked class, so proj, and the structure
    constants, are monomial.

    mult and the star table are built by the declared chains PRODUCT and
    STAR (weakhopf._contract.build) over the tables of M, A and the action
    gathered at the picks: on nonzero lists in a monomial basis, where the
    algebra keeps the lists, so that no later check lists them again, and on
    dense slices otherwise (a Haar-random basis, or a join over the gate).
    The relations and the construction arrays live only in _structure, so
    they are freed before the quotient is certified; the orthonormal basis
    of the relation span is handed to _verify, and freed after it.

    The dual action is gathered at the picks: the action of the functional
    f^s on the class B is sum_o proj[C, ps[B], o] cop[js[B], o, s], one
    batched product over B in every basis.  That it descends to the
    quotient, proj (f^s |> r) = 0 for every relation r, is built as the
    chain DESCENT, and the first failing functional is reported, with its
    largest entry."""

    def __init__(self, base, tol=None):
        MA = base
        W, M = MA.hopf, MA.target
        A = W.alg
        self.base = MA
        self.relation_rank, rel_basis, self._proj, (ps, js), tables = _structure(MA, tol=tol)
        self.ps, self.js = ps, js                     # class B is that of f_ps[B] (x) e_js[B]
        blocks = self._proj.dense                     # [:, p, i]: class of f_p (x) e_i
        self.proj = blocks.reshape(len(ps), -1)
        self.algebra = make_star_algebra(*tables, tol=tol)

        self.embed_m = blocks @ A.unit
        self.embed_a = M.unit @ blocks

        # dual action phi |> (m x a) = m x (phi -> a) on the quotient, as
        # [s, B, C]: f^s |> class B = sum_o proj[C, ps[B], o] cop[js[B], o, s]
        dact = np.ascontiguousarray(np.matmul(W.cop[js].transpose(0, 2, 1),
                                              blocks[:, ps].transpose(1, 2, 0)).swapaxes(0, 1))
        self._verify(rel_basis, tol=tol)
        del rel_basis
        self.as_module = make_module_algebra(W.dual(), self.algebra, dact, tol=tol)

    @property
    def dim(self):
        return self.algebra.dim

    def project(self, vec):
        """Coordinates on the quotient basis of the class of a vector of
        M (x) A, through the oblique projection proj."""
        return self.proj @ np.asarray(vec, dtype=complex).reshape(-1)

    def lift_coords(self, x):
        """A representative on M (x) A, laid out [p, i], of the element with
        coordinates x: the combination of the picked pure tensors, x[B] at
        (ps[B], js[B]), so that project(lift_coords(x)) = x.  Stacked over
        the leading axes of x."""
        x = np.asarray(x, dtype=complex)
        out = np.zeros(x.shape[:-1] + (self.base.target.dim, self.base.hopf.dim), dtype=complex)
        out[..., self.ps, self.js] = x
        return out

    def _verify(self, rel_basis, arrows=None, tol=None):
        """Certify the quotient: the embeddings, the A-kernel, covariance,
        and that the dual action descends, for the orthonormal basis
        rel_basis of the relation span.  arrows[s, o, k] = cop[k, o, s]
        are the dual action's arrows, W's own unless given."""
        t = tolerance(tol)
        MA = self.base
        W, M = MA.hopf, MA.target
        A = W.alg
        XA = self.algebra
        dm = M.dim
        em, ea = self.embed_m, self.embed_a

        if la.rank(em, tol=tol) != dm:
            raise AxiomViolation("M does not embed faithfully")
        worst = residual(XA.star_coords(em) - em @ M.star.T, XA.star_coords(ea) - ea @ A.star.T)
        for B, f in ((M, em), (A, ea)):
            # f(e_a) f(e_b) - f(e_a e_b), one (dim B, dim B, dim X) table at a time
            gap = XA.pair_products(f, f)
            gap -= B.mapped_products(f)
            worst = residual(worst, gap)
            del gap
        require(worst, SLACK_COMPOSITE * t, AxiomViolation,
                "embeddings are not *-homomorphisms")

        ideal = MA.image_data(tol=tol).ideal
        ker = la.null_space(ea, tol=tol)
        if not la.span_equal(ker, ideal.basis, tol=tol):
            raise AxiomViolation(
                "kernel of the A-embedding is not the annihilating ideal")

        (gap, _), = evaluate({"act": owned(MA, "act"), "em": em, "ea": ea, "S": W.antipode,
                              "cop": owned(W, "cop"), "mult": owned(XA, "mult")}, COVARIANCE)
        require(gap, SLACK_COMPOSITE * t, AxiomViolation, "covariance identity fails")

        # the dual action preserves the relation span, functional by functional
        cop = owned(W, "cop") if arrows is None else np.transpose(arrows, (2, 1, 0))
        moved = build(DESCENT, {"proj": self._proj, "cop": cop,
                                "rel": rel_basis.T.reshape(-1, dm, A.dim)})
        for gap in row_maxima(moved):
            require(gap, SLACK_COMPOSITE * t, AxiomViolation, "dual action does not descend")


# covariance (e_a |> f_p) x 1 = e_a(1) (f_p x 1) S(e_a(2)), as [a, p, k]:
# (e_u)(f_p) as [u, p, x] times the products (x) (1 x S(e_a(2))) over mult,
# where u is the first leg of e_a
COVARIANCE = (("apq,kq->apk", "act", "em"),
              ("upx,xauk->apk",
               ("cp,ucx->upx", "em", ("zu,zcx->ucx", "ea", "mult")),
               ("auy,xyk->xauk", ("auv,yv->auy", "cop", ("yw,wv->yv", "ea", "S")), "mult")))


# the dual action descends: proj (f^s |> r) = 0 for each functional f^s
# and each relation r of the basis rel[c, p, k], as [s, C, c], where
# f^s |> (f_p x e_k) = cop[k, o, s] f_p x e_o
DESCENT = ("Cpks,cpk->sCc", ("Cpo,kos->Cpks", "proj", "cop"), "rel")


# (f_p x e_i)(f_q x e_j) = f_p (e_i(1) |> f_q) x e_i(2) e_j, between picked
# pure tensors A = (p, i) and B = (q, j), projected onto the classes C by
# proj[C, s, k], over tables gathered at the picks, that axis first:
# cop[js][A, u, w] = cop[js[A], u, w], act[ps][B, u, r] = act[u, ps[B], r]
PRODUCT = ("ABsk,Csk->ABC",
           ("ABws,Bwk->ABsk",
            ("ABwr,Ars->ABws", ("Auw,Bur->ABwr", "cop[js]", "act[ps]"), "multm[ps]"),
            "multa[js]"),
           "proj")
# (f_p x e_i)^* = Delta(e_i^*)[u, w] (e_u |> f_p^*) x e_w, projected
STAR = ("Awr,Crw->AC",
        ("Auw,Aur->Awr", ("Ax,xuw->Auw", "stara[js]", "cop"),
         ("Aq,uqr->Aur", "starm[ps]", "act")),
        "proj")


def _structure(MA, tol=None):
    """The quotient of M (x) A and its structure constants: (relation rank,
    orthonormal basis of the relation span, the Table of proj laid out
    [C, p, i], the picks (ps, js), class B being that of f_ps[B] (x) e_js[B],
    (mult, unit, star, labels)), mult and star the Tables that PRODUCT and
    STAR build (weakhopf._contract.build)."""
    W, M = MA.hopf, MA.target
    A = W.alg
    dm, da = M.dim, A.dim
    pre = dm * da

    rels = _relations(MA, tol=tol)
    # two independent rank decisions: the rank of the relations, and the
    # split of M (x) A into their span and its complement
    relation_rank = la.rank(rels, tol=tol)
    rel_basis, comp = la.orth_split(rels, tol=tol)
    del rels
    dim = comp.shape[1]
    if dim != pre - relation_rank:
        raise AxiomViolation("quotient dimension mismatch")
    classes = comp.conj().T                 # [:, (p, i)]: class of f_p (x) e_i
    picks = la.pivoted_columns(classes, dim)
    proj = np.linalg.solve(classes[:, picks], classes)
    # the solve leaves rounding residue where a class has no component
    proj[np.abs(proj) <= np.finfo(float).eps * pre * np.abs(proj).max()] = 0.0
    proj[:, picks] = np.eye(dim)
    ps, js = np.divmod(picks, da)           # class B is that of f_ps[B] (x) e_js[B]
    unit = proj @ np.outer(M.unit, A.unit).reshape(pre)
    labels = [f"{M.labels[p]}#{A.labels[j]}" for p, j in zip(ps, js)]

    cop, act = owned(W, "cop"), owned(MA, "act")
    tables = {"cop": cop, "act": act, "proj": Table(proj.reshape(dim, dm, da)),
              "cop[js]": gathered(cop, 0, js), "act[ps]": gathered(act, 1, ps),
              "multm[ps]": gathered(owned(M, "mult"), 0, ps),
              "multa[js]": gathered(owned(A, "mult"), 1, js),
              "stara[js]": gathered(owned(A, "star"), 0, js),
              "starm[ps]": gathered(owned(M, "star"), 0, ps)}
    mult, star = build(PRODUCT, tables), build(STAR, tables)
    return relation_rank, rel_basis, tables["proj"], (ps, js), (mult, unit, star, labels)


def _relations(MA, tol=None):
    """Columns m (x) b a - m (b |> 1) (x) a spanning the relations of the
    crossed product, for f_p (x) e_i and b running over the left boundary
    basis: the block of b is kron(I_M, L_b) - kron(R_(b |> 1), I_A), and the
    columns are ordered (b, p, i).  Both terms are written into the one
    buffer of the result, laid out [(p, k), b, (q, i)]."""
    W, M = MA.hopf, MA.target
    basis = W.boundary("L", tol=tol).basis.T
    lb = W.alg.left_mult_matrix(basis)                               # columns: b e_i
    rb = M.right_mult_matrix(basis @ MA.image_data(tol=tol).mu.T)    # f_p (b |> 1)
    dm, da = M.dim, W.dim
    out = np.zeros((dm, da, len(basis), dm, da), dtype=complex)
    diag_m, diag_a = np.arange(dm), np.arange(da)
    out[diag_m, :, :, diag_m, :] = lb.transpose(1, 0, 2)            # [p, k, b, i]
    out[:, diag_a, :, :, diag_a] -= rb.transpose(1, 0, 2)           # [k, p, b, q]
    return out.reshape(dm * da, -1)


def crossed_product(MA, tol=None):
    """M x A for the module algebra MA, built and verified once per resolved
    tolerance: later calls with the same tolerance return the same object."""
    return memo(MA, ("crossed", tolerance(tol)), lambda: CrossedProduct(MA, tol=tol))


def dual_action(X, tol=None):
    """The crossed product as a module algebra over the dual; its fixed
    points are M and its boundary image is 1 x A_R."""
    mod = X.as_module
    fixed = mod.fixed_points(tol=tol)
    if not la.span_equal(fixed.basis, la.orth(X.embed_m, tol=tol), tol=tol):
        raise ActionAxiomViolation("fixed points of the dual action are not M")
    mr = mod.image_data(tol=tol).m_r
    AR = X.base.hopf.boundary("R", tol=tol)
    if not la.span_equal(mr.basis, la.orth(X.embed_a @ AR.basis, tol=tol),
                         tol=tol):
        raise ActionAxiomViolation("dual-action boundary image is not 1 x A_R")
    return mod


# the quasi-basis identities sum T[p, q] e_p E(e_q e_m) = e_m and
# sum T[p, q] E(e_m e_p) e_q = e_m for the tensor T and the expectation
# table E, as [m, s]; E(e_x e_y) is formed as [x, y, z]
QUASI_BASIS = (
    (("pmz,pzs->ms", ("pq,qmz->pmz", "tensor", ("qmk,zk->qmz", "mult", "table")), "mult"),
     "eye"),
    (("mzq,zqs->ms", ("mpz,pq->mzq", ("mpk,zk->mpz", "mult", "table"), "tensor"), "mult"),
     "eye"),
)


def hat_expectation(X, lam, tol=None):
    """E(m x a) = m ((lam -> a) |> 1): the M-M bimodule expectation induced
    by a left integral of the dual, with canonical quasi-basis
    (1 x l(2)) (x) (1 x S^{-1} l(1)) for the paired integral l.  Its values
    in M are kept as m_table, column B the M-coordinates of E(class B), so
    that table = embed_m @ m_table."""
    from .integrals import LeftIntegral, dual_integral

    t = tolerance(tol)
    MA = X.base
    W, M = MA.hopf, MA.target
    Wd = W.dual()
    XA = X.algebra
    lam_int = lam if isinstance(lam, LeftIntegral) else LeftIntegral(Wd, lam, tol=tol)
    lam_el = lam_int.element
    if lam_el.parent is not Wd.alg:
        raise ParentMismatch("expectation needs a left integral of the dual")

    mu = MA.image_data(tol=tol).mu
    arrow = np.einsum("ios,s->oi", W.cop, lam_el.coords)   # columns: lam -> e_i
    mulam = mu @ arrow                                     # (lam -> e_i) |> 1
    # E(f_p (x) e_i) = f_p ((lam -> e_i) |> 1), gathered at the picks
    m_table = M.right_mult_matrix(mulam.T)[X.js, :, X.ps].T
    table = X.embed_m @ m_table
    E = ConditionalExpectation(XA, table, integral=lam_el, source=X)
    E.m_table = m_table

    l_dual = dual_integral(lam_int, tol=tol)               # lives in A
    require(table @ (X.embed_a @ l_dual.element.coords) - XA.unit, SLACK_COMPOSITE * t,
            ActionAxiomViolation, "expectation misses the dual integral")

    ind_l = lam_int.n_r                                    # Ind of lam's dual
    tau = MA.image_data(tol=tol).tau
    require(table @ XA.unit - X.embed_m @ (tau @ ind_l.coords), SLACK_COMPOSITE * t,
            ActionAxiomViolation, "expectation of the unit misses the transferred index")

    sinv = W.antipode_inv()
    dl = W.delta_coords(l_dual.element.coords)
    tensor = X.embed_a @ dl.T @ (X.embed_a @ sinv).T
    gaps = evaluate({"mult": owned(XA, "mult"), "table": table, "tensor": tensor,
                     "eye": np.eye(XA.dim)}, *QUASI_BASIS)
    require(residual(*(gap for gap, _ in gaps)), SLACK_COMPOSITE * t,
            ActionAxiomViolation, "canonical quasi-basis fails")
    ind = XA.pair_sum(tensor)
    ind_ref = X.embed_a @ l_dual.n_r.coords
    require(ind - ind_ref, SLACK_COMPOSITE * t, ActionAxiomViolation,
            "index of the expectation is not 1 x Ind")
    E.canonical_tensor = tensor
    E.index = Element(XA, ind)
    return E


# ---------------------------------------------------------------------------
# the regular homomorphism and GNS


# [s, t, a, c]: the two translations commute, and tau(f^s) tau(f^t) =
# tau(f^s f^t) for each
TRANSLATIONS = (
    (("sab,tbc->stac", "tau_r", "tau_l"), ("tab,sbc->stac", "tau_l", "tau_r")),
    (("sab,tbc->stac", "tau_r", "tau_r"), ("stw,wac->stac", "mult_hat", "tau_r")),
    (("sab,tbc->stac", "tau_l", "tau_l"), ("stw,wac->stac", "mult_hat", "tau_l")),
)
# ell(a) tau_l(phi) = tau_l(phi(1)) <phi(2)|a(1)> ell(a(2)), as [i, s, a, c],
# with the (dim A)^4 products tau_l(f^u) ell(e_k) held whole on the dense path
EXCHANGE = (("iab,sbc->isac", "ell", "tau_l"),
            ("isuk,uakc->isac", ("ujs,ijk->isuk", "mult_A", "cop"),
             ("uab,kbc->uakc", "tau_l", "ell")))
# pi(e_x) pi(e_y) = pi(e_x e_y) in block coordinates, as [x, a, y, c, r]:
# sum pi(e_x)[p, a, b] pi(e_y)[q, b, c] f_p f_q, with the [p, b, y, c, r]
# factor of pi(e_y) and mult held whole on the dense path
HOMOMORPHISM = (("xpab,pbycr->xaycr", "images", ("yqbc,pqr->pbycr", "images", "mult")),
                ("xyg,grac->xaycr", "mult_X", "images"))


class RegularRep:
    """Image of the crossed product inside M (x) End(A), where A carries
    the inner product (a,b) = <h^ | a* b> of the dual Haar functional."""

    def __init__(self, X, tol=None):
        t = tolerance(tol)
        MA = X.base
        W = MA.hopf
        A = W.alg
        Wd = W.dual()
        da = A.dim
        hd = W.haar(tol=tol)
        hhat = hd.hhat.coords

        gram = A.star @ (A.mult @ hhat)
        if outside(residual(gram - gram.conj().T), SLACK_SOLVED * t) \
                or np.linalg.eigvalsh((gram + gram.conj().T) / 2).min() <= t:
            raise AxiomViolation("dual Haar form is not positive definite")
        self.gram_a = gram
        self.gram_a_inv = np.linalg.inv(gram)

        cop = W.cop
        sinv_hat = np.linalg.inv(Wd.antipode)
        # tau_r[s]|e_k> = |f^s -> e_k>,  tau_l[s]|e_k> = |e_k <- S^{-1} f^s>
        self.tau_r = np.transpose(cop, (2, 1, 0)).copy()
        self.tau_l = np.einsum("kio,is->sok", cop, sinv_hat)
        self.ell = A.left_mult_matrix(np.eye(da))           # ell[i] = L_{e_i}

        self._check_translations(W, Wd, tol=tol)

        # pi(class C)[q] = sum_b rho(f_ps[C])[q] tau_l ell(e_js[C]), as [C, q, a, c]
        translated = np.tensordot(MA.coaction(), self.tau_l, 1)        # [p, q, a, b]
        self.images = np.matmul(translated[X.ps], self.ell[X.js][:, None])
        self.X = X
        self.p_block = np.einsum("C,Cqab->qab", X.algebra.unit, self.images)

        self._check_homomorphism(tol=tol)

    def apply(self, x):
        return np.einsum("C,Cqab->qab", np.asarray(x, dtype=complex),
                         self.images)

    def block_product(self, x, y):
        return np.moveaxis(self._block_products(x[np.newaxis], y[np.newaxis])[0, 0],
                           -1, 0)

    def _block_products(self, xs, ys):
        """out[s, t, a, c, r] = (xs[s] * ys[t]) in block coordinates.  The
        (t, b, c, p, r) middle table of ys has dim M / (batch of xs) times
        the entries of the result, so it stays within it while
        dim M <= len(xs)."""
        mult = self.X.base.target.mult
        right = np.tensordot(ys, mult, axes=([1], [1]))           # [t, b, c, p, r]
        return np.moveaxis(np.tensordot(xs, right, axes=([1, 3], [3, 1])), 2, 1)

    def block_star(self, x):
        """Star of one block element, or of a stack of them (leading axis)."""
        M = self.X.base.target
        adjs = self.gram_a_inv @ np.conj(x).swapaxes(-1, -2) @ self.gram_a
        return np.moveaxis(np.tensordot(M.star, adjs, axes=([0], [-3])), 0, -3)

    def _check_translations(self, W, Wd, tol=None):
        t = tolerance(tol)
        gram, gram_inv = self.gram_a, self.gram_a_inv

        def dagger(mats):
            return gram_inv @ mats.conj().swapaxes(-1, -2) @ gram

        # the translation products and tau(f^s)^dagger = tau(f^s*)
        tau_r, tau_l = self.tau_r, self.tau_l
        *products, (exchange, _) = evaluate(
            {"tau_r": tau_r, "tau_l": tau_l, "ell": self.ell,
             "mult_hat": owned(Wd.alg, "mult"), "mult_A": owned(W.alg, "mult"),
             "cop": owned(W, "cop")}, *TRANSLATIONS, EXCHANGE)
        worst = residual(*(gap for gap, _ in products),
                         *(dagger(tau) - np.tensordot(Wd.alg.star, tau, 1)
                           for tau in (tau_r, tau_l)))
        require(worst, SLACK_COMPOSITE * t, AxiomViolation,
                "translation representations fail")

        AL = W.boundary("L", tol=tol)
        A = W.alg
        gaps = np.tensordot((W.counital("R") @ AL.basis).T, self.tau_l, 1) \
            - A.left_mult_matrix(AL.basis.T)
        require(gaps, SLACK_COMPOSITE * t, AxiomViolation,
                "boundary translation identity fails")

        require(exchange, SLACK_COMPOSITE * t, AxiomViolation,
                "translation exchange identity fails")

    def _check_homomorphism(self, tol=None):
        t = tolerance(tol)
        XA = self.X.algebra
        dim = XA.dim
        images = self.images
        (gap, _), = evaluate({"images": images, "mult": owned(self.X.base.target, "mult"),
                              "mult_X": owned(XA, "mult")}, HOMOMORPHISM)
        worst = residual(gap, self.block_star(images)
                         - (XA.star @ images.reshape(dim, -1)).reshape(images.shape))
        require(worst, SLACK_COMPOSITE * t, AxiomViolation, "regular homomorphism fails")
        if la.rank(self.images.reshape(dim, -1).T, tol=tol) != dim:
            raise AxiomViolation("regular homomorphism is not injective")
        # its unit image is a self-adjoint idempotent
        p2 = self.block_product(self.p_block, self.p_block)
        ps = self.block_star(self.p_block)
        require(residual(p2 - self.p_block, ps - self.p_block), SLACK_COMPOSITE * t,
                AxiomViolation, "unit image is not a projection")

    def intertwining_residual(self, tol=None):
        """Dual-action covariance through the right translations."""
        X = self.X
        W = X.base.hopf
        Wd = W.dual()
        da, dim = W.dim, X.dim
        worst = 0.0
        # tau_r(phi(1)) pi(x) tau_r(S^(phi(2))), summed over the split of phi
        right = np.tensordot(Wd.antipode, self.tau_r, axes=([0], [0]))   # [v, c, d]
        for s in range(da):
            left = np.tensordot(Wd.cop[s], self.tau_r, axes=([0], [0]))  # [v, a, b]
            for alpha in range(dim):
                lhs = self.apply(X.as_module.act[s, alpha])
                mid = np.tensordot(left, self.images[alpha], axes=([2], [1]))
                rhs = np.tensordot(mid, right, axes=([0, 3], [0, 1])).transpose(1, 0, 2)
                worst = residual(worst, lhs - rhs)
        return worst


def regular_homomorphism(X, tol=None):
    return RegularRep(X, tol=tol)


class GnsCross:
    """GNS data of the crossed product over an invariant state of M: the
    projected vector, the induced state, the compression isometry, and the
    extended representation on the base GNS space."""

    def __init__(self, X, gns, tol=None):
        t = tolerance(tol)
        self.X = X
        self.base_gns = gns
        MA = X.base
        W, M = MA.hopf, MA.target
        A = W.alg
        dm, da, dim = M.dim, A.dim, X.dim
        reg = regular_homomorphism(X, tol=tol)
        self.reg = reg

        self.gram_big = np.kron(gns.gram, reg.gram_a)

        self._ell_m = M.left_mult_matrix(np.eye(dm))             # [r]: L_(f_r)
        self.p_op = self.pi_cros(X.algebra.unit)
        self.omega_a = np.kron(M.unit, A.unit)
        self.omega_cros = self.p_op @ self.omega_a

        hd = W.haar(tol=tol)
        l0 = hd.h * invert(hd.g_l, tol=tol)
        lifted = X.proj.reshape(X.dim, dm, da) @ l0.coords    # classes of f_p (x) l0
        self.v_iso = (self.pi_cros(lifted.T) @ self.omega_a).T

        gb = self.gram_big

        def big_inner(x, y):
            return complex(np.conj(x) @ gb @ y)

        self.inner_big = big_inner
        # V is an isometry intertwining the representations
        vdag = np.linalg.solve(gns.gram, self.v_iso.conj().T @ gb)
        self.v_dagger = vdag
        require(vdag @ self.v_iso - np.eye(dm), SLACK_COMPOSITE * t, AxiomViolation,
                "compression is not an isometry")

    def pi_cros(self, x):
        """The regular representation sum_r L_(f_r) (x) pi(x)_r on
        M (x) A, for one coordinate vector or a stack of them (leading axes
        of x)."""
        x = np.asarray(x, dtype=complex)
        n = self._ell_m.shape[1] * self.reg.images.shape[2]
        blocks = np.tensordot(x, self.reg.images, 1)                     # [..., r, a, b]
        out = np.tensordot(blocks, self._ell_m, axes=([-3], [0]))        # [..., a, b, s, t]
        return np.moveaxis(out, [-2, -1], [-4, -2]).reshape(x.shape[:-1] + (n, n))

    def pi_omega(self, x):
        """Extended GNS representation on the base space: compression of
        the regular representation by the isometry; stacked like pi_cros."""
        return self.v_dagger @ self.pi_cros(x) @ self.v_iso

    def direct_pi_omega(self, x):
        """|m'> -> |m (a |> m')> computed straight from the action, for
        x = sum m (x) a; stacked like pi_cros."""
        X = self.X
        v = X.lift_coords(x)                                              # [..., p, i]
        moved = np.tensordot(v, X.base.act, 1)                            # [..., p, m', t]
        out = np.tensordot(moved, self._ell_m, axes=([-3, -1], [0, 2]))  # [..., m', s]
        return out.swapaxes(-1, -2)

    def state_cros(self, x):
        return self.inner_big(self.omega_cros, self.pi_cros(x) @ self.omega_cros)

    def report(self, tol=None):
        """Cyclicity, the induced state, norm identities, separation, the
        compression formulas, and agreement of the two representations."""
        X = self.X
        MA = X.base
        W, M = MA.hopf, MA.target
        dim = X.dim
        dm = M.dim
        hd = W.haar(tol=tol)
        r = {}

        Ehat = hat_expectation(X, hd.hhat, tol=tol)
        basis = np.eye(dim)
        ops = self.pi_cros(basis)                                  # [k]: pi(e_k)
        orbit = (ops @ self.omega_cros).T
        # the state of e_k against the M part of E(e_k), column k
        states = np.conj(self.omega_cros) @ self.gram_big @ orbit
        r["state_through_expectation"] = residual(states - self.base_gns.omega @ Ehat.m_table)

        norm_a = np.sqrt(self.inner_big(self.omega_a, self.omega_a).real)
        norm_c = np.sqrt(self.inner_big(self.omega_cros, self.omega_cros).real)
        eps1 = W.eps_coords(W.alg.unit).real
        r["norm_ratio"] = abs(norm_a ** 2 - eps1 * norm_c ** 2)
        r["norm_match"] = abs(norm_c - np.sqrt(
            self.base_gns.inner(M.unit, M.unit).real))

        r["cyclic_rank_gap"] = la.rank(self.p_op, tol=tol) \
            - la.rank(orbit, tol=tol)
        r["separating"] = 0.0 if la.rank(orbit, tol=tol) == dim else 1.0

        r["compressed_representation"] = residual(
            self.v_dagger @ ops @ self.v_iso - self.direct_pi_omega(basis))

        # V V^# as the range projection onto |m a g_L l_0>, for every
        # class of f_p (x) e_i, as [p, i, :]
        l0 = hd.h * invert(hd.g_l, tol=tol)
        gl0 = (hd.g_l * l0).coords
        mu = MA.image_data(tol=tol).mu
        A = W.alg
        blocks = X.proj.reshape(dim, dm, A.dim)
        vecs = self.pi_cros(blocks.transpose(1, 2, 0)) @ self.omega_a
        # V^# |m a> = |m mu(a g_L)>
        targets = (A.right_mult_matrix(hd.g_l.coords).T @ mu.T) @ M.mult  # [p, i, :]
        worst_a = residual(vecs @ self.v_dagger.T - targets)
        back = blocks.transpose(1, 0, 2) @ A.right_mult_matrix(gl0)         # [p, :, i]
        worst = residual(vecs @ (self.v_iso @ self.v_dagger).T
                         - self.pi_cros(back.transpose(0, 2, 1)) @ self.omega_a)
        r["compression_formula"] = worst_a
        r["range_projection_formula"] = worst
        return r


def gns_cross(X, gns, tol=None):
    return GnsCross(X, gns, tol=tol)


# ---------------------------------------------------------------------------
# Temperley-Lieb elements and commutant reports


def tlj_elements(X, l, tol=None):
    """e = (1 x e_l) x 1^ and e^ = (1 x 1) x e_pdual inside (M x A) x A^,
    with the exchange relations weighted by the two indices."""
    from .integrals import jones_projection, p_dual

    t = tolerance(tol)
    MA = X.base
    W = MA.hopf
    lam = p_dual(l, tol=tol)
    e_l = jones_projection(l, tol=tol)
    e_lam = jones_projection(lam, tol=tol)

    X2 = crossed_product(X.as_module, tol=tol)
    XA2 = X2.algebra
    e = X2.embed_m @ (X.embed_a @ e_l.coords)
    ehat = X2.embed_a @ e_lam.coords
    ind_lam = X2.embed_m @ (X.embed_a @ l.n_r.coords)       # Ind of p-dual
    ind_l = X2.embed_a @ lam.n_r.coords                     # Ind of l

    def prod(*xs):
        out = xs[0]
        for y in xs[1:]:
            out = XA2.product_coords(out, y)
        return out

    report = {
        "e_squared": residual(prod(e, e) - prod(e, ind_lam)),
        "ehat_squared": residual(prod(ehat, ehat) - prod(ehat, ind_l)),
        "ehat_e_ehat": residual(prod(ehat, e, ehat) - ehat),
        "e_ehat_e": residual(prod(e, ehat, e) - e),
    }
    require(report, SLACK_COMPOSITE * t, AxiomViolation, "Temperley-Lieb relations fail")
    return Element(XA2, e), Element(XA2, ehat), report


def commutant_suite(X, tol=None):
    """Relative commutants of M and its fixed points inside the crossed
    product, against their predicted spans, plus the equivalence of the
    Galois/standard/regular characterizations."""
    from .modules import galois_test, is_outer, is_regular

    MA = X.base
    W, M = MA.hopf, MA.target
    A = W.alg
    XA = X.algebra
    N = MA.fixed_points(tol=tol)
    data = MA.image_data(tol=tol)

    em, ea = X.embed_m, X.embed_a
    m_img = Subspace(XA, em, tol=tol)
    n_img = Subspace(XA, em @ N.basis, tol=tol)

    m_comm = commutant(m_img, XA, tol=tol)
    n_comm = commutant(n_img, XA, tol=tol)
    center_x = XA.center(tol=tol)
    n_comm_m = commutant(Subspace(M, N.basis, tol=tol), M, tol=tol)

    zc = M.center(tol=tol)
    AR = W.boundary("R", tol=tol)
    za = A.center(tol=tol)
    pred_m_comm, pred_n_comm = (
        la.orth(XA.pair_products(xs, ys).reshape(-1, XA.dim).T, tol=tol)
        for xs, ys in ((em @ zc.basis, ea @ AR.basis), (em @ n_comm_m.basis, ea)))
    arza = AR.intersect(za, tol=tol)

    report = {
        "dim_m_commutant": m_comm.dim,
        "dim_n_commutant_in_m": n_comm_m.dim,
        "dim_n_commutant": n_comm.dim,
        "dim_center": center_x.dim,
        "m_commutant_is_center_times_ar": la.span_equal(
            m_comm.basis, pred_m_comm, tol=tol),
        "n_commutant_factorizes": la.span_equal(
            n_comm.basis, pred_n_comm, tol=tol),
        "center_contains_central_ar": center_x.contains_coords(
            ea @ arza.basis, tol=tol),
    }
    if not report["n_commutant_factorizes"]:
        raise AxiomViolation("relative commutant of the fixed points does "
                             "not factor through the crossed product")

    outer = is_outer(MA, tol=tol)
    report["outer"] = outer
    report["outer_matches_commutant"] = (outer
                                         == report["m_commutant_is_center_times_ar"])
    if not report["outer_matches_commutant"]:
        raise AxiomViolation("outerness disagrees with the commutant criterion")
    if zc.dim == 1 and outer:
        report["center_is_central_ar"] = la.span_equal(
            center_x.basis, la.orth(ea @ arza.basis, tol=tol), tol=tol)

    _, galois, _ = galois_test(MA, tol=tol)
    plain_ar = la.orth(ea @ AR.basis, tol=tol)
    minimal_comm = la.span_equal(m_comm.basis, plain_ar, tol=tol)
    cond_i = galois and minimal_comm
    cond_ii = data.standard and minimal_comm
    cond_iii = is_regular(MA, tol=tol)
    report["galois"] = galois
    report["standard"] = data.standard
    report["regular"] = cond_iii
    if not (cond_i == cond_ii == cond_iii):
        raise AxiomViolation("regularity characterizations disagree",
                             where=(cond_i, cond_ii, cond_iii))
    return report
