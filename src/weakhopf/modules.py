"""Module algebras over a weak Hopf algebra: action verification, fixed
points, conditional expectations from left integrals, Watatani indices via
quasi-bases, implementers/outerness, GNS and modular data, Galois tests.
"""

import numpy as np

from . import _linalg as la
from ._checks import outside, require, require_first, residual, settle
from ._contract import evaluate, owned
from .algebra import Element, Subspace, _homomorphism_gaps
from .config import SLACK_COMPOSITE, SLACK_DERIVED, SLACK_SOLVED, memo, tolerance
from .errors import (
    ActionAxiomViolation,
    NoSolution,
    NotFaithful,
    NotIndexFinite,
    ParentMismatch,
)

__all__ = [
    "ModuleAlgebra",
    "make_module_algebra",
    "to_coaction",
    "fixed_points",
    "fixed_point_condition_spaces",
    "image_data",
    "ConditionalExpectation",
    "cond_expectation",
    "QuasiBasis",
    "quasi_basis",
    "implementer_space",
    "trivial_implementers",
    "is_outer",
    "is_minimal",
    "is_regular",
    "GnsData",
    "invariant_state",
    "modular_check",
    "galois_test",
]


class ModuleAlgebra:
    """A left action of a weak Hopf algebra W on a *-algebra M, stored as
    act[i, p, q]: e_i |> f_p = sum_q act[i,p,q] f_q."""

    def __init__(self, hopf, target, act):
        act = np.asarray(act, dtype=complex)
        if act.shape != (hopf.dim, target.dim, target.dim):
            raise ValueError("action table has wrong shape")
        self.hopf = hopf
        self.target = target
        self.act = act
        self._cache = {}

    def __repr__(self):
        return f"ModuleAlgebra(hopf dim {self.hopf.dim} on dim {self.target.dim})"

    def act_op(self, a):
        """Matrix of m -> a |> m on M coordinates."""
        return np.tensordot(np.asarray(a, dtype=complex), self.act, 1).T

    def apply_coords(self, a, m):
        return m @ np.tensordot(a, self.act, 1)

    def apply(self, a, m):
        if a.parent is not self.hopf.alg or m.parent is not self.target:
            raise ParentMismatch("apply expects (hopf element, target element)")
        return Element(self.target, self.apply_coords(a.coords, m.coords))

    def act_on_unit(self):
        """Rows: e_i |> 1_M."""
        return memo(self, "act1", lambda: self.target.unit @ self.act)

    def coaction(self):
        """rho[p, q, i]: coefficient of f_q (x) f^i in the coaction of f_p."""
        return memo(self, "rho", lambda: np.ascontiguousarray(
            np.transpose(self.act, (1, 2, 0))))

    def fixed_points(self, tol=None):
        return memo(self, ("fixed", tolerance(tol)), lambda: fixed_points(self, tol=tol))

    def image_data(self, tol=None):
        return memo(self, ("image", tolerance(tol)), lambda: image_data(self, tol=tol))

    def haar_expectation(self, tol=None):
        return memo(self, ("e_haar", tolerance(tol)), lambda: cond_expectation(
            self, self.hopf.haar(tol=tol).h, tol=tol))


# (e_i e_j) |> f_p against e_i |> (e_j |> f_p), at [i, j, p, q]
COMPOSITION = (("ijr,rpq->ijpq", "mult_A", "act"), ("jps,isq->ijpq", "act", "act"))
# the right sides of the product law and the splitting sum c[., u, v]
# act[u, p, a] act[v, q, b] mult[a, b, k] for c = cop or Delta(1): the
# act-mult products f_a (e_v |> f_q) over b, held whole on the dense path,
# then c-act over u, one plain GEMM, then the two over (v, a)
ACT_MULT = ("vqb,abk->vaqk", "act", "mult")
# e_i |> (f_p f_q) against (e_i(1) |> f_p)(e_i(2) |> f_q), at [i, p, q, k]
PRODUCT_LAW = (("pqr,irk->ipqk", "mult", "act"),
               ("ivpa,vaqk->ipqk", ("iuv,upa->ivpa", "cop", "act"), ACT_MULT))
# f_p f_q against (1(1) |> f_p)(1(2) |> f_q), at [p, q, k]
SPLITTING = ("mult", ("vpa,vaqk->pqk", ("uv,upa->vpa", "D1", "act"), ACT_MULT))


def make_module_algebra(W, M, act, tol=None):
    """Verify the module-algebra laws for the table act and wrap it.  The
    composition law, the product law and the unit-coproduct splitting are
    declared identities (weakhopf._contract.evaluate); the act-mult
    products are formed once for both of the last two."""
    MA = ModuleAlgebra(W, M, act)
    t = tolerance(tol)
    act = MA.act
    dm = M.dim

    gap, = evaluate({"mult_A": owned(W.alg, "mult"), "act": owned(MA, "act")}, COMPOSITION)
    settle(gap, t, ActionAxiomViolation, "composition law fails", where=tuple)

    require(np.tensordot(W.alg.unit, act, 1) - np.eye(dm), t, ActionAxiomViolation,
            "unit acts nontrivially", where=tuple)

    product_gap, splitting_gap = evaluate(
        {"cop": owned(W, "cop"), "act": owned(MA, "act"), "mult": owned(M, "mult"),
         "D1": W.delta_one()},
        PRODUCT_LAW, SPLITTING)
    settle(product_gap, t, ActionAxiomViolation, "product law fails", where=tuple)

    lower = W.alg.star.T @ np.conj(W.antipode)  # columns: (e_i)_* = S(e_i)^*
    lhs = np.conj(act) @ M.star
    rhs = np.tensordot(lower, np.matmul(M.star, act), axes=([0], [0]))
    require(lhs - rhs, t, ActionAxiomViolation, "star law fails", where=tuple)

    act1 = MA.act_on_unit()
    for name, key in (("unit law", "LS"), ("unit law, inverse form", "Rinv")):
        require(act1.T - act1.T @ W.counital(key), t, ActionAxiomViolation,
                f"{name} fails", where=tuple)

    settle(splitting_gap, t, ActionAxiomViolation, "unit-coproduct splitting fails",
           where=tuple)
    return MA


def hopf_adjoint_table(W):
    """a |> b = a(1) b S(a(2)) on W itself.  Not a module-algebra action in
    general (the unit and product laws fail when the coproduct of the unit
    is nontrivial); see adjoint_restriction for the part that survives."""
    mult = W.alg.mult
    tail = W.cop @ W.antipode.T                                # a(1) (x) S(a(2))
    # every pairwise order of the remaining three factors has four free indices
    head = np.tensordot(tail, mult, axes=([1], [0]))           # [i, q, p, r]
    return np.tensordot(head, mult, axes=([1, 3], [1, 0]))


def adjoint_restriction(W, tol=None):
    """The unit part of the adjoint action is a conditional expectation
    onto the commutant of the right boundary, and the adjoint action
    restricts to a module-algebra action there.  Returns (expectation
    table, restricted ModuleAlgebra)."""
    from .algebra import commutant, subalgebra_on_basis

    t = tolerance(tol)
    A = W.alg
    table = hopf_adjoint_table(W)
    e1 = np.einsum("i,ips->sp", A.unit, table)     # b -> 1 |> b
    target = commutant(W.boundary("R", tol=tol), A, tol=tol)
    if not target.contains_coords(la.orth(e1, tol=tol), tol=tol):
        raise ActionAxiomViolation("adjoint unit map leaves the commutant "
                                   "of the right boundary")
    require(e1 @ e1 - e1, SLACK_COMPOSITE * t, ActionAxiomViolation,
            "adjoint unit map is not idempotent")
    sub, incl = subalgebra_on_basis(A, target.basis, tol=tol)
    pinv = incl.conj().T
    act = np.empty((W.dim, sub.dim, sub.dim), dtype=complex)
    for i in range(W.dim):
        moved = table[i].T @ incl      # columns: e_i |> (subalgebra basis)
        if not target.contains_coords(la.orth(moved, tol=tol), tol=tol):
            raise ActionAxiomViolation("adjoint action does not restrict",
                                       where=i)
        act[i] = (pinv @ moved).T
    return e1, make_module_algebra(W, sub, act, tol=tol)


# the coaction laws at [p, i, r, j] and [p, q, s, k], rho(f_p) =
# rho[p, q, i] f_q (x) phi_i: (rho (x) id) rho against (id (x) Delta^) rho,
# and rho(f_p f_q) against rho(f_p) rho(f_q), the [q, i, b, k] factor of
# the latter held whole on the dense path
COASSOCIATIVITY = (("pqi,qrj->pirj", "rho", "rho"), ("prk,kji->pirj", "rho", "cop"))
MULTIPLICATIVITY = (("pqr,rsk->pqsk", "mult", "rho"),
                    ("pibs,qibk->pqsk", ("pai,abs->pibs", "rho", "mult"),
                     ("qbj,ijk->qibk", "rho", "mult_hat")))


def to_coaction(MA, tol=None):
    """The right coaction of the dual corresponding to the action; checked
    against the comodule-algebra laws."""
    W, M = MA.hopf, MA.target
    rho = MA.coaction()
    t = tolerance(tol)
    Wd = W.dual()
    multh = Wd.alg.mult

    coassociative, multiplicative = evaluate(
        {"rho": rho, "cop": owned(Wd, "cop"), "mult": owned(M, "mult"),
         "mult_hat": owned(Wd.alg, "mult")},
        COASSOCIATIVITY, MULTIPLICATIVITY)
    settle(coassociative, t, ActionAxiomViolation, "coaction coassociativity fails")

    require(rho @ Wd.counit - np.eye(M.dim), t, ActionAxiomViolation,
            "coaction counit law fails")
    settle(multiplicative, t, ActionAxiomViolation, "coaction is not multiplicative")

    lhs = np.tensordot(M.star, rho, 1)
    rhs = np.matmul(M.star.T, np.conj(rho) @ Wd.alg.star)
    require(lhs - rhs, t, ActionAxiomViolation, "coaction is not star-preserving")

    # weak unit laws: both products of rho(1) with the split dual unit
    # reproduce (id (x) Delta^)(rho(1))
    rho1 = np.tensordot(M.unit, rho, 1)
    D1h = Wd.delta_one()
    target = np.tensordot(rho1, Wd.cop, 1)
    lhs1 = np.tensordot(np.matmul(rho1, multh), D1h, axes=([0], [0]))
    require(lhs1 - target, t, ActionAxiomViolation, "coaction weak unit law fails")
    lhs2 = np.tensordot(np.tensordot(rho1, multh, 1), D1h, axes=([1], [0]))
    require(lhs2 - target, t, ActionAxiomViolation,
            "coaction weak unit law, flipped, fails")
    return rho


# ---------------------------------------------------------------------------
# fixed points


def _counital_rows(MA, proj):
    """Blocks act_op(e_i) - act_op(proj e_i), stacked over i."""
    act = MA.act
    diff = act - np.tensordot(proj.T, act, 1)
    return diff.transpose(0, 2, 1).reshape(-1, MA.target.dim)


def fixed_points(MA, tol=None):
    """Elements on which every a acts like its counital projection; the
    invariant subalgebra of the action."""
    N = Subspace(MA.target,
                 la.null_space(_counital_rows(MA, MA.hopf.counital("LS")), tol=tol),
                 orthonormalize=False)
    t = tolerance(tol)
    if not all(N.certify(tol=tol).values()):
        raise ActionAxiomViolation("fixed points fail to form a unital *-subalgebra")
    # coaction image of the fixed points lives in M (x) (dual left boundary)
    rho = MA.coaction()
    AhatL = MA.hopf.dual().boundary("L", tol=tol)
    for j in range(N.dim):
        img = np.einsum("p,pqi->qi", N.basis[:, j], rho)
        if not AhatL.contains_coords(la.orth(img.T, tol=tol), tol=tol):
            raise ActionAxiomViolation(
                "coaction of a fixed point leaves the dual boundary", where=j)
    return N


def fixed_point_condition_spaces(MA, tol=None):
    """The four equivalent characterizations, computed independently:
    left/right centralizing conditions and both counital-projection forms."""
    W, M = MA.hopf, MA.target
    act, multm = MA.act, M.mult
    dm = M.dim

    rows_ii = _counital_rows(MA, W.counital("LS"))
    rows_iv = _counital_rows(MA, W.counital("Rinv"))

    # a |> (m n) = (a |> m) n  as linear conditions on n
    t_i = np.einsum("pnr,irq->ipnq", multm, act, optimize=True) \
        - np.einsum("ipr,rnq->ipnq", act, multm, optimize=True)
    rows_i = np.transpose(t_i, (0, 1, 3, 2)).reshape(-1, dm)

    # a |> (n m) = n (a |> m)
    t_iii = np.einsum("npr,irq->ipnq", multm, act, optimize=True) \
        - np.einsum("ipr,nrq->ipnq", act, multm, optimize=True)
    rows_iii = np.transpose(t_iii, (0, 1, 3, 2)).reshape(-1, dm)

    return {
        "i": la.null_space(rows_i, tol=tol),
        "ii": la.null_space(rows_ii, tol=tol),
        "iii": la.null_space(rows_iii, tol=tol),
        "iv": la.null_space(rows_iv, tol=tol),
    }


# ---------------------------------------------------------------------------
# the image of the action and standardness


class ImageData:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def image_data(MA, tol=None):
    """M_R = A |> 1 with the boundary epimorphism, its kernel projection,
    the annihilator ideal, and the standardness flag."""
    t = tolerance(tol)
    W, M = MA.hopf, MA.target
    A = W.alg
    act1 = MA.act_on_unit()          # rows: e_i |> 1
    mu = act1.T                      # coords of a |> 1 from coords of a
    m_r = Subspace(M, mu, tol=tol)
    AL = W.boundary("L", tol=tol)

    # mu restricted to the left boundary is a *-epimorphism onto M_R; the
    # first failing basis vector is reported, its products before its star
    img = mu @ AL.basis
    if not la.span_equal(la.orth(img, tol=tol), m_r.basis, tol=tol):
        raise ActionAxiomViolation("A_L |> 1 does not span M_R")
    mgaps, sgaps = _homomorphism_gaps(A, M, mu, AL.basis)
    require_first([(mgaps, "boundary epimorphism not multiplicative", tuple),
                   (sgaps, "boundary epimorphism not star-preserving",
                    lambda ix: ix[0])], SLACK_DERIVED * t, ActionAxiomViolation)

    ker_in_al = la.null_space(img, tol=tol)        # coefficients against AL basis
    if ker_in_al.shape[1]:
        kernel = Subspace(A, AL.basis @ ker_in_al, tol=tol)
    else:
        kernel = Subspace(A, np.zeros((A.dim, 0)), orthonormalize=False)
    standard = kernel.dim == 0

    # unit projection of the kernel ideal; central in A
    if kernel.dim:
        K = kernel.basis
        rows = A.right_mult_matrix(K.T) @ K                # [j]: R_(k_j) on K
        z, _ = la.affine_solutions(rows.reshape(-1, kernel.dim),
                                   K.T.reshape(-1), tol=tol)
        z = K @ z
        lz, rz = A.left_mult_matrix(z), A.right_mult_matrix(z)
        worst = residual(lz @ z - z, A.star_coords(z) - z, lz @ K - K, rz @ K - K)
        ZA, zcol = A.center(tol=tol), z.reshape(-1, 1)
        if outside(worst, SLACK_SOLVED * t) or not ZA.contains_coords(zcol, tol=tol) \
                or not AL.contains_coords(zcol, tol=tol):
            raise ActionAxiomViolation("kernel support projection is not a "
                                       "central projection in the left boundary",
                                       residual=worst)
        z_proj = Element(A, z)
        # the kernel is exactly z A_L
        if not la.span_equal(la.orth(lz @ AL.basis, tol=tol), K, tol=tol):
            raise ActionAxiomViolation("kernel is not generated by its projection")
    else:
        z_proj = Element(A, np.zeros(A.dim))

    # annihilator ideal of the whole action
    ann = la.null_space(np.transpose(MA.act, (1, 2, 0)).reshape(-1, A.dim), tol=tol)
    annihilator = Subspace(A, ann, orthonormalize=False)

    # two-sided ideal generated by the kernel; equals both one-sided spans
    if kernel.dim:
        # columns e_i k_j and k_j e_i, ordered by (i, j)
        eye = np.eye(A.dim)
        left = (A.left_mult_matrix(eye) @ K).transpose(1, 0, 2).reshape(A.dim, -1)
        right = (A.right_mult_matrix(eye) @ K).transpose(1, 0, 2).reshape(A.dim, -1)
        ideal = Subspace(A, left, tol=tol)
        if not la.span_equal(ideal.basis, la.orth(right, tol=tol), tol=tol):
            raise ActionAxiomViolation("kernel ideal is not two-sided symmetric")
        if not annihilator.contains_subspace(ideal, tol=tol):
            raise ActionAxiomViolation("kernel ideal does not annihilate the module")
        if not ideal.contains_coords(A.star_coords(ideal.basis), tol=tol):
            raise ActionAxiomViolation("kernel ideal is not star-closed")
    else:
        ideal = Subspace(A, np.zeros((A.dim, 0)), orthonormalize=False)

    # central-boundary images sit in the expected centers
    center_m = M.center(tol=tol)
    albar = W.boundary_intersection(tol=tol)
    if albar.dim and not center_m.contains_coords(la.orth(mu @ albar.basis, tol=tol),
                                                  tol=tol):
        raise ActionAxiomViolation("A_L & A_R does not map into the center of M")
    N = MA.fixed_points(tol=tol)
    if N.dim:
        cn = commutant_within(MA.target, N, N, tol=tol)
        ZA = A.center(tol=tol)
        alz = AL.intersect(ZA, tol=tol)
        if alz.dim:
            img_c = la.orth(mu @ alz.basis, tol=tol)
            if img_c.shape[1] and not cn.contains_coords(img_c, tol=tol):
                raise ActionAxiomViolation(
                    "central boundary part leaves the center of the fixed points")

    # tau: dual right boundary -> M_R through the inverse boundary map
    tau = mu @ W.counital("hL")
    return ImageData(m_r=m_r, mu=mu, tau=tau, z_proj=z_proj, kernel=kernel,
                     annihilator=annihilator, ideal=ideal, standard=standard)


def commutant_within(M, S, T, tol=None):
    """Elements of span T commuting with span S (both Subspaces of M)."""
    rows = (M.left_mult_matrix(S.basis.T) - M.right_mult_matrix(S.basis.T)) @ T.basis
    coeff = la.null_space(rows.reshape(-1, T.dim), tol=tol)
    return Subspace(M, T.basis @ coeff, tol=tol)


# ---------------------------------------------------------------------------
# conditional expectations and quasi-bases


class ConditionalExpectation:
    """An endomap of a *-algebra with range in a distinguished subalgebra,
    here always of the form E(m) = l |> m for a left integral l."""

    def __init__(self, algebra, table, integral=None, source=None):
        self.algebra = algebra
        self.table = np.asarray(table, dtype=complex)
        self.integral = integral
        self.source = source

    def __call__(self, m):
        if m.parent is not self.algebra:
            raise ParentMismatch("expectation applied to a foreign element")
        return Element(self.algebra, self.table @ m.coords)

    def apply_coords(self, m):
        return self.table @ m

    def is_faithful(self, tol=None):
        """No m with E(m'* m) = 0 for every m'."""
        M = self.algebra
        rows = self.table @ M.left_mult_matrix(M.star)      # [p]: E(e_p^* m)
        return la.null_space(rows.reshape(-1, M.dim), tol=tol).shape[1] == 0


def cond_expectation(MA, l, tol=None):
    """E_l(m) = l |> m for a left integral l; verified to be an N-N
    bimodule map into the fixed points."""
    from .integrals import LeftIntegral

    t = tolerance(tol)
    li = l if isinstance(l, LeftIntegral) else None
    lw = li.element if li is not None else l
    if lw.parent is not MA.hopf.alg:
        raise ParentMismatch("integral lives in a different algebra")
    table = MA.act_op(lw.coords)
    E = ConditionalExpectation(MA.target, table, integral=lw, source=MA)

    N = MA.fixed_points(tol=tol)
    if not N.contains_coords(la.orth(table, tol=tol), tol=tol):
        raise ActionAxiomViolation("expectation range leaves the fixed points")
    M = MA.target
    ln, rn = M.left_mult_matrix(N.basis.T), M.right_mult_matrix(N.basis.T)
    gaps = np.maximum(np.abs(table @ ln - ln @ table).max(axis=(1, 2)),
                      np.abs(table @ rn - rn @ table).max(axis=(1, 2)))
    require_first([(gaps, "expectation is not a bimodule map", lambda ix: ix[0])],
                  SLACK_DERIVED * t, ActionAxiomViolation)
    return E


class QuasiBasis:
    def __init__(self, tensor, index):
        self.tensor = tensor      # T[p, q] against e_p (x) e_q
        self.index = index        # Element: sum of u_i v_i


def _quasi_basis_system(M, table):
    """Both quasi-basis identities as linear equations in the coefficients
    T[p, q] of T = sum T[p, q] e_p (x) e_q: rows (m, s) of
    sum T[p, q] e_p E(e_q e_m) and of sum T[p, q] E(e_m e_p) e_q, two
    (dim^2, dim^2) blocks that share G[x, y, u], the coordinates of
    E(e_x e_y)."""
    dm = M.dim
    g = M.mult @ table.T
    a1 = np.tensordot(g, M.mult, axes=([2], [1])).transpose(1, 3, 2, 0)  # [q, m, p, s]
    a2 = np.tensordot(g, M.mult, axes=([2], [0])).transpose(0, 3, 1, 2)  # [m, p, q, s]
    rhs = np.eye(dm).reshape(-1)
    return (np.vstack([a1.reshape(dm * dm, -1), a2.reshape(dm * dm, -1)]),
            np.concatenate([rhs, rhs]))


def quasi_basis(E, tol=None):
    """Solve for a tensor T = sum u_i (x) v_i with
    sum u_i E(v_i m) = m = sum E(m u_i) v_i, and the index sum u_i v_i.
    Raises NotIndexFinite when no solution fits, when the index depends on
    the solution chosen, or when it is not central.
    """
    M = E.algebra
    dm = M.dim
    sys, rhs = _quasi_basis_system(M, E.table)
    try:
        vec, ns = la.affine_solutions(sys, rhs, tol=tol)
    except NoSolution as exc:
        raise NotIndexFinite("no quasi-basis exists",
                             residual=exc.residual) from exc

    products = M.mult.reshape(dm * dm, dm)           # e_p e_q at row (p, q)
    index = vec @ products
    # the index is independent of the choice of solution
    if ns.shape[1]:
        require((vec + ns[:, 0]) @ products - index, SLACK_SOLVED * tolerance(tol),
                NotIndexFinite, "index depends on the quasi-basis choice")
    if not M.center(tol=tol).contains_coords(index.reshape(-1, 1), tol=tol):
        raise NotIndexFinite("index is not central")
    return QuasiBasis(vec.reshape(dm, dm), Element(M, index))


# ---------------------------------------------------------------------------
# implementers and outerness


def implementer_space(MA, ambient=None, inclusion=None, tol=None):
    """Solutions T : A -> ambient of T(a) m = (a(1) |> m) T(a(2)); the
    intertwiners of the coaction inside an extension of M."""
    W, M = MA.hopf, MA.target
    amb = ambient if ambient is not None else M
    incl = np.asarray(inclusion, dtype=complex) if inclusion is not None \
        else np.eye(M.dim, dtype=complex)
    da, dn = W.dim, amb.dim
    cop, act = W.cop, MA.act

    # rows indexed by (i, q, s), unknown blocks by (v, p):
    #   delta_{iv} R_{incl f_q}[s,p] - L_{incl(cop[i,.,v] |> f_q)}[s,p]
    rw = np.einsum("jq,pjs->qsp", incl, amb.mult, optimize=True)
    ct = np.zeros((da, M.dim, dn, da, dn), dtype=complex)
    idx = np.arange(da)
    ct[idx, :, :, idx, :] = rw[np.newaxis, :, :, :]
    x = np.tensordot(cop, act @ incl.T, axes=([1], [0])).transpose(0, 2, 1, 3)
    ct -= np.einsum("iqvj,jps->iqsvp", x, amb.mult, optimize=True)
    ns = la.null_space(ct.reshape(da * M.dim * dn, da * dn), tol=tol)
    return ns  # columns: flattened T with T(e_i) in block i, layout (i, entry)


def trivial_implementers(MA, tol=None, ambient=None, inclusion=None):
    """The implementers induced by dual left integrals, multiplied by the
    center of M."""
    from .integrals import left_integral_space

    W, M = MA.hopf, MA.target
    amb = ambient if ambient is not None else M
    incl = np.asarray(inclusion, dtype=complex) if inclusion is not None \
        else np.eye(M.dim, dtype=complex)
    da, dn = W.dim, amb.dim
    lam_space = left_integral_space(W.dual(), tol=tol)
    zc = M.center(tol=tol)
    # [j, i, :]: incl((lam_j -> e_i) |> 1), then times each central z
    arrows = np.tensordot(W.cop, lam_space.basis, axes=([2], [0]))     # [i, o, j]
    tl = arrows.transpose(2, 0, 1) @ MA.act_on_unit() @ incl.T
    lz = amb.left_mult_matrix((incl @ zc.basis).T)
    cols = np.matmul(tl[:, None], lz.swapaxes(-1, -2)[None])          # [j, z, i, :]
    return la.orth(cols.reshape(-1, da * dn).T, tol=tol)


def is_outer(MA, tol=None):
    """Outer = every implementer of the coaction inside M comes from the
    center of M times a dual left integral; cached per tolerance."""
    return memo(MA, ("outer", tolerance(tol)), lambda: la.span_equal(
        implementer_space(MA, tol=tol), trivial_implementers(MA, tol=tol), tol=tol))


def is_minimal(MA, tol=None):
    """Minimal = the relative commutant of the fixed points is C(M) M_R."""
    M = MA.target
    N = MA.fixed_points(tol=tol)
    from .algebra import commutant
    rel = commutant(N, M, tol=tol)
    zc = M.center(tol=tol)
    mr = MA.image_data(tol=tol).m_r
    prods = M.pair_products(zc.basis, mr.basis).reshape(-1, M.dim)
    cmr = la.orth(prods.T, tol=tol)
    return la.span_equal(rel.basis, cmr, tol=tol)


def is_regular(MA, tol=None):
    """Standard + outer + the center of M is exactly (A_L & A_R) |> 1."""
    data = MA.image_data(tol=tol)
    if not data.standard:
        return False
    W, M = MA.hopf, MA.target
    img = la.orth(data.mu @ W.boundary_intersection(tol=tol).basis, tol=tol)
    if not la.span_equal(img, M.center(tol=tol).basis, tol=tol):
        return False
    return is_outer(MA, tol=tol)


# ---------------------------------------------------------------------------
# invariant states, GNS and modular data


class GnsData:
    """GNS data of a faithful invariant state: Gram matrix, modular
    operator and modular conjugation of the Tomita map m -> m*."""

    def __init__(self, MA, omega, tol=None):
        t = tolerance(tol)
        M = MA.target
        self.module = MA
        self.omega = np.asarray(omega, dtype=complex)
        gram = M.star @ (M.mult @ self.omega)
        require(gram - gram.conj().T, SLACK_SOLVED * t, NotFaithful,
                "state form is not hermitian")
        w = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        if w.min() <= t:
            raise NotFaithful("state is not faithful", residual=float(w.min()))
        self.gram = gram
        self.c, self.c_inv = la.gram_sqrt(gram, tol=tol)
        k = self.c @ M.star.T @ np.conj(self.c_inv)
        delta_tilde = k.T @ np.conj(k)
        dw, dv = np.linalg.eigh((delta_tilde + delta_tilde.conj().T) / 2)
        if dw.min() <= 0:
            raise NotFaithful("modular operator is not positive")
        self._dw, self._dv = dw, dv
        self.delta = self.c_inv @ delta_tilde @ self.c
        kj = k @ np.conj(dv * (dw ** -0.5) @ dv.conj().T)
        self.jmat = self.c_inv @ kj @ np.conj(self.c)

    def state(self, m):
        return complex(self.omega @ m.coords)

    def inner(self, x, y):
        return complex(np.conj(x) @ self.gram @ y)

    def delta_power(self, z):
        pw = np.exp(np.asarray(z, dtype=complex) * np.log(self._dw))
        return self.c_inv @ (self._dv * pw) @ self._dv.conj().T @ self.c

    def conjugate(self, vec):
        """Antiunitary J applied to a coordinate vector."""
        return self.jmat @ np.conj(vec)

    def conjugation_sandwich(self, op):
        """J op J for a linear operator on the GNS space (J^2 = 1)."""
        return self.jmat @ np.conj(op) @ np.conj(self.jmat)


def invariant_state(MA, omega0, tol=None):
    """Average a state through the Haar expectation and build its GNS and
    modular data; raises NotFaithful when the averaged state is degenerate."""
    t = tolerance(tol)
    E = MA.haar_expectation(tol=tol)
    omega = np.asarray(omega0, dtype=complex) @ E.table
    # invariance identities
    W, M = MA.hopf, MA.target
    act1 = MA.act_on_unit()
    sinv1 = act1.T @ W.antipode_inv()         # columns: S^{-1}(e_i) |> 1
    s1 = act1.T @ W.antipode
    # rows i: omega(e_i |> m), omega(S^{-1}(e_i) |> 1 m), omega(m S(e_i) |> 1)
    lhs = MA.act @ omega
    rhs = omega @ M.left_mult_matrix(sinv1.T)
    rhs2 = omega @ M.right_mult_matrix(s1.T)
    require_first([(np.abs(lhs - rhs).max(axis=1), "averaged state is not invariant",
                    lambda ix: ix[0]),
                   (np.abs(lhs - rhs2).max(axis=1),
                    "averaged state fails the mirrored invariance", lambda ix: ix[0])],
                  SLACK_SOLVED * t, NotFaithful)
    return GnsData(MA, omega, tol=tol)


def modular_check(MA, gns, times=(1.0, 0.5), tol=None):
    """Modular flow and conjugation against the canonical grouplike element:
    the flow conjugates boundary products by powers of g, and J implements
    the bar involution."""
    from .algebra import positive_power
    from .hopf import star_conjugations

    W = MA.hopf
    hd = W.haar(tol=tol)
    lower, bar = star_conjugations(W, tol=tol)
    AL, AR = W.boundary("L", tol=tol), W.boundary("R", tol=tol)
    prods = W.alg.pair_products(AL.basis, AR.basis).reshape(-1, W.dim)
    basis = la.orth(prods.T, tol=tol)

    report = {}
    for tval in times:
        gaps = []
        dpow = gns.delta_power(1j * tval)
        dpow_inv = gns.delta_power(-1j * tval)
        gpow = positive_power(hd.g, 1j * tval, tol=tol)
        gpow_inv = positive_power(hd.g, -1j * tval, tol=tol)
        for j in range(basis.shape[1]):
            a = basis[:, j]
            lhs = dpow @ MA.act_op(a) @ dpow_inv
            moved = W.alg.product_coords(
                W.alg.product_coords(gpow.coords, a), gpow_inv.coords)
            rhs = MA.act_op(moved)
            gaps.append(lhs - rhs)
        report[f"flow_t={tval}"] = residual(*gaps)
    report["conjugation"] = residual(*(
        gns.conjugation_sandwich(MA.act_op(a))
        - MA.act_op(bar(Element(W.alg, a)).coords) for a in basis.T))
    return report


def galois_test(MA, tol=None):
    """Central support of the Haar expectation inside the crossed product,
    and the rank of the two-sided multiplication map around it.  The action
    is Galois when the support is the unit, equivalently when M h M fills
    the crossed product, which is the cached crossed_product of MA."""
    from .crossed import crossed_product

    t = tolerance(tol)
    X = crossed_product(MA, tol=tol)
    h = MA.hopf.haar(tol=tol).h
    E = MA.haar_expectation(tol=tol)
    qb = quasi_basis(E, tol=tol)
    eh = X.embed_a @ h.coords
    XA = X.algebra

    # sandwiches m_u eh m_v for every pair, laid out [u, v, :]
    sandwiches = XA.pair_products(XA.right_mult_matrix(eh) @ X.embed_m, X.embed_m)
    p = np.tensordot(qb.tensor, sandwiches, 2)
    p_el = Element(XA, p)
    require(residual(XA.product_coords(p, p) - p, XA.star_coords(p) - p),
            SLACK_COMPOSITE * t, ActionAxiomViolation, "Galois support is not a projection")
    if not XA.center(tol=tol).contains_coords(p.reshape(-1, 1), tol=tol):
        raise ActionAxiomViolation("Galois support is not central")

    gamma = sandwiches.reshape(-1, XA.dim).T
    gamma_rank = la.rank(gamma, tol=tol)
    mhm_dim = la.orth(gamma, tol=tol).shape[1]

    is_gal = residual(p - XA.unit) <= SLACK_COMPOSITE * t
    if is_gal != (gamma_rank == XA.dim) or mhm_dim != gamma_rank:
        raise ActionAxiomViolation("Galois criteria disagree")
    return p_el, is_gal, gamma_rank
