"""Weak C*-Hopf algebras: structure maps, axiom verification, duality,
arrow actions, counital maps, boundary subalgebras and their isomorphism
with the dual boundaries, purity, hypercenter and star conjugations.

verify_weak_hopf evaluates the axioms Ia-IIIc and the derived identities
as chains of pairwise matmul/tensordot products (see weakhopf._contract);
the boundary checks batch their basis-pair products.

Table conventions on top of algebra.StarAlgebra:

  * cop[i, j, k]  --  Delta(e_i) = sum cop[i,j,k] e_j (x) e_k
  * counit        --  covector, eps(x) = counit . x
  * antipode      --  matrix, S(x) = antipode @ x

Functionals on A are identified with elements of the dual algebra, so the
same arrow methods serve A acting on A^ and A^ acting on A.
"""

import numpy as np

from . import _linalg as la
from ._checks import outside, require, require_first, residual
from ._contract import evaluate, owned
from .algebra import Element, StarAlgebra, Subspace, _homomorphism_gaps
from .config import SLACK_DERIVED, memo, tolerance
from .errors import AxiomViolation, ParentMismatch

__all__ = [
    "WeakHopfAlgebra",
    "AxiomReport",
    "make_weak_hopf",
    "verify_weak_hopf",
    "dual",
    "arrow_left",
    "arrow_right",
    "boundary_subalgebra",
    "mu_iso",
    "is_pure",
    "hypercenter",
    "star_conjugations",
]

AXIOM_NAMES = [
    "Ia", "Ib", "Ic", "Id", "Id_prime", "IIa", "IIb", "IIb_prime",
    "IIIa", "IIIb", "IIIc",
]
DERIVED_NAMES = [
    "coproduct_one_commutator",
    "coproduct_antipode_recovery",
    "antipode_antimultiplicative",
    "antipode_coproduct_flip",
    "antipode_star_inverse",
    "projection_identity_L",
    "projection_identity_R",
    "projection_identity_L_inv",
    "projection_identity_R_inv",
    "counital_SL",
    "counital_LS",
    "counital_Linv",
    "counital_Rinv",
    "counital_sandwich",
    "counital_sandwich_hat",
    "counit_positive",
]


class WeakHopfAlgebra:
    def __init__(self, alg, cop, counit, antipode):
        cop = np.ascontiguousarray(cop, dtype=complex)
        counit = np.asarray(counit, dtype=complex)
        antipode = np.asarray(antipode, dtype=complex)
        n = alg.dim
        if cop.shape != (n, n, n) or counit.shape != (n,) or antipode.shape != (n, n):
            raise ValueError("structure map dimensions do not match the algebra")
        self.alg = alg
        self.cop = cop
        self.counit = counit
        self.antipode = antipode
        self._cache = {}
        alg._wha = self  # lets arrow helpers recover the Hopf structure

    @property
    def dim(self):
        return self.alg.dim

    def __repr__(self):
        return f"WeakHopfAlgebra(dim={self.dim})"

    # -- structure maps on coordinates -----------------------------------
    def delta_coords(self, x):
        return np.tensordot(x, self.cop, axes=1)

    def eps_coords(self, x):
        return complex(self.counit @ x)

    def s_coords(self, x):
        return self.antipode @ x

    def antipode_inv(self):
        return memo(self, "sinv", lambda: np.linalg.inv(self.antipode))

    def s_inv_coords(self, x):
        return self.antipode_inv() @ x

    def delta_one(self):
        return memo(self, "D1", lambda: self.delta_coords(self.alg.unit))

    # -- element-level wrappers -------------------------------------------
    def element(self, coords):
        return self.alg.element(coords)

    def eps(self, x):
        return self.eps_coords(x.coords)

    def s_apply(self, x):
        return Element(self.alg, self.s_coords(x.coords))

    def s_inv_apply(self, x):
        return Element(self.alg, self.s_inv_coords(x.coords))

    # -- duality ------------------------------------------------------------
    def dual(self):
        """The dual weak Hopf algebra on the dual basis.  dual().dual()
        is this object again, giving a bit-exact double dual."""
        def build():
            dual_mult = np.ascontiguousarray(np.transpose(self.cop, (1, 2, 0)))
            dual_cop = np.ascontiguousarray(np.transpose(self.alg.mult, (2, 0, 1)))
            dual_unit = self.counit.copy()
            dual_counit = self.alg.unit.copy()
            dual_s = self.antipode.T.copy()
            dual_star = self.alg.star.conj().T @ self.antipode
            labels = [lb + "^" for lb in self.alg.labels]
            dalg = StarAlgebra(dual_mult, dual_unit, dual_star, labels=labels)
            W = WeakHopfAlgebra(dalg, dual_cop, dual_counit, dual_s)
            memo(W, "dual", lambda: self)
            return W

        return memo(self, "dual", build)

    @property
    def dual_alg(self):
        return self.dual().alg

    def functional(self, covector):
        return Element(self.dual_alg, covector)

    # -- arrow actions ------------------------------------------------------
    def arrow_left_coords(self, a, phi):
        """(a -> phi)(b) = phi(b a): left action of A on its dual."""
        return self.alg.right_mult_matrix(a).T @ phi

    def arrow_right_coords(self, phi, a):
        """(phi <- a)(b) = phi(a b): right action of A on its dual."""
        return self.alg.left_mult_matrix(a).T @ phi

    def arrow_left(self, a, phi):
        if a.parent is not self.alg or phi.parent is not self.dual_alg:
            raise ParentMismatch("arrow_left expects (element, functional)")
        return Element(self.dual_alg, self.arrow_left_coords(a.coords, phi.coords))

    def arrow_right(self, phi, a):
        if a.parent is not self.alg or phi.parent is not self.dual_alg:
            raise ParentMismatch("arrow_right expects (functional, element)")
        return Element(self.dual_alg, self.arrow_right_coords(phi.coords, a.coords))

    # -- counital maps ------------------------------------------------------
    def counital(self, which):
        """Matrices of eps_L, eps_R : A -> A^ and their hat versions
        A^ -> A (keys 'L', 'R', 'hL', 'hR'), and of the counital
        projections of A onto its boundaries: 'LS' a -> a(1) S(a(2)),
        'SL' a -> S(a(1)) a(2) and 'Rinv' a -> a(2) S^-1(a(1))."""
        def build():
            er, d1 = self.alg.mult @ self.counit, self.delta_one()
            return {"L": er.T, "R": er, "hL": d1.T, "hR": d1,
                    "LS": d1.T @ er, "SL": d1 @ er.T, "Rinv": d1 @ er}

        return memo(self, "counital", build)[which]

    # -- boundary subalgebras ------------------------------------------------
    def boundary(self, side, tol=None):
        def build():
            if side not in ("L", "R"):
                raise ValueError("side must be 'L' or 'R'")
            return Subspace(self.alg, self.counital("h" + side), tol=tol)

        return memo(self, ("boundary", side, tolerance(tol)), build)

    def boundary_intersection(self, tol=None):
        """A_L & A_R, cached per tolerance."""
        return memo(self, ("boundary_meet", tolerance(tol)),
                    lambda: self.boundary("L", tol=tol).intersect(
                        self.boundary("R", tol=tol), tol=tol))

    def haar(self, tol=None):
        """Haar data, cached per tolerance by the integrals module."""
        from .integrals import haar
        return haar(self, tol=tol)


def make_weak_hopf(alg, cop, counit, antipode, tol=None):
    """Construct and hard-verify; raises AxiomViolation on the first
    axiom whose residual exceeds the tolerance."""
    W = WeakHopfAlgebra(alg, cop, counit, antipode)
    report = verify_weak_hopf(W, tol=tol)
    bad = report.failures(tol=tol)
    if bad:
        name = bad[0]
        raise AxiomViolation(f"axiom {name} fails", where=name,
                             residual=report.residuals.get(name))
    return W


class AxiomReport:
    """Per-axiom residual norms (inf-norm of coordinate tables)."""

    def __init__(self, residuals, antipode_invertible):
        self.residuals = dict(residuals)
        self.antipode_invertible = bool(antipode_invertible)

    def passed(self, tol=None):
        return self.antipode_invertible and not self.failures(tol=tol)

    def failures(self, tol=None):
        names = self._outside(self.residuals, tol)
        if not self.antipode_invertible:
            names.append("antipode_invertible")
        return names

    def relaxed_passed(self, tol=None):
        """The lighter system: antimultiplicativity, the coproduct flip and
        commuting one-leg coproducts.  When it holds, the stronger axioms
        are expected to be implied; strong axioms stay the acceptance gate."""
        keys = ["antipode_antimultiplicative", "antipode_coproduct_flip",
                "coproduct_one_commutator"]
        return not self._outside(keys, tol)

    def strong_implied(self, tol=None):
        keys = ["Id", "Id_prime", "IIb", "IIb_prime", "IIIc"]
        return not self._outside(keys, tol)

    def _outside(self, keys, tol):
        """The keys whose residual is not within the tolerance; a
        non-finite residual is always outside."""
        bad = outside([self.residuals[k] for k in keys], tolerance(tol))
        return [k for k, b in zip(keys, bad) if b]

    def max_residual(self):
        return float(np.max(list(self.residuals.values())))


# Ia, both sides at [i, u, j, v]: the ring cop[i,a,b] cop[j,c,d] mult[a,c,u]
# mult[b,d,v] through its halves [i, u, (b, c)] and [(b, c), (j, v)], against
# mult[i,j,k] cop[k,u,v]; on the dense path the second half is held whole
IA = (("iubc,bcjv->iujv", ("iab,acu->iubc", "cop", "mult"), ("jcd,bdv->bcjv", "cop", "mult")),
      ("ijk,kuv->iujv", "mult", "cop"))
# Ic: t1 = (Delta (x) id) Delta against (id (x) Delta) Delta, at [i, x, y, z]
T1 = ("axy,iaz->ixyz", "cop", "cop")
IC = (T1, ("ixb,byz->ixyz", "cop", "cop"))
# the projection identities R and L_inv, at [i, x, q]: t1 over (y, z)
# against the antipode tables x S(y) and S^-1(y) x, and Delta(1) against mult
PROJECTION_R = (("ixyz,yzq->ixq", T1, "xS(y)"), ("kix,kq->ixq", "mult", "D1"))
PROJECTION_L_INV = (("ixyz,yzq->ixq", T1, "S^-1(y)x"), ("ikx,kq->ixq", "mult", "D1"))


def verify_weak_hopf(W, tol=None):
    """Evaluate every axiom and the derived identity suite as table
    identities; failures are report entries, never exceptions.

    Every identity is a chain of pairwise products (see weakhopf._contract).
    The antipode enters through four (n^2, n) tables [(x, y), q] that are
    formed once: S(x) y, x S(y), S^-1(y) x and y S^-1(x).

    Ia, Ic and the two projection identities that contract t1 over (y, z)
    are declared (IA, IC, PROJECTION_R, PROJECTION_L_INV) and evaluated by
    weakhopf._contract.evaluate, over nonzero lists for monomial tables and
    by dense slices of i otherwise; the dense t1 slices feed all three.
    The contractions of t1 over (x, y) behind IIIc, the antipode recovery
    and two projection identities are reassociated through cop, n^4 flops
    on every table.
    """
    A, cop, eps, smat = W.alg, W.cop, W.counit, W.antipode
    mult, unit, n = A.mult, A.unit, A.dim
    m2 = mult.reshape(n * n, n)            # [(i, j), k]
    c2 = cop.reshape(n, n * n)             # [i, (j, k)]
    r = {}

    # a non-finite antipode is reported as not invertible, not factored
    s_invertible = bool(np.isfinite(smat).all()) and la.invertible(smat, tol=tol)[0]
    sinv = np.linalg.inv(smat) if s_invertible else None

    # the antipode tables [(x, y), q]
    s_xy = np.tensordot(smat, mult, axes=([0], [0])).reshape(n * n, n)
    x_sy = np.matmul(smat.T, mult).reshape(n * n, n)
    D1 = (unit @ c2).reshape(n, n)
    tables = {"mult": owned(A, "mult"), "cop": owned(W, "cop"), "D1": D1}
    identities = [IA, IC]
    if s_invertible:
        siy_x = np.matmul(sinv.T, mult.transpose(1, 0, 2)).reshape(n * n, n)
        y_six = np.tensordot(sinv, mult, axes=([0], [1])).reshape(n * n, n)
        tables["xS(y)"] = x_sy.reshape(n, n, n)
        tables["S^-1(y)x"] = siy_x.reshape(n, n, n)
        identities += [PROJECTION_R, PROJECTION_L_INV]
    (r["Ia"], _), (ic, _), *projections = evaluate(tables, *identities)

    r["Ib"] = residual((A.star @ c2).reshape(n, n, n)
                       - A.star.T @ np.conj(cop) @ A.star)
    r["Ic"] = ic

    # the contractions of t1 = (Delta (x) id) Delta against antipode
    # tables over (x, y) at [i, q, z], t1[i,x,y,z] = cop[i,w,z] cop[w,x,y]
    # reassociates to cop[i,w,z] (c2 @ table)[w,q], n^4 flops.
    over_xy = {"S(x)y": s_xy, "xS(y)": x_sy}
    if s_invertible:
        over_xy["yS^-1(x)"] = y_six
    xy = {k: np.matmul((c2 @ table).T, cop) for k, table in over_xy.items()}

    D3 = (c2.T @ D1).reshape(n, n, n)
    idp = np.matmul((D1 @ mult.reshape(n, n * n)).reshape(n, n, n)
                    .transpose(0, 2, 1), D1)
    idq = (D1.T @ np.matmul(D1, mult).reshape(n, n * n)) \
        .reshape(n, n, n).transpose(1, 2, 0)
    r["Id"] = residual(idp - D3)
    r["Id_prime"] = residual(idq - D3)
    r["coproduct_one_commutator"] = residual(idp - idq)

    eye = np.eye(n)
    r["IIa"] = residual(eps @ cop - eye, cop @ eps - eye)

    E2 = mult @ eps
    E3 = (m2 @ E2).reshape(n, n, n)
    r["IIb"] = residual(E3 - (E2 @ cop @ E2).transpose(1, 0, 2))
    r["IIb_prime"] = residual(E3 - (E2 @ cop.transpose(0, 2, 1) @ E2)
                              .transpose(1, 0, 2))

    # antipode axioms; the counital maps provide the right-hand sides
    sxy = (c2 @ s_xy).T                                          # S(x1)x2
    xys = (c2 @ x_sy).T                                          # x1 S(x2)
    r["IIIa"] = residual(sxy - D1 @ E2.T)
    r["IIIb"] = residual(xys - D1.T @ E2)
    proj_l = xy["S(x)y"]                                         # S(x1)x2 (x) x3
    r["IIIc"] = residual((proj_l.reshape(n, n * n) @ x_sy).T - smat)

    rec = xy["xS(y)"].reshape(n, n * n) @ m2                     # x1 S(x2) x3
    r["coproduct_antipode_recovery"] = residual(rec.T - eye)

    r["antipode_antimultiplicative"] = residual(
        (m2 @ smat.T).reshape(n, n, n)
        - np.matmul(smat.T, s_xy.reshape(n, n, n)).transpose(1, 0, 2))

    r["antipode_coproduct_flip"] = residual(
        (smat.T @ c2).reshape(n, n, n) - smat @ cop.transpose(0, 2, 1) @ smat.T)

    if s_invertible:
        lhs = A.star.T @ np.conj(smat) @ np.conj(A.star).T
        r["antipode_star_inverse"] = residual(lhs - sinv)

        # each left side is compared position by position with its
        # right side, in the index order the identity is written in
        r["projection_identity_L"] = residual(proj_l - np.matmul(D1, mult))
        r["projection_identity_R"] = projections[0][0]
        r["projection_identity_L_inv"] = projections[1][0]
        rhs = (D1 @ mult.reshape(n, n * n)).reshape(n, n, n).transpose(1, 2, 0)
        r["projection_identity_R_inv"] = residual(
            xy["yS^-1(x)"].transpose(0, 2, 1) - rhs)

        # the four counital factorizations and their sandwich laws
        EL, ER = W.counital("L"), W.counital("R")
        hEL, hER = W.counital("hL"), W.counital("hR")
        r["counital_SL"] = residual(sxy - W.counital("SL"))
        r["counital_LS"] = residual(xys - W.counital("LS"))
        r["counital_Linv"] = residual((c2 @ siy_x).T - hEL @ EL)      # S^-1(x2)x1
        r["counital_Rinv"] = residual((c2 @ y_six).T - W.counital("Rinv"))
        r["counital_sandwich"] = residual(*(a @ b @ a - a for a in (EL, ER)
                                            for b in (hEL, hER)))
        r["counital_sandwich_hat"] = residual(*(a @ b @ a - a for a in (hEL, hER)
                                                for b in (EL, ER)))
    else:
        for k in ["antipode_star_inverse", "projection_identity_L",
                  "projection_identity_R", "projection_identity_L_inv",
                  "projection_identity_R_inv", "counital_SL", "counital_LS",
                  "counital_Linv", "counital_Rinv", "counital_sandwich",
                  "counital_sandwich_hat"]:
            r[k] = float("inf")

    # positivity of the counit as a state: the skew part of its Gram
    # matrix and the negative part of the lowest eigenvalue
    geps = A.star @ E2
    lam = np.linalg.eigvalsh((geps + geps.conj().T) / 2).min() \
        if np.isfinite(geps).all() else np.nan
    r["counit_positive"] = residual(geps - geps.conj().T, np.minimum(lam, 0.0))

    return AxiomReport(r, s_invertible)


# ---------------------------------------------------------------------------
# free-function forms of the spec operations


def dual(W):
    return W.dual()


def arrow_left(a, phi):
    """<a -> phi | b> = <phi | b a>.  Dispatches on the parents, so it also
    covers the dual algebra acting on the original one."""
    W = _wha_for(a.parent, phi.parent)
    return W.arrow_left(a, phi)


def arrow_right(phi, a):
    W = _wha_for(a.parent, phi.parent)
    return W.arrow_right(phi, a)


def _wha_for(alg, dual_alg):
    W = getattr(alg, "_wha", None)
    if W is not None and W.dual_alg is dual_alg:
        return W
    W = getattr(dual_alg, "_wha", None)
    if W is not None and W.dual_alg is alg:
        return W.dual()
    raise ParentMismatch("no weak Hopf algebra links these parents")


def boundary_subalgebra(W, side, tol=None):
    """Computed span of one leg of Delta(1); certified as a unital
    *-subalgebra and checked against the coproduct characterizations."""
    S = W.boundary(side, tol=tol)
    if not all(S.certify(tol=tol).values()):
        raise AxiomViolation("boundary is not a unital *-subalgebra", where=side)
    t = tolerance(tol)
    A, D1 = W.alg, W.delta_one()
    B = S.basis
    da = np.tensordot(B, W.cop, axes=([0], [0]))               # [j, u, v]
    if side == "L":
        # Delta(a) = a 1(1) (x) 1(2) = 1(1) a (x) 1(2), at [j, u, q]
        t1 = A.pair_products(B, D1).transpose(0, 2, 1)
        t2 = A.pair_products(D1, B).transpose(1, 2, 0)
    else:
        # Delta(a) = 1(1) (x) a 1(2) = 1(1) (x) 1(2) a, at [j, p, v]
        t1 = A.pair_products(B, D1.T)
        t2 = A.pair_products(D1.T, B).transpose(1, 0, 2)
    gaps = np.maximum(np.abs(da - t1).max(axis=(1, 2)),
                      np.abs(da - t2).max(axis=(1, 2)))
    require_first([(gaps, "boundary characterization fails", lambda ix: (side,) + ix)],
                  t, AxiomViolation)
    # the two sides commute elementwise
    other = W.boundary("R" if side == "L" else "L", tol=tol).basis
    gaps = np.abs(A.pair_products(B, other)
                  - A.pair_products(other, B).transpose(1, 0, 2)).max(axis=2)
    require_first([(gaps, "boundary subalgebras do not commute", tuple)], t,
                  AxiomViolation)
    # Delta(1) lives in A_R (x) A_L
    AR = W.boundary("R", tol=tol)
    AL = W.boundary("L", tol=tol)
    if not (AR.contains_coords(la.orth(D1, tol=tol), tol=tol)
            and AL.contains_coords(la.orth(D1.T, tol=tol), tol=tol)):
        raise AxiomViolation("coproduct of the unit leaves the boundary span")
    return S


def mu_iso(W, side, tol=None):
    """The *-isomorphism between a boundary subalgebra and the opposite
    boundary of the dual; returns (matrix, inverse matrix) acting on full
    coordinates, verified on the subalgebra basis."""
    t = tolerance(tol)
    Wd = W.dual()
    if side == "R":
        dom, cod = W.boundary("L", tol=tol), Wd.boundary("R", tol=tol)
        fwd, bwd = W.counital("R"), W.counital("hL")
        salt = Wd.antipode @ W.counital("L")
    elif side == "L":
        dom, cod = W.boundary("R", tol=tol), Wd.boundary("L", tol=tol)
        fwd, bwd = W.counital("L"), W.counital("hR")
        salt = Wd.antipode @ W.counital("R")
    else:
        raise ValueError("side must be 'L' or 'R'")
    img = fwd @ dom.basis
    if not cod.contains_coords(img, tol=tol) or la.rank(img, tol=tol) != dom.dim \
            or cod.dim != dom.dim:
        raise AxiomViolation("boundary map is not bijective", where=side)
    require(bwd @ img - dom.basis, SLACK_DERIVED * t, AxiomViolation,
            "boundary map inverse fails", where=side)
    require(salt @ dom.basis - img, SLACK_DERIVED * t, AxiomViolation,
            "boundary map antipode form fails", where=side)
    # *-homomorphism on the subalgebra basis; the first failing basis
    # vector is reported, its products before its star
    def at(ix):
        return (side,) + ix

    mgaps, sgaps = _homomorphism_gaps(W.alg, Wd.alg, fwd, dom.basis)
    require_first([(mgaps, "boundary map is not multiplicative", at),
                   (sgaps, "boundary map is not star-preserving", at)],
                  SLACK_DERIVED * t, AxiomViolation)
    return fwd, bwd


def is_pure(W, tol=None):
    """Pure = the counit is a pure state; decided by A_sigma & C(A) = C,
    cross-checked on the dual boundary intersection."""
    AL = W.boundary("L", tol=tol)
    AR = W.boundary("R", tol=tol)
    ZA = W.alg.center(tol=tol)
    crit3 = AL.intersect(ZA, tol=tol).dim == 1 and AR.intersect(ZA, tol=tol).dim == 1
    Wd = W.dual()
    crit2 = Wd.boundary_intersection(tol=tol).dim == 1
    if crit2 != crit3:
        raise AxiomViolation("purity criteria disagree between A and its dual")
    return crit2


def hypercenter(W, tol=None):
    """A_L & A_R & C(A); canonically isomorphic to its dual counterpart
    through the counital maps."""
    Z = W.boundary_intersection(tol=tol).intersect(W.alg.center(tol=tol), tol=tol)
    Wd = W.dual()
    Zd = Wd.boundary_intersection(tol=tol).intersect(Wd.alg.center(tol=tol), tol=tol)
    img = W.counital("R") @ Z.basis
    if Zd.dim != Z.dim or la.rank(img, tol=tol) != Z.dim \
            or not Zd.contains_coords(img, tol=tol):
        raise AxiomViolation("hypercenter does not match its dual")
    return Z


def star_conjugations(W, tol=None):
    """The antilinear involutions x -> x_* = S(x)^* and the modular
    conjugation x -> g^(1/2) x_* g^(-1/2)."""
    A = W.alg
    lower_mat = A.star.T @ np.conj(W.antipode)

    def lower(x):
        return Element(A, lower_mat @ np.conj(x.coords))

    hd = W.haar(tol=tol)
    g_half = hd.g_half.coords
    g_half_inv = hd.g_half_inv.coords

    def bar(x):
        mid = lower_mat @ np.conj(x.coords)
        return Element(A, A.product_coords(A.product_coords(g_half, mid), g_half_inv))

    return lower, bar
