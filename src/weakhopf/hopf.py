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
from ._contract import pair_products
from .algebra import Element, StarAlgebra, Subspace
from .config import tolerance
from .errors import AxiomViolation, ParentMismatch

__all__ = [
    "WeakHopfAlgebra",
    "AxiomReport",
    "make_weak_hopf",
    "verify_weak_hopf",
    "dual",
    "arrow_left",
    "arrow_right",
    "counit_maps",
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
        if "sinv" not in self._cache:
            self._cache["sinv"] = np.linalg.inv(self.antipode)
        return self._cache["sinv"]

    def s_inv_coords(self, x):
        return self.antipode_inv() @ x

    def delta_one(self):
        if "D1" not in self._cache:
            self._cache["D1"] = self.delta_coords(self.alg.unit)
        return self._cache["D1"]

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
        if "dual" not in self._cache:
            dual_mult = np.ascontiguousarray(np.transpose(self.cop, (1, 2, 0)))
            dual_cop = np.ascontiguousarray(np.transpose(self.alg.mult, (2, 0, 1)))
            dual_unit = self.counit.copy()
            dual_counit = self.alg.unit.copy()
            dual_s = self.antipode.T.copy()
            dual_star = self.alg.star.conj().T @ self.antipode
            labels = [lb + "^" for lb in self.alg.labels]
            dalg = StarAlgebra(dual_mult, dual_unit, dual_star, labels=labels)
            W = WeakHopfAlgebra(dalg, dual_cop, dual_counit, dual_s)
            W._cache["dual"] = self
            self._cache["dual"] = W
        return self._cache["dual"]

    @property
    def dual_alg(self):
        return self.dual().alg

    def functional(self, covector):
        return Element(self.dual_alg, covector)

    def pair(self, phi, a):
        """Canonical pairing <phi|a>; arguments may come in either order."""
        if phi.parent is self.alg and a.parent is self.dual_alg:
            phi, a = a, phi
        if phi.parent is not self.dual_alg or a.parent is not self.alg:
            raise ParentMismatch("pairing requires an element and a functional")
        return complex(phi.coords @ a.coords)

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
        A^ -> A; keys 'L', 'R', 'hL', 'hR'."""
        if "counital" not in self._cache:
            er, d1 = self.alg.mult @ self.counit, self.delta_one()
            maps = {"L": er.T, "R": er, "hL": d1.T, "hR": d1}
            self._cache["counital"] = maps
        return self._cache["counital"][which]

    # -- boundary subalgebras ------------------------------------------------
    def boundary(self, side, tol=None):
        key = f"boundary{side}"
        if key not in self._cache:
            if side == "L":
                img = self.counital("hL")
            elif side == "R":
                img = self.counital("hR")
            else:
                raise ValueError("side must be 'L' or 'R'")
            S = Subspace(self.alg, img, tol=tol)
            S.certify(tol=tol)
            self._cache[key] = S
        return self._cache[key]

    def haar(self, tol=None):
        """Cached Haar data; computed by the integrals module."""
        if "haar" not in self._cache:
            from .integrals import haar
            self._cache["haar"] = haar(self, tol=tol)
        return self._cache["haar"]


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
        """The keys whose residual is not within the tolerance; NaN
        compares false, so a non-finite residual is always outside."""
        t = tolerance(tol)
        return [k for k in keys if not self.residuals[k] <= t]

    def max_residual(self):
        return float(np.max(list(self.residuals.values())))

    def as_dict(self):
        out = dict(self.residuals)
        out["antipode_invertible"] = self.antipode_invertible
        return out


def _mx(t):
    return float(np.abs(t).max()) if t.size else 0.0


def verify_weak_hopf(W, tol=None):
    """Evaluate every axiom and the derived identity suite as table
    identities; failures are report entries, never exceptions.

    Every identity is a chain of pairwise products (see weakhopf._contract).
    The antipode enters through four (n^2, n) tables [(x, y), q] that are
    formed once: S(x) y, x S(y), S^-1(y) x and y S^-1(x).  The n^4 table
    t1 = (Delta (x) id) Delta is formed once, in the layout [i, x, y, z]:
    contracting its legs (x, y) is a batched product and (y, z) one GEMM.
    Every other n^4 temporary is freed once its residual is taken.
    """
    A, cop, eps, smat = W.alg, W.cop, W.counit, W.antipode
    mult, unit, n = A.mult, A.unit, A.dim
    m2 = mult.reshape(n * n, n)            # [(i, j), k]
    c2 = cop.reshape(n, n * n)             # [i, (j, k)]
    r = {}

    sv = np.linalg.svd(smat, compute_uv=False)
    s_invertible = bool(sv.size and sv[-1] > tolerance(tol) * max(1.0, sv[0]))
    sinv = np.linalg.inv(smat) if s_invertible else None

    # Ia, both sides in the layout [(i, u), (j, v)].  The right side
    # cop[i,a,b] cop[j,c,d] mult[a,c,u] mult[b,d,v] is a ring of four
    # tables: its two halves [(i, u), (b, c)] and [(b, c), (j, v)] are
    # batched products, and their product is the one n^6 GEMM of the suite.
    cop_ib = np.ascontiguousarray(cop.transpose(0, 2, 1))       # [i, b, a]
    cop_cj = np.ascontiguousarray(cop.transpose(1, 0, 2))       # [c, j, d]
    mult_u = np.ascontiguousarray(mult.transpose(2, 0, 1))      # [u, a, c]
    left = np.matmul(cop_ib[:, None], mult_u[None])             # [i, u, b, c]
    right = np.matmul(cop_cj[None], mult[:, None])              # [b, c, j, v]
    gap = (left.reshape(n * n, n * n) @ right.reshape(n * n, n * n)) \
        .reshape(n, n, n, n)
    del left, right
    gap -= (m2 @ c2).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    r["Ia"] = _mx(gap)
    del gap

    r["Ib"] = _mx((A.star @ c2).reshape(n, n, n)
                  - A.star.T @ np.conj(cop) @ A.star)

    t1 = np.matmul(c2.T, cop).reshape(n, n, n, n)               # [i, x, y, z]
    t1_yz = t1.reshape(n * n, n * n)                            # [(i, x), (y, z)]
    gap = cop.reshape(n * n, n) @ c2
    gap -= t1_yz
    r["Ic"] = _mx(gap)
    del gap

    def over_xy(table):
        """sum_{x,y} t1[i,x,y,z] table[(x, y), q] at [i, q, z]."""
        return np.matmul(table.T, t1.reshape(n, n * n, n))

    def over_yz(table):
        """sum_{y,z} t1[i,x,y,z] table[(y, z), q] at [i, x, q]."""
        return (t1_yz @ table).reshape(n, n, n)

    D1 = (unit @ c2).reshape(n, n)
    D3 = (c2.T @ D1).reshape(n, n, n)
    idp = np.matmul((D1 @ mult.reshape(n, n * n)).reshape(n, n, n)
                    .transpose(0, 2, 1), D1)
    idq = (D1.T @ np.matmul(D1, mult).reshape(n, n * n)) \
        .reshape(n, n, n).transpose(1, 2, 0)
    r["Id"] = _mx(idp - D3)
    r["Id_prime"] = _mx(idq - D3)
    r["coproduct_one_commutator"] = _mx(idp - idq)

    eye = np.eye(n)
    r["IIa"] = max(_mx(eps @ cop - eye), _mx(cop @ eps - eye))

    E2 = mult @ eps
    E3 = (m2 @ E2).reshape(n, n, n)
    r["IIb"] = _mx(E3 - (E2 @ cop @ E2).transpose(1, 0, 2))
    r["IIb_prime"] = _mx(E3 - (E2 @ cop.transpose(0, 2, 1) @ E2)
                         .transpose(1, 0, 2))

    # antipode axioms; the counital maps provide the right-hand sides
    s_xy = np.tensordot(smat, mult, axes=([0], [0])).reshape(n * n, n)
    x_sy = np.matmul(smat.T, mult).reshape(n * n, n)
    sxy = (c2 @ s_xy).T                                          # S(x1)x2
    xys = (c2 @ x_sy).T                                          # x1 S(x2)
    r["IIIa"] = _mx(sxy - D1 @ E2.T)
    r["IIIb"] = _mx(xys - D1.T @ E2)
    proj_l = over_xy(s_xy)                                       # S(x1)x2 (x) x3
    r["IIIc"] = _mx((proj_l.reshape(n, n * n) @ x_sy).T - smat)

    rec = over_xy(x_sy).reshape(n, n * n) @ m2                   # x1 S(x2) x3
    r["coproduct_antipode_recovery"] = _mx(rec.T - eye)

    r["antipode_antimultiplicative"] = _mx(
        (m2 @ smat.T).reshape(n, n, n)
        - np.matmul(smat.T, s_xy.reshape(n, n, n)).transpose(1, 0, 2))

    r["antipode_coproduct_flip"] = _mx(
        (smat.T @ c2).reshape(n, n, n) - smat @ cop.transpose(0, 2, 1) @ smat.T)

    if s_invertible:
        lhs = A.star.T @ np.conj(smat) @ np.conj(A.star).T
        r["antipode_star_inverse"] = _mx(lhs - sinv)

        siy_x = np.matmul(sinv.T, mult.transpose(1, 0, 2)).reshape(n * n, n)
        y_six = np.tensordot(sinv, mult, axes=([0], [1])).reshape(n * n, n)

        # each left side is compared position by position with its
        # right side, in the index order the identity is written in
        r["projection_identity_L"] = _mx(proj_l - np.matmul(D1, mult))
        rhs = (D1.T @ mult.reshape(n, n * n)).reshape(n, n, n).transpose(1, 2, 0)
        r["projection_identity_R"] = _mx(over_yz(x_sy) - rhs)
        r["projection_identity_L_inv"] = _mx(
            over_yz(siy_x).transpose(0, 2, 1) - np.matmul(D1.T, mult))
        rhs = (D1 @ mult.reshape(n, n * n)).reshape(n, n, n).transpose(1, 2, 0)
        r["projection_identity_R_inv"] = _mx(
            over_xy(y_six).transpose(0, 2, 1) - rhs)

        # the four counital factorizations and their sandwich laws
        EL, ER = W.counital("L"), W.counital("R")
        hEL, hER = W.counital("hL"), W.counital("hR")
        r["counital_SL"] = _mx(sxy - hER @ EL)
        r["counital_LS"] = _mx(xys - hEL @ ER)
        r["counital_Linv"] = _mx((c2 @ siy_x).T - hEL @ EL)      # S^-1(x2)x1
        r["counital_Rinv"] = _mx((c2 @ y_six).T - hER @ ER)      # x2 S^-1(x1)
        sandwich = 0.0
        for a in (EL, ER):
            for b in (hEL, hER):
                sandwich = max(sandwich, _mx(a @ b @ a - a))
        sandwich_hat = 0.0
        for a in (hEL, hER):
            for b in (EL, ER):
                sandwich_hat = max(sandwich_hat, _mx(a @ b @ a - a))
        r["counital_sandwich"] = sandwich
        r["counital_sandwich_hat"] = sandwich_hat
    else:
        for k in ["antipode_star_inverse", "projection_identity_L",
                  "projection_identity_R", "projection_identity_L_inv",
                  "projection_identity_R_inv", "counital_SL", "counital_LS",
                  "counital_Linv", "counital_Rinv", "counital_sandwich",
                  "counital_sandwich_hat"]:
            r[k] = float("inf")

    # positivity of the counit as a state
    geps = A.star @ E2
    herm = _mx(geps - geps.conj().T)
    lam = np.linalg.eigvalsh((geps + geps.conj().T) / 2).min()
    r["counit_positive"] = max(herm, float(max(0.0, -lam)))

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


class CounitMaps:
    def __init__(self, W):
        self.eps_l = W.counital("L")
        self.eps_r = W.counital("R")
        self.eps_l_hat = W.counital("hL")
        self.eps_r_hat = W.counital("hR")


def counit_maps(W):
    return CounitMaps(W)


def boundary_subalgebra(W, side, tol=None):
    """Computed span of one leg of Delta(1); certified as a unital
    *-subalgebra and checked against the coproduct characterizations."""
    S = W.boundary(side, tol=tol)
    t = tolerance(tol)
    A, D1 = W.alg, W.delta_one()
    B = S.basis
    da = np.tensordot(B, W.cop, axes=([0], [0]))               # [j, u, v]
    if side == "L":
        # Delta(a) = a 1(1) (x) 1(2) = 1(1) a (x) 1(2), at [j, u, q]
        t1 = pair_products(A.mult, B, D1).transpose(0, 2, 1)
        t2 = pair_products(A.mult, D1, B).transpose(1, 2, 0)
    else:
        # Delta(a) = 1(1) (x) a 1(2) = 1(1) (x) 1(2) a, at [j, p, v]
        t1 = pair_products(A.mult, B, D1.T)
        t2 = pair_products(A.mult, D1.T, B).transpose(1, 0, 2)
    gaps = np.maximum(np.abs(da - t1).max(axis=(1, 2)),
                      np.abs(da - t2).max(axis=(1, 2)))
    bad = np.flatnonzero(gaps > t)
    if bad.size:
        j = int(bad[0])
        raise AxiomViolation("boundary characterization fails",
                             where=(side, j), residual=float(gaps[j]))
    # the two sides commute elementwise
    other = W.boundary("R" if side == "L" else "L", tol=tol).basis
    gaps = np.abs(pair_products(A.mult, B, other)
                  - pair_products(A.mult, other, B).transpose(1, 0, 2)).max(axis=2)
    bad = np.argwhere(gaps > t)
    if bad.size:
        i, j = (int(x) for x in bad[0])
        raise AxiomViolation("boundary subalgebras do not commute",
                             where=(i, j), residual=float(gaps[i, j]))
    # Delta(1) lives in A_R (x) A_L
    AR = W.boundary("R", tol=tol)
    AL = W.boundary("L", tol=tol)
    if not (AR.contains_coords(la.orth(D1), tol=tol)
            and AL.contains_coords(la.orth(D1.T), tol=tol)):
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
    if _mx(bwd @ img - dom.basis) > 100 * t:
        raise AxiomViolation("boundary map inverse fails", where=side,
                             residual=_mx(bwd @ img - dom.basis))
    if _mx(salt @ dom.basis - img) > 100 * t:
        raise AxiomViolation("boundary map antipode form fails", where=side,
                             residual=_mx(salt @ dom.basis - img))
    # *-homomorphism on the subalgebra basis; the first failing basis
    # vector is reported, its products before its star
    prods = pair_products(W.alg.mult, dom.basis, dom.basis) @ fwd.T
    mgaps = np.abs(prods - pair_products(Wd.alg.mult, img, img)).max(axis=2)
    sgaps = np.abs(fwd @ W.alg.star_coords(dom.basis)
                   - Wd.alg.star_coords(img)).max(axis=0)
    mbad, sbad = mgaps > 100 * t, sgaps > 100 * t
    bad = np.flatnonzero(mbad.any(axis=1) | sbad)
    if bad.size:
        i = int(bad[0])
        if mbad[i].any():
            j = int(np.argmax(mbad[i]))
            raise AxiomViolation("boundary map is not multiplicative",
                                 where=(side, i, j), residual=float(mgaps[i, j]))
        raise AxiomViolation("boundary map is not star-preserving",
                             where=(side, i), residual=float(sgaps[i]))
    return fwd, bwd


def is_pure(W, tol=None):
    """Pure = the counit is a pure state; decided by A_sigma & C(A) = C,
    cross-checked on the dual boundary intersection."""
    AL = W.boundary("L", tol=tol)
    AR = W.boundary("R", tol=tol)
    ZA = W.alg.center(tol=tol)
    crit3 = AL.intersect(ZA, tol=tol).dim == 1 and AR.intersect(ZA, tol=tol).dim == 1
    Wd = W.dual()
    crit2 = Wd.boundary("L", tol=tol).intersect(Wd.boundary("R", tol=tol),
                                                tol=tol).dim == 1
    if crit2 != crit3:
        raise AxiomViolation("purity criteria disagree between A and its dual")
    return crit2


def hypercenter(W, tol=None):
    """A_L & A_R & C(A); canonically isomorphic to its dual counterpart
    through the counital maps."""
    Z = W.boundary("L", tol=tol).intersect(W.boundary("R", tol=tol), tol=tol) \
         .intersect(W.alg.center(tol=tol), tol=tol)
    Wd = W.dual()
    Zd = Wd.boundary("L", tol=tol).intersect(Wd.boundary("R", tol=tol), tol=tol) \
           .intersect(Wd.alg.center(tol=tol), tol=tol)
    img = W.counital("R") @ Z.basis
    if Zd.dim != Z.dim or la.rank(img, tol=tol) != Z.dim \
            or not Zd.contains_coords(img, tol=tol):
        raise AxiomViolation("hypercenter does not match its dual")
    Z.certify(tol=tol)
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
