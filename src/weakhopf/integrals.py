"""Integral theory: left/right integral spaces, the normalized Haar
integral and its modular data, Radon-Nikodym derivatives, duality and
p-duality of integrals, Jones projections, and integral indices.
"""

import numpy as np

from . import _linalg as la
from ._checks import outside, require, residual
from .algebra import (
    Element,
    Subspace,
    invert,
    is_invertible,
    is_positive,
    positive_power,
    sqrt_positive,
)
from .config import SLACK_COMPOSITE, SLACK_SOLVED, memo, tolerance
from .errors import (
    Degenerate,
    NoHaar,
    NoSolution,
    NotPositive,
    NotSelfAdjoint,
    ParentMismatch,
)

__all__ = [
    "LeftIntegral",
    "HaarData",
    "left_integral_space",
    "right_integral_space",
    "haar",
    "rn_derivative",
    "normalization",
    "classify",
    "dual_integral",
    "fourier_maps",
    "jones_projection",
    "p_dual",
    "integral_index",
    "random_left_integral",
    "random_positive_integral",
]


def _integral_rows(W, side):
    """The integral condition as rows acting on l, stacked over the basis
    vectors a: L_(a - a(1) S(a(2))) for left integrals (a l = a(1) S(a(2)) l)
    and R_(a - S(a(1)) a(2)) for right ones."""
    A = W.alg
    diff = (np.eye(A.dim) - W.counital("LS" if side == "L" else "SL")).T
    mats = A.left_mult_matrix(diff) if side == "L" else A.right_mult_matrix(diff)
    return mats.reshape(-1, A.dim)


def _integral_space(W, side, tol):
    S = Subspace(W.alg, la.null_space(_integral_rows(W, side), tol=tol),
                 orthonormalize=False)
    if S.dim != W.boundary(side, tol=tol).dim:
        raise NoHaar(f"{'left' if side == 'L' else 'right'} integral space has "
                     "unexpected dimension", where=("dim", S.dim))
    return S


def left_integral_space(W, tol=None):
    """{l : a l = (a(1) S(a(2))) l for all a}; dimension equals dim A_L."""
    return _integral_space(W, "L", tol)


def right_integral_space(W, tol=None):
    """{l : l a = l (S(a(1)) a(2)) for all a}; dimension equals dim A_R."""
    return _integral_space(W, "R", tol)


class LeftIntegral:
    """A left integral together with its derivatives and normalizations."""

    def __init__(self, W, element, tol=None, check=True):
        if isinstance(element, Element):
            coords = element.coords
            if element.parent is not W.alg:
                raise ParentMismatch("integral lives in a different algebra")
        else:
            coords = np.asarray(element, dtype=complex)
        self.hopf = W
        self.element = Element(W.alg, coords)
        self._cache = {}
        if check:
            require(self.condition_residual(),
                    tolerance(tol) * max(1.0, self.element.norm()), Degenerate,
                    "element is not a left integral")

    def condition_residual(self):
        return residual(_integral_rows(self.hopf, "L") @ self.element.coords)

    def _derived(self, kind):
        """d_X = eps^_X(eps_L(l)) and n_X = eps^_X(eps_R(l)) for X = L, R."""
        W = self.hopf

        def build():
            inner = W.counital("L" if kind[0] == "d" else "R") @ self.element.coords
            return Element(W.alg, W.counital("h" + kind[-1]) @ inner)

        return memo(self, kind, build)

    @property
    def d_l(self):
        return self._derived("d_L")

    @property
    def d_r(self):
        return self._derived("d_R")

    @property
    def n_l(self):
        return self._derived("n_L")

    @property
    def n_r(self):
        return self._derived("n_R")

    def flags(self, tol=None):
        return classify(self, tol=tol)


def rn_derivative(l, side, tol=None):
    """The unique boundary element d with l = h d; computed counitally and
    verified against the Haar factorization."""
    t = tolerance(tol)
    d = l.d_l if side == "L" else l.d_r
    W = l.hopf
    h = W.haar(tol=tol).h
    require((h * d - l.element).coords, SLACK_SOLVED * t * max(1.0, l.element.norm()),
            NoHaar, "derivative does not reproduce the integral")
    B = W.boundary(side, tol=tol)
    if not B.contains_element(d, tol=tol):
        raise NoHaar("derivative leaves the boundary subalgebra")
    return d


def normalization(l, side, tol=None):
    """n_side(l), central in the boundary; l^2 = n l."""
    t = tolerance(tol)
    n = l.n_l if side == "L" else l.n_r
    W = l.hopf
    A = W.alg
    require((l.element * l.element - n * l.element).coords,
            SLACK_SOLVED * t * max(1.0, l.element.norm()) ** 2, NoHaar,
            "normalization does not reproduce the square")
    B = W.boundary(side, tol=tol).intersect(A.center(tol=tol), tol=tol)
    if not B.contains_element(n, tol=tol):
        raise NoHaar("normalization is not central in the boundary")
    return n


def _haar_element(W, tol=None):
    """Unique two-sided integral with S(h(1)) h(2) = 1."""
    t = tolerance(tol)
    L = left_integral_space(W, tol=tol)
    R = right_integral_space(W, tol=tol)
    T = L.intersect(R, tol=tol)
    if T.dim == 0:
        raise NoHaar("no two-sided integrals")
    sys = W.counital("SL") @ T.basis
    try:
        coeff, ns = la.affine_solutions(sys, W.alg.unit, tol=tol)
    except NoSolution as exc:
        raise NoHaar("normalization condition unsolvable",
                     residual=exc.residual) from exc
    if ns.shape[1]:
        raise NoHaar("normalized two-sided integral is not unique",
                     where=("nullity", ns.shape[1]))
    h = Element(W.alg, T.basis @ coeff)
    checks = {
        "idempotent": (h * h - h).norm(),
        "self_adjoint": (h.star() - h).norm(),
        "antipode_fixed": (W.s_apply(h) - h).norm(),
        "right_normalized": residual(W.counital("LS") @ h.coords - W.alg.unit),
    }
    require(checks, SLACK_COMPOSITE * t, NoHaar, "Haar invariants fail",
            where=lambda name: name)
    return h


class HaarData:
    """The Haar integral with its dual partner and modular elements."""

    def __init__(self, W, tol=None):
        t = tolerance(tol)
        self.hopf = W
        Wd = W.dual()
        self.h = _haar_element(W, tol=tol)
        self.hhat = _haar_element(Wd, tol=tol)

        glsq = Wd.arrow_left(self.hhat, self.h)       # h^ -> h
        grsq = Wd.arrow_right(self.h, self.hhat)      # h <- h^
        self.g_l = sqrt_positive(glsq, tol=tol)
        self.g_r = sqrt_positive(grsq, tol=tol)
        self.g = self.g_l * invert(self.g_r, tol=tol)
        self.g_half = sqrt_positive(self.g, tol=tol)
        self.g_half_inv = invert(self.g_half, tol=tol)
        self.ghat_l = sqrt_positive(W.arrow_left(self.h, self.hhat), tol=tol)
        self.ghat_r = sqrt_positive(W.arrow_right(self.hhat, self.h), tol=tol)
        if not (W.boundary("L", tol=tol).contains_element(self.g_l, tol=tol)
                and W.boundary("R", tol=tol).contains_element(self.g_r, tol=tol)):
            raise NoHaar("modular square roots leave the boundary subalgebras")

        h_int = LeftIntegral(W, self.h, tol=tol)
        flags = classify(h_int, tol=tol)
        if not (flags["positive"] and flags["nondegenerate"]
                and flags["normalized"]):
            raise NoHaar("Haar integral fails positivity or nondegeneracy",
                         where=tuple(k for k, v in flags.items() if not v))
        self.lambda_h = dual_integral(h_int, tol=tol).element
        closed = self.hhat * invert(self.ghat_r * self.ghat_r, tol=tol)
        require((closed - self.lambda_h).coords, SLACK_COMPOSITE * t, NoHaar,
                "dual integral of the Haar misses its closed form")

    def modular_report(self, tol=None):
        """Residuals of the modular identity suite."""
        W = self.hopf
        A, Wd = W.alg, W.dual()
        r = {}
        for name, ghat, side in (("ghat_l", self.ghat_l, "L"),
                                 ("ghat_r", self.ghat_r, "R")):
            for src in (self.g_l, self.g_r):
                key = f"{name}_from_{'gl' if src is self.g_l else 'gr'}"
                r[key] = residual(W.counital(side) @ src.coords - ghat.coords)
        r["antipode_of_gl"] = residual((W.s_apply(self.g_l) - self.g_r).coords,
                                       (W.s_inv_apply(self.g_l) - self.g_r).coords)
        # S^2 = conjugation by g
        ginv = invert(self.g, tol=tol)
        lhs = W.antipode @ W.antipode
        rhs = A.left_mult_matrix(self.g.coords) @ A.right_mult_matrix(ginv.coords)
        r["antipode_squared"] = residual(lhs - rhs)
        # Delta(g) = (g (x) g) Delta(1), both orders
        dg = W.delta_coords(self.g.coords)
        D1 = W.delta_one()
        lg = A.left_mult_matrix(self.g.coords)
        rg = A.right_mult_matrix(self.g.coords)
        r["coproduct_of_g"] = residual(dg - lg @ D1 @ lg.T, dg - rg @ D1 @ rg.T)
        # flipped coproduct of h = (1 (x) g) Delta(h) (1 (x) g)
        dh = W.delta_coords(self.h.coords)
        mid = np.einsum("pq,uq->pu", dh, lg)
        mid = np.einsum("pu,vu->pv", mid, rg)
        r["flipped_coproduct_of_h"] = residual(dh.T - mid)
        # dual integral closed form
        lam = Element(Wd.alg, self.lambda_h.coords)
        alt = self.hhat * invert(self.ghat_l * self.ghat_l, tol=tol)
        r["dual_integral_form"] = (alt - lam).norm()
        return r


def haar(W, tol=None):
    return memo(W, ("haar", tolerance(tol)), lambda: HaarData(W, tol=tol))


def classify(l, tol=None):
    """Nondegeneracy/positivity/normalization flags, with the sesquilinear
    Gram form as an independent positivity oracle."""
    t = tolerance(tol)
    W = l.hopf
    A = W.alg
    d_r = l.d_r
    nondeg = is_invertible(d_r, tol=tol)
    try:
        pos = is_positive(d_r, tol=tol)
    except NotSelfAdjoint:
        pos = False
    n_r = l.n_r
    normalized = (n_r - A.one).norm() <= SLACK_SOLVED * t

    # Gram oracle: the form B = S(l(1)) (x) l(2) on the dual
    dl = W.delta_coords(l.element.coords)
    B = W.antipode @ dl
    gram = np.einsum("mp,mq->pq", np.conj(A.star), B)
    bound = SLACK_SOLVED * t * max(1.0, residual(gram))
    if outside(residual(gram - gram.conj().T), bound):
        gram_pos = False
    else:
        evals = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        gram_pos = bool(evals.min() >= -bound)
    if gram_pos != pos:
        raise Degenerate("positivity oracles disagree",
                         where=("derivative", pos, "gram", gram_pos))
    return {"nondegenerate": nondeg, "positive": pos, "normalized": normalized}


def fourier_maps(l, tol=None):
    """Matrices of psi -> l <- psi and psi -> psi -> l; invertible exactly
    when the integral is nondegenerate."""
    W = l.hopf
    lc = l.element.coords
    l_l = np.einsum("k,kso->os", lc, W.cop)   # (l <- f^s)_o = sum_k l_k cop[k,s,o]
    l_r = np.einsum("k,kos->os", lc, W.cop)   # (f^s -> l)_o
    return l_l, l_r


def dual_integral(l, tol=None):
    """The unique functional with lambda -> l = 1; a nondegenerate left
    integral of the dual, inverse to the integral's Fourier maps."""
    t = tolerance(tol)
    W = l.hopf
    Wd = W.dual()
    A = W.alg
    _, l_r = fourier_maps(l, tol=tol)
    if not la.invertible(l_r, tol=tol)[0]:
        raise Degenerate("integral is degenerate; no dual exists")
    lam = np.linalg.solve(l_r, A.unit)
    out = LeftIntegral(Wd, lam, tol=tol)

    # l -> lambda = dual unit
    back = W.alg.right_mult_matrix(l.element.coords).T @ lam
    require(back - Wd.alg.unit, SLACK_COMPOSITE * t, Degenerate,
            "dual pairing does not invert")
    # inversion formulas on both sides
    sinv = W.antipode_inv()
    require(l_r @ _compose_lamL_sinv(W, lam, sinv) - np.eye(A.dim), SLACK_COMPOSITE * t,
            Degenerate, "left inversion formula fails")
    l_l, _ = fourier_maps(l, tol=tol)
    shat_inv = np.linalg.inv(Wd.antipode)
    require(lam_r_matrix(W, lam) @ (l_l @ shat_inv) - np.eye(A.dim), SLACK_COMPOSITE * t,
            Degenerate, "right inversion formula fails")
    return out


def _compose_lamL_sinv(W, lam, sinv):
    """Matrix of a -> lambda <- S^{-1}(a)."""
    return (lam @ W.alg.left_mult_matrix(sinv.T)).T


def lam_r_matrix(W, lam):
    """Matrix of a -> (a -> lambda)."""
    return (lam @ W.alg.right_mult_matrix(np.eye(W.dim))).T


def jones_projection(l, tol=None):
    """e = d_R(l)^{1/2} h d_R(l)^{1/2}; a projection when l is normalized."""
    t = tolerance(tol)
    W = l.hopf
    flags = classify(l, tol=tol)
    if not flags["positive"]:
        raise NotPositive("integral is not positive as a functional")
    root = sqrt_positive(l.d_r, tol=tol)
    h = W.haar(tol=tol).h
    e = root * h * root
    if not is_positive(e, tol=tol):
        raise NotPositive("projection candidate is not positive")
    require((e * e - l.n_r * e).coords, SLACK_COMPOSITE * t * max(1.0, e.norm()) ** 2,
            NotPositive, "square law fails")
    if flags["normalized"]:
        require((e * e - e).coords, SLACK_COMPOSITE * t, NotPositive,
                "normalized integral gave a non-projection")
    return e


def p_dual(l, tol=None):
    """The unique positive nondegenerate left integral of the dual pairing
    the Jones projection to the unit; an involution on positive normalized
    nondegenerate integrals."""
    t = tolerance(tol)
    W = l.hopf
    Wd = W.dual()
    flags = classify(l, tol=tol)
    if not flags["nondegenerate"]:
        raise Degenerate("p-dual needs a nondegenerate integral")
    if not flags["positive"]:
        raise NotPositive("p-dual needs a positive integral")
    e = jones_projection(l, tol=tol)
    _, e_r = fourier_maps(LeftIntegral(W, e, check=False), tol=tol)
    try:
        lam, ns = la.affine_solutions(e_r, W.alg.unit, tol=tol)
    except NoSolution as exc:
        raise Degenerate("pairing condition unsolvable",
                         residual=exc.residual) from exc
    if ns.shape[1]:
        raise Degenerate("p-dual is not unique")
    out = LeftIntegral(Wd, lam, tol=tol)
    oflags = classify(out, tol=tol)
    if not (oflags["positive"] and oflags["nondegenerate"]):
        raise NotPositive("p-dual fails positivity or nondegeneracy")
    # closed form: d_R(p-dual)^{-1/2} = eps_R( S(d_R(l)^{1/2}) g_L )
    hd = W.haar(tol=tol)
    root = sqrt_positive(l.d_r, tol=tol)
    b = W.s_apply(root) * hd.g_l
    rhs = Element(Wd.alg, W.counital("R") @ b.coords)
    lhs = positive_power(out.d_r, -0.5, tol=tol)
    require((lhs - rhs).coords, SLACK_COMPOSITE * t, Degenerate,
            "closed form for the p-dual derivative fails")
    return out


def integral_index(l, tol=None):
    """Index of the expectation induced on the dual: n_R of the dual
    integral, central in the dual's right boundary."""
    W = l.hopf
    Wd = W.dual()
    lam = dual_integral(l, tol=tol)
    ind = lam.n_r
    BR = Wd.boundary("R", tol=tol)
    ZH = Wd.alg.center(tol=tol)
    if not (BR.contains_element(ind, tol=tol) and ZH.contains_element(ind, tol=tol)):
        raise Degenerate("index is not central in the dual boundary")
    return ind


def index_hypercentral_transfer(l, tol=None):
    """When the index lies in the hypercenter, its counital transfer equals
    the index of the normalized dual; returns None when the premise fails."""
    from .hopf import hypercenter

    t = tolerance(tol)
    W = l.hopf
    Wd = W.dual()
    if not classify(l, tol=tol)["normalized"]:
        return None
    ind = integral_index(l, tol=tol)
    Zd = hypercenter(Wd, tol=tol)
    if not Zd.contains_element(ind, tol=tol) or not is_invertible(ind, tol=tol):
        return None
    lam = dual_integral(l, tol=tol)
    dot = invert(ind, tol=tol)
    lam_dot = LeftIntegral(Wd, dot * lam.element, tol=tol)
    ind_dot = integral_index(lam_dot, tol=tol)     # element of A
    gaps = [W.counital(side) @ ind.coords - ind_dot.coords for side in ("hL", "hR")]
    gaps += [W.counital(side) @ ind_dot.coords - ind.coords for side in ("L", "R")]
    require(residual(*gaps), SLACK_COMPOSITE * t, Degenerate,
            "hypercentral index transfer fails")
    return ind_dot


def random_left_integral(W, rng, tol=None):
    """h d for random d in the right boundary; generically nondegenerate."""
    hd = W.haar(tol=tol)
    AR = W.boundary("R", tol=tol)
    for _ in range(50):
        c = AR.basis @ (rng.standard_normal(AR.dim)
                        + 1j * rng.standard_normal(AR.dim))
        l = LeftIntegral(W, hd.h * Element(W.alg, c), tol=tol)
        if classify(l, tol=tol)["nondegenerate"]:
            return l
    raise Degenerate("could not sample a nondegenerate integral")


def random_positive_integral(W, rng, normalized=True, tol=None):
    """h d with d > 0 in the right boundary, optionally normalized."""
    hd = W.haar(tol=tol)
    AR = W.boundary("R", tol=tol)
    A = W.alg
    c = AR.basis @ (rng.standard_normal(AR.dim) + 1j * rng.standard_normal(AR.dim))
    d = Element(A, A.product_coords(A.star_coords(c), c)) + 0.1 * A.one
    l = LeftIntegral(W, hd.h * d, tol=tol)
    if not normalized:
        return l
    scale = invert(l.n_r, tol=tol)
    return LeftIntegral(W, scale * l.element, tol=tol)
