"""Dense complex linear algebra helpers: rank-revealing null spaces,
orthonormal spans, subspace arithmetic, constrained solves.

This module holds the one rank and invertibility rule of the package: a
singular value counts when it exceeds tol * max(largest singular value, 1).
Every rank decision comes from a numpy SVD, reduced by one rule: a helper
that throws away the long singular factor of a rectangular matrix takes
the SVD of its square triangular factor R instead (Chan's R-SVD), found by
np.linalg.qr(..., mode="r") without forming Q.  For a tall a = QR, R has
the singular values and right singular vectors of a; for a wide a with
a^H = QR, a = R^H Q^H and R^H has its singular values and left singular
vectors.  The choice depends only on the shape, and the results differ
from those of a direct SVD only by rounding.  Non-finite input is refused
with NoSolution before it reaches LAPACK.

Picking columns rather than spans (pivoted_columns) is column-pivoted QR,
written in numpy; it takes no rank decision, its caller says how many
columns to pick.
"""

import numpy as np

from ._checks import outside, require, residual
from .config import tolerance
from .errors import NoSolution


def _as_matrix(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return a


def _finite_matrix(a):
    a = _as_matrix(a)
    if not np.isfinite(a).all():
        raise NoSolution("matrix has non-finite entries")
    return a


def _cutoff(s, tol):
    # relative to the leading singular value, but with an absolute floor:
    # all tables in this package are O(1), so sub-tolerance spectra are noise
    return tolerance(tol) * max(float(s[0]), 1.0)


def _count(s, tol):
    return int(np.sum(s > _cutoff(s, tol))) if s.size else 0


def _tall_factor(a):
    """R of a = QR for a tall a, which has a's singular values and right
    singular vectors; a itself otherwise."""
    return np.linalg.qr(a, mode="r") if a.shape[0] > a.shape[1] else a


def _wide_factor(a):
    """R^H where a^H = QR for a wide a, which has a's singular values and
    left singular vectors; a itself otherwise."""
    return _tall_factor(a.conj().T).conj().T if a.shape[1] > a.shape[0] else a


def pivoted_columns(a, k):
    """Indices, in increasing order, of k columns of a picked by
    column-pivoted QR (Businger-Golub): each step takes the column of
    largest norm once the span of the columns picked so far is projected
    out.  Norms within a relative 1e-8 of the largest count as tied, and a
    tie goes to the lowest index, so that rounding does not decide between
    columns of equal weight."""
    a = _finite_matrix(a)
    if k == a.shape[1]:
        return np.arange(k)
    rest = a.copy()
    picks = []
    for _ in range(k):
        norms = (rest.real ** 2 + rest.imag ** 2).sum(axis=0)
        j = int(np.argmax(norms >= (1 - 1e-8) * norms.max()))
        picks.append(j)
        q = rest[:, j] / np.sqrt(norms[j])
        rest -= np.outer(q, q.conj() @ rest)
    return np.sort(np.array(picks, dtype=np.intp))


def rank(a, tol=None):
    a = _finite_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(_wide_factor(_tall_factor(a)), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return _count(s, tol)


def null_space(a, tol=None):
    """Orthonormal basis (columns) of {x : a x = 0}."""
    a = _finite_matrix(a)
    n = a.shape[1]
    if a.size == 0 or not np.any(a):
        return np.eye(n, dtype=complex)
    # the full right singular basis is needed; on wide systems that is vh
    # of the full SVD, on tall ones vh of the square factor R
    u, s, vh = np.linalg.svd(_tall_factor(a), full_matrices=a.shape[0] < n)
    return vh[_count(s, tol):].conj().T.copy()


def invertible(a, tol=None):
    """(is the square matrix a invertible, its smallest singular value):
    invertible when that value exceeds the rank cutoff, i.e. a has full rank."""
    s = np.linalg.svd(_finite_matrix(a), compute_uv=False)
    smallest = float(s[-1]) if s.size else 0.0
    return bool(s.size and smallest > _cutoff(s, tol)), smallest


def orth(a, tol=None):
    """Orthonormal basis (columns) of the column space of a."""
    a = _finite_matrix(a)
    if a.size == 0 or not np.any(a):
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, vh = np.linalg.svd(_wide_factor(a), full_matrices=False)
    return u[:, :_count(s, tol)].copy()


def orth_split(a, tol=None):
    """(orthonormal basis of the column space of a, orthonormal basis of its
    orthogonal complement), both from one SVD."""
    a = _finite_matrix(a)
    m = a.shape[0]
    if a.size == 0 or not np.any(a):
        return np.zeros((m, 0), dtype=complex), np.eye(m, dtype=complex)
    # the full left singular basis is needed; on tall systems that is u of
    # the full SVD, on wide ones u of the square factor R^H
    u, s, vh = np.linalg.svd(_wide_factor(a), full_matrices=a.shape[1] < m)
    r = _count(s, tol)
    return u[:, :r].copy(), u[:, r:].copy()


def pseudo_inverse(a, tol=None):
    """Moore-Penrose pseudo-inverse of a under the rank rule: singular
    values at or below the cutoff are dropped, not inverted."""
    a = _finite_matrix(a)
    if a.size == 0 or not np.any(a):
        return np.zeros(a.shape[::-1], dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = _count(s, tol)
    return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T


def affine_solutions(a, b, tol=None):
    """Particular solution plus orthonormal null-space basis of a x = b,
    both from one SVD.  The particular solution is the minimum-norm
    least-squares solution under the rank rule, accepted only when its
    residual is below tol; NoSolution otherwise.

    On a tall a the SVD is that of the factor R11 of [a | b] = Q [R11 R12],
    and R12 = Q1^H b takes the place of u^H b; on a wide a it is the full
    SVD, whose vh is the full right singular basis."""
    a = _finite_matrix(a)
    b = np.asarray(b, dtype=complex)
    m, n = a.shape
    if a.size == 0 or not np.any(a):
        x, vh, r = np.zeros((n,) + b.shape[1:], dtype=complex), np.eye(n, dtype=complex), 0
    else:
        if m > n:
            rab = np.linalg.qr(np.hstack([a, b.reshape(m, -1)]), mode="r")
            u, s, vh = np.linalg.svd(rab[:n, :n])
            qb = rab[:n, n:].reshape((n,) + b.shape[1:])
        else:
            u, s, vh = np.linalg.svd(a, full_matrices=m < n)
            qb = b
        r = _count(s, tol)
        coef = u[:, :r].conj().T @ qb
        coef /= s[:r].reshape((r,) + (1,) * (b.ndim - 1))
        x = vh[:r].conj().T @ coef
    require(a @ x - b, tolerance(tol), NoSolution, "linear system has no solution")
    return x, vh[r:].conj().T.copy()


def _off_span(basis, vecs, tol):
    """Component of each column of vecs orthogonal to span(basis)."""
    # orthonormalize unless the columns already are (cheap Gram test)
    k = basis.shape[1]
    if k and np.abs(basis.conj().T @ basis - np.eye(k)).max() > 1e-12:
        basis = orth(basis, tol=tol)
    return vecs - basis @ (basis.conj().T @ vecs)


def contains(basis, vecs, tol=None):
    """Do the columns of vecs lie in the span of the basis columns?"""
    basis = _as_matrix(basis)
    vecs = _as_matrix(vecs)
    if vecs.size == 0:
        return True
    scale = max(1.0, residual(vecs))
    return residual(_off_span(basis, vecs, tol)) <= tolerance(tol) * scale


def first_outside(basis, vecs, tol=None):
    """Index of the first column of vecs that contains() rejects when asked
    about that column alone, or None when every column lies in the span."""
    basis = _as_matrix(basis)
    vecs = _as_matrix(vecs)
    if vecs.size == 0:
        return None
    resid = np.abs(_off_span(basis, vecs, tol)).max(axis=0)
    scale = np.maximum(1.0, np.abs(vecs).max(axis=0))
    bad = np.flatnonzero(outside(resid, tolerance(tol) * scale))
    return int(bad[0]) if bad.size else None


def span_equal(b1, b2, tol=None):
    return contains(b1, b2, tol=tol) and contains(b2, b1, tol=tol)


def intersect(b1, b2, tol=None):
    """Orthonormal basis of span(b1) & span(b2)."""
    b1, b2 = _as_matrix(b1), _as_matrix(b2)
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return np.zeros((b1.shape[0], 0), dtype=complex)
    ns = null_space(np.hstack([b1, -b2]), tol=tol)
    return orth(b1 @ ns[: b1.shape[1]], tol=tol)


def gram_sqrt(gram, tol=None):
    """Factor a Hermitian positive-definite Gram matrix as C^* C.

    Returns (C, C_inv).  Uses the eigendecomposition so mildly conditioned
    forms are handled gracefully; raises if the form is not positive.
    """
    gram = np.asarray(gram, dtype=complex)
    require(gram - gram.conj().T, tolerance(tol) * max(1.0, residual(gram)),
            NoSolution, "form is not hermitian")
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    if w.min() <= 0:
        raise NoSolution("form is not positive definite", residual=float(w.min()))
    c = np.diag(np.sqrt(w)) @ v.conj().T
    c_inv = v @ np.diag(1.0 / np.sqrt(w))
    return c, c_inv


def span_closure(basis, product, tol=None):
    """Close a spanning set under a bilinear product until the rank stops
    growing.  `product` maps (vec, vec) -> vec; rounds are capped by the
    ambient dimension."""
    basis = orth(_as_matrix(basis), tol=tol)
    dim = basis.shape[0]
    for _ in range(dim + 1):
        cols = [basis]
        k = basis.shape[1]
        prods = np.empty((dim, k * k), dtype=complex)
        idx = 0
        for i in range(k):
            for j in range(k):
                prods[:, idx] = product(basis[:, i], basis[:, j])
                idx += 1
        cols.append(prods)
        new = orth(np.hstack(cols), tol=tol)
        if new.shape[1] == basis.shape[1]:
            return new
        basis = new
    return basis
