"""Finite-dimensional associative *-algebras over C, presented by structure
constants.

Conventions, fixed once for the whole package:

  * mult[i, j, k]   --  e_i e_j = sum_k mult[i,j,k] e_k
  * unit            --  coordinates of the unit element
  * star[i, k]      --  e_i^* = sum_k star[i,k] e_k, extended antilinearly
  * the positivity calculus runs in the trace form <a,b> = Tr L_{a* b},
    whose positive definiteness is this package's working definition of
    "finite-dimensional C*-algebra".
"""

import numpy as np

from . import _linalg as la
from ._checks import require, residual, settle
from ._contract import (
    Table,
    commutators,
    dense_of,
    evaluate,
    listed_pair_products,
    owned,
    pair_products,
    times,
)
from .config import SLACK_COMPOSITE, SLACK_DERIVED, memo, tolerance
from .errors import (
    AssociativityViolation,
    NotCStar,
    NotPositive,
    NotSelfAdjoint,
    ParentMismatch,
    Singular,
    StarViolation,
    UnitViolation,
)

__all__ = [
    "StarAlgebra",
    "ListedAlgebra",
    "Element",
    "Subspace",
    "make_star_algebra",
    "multiply",
    "is_positive",
    "sqrt_positive",
    "invert",
    "commutant",
    "center",
]


class StarAlgebra:
    """A *-algebra given by its multiplication tensor, unit vector and
    star table.  Immutable after construction; derived data is cached.

    mult is stored C-contiguous, so mult.reshape(n, n * n) is a view whose
    row i is L_{e_i} transposed and flattened: products and regular
    representations are single matmuls against it, for one coordinate
    vector or for a whole stack of them.

    The list-or-dense choice is made here, once per algebra: given a Table
    that holds an admitted nonzero list (one that build formed on lists),
    StarAlgebra(...) makes a ListedAlgebra, which keeps that Table alone
    and reads through its list."""

    def __new__(cls, mult, *args, **kwargs):
        if cls is StarAlgebra and isinstance(mult, Table) and mult.entries is not None \
                and mult.nonzeros() is not None:
            cls = ListedAlgebra
        return super().__new__(cls)

    def __init__(self, mult, unit, star, labels=None):
        self._cache = {}
        shape = self._hold(mult).shape
        unit = np.asarray(unit, dtype=complex)
        n = unit.shape[0]
        self.dim = n
        self.unit = unit
        self.star = np.asarray(dense_of(star), dtype=complex)
        if shape != (n, n, n) or self.star.shape != (n, n):
            raise ValueError("inconsistent table dimensions")
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("label count must match dim")
        if isinstance(star, Table):
            owned(self, "star", star)

    def _hold(self, mult):
        """Keep mult as a C-contiguous complex array (and a Table given for
        it through owned); returns it."""
        self.mult = np.ascontiguousarray(dense_of(mult), dtype=complex)
        if isinstance(mult, Table):
            owned(self, "mult", mult)
        return self.mult

    def __repr__(self):
        return f"StarAlgebra(dim={self.dim})"

    # -- element constructors -------------------------------------------
    def element(self, coords):
        return Element(self, coords)

    def basis_element(self, i):
        c = np.zeros(self.dim, dtype=complex)
        c[i] = 1.0
        return Element(self, c)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    @property
    def one(self):
        return Element(self, self.unit.copy())

    def zero(self):
        return Element(self, np.zeros(self.dim, dtype=complex))

    # -- coordinate arithmetic -------------------------------------------
    def product_coords(self, x, y):
        return self.left_mult_matrix(x) @ y

    def star_coords(self, x):
        return self.star.T @ np.conj(x)

    def left_mult_matrix(self, x):
        """L_x with (xy) = L_x @ y.  For a stack of coordinate vectors
        (leading axes of x) the stack of matrices L_x."""
        n, x = self.dim, np.asarray(x)
        return (x @ self.mult.reshape(n, n * n)).reshape(x.shape[:-1] + (n, n)) \
            .swapaxes(-1, -2)

    def right_mult_matrix(self, x):
        """R_x with (yx) = R_x @ y, stacked like left_mult_matrix."""
        n, x = self.dim, np.asarray(x)
        prods = np.matmul(x.reshape(-1, n), self.mult)         # [i, stack, k]
        return prods.transpose(1, 2, 0).reshape(x.shape[:-1] + (n, n))

    def trace_vector(self):
        """Tr(L_{e_k}) for every k."""
        return memo(self, "trvec", lambda: np.einsum("kjj->k", self.mult))

    def trace_gram(self):
        """Gram matrix of <a,b> = Tr L_{a* b} in the given basis."""
        return memo(self, "gram", lambda: self.star @ (self.mult @ self.trace_vector()))

    def gram_factor(self, tol=None):
        """(C, C_inv) with trace_gram = C^* C; orthonormalizes the basis."""
        return memo(self, ("gramfac", tolerance(tol)),
                    lambda: la.gram_sqrt(self.trace_gram(), tol=tol))

    def pair_products(self, xs, ys):
        """Products of every pair of columns of xs and ys, as [a, b, :]
        (weakhopf._contract.pair_products)."""
        return pair_products(self.mult, xs, ys)

    def mapped_products(self, f):
        """f @ (e_i e_j) for every pair of basis elements, as [i, j, :]."""
        return self.mult @ f.T

    def pair_sum(self, tensor):
        """sum tensor[i, j] e_i e_j."""
        return tensor.reshape(-1) @ self.mult.reshape(-1, self.dim)

    def commutant(self, basis, tol=None):
        """{x : s x = x s for every column s of basis}, or of the whole basis
        when basis is None, from the stack of _commutators."""
        return _kernel(self, _commutators(self, basis), tol)

    def center(self, tol=None):
        # the commutant of the whole basis, from the one n^3 stack
        # mult[i, j, k] - mult[j, i, k] (_commutators)
        return memo(self, ("center", tolerance(tol)), lambda: self.commutant(None, tol))


class ListedAlgebra(StarAlgebra):
    """A StarAlgebra whose mult is held as a Table with a nonzero list, the
    Table that a crossed product built on lists: a listed level of a Jones
    tower.  The Table sits in the instance dict under the name mult, where
    owned finds it, and the attribute mult forms the dense array only when
    a reader asks for it (counted in weakhopf._contract.FORMED).

    Every reader that a tower level reaches reads the list instead:
    left_mult_matrix, right_mult_matrix and product_coords, pair_products,
    mapped_products and pair_sum, trace_vector and trace_gram through
    weakhopf._contract.times (listed_pair_products for the pairs), and
    center and commutant through the entries of the commutator stack
    (weakhopf._contract.commutators) and the null space of those entries
    (weakhopf._linalg.sparse_null_space)."""

    mult = property(lambda self: vars(self)["mult"].dense,
                    doc="The dense mult, formed on first request.")

    def _hold(self, mult):
        vars(self)["mult"] = mult
        return mult

    def _nonzeros(self):
        return vars(self)["mult"].nonzeros()

    def _times(self, axis, x):
        """times over the given axis of mult with the coordinate vectors x
        (leading axes a stack), as [stack, remaining two letters]."""
        n, x = self.dim, np.asarray(x)
        got = times(self._nonzeros(), (n, n, n), axis, x.reshape(-1, n).T)
        return got.reshape(x.shape[:-1] + (n, n))

    def left_mult_matrix(self, x):
        return self._times(0, x).swapaxes(-1, -2)

    def right_mult_matrix(self, x):
        return self._times(1, x).swapaxes(-1, -2)

    def trace_vector(self):
        # sum_j mult[k, j, j]: mult read as [k, (j, l)] against the flat unit matrix
        n = self.dim
        return memo(self, "trvec", lambda: times(self._nonzeros(), (n, n * n), 1,
                                                 np.eye(n).reshape(-1, 1))[0])

    def trace_gram(self):
        return memo(self, "gram", lambda: self.star @ self.mapped_products(
            self.trace_vector()[None])[..., 0])

    def pair_products(self, xs, ys):
        return listed_pair_products(self._nonzeros(), xs, ys)

    def mapped_products(self, f):
        n = self.dim
        return np.moveaxis(times(self._nonzeros(), (n, n, n), 2, f.T), 0, -1)

    def pair_sum(self, tensor):
        n = self.dim
        return times(self._nonzeros(), (n * n, n), 0, tensor.reshape(-1, 1))[0]

    def commutant(self, basis, tol=None):
        n = self.dim
        got = commutators(self._nonzeros(), n, basis)
        if got is None:                       # a join over the gate
            return super().commutant(basis, tol)
        rows = n * (n if basis is None else basis.shape[1])
        return Subspace(self, la.sparse_null_space(*got, (rows, n), tol=tol),
                        orthonormalize=False)


class Element:
    __slots__ = ("parent", "coords")

    def __init__(self, parent, coords):
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (parent.dim,):
            raise ValueError(f"coordinate length {coords.shape} != dim {parent.dim}")
        self.parent = parent
        self.coords = coords

    def _check(self, other):
        if other.parent is not self.parent:
            raise ParentMismatch("elements live in different algebras")

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return Element(self.parent, self.parent.product_coords(self.coords, other.coords))
        return Element(self.parent, self.coords * complex(other))

    def __rmul__(self, scalar):
        return Element(self.parent, complex(scalar) * self.coords)

    def __add__(self, other):
        self._check(other)
        return Element(self.parent, self.coords + other.coords)

    def __sub__(self, other):
        self._check(other)
        return Element(self.parent, self.coords - other.coords)

    def __neg__(self):
        return Element(self.parent, -self.coords)

    def star(self):
        return Element(self.parent, self.parent.star_coords(self.coords))

    def norm(self):
        return residual(self.coords)

    @property
    def dim(self):
        return self.parent.dim

    def close_to(self, other, tol=None):
        self._check(other)
        return residual(self.coords - other.coords) <= tolerance(tol)

    def is_zero(self, tol=None):
        return self.norm() <= tolerance(tol)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if abs(c) > 1e-12:
                terms.append(f"({c:.4g})*{self.parent.labels[i]}")
        return " + ".join(terms) if terms else "0"


class Subspace:
    """A subspace of a StarAlgebra's coordinate space, stored as an
    orthonormal column basis."""

    def __init__(self, parent, basis, tol=None, orthonormalize=True):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim == 1:
            basis = basis.reshape(-1, 1)
        if basis.shape[0] != parent.dim:
            raise ValueError("basis rows must match parent dim")
        self.parent = parent
        self.basis = la.orth(basis, tol=tol) if orthonormalize else basis

    @property
    def dim(self):
        return self.basis.shape[1]

    def contains_coords(self, vecs, tol=None):
        return la.contains(self.basis, vecs, tol=tol)

    def contains_element(self, x, tol=None):
        return self.contains_coords(x.coords.reshape(-1, 1), tol=tol)

    def contains_subspace(self, other, tol=None):
        return self.contains_coords(other.basis, tol=tol)

    def equals(self, other, tol=None):
        return la.span_equal(self.basis, other.basis, tol=tol)

    def intersect(self, other, tol=None):
        return Subspace(self.parent, la.intersect(self.basis, other.basis, tol=tol),
                        orthonormalize=False)

    def elements(self):
        return [Element(self.parent, self.basis[:, j]) for j in range(self.dim)]

    def certify(self, tol=None):
        """Whether the span is a subalgebra, star-closed and unital."""
        A, B = self.parent, self.basis
        prods = A.pair_products(B, B).reshape(-1, A.dim).T
        return {"subalgebra": self.contains_coords(prods, tol=tol),
                "star_closed": self.contains_coords(A.star_coords(B), tol=tol),
                "unital": self.contains_coords(A.unit.reshape(-1, 1), tol=tol)}

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.parent.dim})"


# ---------------------------------------------------------------------------
# construction and verification


# (e_i e_j) e_k against e_i (e_j e_k), both [i, j, k, q] (weakhopf._contract)
ASSOCIATIVITY = (("ijp,pkq->ijkq", "mult", "mult"), ("jkp,ipq->ijkq", "mult", "mult"))
# (e_i e_j)^* against e_j^* e_i^*, both [i, j, l]; e_a e_i^* is laid out
# [a, i, l], so that mult is read in place, and conj(mult) conjugates it a
# list or a slice at a time (weakhopf._contract)
ANTIMULTIPLICATIVITY = (("ijk,kl->ijl", "conj(mult)", "star"),
                        ("ja,ail->ijl", "star", ("ib,abl->ail", "star", "mult")))


def make_star_algebra(mult, unit, star, labels=None, tol=None):
    """Build a StarAlgebra and verify all its defining invariants.

    Raises AssociativityViolation / UnitViolation / StarViolation / NotCStar
    naming the failing basis triple and the residual norm.
    """
    A = StarAlgebra(mult, unit, star, labels=labels)
    tol = tolerance(tol)
    n = A.dim

    def triple(ix):
        return tuple(A.labels[i] for i in ix[:3])

    # one call, so that mult is listed once
    gap, star_gap = evaluate({"mult": owned(A, "mult"), "star": owned(A, "star")},
                             ASSOCIATIVITY,
                             ANTIMULTIPLICATIVITY)
    settle(gap, tol, AssociativityViolation, "associativity fails", where=triple)

    # left and right unit laws stacked as [side, i, :]; the failing row names e_i
    units = np.stack([A.left_mult_matrix(A.unit).T, A.right_mult_matrix(A.unit).T])
    require(units - np.eye(n), tol, UnitViolation, "unit law fails",
            where=lambda ix: A.labels[ix[1]])

    # involutive: e_i** = e_i
    require(np.conj(A.star) @ A.star - np.eye(n), tol, StarViolation,
            "star is not involutive", where=lambda ix: A.labels[ix[0]])
    settle(star_gap, tol, StarViolation, "star is not antimultiplicative",
           where=lambda ix: (A.labels[ix[0]], A.labels[ix[1]]))

    g = A.trace_gram()
    require(g - g.conj().T, tol, NotCStar, "trace form is not hermitian")
    evals = np.linalg.eigvalsh((g + g.conj().T) / 2)
    if evals.min() <= tol:
        raise NotCStar("trace form is not positive definite",
                       residual=float(evals.min()))
    return A


def multiply(a, b):
    return a * b


def _hermitian_part(A, x, tol=None):
    """L_x conjugated into the orthonormal basis of the trace form."""
    c, c_inv = A.gram_factor(tol)
    h = c @ A.left_mult_matrix(x) @ c_inv
    return (h + h.conj().T) / 2.0, residual(h - h.conj().T)


def is_positive(a, tol=None):
    """Positivity in the trace-form inner product; requires a = a*."""
    tol = tolerance(tol)
    A = a.parent
    require(a.star().coords - a.coords, tol * max(1.0, a.norm()), NotSelfAdjoint,
            "element is not self-adjoint")
    h, skew = _hermitian_part(A, a.coords, tol)
    return bool(np.linalg.eigvalsh(h).min() > -tol * max(1.0, a.norm()))


def sqrt_positive(a, tol=None):
    """Positive square root via spectral calculus in the regular
    representation; eigenvalues in (-tol, 0] are clamped to 0."""
    tol = tolerance(tol)
    if not is_positive(a, tol=tol):
        raise NotPositive("element is not positive")
    A = a.parent
    c, c_inv = A.gram_factor(tol)
    h, _ = _hermitian_part(A, a.coords, tol)
    w, v = np.linalg.eigh(h)
    w = np.where(w < 0.0, 0.0, w)
    op = c_inv @ (v * np.sqrt(w)) @ v.conj().T @ c
    r = Element(A, op @ A.unit)
    require((r * r - a).coords, SLACK_DERIVED * tol * max(1.0, a.norm()), NotPositive,
            "square root verification failed")
    return r


def positive_power(a, exponent, tol=None):
    """a^t for positive invertible a and arbitrary complex t (spectral)."""
    tol = tolerance(tol)
    if not is_positive(a, tol=tol):
        raise NotPositive("element is not positive")
    A = a.parent
    c, c_inv = A.gram_factor(tol)
    h, _ = _hermitian_part(A, a.coords, tol)
    w, v = np.linalg.eigh(h)
    if w.min() <= tol:
        raise Singular("element is not invertible, cannot take complex powers")
    pw = np.exp(np.asarray(exponent, dtype=complex) * np.log(w))
    op = c_inv @ (v * pw) @ v.conj().T @ c
    return Element(A, op @ A.unit)


def invert(a, tol=None):
    tol = tolerance(tol)
    A = a.parent
    L = A.left_mult_matrix(a.coords)
    ok, smallest = la.invertible(L, tol=tol)
    if not ok:
        raise Singular("element is not invertible", residual=smallest)
    x = Element(A, np.linalg.solve(L, A.unit))
    require((x * a - A.one).coords, SLACK_COMPOSITE * tol, Singular,
            "inverse verification failed")
    return x


def is_invertible(a, tol=None):
    return la.invertible(a.parent.left_mult_matrix(a.coords), tol=tol)[0]


def _commutators(A, basis=None):
    """[a, k, j]: coordinate k of s_a e_j - e_j s_a for the columns s_a of
    basis, or for s_a = e_a when basis is None.  The products s_a e_j
    [a, j, k] and e_j s_a [j, a, k] are subtracted straight into that
    layout (C order, so that its rows are a view); for the whole basis both
    are mult itself, so the stack is mult[i, j, k] - mult[j, i, k] and no
    product is formed."""
    n, mult = A.dim, A.mult
    if basis is None:
        left = right = mult
    else:
        left = (basis.T @ mult.reshape(n, n * n)).reshape(-1, n, n)
        right = np.matmul(basis.T, mult)
    return np.subtract(left.transpose(0, 2, 1), right.transpose(1, 2, 0), order="C")


def _kernel(A, stack, tol):
    """The elements x with row @ x = 0 for every row of the stack."""
    return Subspace(A, la.null_space(stack.reshape(-1, A.dim), tol=tol),
                    orthonormalize=False)


def commutant(S, A, tol=None):
    """Relative commutant {x in A : xs = sx for all s in span S}.

    S may be a Subspace of A or a raw basis matrix.  On dense tables it
    holds at its peak, besides A's tables, the stack of rows s x - x s
    (dim S * n^2 entries) and the two products it is subtracted from;
    A.center() holds the one n^3 stack mult[i, j, k] - mult[j, i, k] and
    no product.  A ListedAlgebra holds the nonzero list of that stack
    instead, and the blocks of its null space.
    """
    basis = S.basis if isinstance(S, Subspace) else np.asarray(S, dtype=complex)
    if basis.ndim == 1:
        basis = basis.reshape(-1, 1)
    return A.commutant(basis, tol)


def center(A, tol=None):
    return A.center(tol=tol)


def subalgebra_on_basis(A, basis, tol=None, labels=None):
    """Present the span of `basis` (assumed a unital *-subalgebra of A) as a
    StarAlgebra of its own; returns (algebra, inclusion matrix)."""
    B = la.orth(np.asarray(basis, dtype=complex), tol=tol)
    k = B.shape[1]
    pinv = B.conj().T  # orthonormal columns
    prods = A.pair_products(B, B).reshape(k * k, A.dim).T
    bad = la.first_outside(B, prods, tol=tol)
    if bad is not None:
        raise AssociativityViolation("span is not closed under products",
                                     where=divmod(bad, k))
    mult = (pinv @ prods).T.reshape(k, k, k)
    unit = pinv @ A.unit
    if not la.contains(B, A.unit.reshape(-1, 1), tol=tol):
        raise UnitViolation("span does not contain the unit")
    stars = A.star_coords(B)
    bad = la.first_outside(B, stars, tol=tol)
    if bad is not None:
        raise StarViolation("span is not star-closed", where=bad)
    star = (pinv @ stars).T
    sub = make_star_algebra(mult, unit, star, labels=labels, tol=tol)
    return sub, B


def _homomorphism_gaps(A, B, f, basis):
    """How far y -> f @ y is from a *-homomorphism A -> B on the columns of
    basis: the largest entry of f(x_i x_j) - f(x_i) f(x_j) at [i, j], and of
    f(x_i^*) - f(x_i)^* at [i]."""
    img = f @ basis
    prods = A.pair_products(basis, basis) @ f.T
    mgaps = np.abs(prods - B.pair_products(img, img)).max(axis=2)
    sgaps = np.abs(f @ A.star_coords(basis) - B.star_coords(img)).max(axis=0)
    return mgaps, sgaps
