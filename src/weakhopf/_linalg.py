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

rank, null_space, orth and orth_split first split a by its exact zeros:
the connected blocks of the bipartite graph of its rows and columns, joined
where an entry is nonzero (the coarse step of Pothen and Fan's block
triangular form).  Since a is block diagonal after permuting rows and
columns, its singular values are the union of its blocks', so one cutoff,
tol * max(largest singular value over all blocks, 1), is the same rule on
the same spectrum.  Each block is factored as above, the blocks of one
shape in one stacked LAPACK call; a column in no block is a null vector
and a row in no block lies in the complement.  A matrix that is one block
covering every row and column, as is any matrix without a zero entry, is
factored whole, as it stands.  invertible and affine_solutions take one
SVD of the whole matrix.

Picking columns rather than spans (pivoted_columns) is column-pivoted QR,
written in numpy; it takes no rank decision, its caller says how many
columns to pick.  Asked for as many columns as a has rows, it splits a
into the same blocks and runs the loop on each block, the blocks of one
shape in one stacked loop, each block taking as many columns as it has
rows; its tie band is then read against each block's own largest norm.
"""

from collections import Counter

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
    singular vectors; a itself otherwise.  a may be a stack of matrices."""
    return np.linalg.qr(a, mode="r") if a.shape[-2] > a.shape[-1] else a


def _wide_factor(a):
    """R^H where a^H = QR for a wide a, which has a's singular values and
    left singular vectors; a itself otherwise.  a may be a stack."""
    if a.shape[-1] <= a.shape[-2]:
        return a
    return _tall_factor(a.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)


def _blocks(a):
    """The connected blocks of the bipartite row-column graph of a != 0, as
    a list of (rows, cols) index stacks, (k, p) and (k, q), one pair per
    block shape p x q.  Indices within a block ascend, and the blocks of a
    stack are ordered by first row.  A row or column without a nonzero
    entry belongs to no block.  None when a is one block that covers every
    row and column, as is any matrix without a zero entry."""
    m, n = a.shape
    if a.size and a.all():
        return None
    nz = a != 0
    r, c = np.divmod(np.flatnonzero(nz), n)
    return _pattern_blocks(r, c, m, n, nz)


def _pattern_blocks(r, c, m, n, nz=None):
    """_blocks of an m x n matrix whose nonzero entries are at (r, c).
    Given the matrix's nonzero pattern nz, a pattern that is plainly one
    block is told without labelling it; the blocks are the same either
    way."""
    if not r.size:
        return []
    per_row, per_col = np.bincount(r, minlength=m), np.bincount(c, minlength=n)
    rows, cols = np.flatnonzero(per_row), np.flatnonzero(per_col)
    # when the columns of the fullest row meet every nonempty row, each row
    # joins that row's block, and so does each column through its rows; so
    # too with rows and columns exchanged
    if nz is None or (
            np.count_nonzero(nz[:, nz[per_row.argmax()]].any(axis=1)) < rows.size
            and np.count_nonzero(nz[nz[:, per_col.argmax()]].any(axis=0)) < cols.size):
        groups = _components(r, c, rows, cols, m, n)
        if sum(index.shape[0] for index, _ in groups) > 1:
            return groups
    return None if rows.size == m and cols.size == n else [(rows[None], cols[None])]


def _components(r, c, rows, cols, m, n):
    """The blocks of _blocks from the entries (r, c) of an m x n pattern and
    its nonempty rows and columns, by min-label propagation on rows
    0..m-1 and columns m..m+n-1: hook the larger root of every edge to the
    smaller, then jump pointers until each node points at its root, the
    least node of its block; the first round hooks every column to its
    first row."""
    c = c + m
    label = np.arange(m + n)
    np.minimum.at(label, c, r)
    while True:
        up = label[label]
        if (up == label).all():
            lr, lc = label[r], label[c]
            if (lr == lc).all():
                break
            np.minimum.at(label, np.maximum(lr, lc), np.minimum(lr, lc))
        else:
            label = up
    # every block holds an edge, so its label, its least node, is its first
    # row; sorting rows and columns by (block shape, label) lays out each
    # shape group as consecutive blocks of equal size
    rl, cl = label[rows], label[cols + m]
    shape = np.bincount(rl, minlength=m) * (n + 1) + np.bincount(cl, minlength=m)
    rows = rows[np.argsort(shape[rl] * m + rl, kind="stable")]
    cols = cols[np.argsort(shape[cl] * m + cl, kind="stable")]
    groups, i, j = [], 0, 0
    for key, k in sorted(Counter(shape[np.flatnonzero(shape)].tolist()).items()):
        p, q = divmod(key, n + 1)
        groups.append((rows[i:i + k * p].reshape(k, p), cols[j:j + k * q].reshape(k, q)))
        i, j = i + k * p, j + k * q
    return groups


def _block_stacks(a, blocks):
    """The blocks of a, each shape group as one (k, p, q) stack."""
    return [a[rows[:, :, None], cols[:, None, :]] for rows, cols in blocks]


def _block_svds(stacks, blocks, factor, tol):
    """[(rows, cols, u, vh, count)]: factor, an SVD (u, s, vh) of a stack,
    on the stack of each shape group of a matrix's blocks, and how many
    singular values of each block pass the cutoff of the whole spectrum,
    the union of the blocks'."""
    parts = [(rows, cols, factor(stack)) for (rows, cols), stack in zip(blocks, stacks)]
    top = max((float(s[:, 0].max()) for _, _, (_, s, _) in parts), default=0.0)
    cut = _cutoff((top,), tol)
    return [(rows, cols, u, vh, (s > cut).sum(axis=1)) for rows, cols, (u, s, vh) in parts]


def _first(count, width):
    """Mask of the first count[j] of width vectors of each block j."""
    return np.arange(width) < count[:, None]


def _assemble(size, pieces):
    """Columns of length size from pieces (index, vecs, keep): block j of a
    piece puts the columns vecs[j][:, keep[j]] on the coordinates index[j].
    Columns are ordered by the first coordinate of their block, then by
    their position in it."""
    picks = [np.nonzero(keep) for _, _, keep in pieces]
    keys = np.concatenate([index[j, 0] * (size + 1) + t
                           for (index, _, _), (j, t) in zip(pieces, picks)]
                          + [np.zeros(0, dtype=np.intp)])
    slot = np.empty(keys.size, dtype=np.intp)
    slot[np.argsort(keys)] = np.arange(keys.size)
    out = np.zeros((size, slot.size), dtype=complex)
    done = 0
    for (index, vecs, _), (j, t) in zip(pieces, picks):
        out[index[j], slot[done:done + j.size, None]] = vecs[j, :, t]
        done += j.size
    return out


def _unit_pieces(size, blocks):
    """The coordinates in no block, each as a piece of one unit vector."""
    free = np.ones(size, dtype=bool)
    for index in blocks:
        free[index] = False
    index = np.flatnonzero(free)[:, None]
    return [(index, np.ones((index.shape[0], 1, 1), dtype=complex),
             np.ones((index.shape[0], 1), dtype=bool))] if index.size else []


def pivoted_columns(a, k):
    """Indices, in increasing order, of k columns of a picked by
    column-pivoted QR (Businger-Golub): each step takes the column of
    largest norm once the span of the columns picked so far is projected
    out.  Norms within a relative 1e-8 of the largest count as tied, and a
    tie goes to the lowest index, so that rounding does not decide between
    columns of equal weight.  A column is picked at most once; NoSolution
    when every column not yet picked has an exactly zero remainder.

    When k is the number of rows and the blocks of a (_blocks) cover every
    row, the loop runs on each block alone, the blocks of one shape in one
    stacked loop (a 1 x q block is one argmax), and each block takes as
    many columns as it has rows; the tie band is then read against the
    block's own largest norm.  Blocks share no row, so a step in one block
    leaves the others as they are: when every block has full row rank, as
    when a has orthonormal rows, the whole loop takes as many columns from
    each block, and the same ones unless a norm falls within one band and
    not the other.  Any other call runs the loop on the whole matrix."""
    a = _finite_matrix(a)
    m, n = a.shape
    if k == n:
        return np.arange(k)
    blocks = _blocks(a) if k == m else None
    if blocks and sum(rows.size for rows, _ in blocks) == k:
        picks = [np.take_along_axis(cols, _pivots(a[rows[:, :, None], cols[:, None, :]],
                                                  rows.shape[1]), axis=1)
                 for rows, cols in blocks]
        return np.sort(np.concatenate([p.ravel() for p in picks]))
    return np.sort(_pivots(a[None], k)[0])


def _pivots(a, k):
    """The k columns that the Businger-Golub loop of pivoted_columns picks
    from each matrix of the stack a, in the order picked, as (stack, k)."""
    rest = a.copy()
    at = np.arange(a.shape[0])
    picks = np.empty((a.shape[0], k), dtype=np.intp)
    for step in range(k):
        norms = (rest.real ** 2 + rest.imag ** 2).sum(axis=1)
        norms[at[:, None], picks[:, :step]] = 0.0
        top = norms.max(axis=1, initial=0.0)
        if not (top > 0).all():
            raise NoSolution("no independent column is left to pick")
        picks[:, step] = j = np.argmax(norms >= (1 - 1e-8) * top[:, None], axis=1)
        q = rest[at, :, j] / np.sqrt(norms[at, j])[:, None]
        rest -= q[:, :, None] * np.matmul(q.conj()[:, None, :], rest)
    return picks


def _spectrum(a):
    """(None, singular values of a, None): the part of an SVD a rank needs."""
    return None, np.linalg.svd(_wide_factor(_tall_factor(a)), compute_uv=False), None


def rank(a, tol=None):
    a = _finite_matrix(a)
    blocks = _blocks(a)
    if blocks is None:
        return _count(_spectrum(a)[1], tol)
    return sum(int(count.sum())
               for *_, count in _block_svds(_block_stacks(a, blocks), blocks, _spectrum, tol))


def _right_svd(a):
    # the full right singular basis is needed; on wide systems that is vh
    # of the full SVD, on tall ones vh of the square factor R
    return np.linalg.svd(_tall_factor(a), full_matrices=a.shape[-2] < a.shape[-1])


def null_space(a, tol=None):
    """Orthonormal basis (columns) of {x : a x = 0}."""
    a = _finite_matrix(a)
    blocks = _blocks(a)
    if blocks is None:
        u, s, vh = _right_svd(a)
        return vh[_count(s, tol):].conj().T.copy()
    return _block_null_space(a.shape[1], _block_stacks(a, blocks), blocks, tol)


def sparse_null_space(r, c, values, shape, tol=None):
    """null_space of the matrix of the given shape whose entries are values
    at the distinct places (r, c) and zero elsewhere, without forming it
    unless it is one block that covers every row and column: the blocks
    are read from the places of the nonzero values, and each is filled
    from them, so that the blocks, their SVDs and the cutoff are those of
    null_space on the whole matrix."""
    if not np.isfinite(values).all():
        raise NoSolution("matrix has non-finite entries")
    kept = values != 0
    r, c, values = r[kept], c[kept], values[kept]
    m, n = shape
    blocks = _pattern_blocks(r, c, m, n)
    if blocks is None:
        a = np.zeros(shape, dtype=complex)
        a[r, c] = values
        return null_space(a, tol=tol)
    # the group, the block in it and the place in that block of each row,
    # and the place of each column in its block
    group, block, place = np.empty((3, m), dtype=np.intp)
    column = np.empty(n, dtype=np.intp)
    for g, (rows, cols) in enumerate(blocks):
        group[rows], block[rows] = g, np.arange(rows.shape[0])[:, None]
        place[rows], column[cols] = np.arange(rows.shape[1]), np.arange(cols.shape[1])
    stacks = []
    for g, (rows, cols) in enumerate(blocks):
        at = group[r] == g
        stack = np.zeros(rows.shape + cols.shape[1:], dtype=complex)
        stack[block[r[at]], place[r[at]], column[c[at]]] = values[at]
        stacks.append(stack)
    return _block_null_space(n, stacks, blocks, tol)


def _block_null_space(n, stacks, blocks, tol):
    """null_space of a matrix of n columns from the stacks of its blocks."""
    parts = _block_svds(stacks, blocks, _right_svd, tol)
    pieces = [(cols, vh.conj().swapaxes(-1, -2), ~_first(count, vh.shape[-1]))
              for _, cols, _, vh, count in parts]
    return _assemble(n, pieces + _unit_pieces(n, [cols for cols, _, _ in pieces]))


def invertible(a, tol=None):
    """(is the square matrix a invertible, its smallest singular value):
    invertible when that value exceeds the rank cutoff, i.e. a has full rank."""
    s = np.linalg.svd(_finite_matrix(a), compute_uv=False)
    smallest = float(s[-1]) if s.size else 0.0
    return bool(s.size and smallest > _cutoff(s, tol)), smallest


def _reduced_left_svd(a):
    return np.linalg.svd(_wide_factor(a), full_matrices=False)


def _full_left_svd(a):
    # the full left singular basis is needed; on tall systems that is u of
    # the full SVD, on wide ones u of the square factor R^H
    return np.linalg.svd(_wide_factor(a), full_matrices=a.shape[-1] < a.shape[-2])


def orth(a, tol=None):
    """Orthonormal basis (columns) of the column space of a."""
    a = _finite_matrix(a)
    blocks = _blocks(a)
    if blocks is None:
        u, s, vh = _reduced_left_svd(a)
        return u[:, :_count(s, tol)].copy()
    parts = _block_svds(_block_stacks(a, blocks), blocks, _reduced_left_svd, tol)
    return _assemble(a.shape[0], [(rows, u, _first(count, u.shape[-1]))
                                  for rows, _, u, _, count in parts])


def orth_split(a, tol=None):
    """(orthonormal basis of the column space of a, orthonormal basis of its
    orthogonal complement), both from one SVD of each block."""
    a = _finite_matrix(a)
    m = a.shape[0]
    blocks = _blocks(a)
    if blocks is None:
        u, s, vh = _full_left_svd(a)
        r = _count(s, tol)
        return u[:, :r].copy(), u[:, r:].copy()
    parts = _block_svds(_block_stacks(a, blocks), blocks, _full_left_svd, tol)
    span = [(rows, u, _first(count, u.shape[-1])) for rows, _, u, _, count in parts]
    rest = [(rows, u, ~keep) for rows, u, keep in span]
    return _assemble(m, span), _assemble(m, rest + _unit_pieces(m, [r for r, _, _ in span]))


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
