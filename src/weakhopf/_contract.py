"""Structure-constant contractions shared by the construction and
verification layers.

These kernels, and the identities written in place beside their callers,
are chains of pairwise contractions (``@``/``np.matmul`` on C-contiguous
tables, or ``np.tensordot``) rather than one many-operand ``np.einsum``,
whose greedy path can pick a three-operand loop that costs orders of
magnitude more.

Contraction-order rule: a chain is ordered so that no intermediate has more
entries than the larger of its result and its biggest operand.  Where no
pairwise order meets that bound, the order with the smallest largest
intermediate is used.

Loops over pairs of basis vectors are replaced by one batched product
against the multiplication table; every residual is still taken over the
full index set.

Slicing rule: a check whose difference table has four indices (n^4
entries) forms it one slice of its leading index at a time, with the slice
sizes of weakhopf._checks.row_slices (one fixed byte target), and reduces
each slice at once through require_sliced or residual_over, which report
the verdict, residual and location of the whole table.  Operands that
every slice needs are formed once, before the slices.  So associativity,
the module composition and product laws, axioms Ia and Ic and the
contractions of t1 = (Delta (x) id) Delta over (y, z) behind two
projection identities on the dense path, the coaction laws, and the
translation and homomorphism checks of the regular representation hold
one slice of their table at a time.  Star antimultiplicativity, whose
table has three indices, is sliced the same way: at n = 216 each whole
n^3 table is 160 MB.  On the dense path, axiom Ia
still holds its right half [(b, c), (j, v)] (n^4 entries) whole, and the
module product law and the unit-coproduct splitting the act-mult table of
split_product (dim A * dim M^3).  On every path, coaction
multiplicativity holds its [q, b, i, k] factor (dim M^2 * dim A^2), the
translation exchange identity the products tau_l(f^u) ell(e_k)
((dim A)^4), and the regular homomorphism check its (t, b, c, p, r)
factor.

Nonzero-list rule: monomial tables are contracted over their nonzero
entries.  A nonzero list is one format: the row-major flat keys of the
entries of a table, in increasing order, and their values.  listed gives
the list of a table when it is finite and has at most its check's limit of
nonzeros, as the tables of every built-in algebra, its dual and the
crossed products of the package's actions have in the natural basis and
in any monomial (permutation times phases) basis.  Each identity is
written as pairwise np.einsum subscripts over lists, one contract call per
step, and contract derives every key from the subscripts and the letter
sizes; difference subtracts two lists:

  * associativity: mult with at most n^2 nonzeros, "ijp,pkq->ijkq"
    against "jkp,ipq->ijkq";
  * axioms Ia and Ic: mult and cop with at most n^2 nonzeros.  Ia's right
    side is "iab,acu->iubc" and "jcd,bdv->bcjv" joined by
    "iubc,bcjv->iujv", so its right half is not held whole; its left side
    is "ijk,kuv->iujv".  Ic is t1 = "iaz,axy->ixyz" against
    "ixb,byz->ixyz";
  * the module product law and the unit-coproduct splitting: the target's
    mult with at most dim M^2, cop with at most dim A^2 and act with at
    most dim A * dim M nonzeros, and a finite Delta(1).  Both sum
    c[., u, v] act[u, p, a] act[v, q, b] mult[a, b, k] as "vqb,abk->vaqk",
    then "iuv,upa->ipva" (or "uv,upa->pva" for Delta(1)), then the two
    over (v, a); the act-mult table is never formed.

list_matmul multiplies a list, read as a matrix, by a dense table: the
(y, z) contractions of t1 behind two projection identities, when
nnz(t1) * n entries fit one slice.

A contraction runs only when its exact term count, known from the key
histograms of the shared letters (join_size) before anything is
allocated, fits one weakhopf._checks slice; otherwise it gives None, as
does every later step and difference that reads it, and the check takes
its dense sliced path, as on any other table (a Haar-random basis, a
non-finite entry).  Every entry outside a list is an exact zero, and
products of finite tables drop only exact 0 * finite terms, so the
residual is still the maximum over the full index set and the sums change
only by rounding.  accumulate returns its keys in increasing, that is
row-major, order, so the first largest entry of a list is the location the
dense path reports (weakhopf._checks.require_listed).  On the dense path
Ia costs n^6 flops: every summed index of its ring joins two of the four
tables, so every pairwise order builds an n^4 table and ends in one
(n^2 x n^2)(n^2 x n^2) GEMM, and associativity costs n^5.  On the dense
path the module product law and the unit-coproduct splitting take
split_product, one plain GEMM against the act-mult table.

Every other identity costs at most n^5 flops.
"""

import numpy as np

from ._checks import fits_slice


def pair_products(mult, xs, ys):
    """Products of every pair of columns: out[a, b] = xs[:, a] * ys[:, b].

    mult is an (n, n, n) structure-constant table, xs (n, a) and ys (n, b)
    hold coordinate columns; returns an (a, b, n) array.  The intermediate
    (a, n, n) table of left multiplications stays within mult's size while
    a <= n.
    """
    n = mult.shape[0]
    left = (xs.T @ mult.reshape(n, n * n)).reshape(-1, n, n)   # [a, j, k]
    return np.matmul(ys.T, left)


def act_mult_table(act, mult):
    """table[(v, a), (q, k)] = sum_b act[v, q, b] mult[a, b, k]: the
    products f_a (e_v |> f_q), formed directly in the layout in which
    split_product contracts them, so several calls can share one copy.
    It has dim A * dim M^3 entries."""
    nv, nq, _ = act.shape
    na, _, nk = mult.shape
    return np.matmul(act[:, None], mult[None]).reshape(nv * na, nq * nk)


def split_product(coef, act, mult, table=None, out=None):
    """out[..., p, q, k] = sum coef[..., u, v] act[u, p, a] act[v, q, b]
    mult[a, b, k]: products (e_u |> f_p)(e_v |> f_q) weighted by a
    coproduct-shaped coefficient table.

    One GEMM of (coef . act) against the act_mult_table of act and mult,
    which may be passed in as table when it is reused.  That table has
    dim A * dim M^3 entries; with a two-index coef it exceeds the dim M^3
    result, and every other pairwise order builds a dim M^4 table.  When
    out (a C-contiguous array of the result's shape) is given, the product
    is subtracted from it in place and out is returned, so that a check
    holds no second table of that size.
    """
    if table is None:
        table = act_mult_table(act, mult)
    nv, npq, na = act.shape
    left = np.moveaxis(np.tensordot(coef, act, axes=([-2], [0])), -3, -2)
    product = (left.reshape(-1, nv * na) @ table).reshape(
        coef.shape[:-2] + (npq, npq, mult.shape[2]))
    if out is None:
        return product
    out -= product
    return out


def listed(table, limit):
    """The nonzero list of table, (row-major flat keys in increasing order,
    values); None when table has a non-finite entry or more than limit
    nonzeros."""
    if not np.isfinite(table).all():
        return None
    keys = np.flatnonzero(table)
    if keys.size > limit:
        return None
    return keys, table.ravel()[keys]


def contract(subscripts, a, b, dims):
    """The nonzero list of the contraction of the lists a and b written as
    np.einsum subscripts, such as "ijp,pkq->ijkq": every pair of entries
    that agree on the letters both operands carry is multiplied, and the
    products are summed at the key of the output letters.  dims maps each
    letter to its size, or is one size for every letter.  None when a or b
    is None, or when the pairs do not fit one slice."""
    if a is None or b is None:
        return None
    inputs, output = subscripts.split("->")
    sa, sb = inputs.split(",")
    if isinstance(dims, int):
        dims = dict.fromkeys(sa + sb, dims)
    shared = [x for x in sa if x in sb]
    ka, kb = _keys(a[0], sa, shared, dims), _keys(b[0], sb, shared, dims)
    if not fits_slice(join_size(ka, kb)):
        return None
    ia, ib = join(ka, kb)
    # a letter of both operands is read from a
    keys = _keys(a[0], sa, output, dims)[ia] + _keys(b[0], sb, output, dims, skip=sa)[ib]
    return accumulate(keys, a[1][ia] * b[1][ib])


def _keys(keys, word, within, dims, skip=""):
    """The share of row-major keys over the letters of within that the
    letters of word, other than those in skip, contribute; read from keys
    over the letters of word."""
    digits = dict(zip(word, np.unravel_index(keys, [dims[x] for x in word])))
    part, stride = np.zeros(keys.shape, np.intp), 1
    for x in reversed(within):
        if x in digits and x not in skip:
            part += digits[x] * stride
        stride *= dims[x]
    return part


def list_matmul(a, table, rows):
    """The dense (rows, len(table)) matrix held as the nonzero list a, times
    table: a (rows, table.shape[1]) array.  The keys of a are sorted, so
    its entries come grouped by row."""
    keys, values = a
    out = np.zeros((rows, table.shape[1]), dtype=np.result_type(values, table))
    if keys.size:
        row = keys // len(table)
        starts = np.flatnonzero(np.concatenate([[True], row[1:] != row[:-1]]))
        out[row[starts]] = np.add.reduceat(values[:, None] * table[keys % len(table)],
                                           starts)
    return out


def join_size(ka, kb):
    """How many pairs join(ka, kb) returns, from the histograms of the two
    arrays of non-negative integer keys, before any of them is formed."""
    if not (ka.size and kb.size):
        return 0
    keys = int(max(ka.max(), kb.max())) + 1
    return int(np.bincount(ka, minlength=keys) @ np.bincount(kb, minlength=keys))


def join(ka, kb):
    """Every pair of positions (ia, ib) with ka[ia] == kb[ib]: the terms of a
    contraction over the key.  The pairs come in order of ia."""
    order = np.argsort(kb, kind="stable")
    ordered = kb[order]
    lo = np.searchsorted(ordered, ka, "left")
    counts = np.searchsorted(ordered, ka, "right") - lo
    ia = np.repeat(np.arange(ka.size), counts)
    first = np.cumsum(counts) - counts                # position of ia's first pair
    return ia, order[np.repeat(lo - first, counts) + np.arange(ia.size)]


def accumulate(keys, values):
    """(distinct keys in increasing order, sum of the values at each key),
    each sum taken in the order of the values."""
    keys, inverse = np.unique(keys, return_inverse=True)
    if not np.iscomplexobj(values):
        return keys, np.bincount(inverse, values, keys.size)
    sums = np.empty(keys.size, values.dtype)
    sums.real = np.bincount(inverse, values.real, keys.size)
    sums.imag = np.bincount(inverse, values.imag, keys.size)
    return keys, sums


def difference(a, b):
    """The nonzero list of a - b, from those of a and b (an entry of either
    list at a key the other lacks stands against an exact zero); None when
    a or b is None."""
    if a is None or b is None:
        return None
    return accumulate(np.concatenate([a[0], b[0]]), np.concatenate([a[1], -b[1]]))
