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
entries.  nonzeros lists a table, join pairs the entries of two lists with
equal contracted index, accumulate sums the products per output index
(summed does the three), and difference subtracts two lists.  A table is
monomial for a check (monomial_lists) when it is finite and has at most
its check's limit of nonzeros, as the tables of every built-in algebra,
its dual and the crossed products of the package's actions have in the
natural basis and in any monomial (permutation times phases) basis:

  * axioms Ia and Ic: mult and cop with at most n^2 nonzeros.  Ia's right
    side is the ring P[i, u, b, c] (over a) joined with Q[b, c, j, v]
    (over d) on (b, c), so its right half is not held whole;
  * associativity: mult with at most n^2 nonzeros, both sides joined over
    the middle index;
  * the module product law and the unit-coproduct splitting: the target's
    mult with at most dim M^2, cop with at most dim A^2 and act with at
    most dim A * dim M nonzeros, and a finite Delta(1).  Both sum
    c[., u, v] act[u, p, a] act[v, q, b] mult[a, b, k] in the order
    act-mult over b, then c-act over u (c = cop or Delta(1)), then the two
    over (v, a); the act-mult table is never formed.

A join runs only when its exact term count, known from the two key
histograms (join_size) before anything is allocated, fits one
weakhopf._checks slice; otherwise, or on any other table (a Haar-random
basis, a non-finite entry), the dense sliced path runs.  Every entry
outside a list is an exact zero, and products of finite tables drop only
exact 0 * finite terms, so the residual is still the maximum over the full
index set and the sums change only by rounding.  accumulate returns its
keys in increasing, that is row-major, order, so the first largest entry
of a list is the location the dense path reports
(weakhopf._checks.require_listed).  On the dense path Ia costs n^6 flops:
every summed index of its ring joins two of the four tables, so every
pairwise order builds an n^4 table and ends in one (n^2 x n^2)(n^2 x n^2)
GEMM, and associativity costs n^5.

On the dense path the module product law and the unit-coproduct splitting
take split_product, whose inner index (v, a) runs over a coproduct leg v and a
target index a.  Each item is summed over the blocks v it reaches: those
where its left factor (coef . act) has a nonzero or NaN entry, or where
the act-mult table has a non-finite row.  Only exact 0 * finite terms are
dropped, so the result is non-finite where the full product is.  Items
with the same reach share one GEMM per reached block, over views of the
table (its rows (v, a) of one block are contiguous), so nothing of the
table is gathered; a group is stacked in chunks whose sums and one GEMM
result fit one slice.  On the dim-64 Pauli tower step, each coproduct row of
the dim-16 algebra reaches 4 of its 16 legs; the table there is 64 MB.
Items that reach every block, as on dense tables, share one plain GEMM.

Every other identity costs at most n^5 flops.
"""

import math

import numpy as np

from ._checks import fits_slice, row_slices


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


def split_product(coef, act, mult, table=None, nonfinite_rows=None, out=None):
    """out[..., p, q, k] = sum coef[..., u, v] act[u, p, a] act[v, q, b]
    mult[a, b, k]: products (e_u |> f_p)(e_v |> f_q) weighted by a
    coproduct-shaped coefficient table.

    Contracted as (coef . act) against the act_mult_table of act and mult,
    which may be passed in as table, with its (dim A * dim M,) mask of
    non-finite rows as nonfinite_rows when it is reused.  That table has
    dim A * dim M^3 entries; with a two-index coef it exceeds the dim M^3
    result, and every other pairwise order builds a dim M^4 table.  When
    out (a C-contiguous array of the result's shape) is given, the product
    is subtracted from it in place and out is returned, so that a check
    holds no second table of that size.

    Each item (one index of coef's leading axes) is summed only over the
    blocks v that it reaches: those at which its left factor
    (coef . act)[..., v, p, a] has a nonzero or NaN entry, or at which the
    rows (v, a) of table have a non-finite entry.  Only exact 0 * finite
    terms are dropped, so the result equals the full product up to rounding
    and is non-finite where it is.  Items with the same reach are stacked,
    in chunks whose sums and one GEMM result fit one slice, and each chunk
    runs one GEMM per reached block; the rows of one block v are contiguous
    in table, so each GEMM reads a view of them and nothing is gathered.
    When every item reaches every block, the whole product is one plain
    GEMM against table.
    """
    if table is None:
        table = act_mult_table(act, mult)
    if nonfinite_rows is None:
        nonfinite_rows = ~np.isfinite(table).all(axis=1)
    nv, npq, na = act.shape
    items = math.prod(coef.shape[:-2])
    left = np.tensordot(coef, act, axes=([-2], [0])).reshape(items, nv, npq, na)
    reach = (left != 0).any(axis=(2, 3)) | nonfinite_rows.reshape(nv, na).any(axis=1)
    product = out is None
    if product:
        out = np.zeros(coef.shape[:-2] + (npq, npq, mult.shape[2]),
                       np.result_type(left, table))
    rows = out.reshape(items, npq, table.shape[1])
    if reach.all():
        rows -= (np.moveaxis(left, 1, 2).reshape(items * npq, nv * na) @ table
                 ).reshape(rows.shape)
    else:
        blocks = table.reshape(nv, na, table.shape[1])
        by_leg = np.swapaxes(left, 0, 1)                     # [v, r, p, a]
        groups = {}
        for r, vs in enumerate(reach.tolist()):
            groups.setdefault(tuple(vs), []).append(r)
        for members in groups.values():
            legs = np.flatnonzero(reach[members[0]])
            if not legs.size:
                continue                                 # items that reach nothing
            # a chunk's sums and one GEMM result fit one slice together
            for chunk in row_slices(len(members), 2 * rows[0].size):
                rs = members[chunk]
                stacked = by_leg[legs[:, None], rs].reshape(legs.size, len(rs) * npq, na)
                sums = np.matmul(stacked[0], blocks[legs[0]])
                for x, v in zip(stacked[1:], legs[1:]):
                    sums += np.matmul(x, blocks[v])
                rows[rs] -= sums.reshape(len(rs), *rows.shape[1:])
    return np.negative(out, out=out) if product else out


def nonzeros(table):
    """The nonzero entries of table: (index arrays, one per axis, values),
    in row-major order."""
    index = np.nonzero(table)
    return index, table[index]


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


def monomial_lists(*bounded):
    """The nonzero lists of the tables of (table, limit) pairs when every
    table is finite and has at most its limit of nonzeros; None otherwise."""
    for table, limit in bounded:
        if not np.isfinite(table).all() or np.count_nonzero(table) > limit:
            return None
    return [nonzeros(table) for table, _ in bounded]


def summed(ka, kb, va, vb, key):
    """The nonzero list of sum va[ia] vb[ib] over the pairs of join(ka, kb),
    at the output keys key(ia, ib); None when the pairs do not fit one
    slice."""
    if not fits_slice(join_size(ka, kb)):
        return None
    ia, ib = join(ka, kb)
    return accumulate(key(ia, ib), va[ia] * vb[ib])


def difference(a, b):
    """The nonzero list of a - b, from those of a and b (an entry of either
    list at a key the other lacks stands against an exact zero)."""
    return accumulate(np.concatenate([a[0], b[0]]), np.concatenate([a[1], -b[1]]))
