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
the module composition and product laws, axioms Ia and Ic, the
contractions of t1 = (Delta (x) id) Delta behind IIIc, the antipode
recovery and the projection identities, the coaction laws, and the
translation and homomorphism checks of the regular representation hold
one slice of their table at a time.  These checks still hold a four-index
operand whole: axiom Ia its right half [(b, c), (j, v)] (n^4 entries); the
module product law and the unit-coproduct splitting the act-mult table of
split_product (dim A * dim M^3); coaction multiplicativity its [q, b, i, k]
factor (dim M^2 * dim A^2); the translation exchange identity the products
tau_l(f^u) ell(e_k) ((dim A)^4); and the regular homomorphism check its
(t, b, c, p, r) factor.

Support rule: two products of the package sum each item only over the part
of the inner index that it reaches, and both drop only exact 0 * finite
terms, which are exact zeros.  So every entry that is non-finite in the
full product is non-finite here, a NaN or inf facing an exact zero still
gives NaN, and the finite sums change only by rounding.  Items that reach
the whole inner index, as on every dense table, share one plain GEMM, the
full product.

- Axiom Ia of the weak Hopf suite, Delta(xy) = Delta(x) Delta(y), costs n^6
  flops when its tables are dense.  Its right side cop[i,a,b] cop[j,c,d]
  mult[a,c,u] mult[b,d,v] is a ring in which every summed index joins two
  of the four tables, so every pairwise order builds an n^4 table and ends
  in an (n^2 x n^2)(n^2 x n^2) product.  That product is taken by
  support_matmul, which sums each row i of the left half only over the
  inner indices (b, c) at which that row has a nonzero entry or the right
  half a non-finite one.  Rows with the same support share one gather of
  the right half's rows in it, freed before the next support is gathered.
  On the group-type tables each row of C[S3] x_Ad S3 touches 216 of its
  1,296 inner indices: 6 whole blocks of one b, of only 36 rows each, and
  at that size one GEMM over the gathered rows (4.5 MB) was faster than a
  loop of block GEMMs (about 0.10 against 0.11-0.15 s per dim-36 product,
  one BLAS thread).
- The module product law and the unit-coproduct splitting take
  split_product, whose inner index (v, a) runs over a coproduct leg v and
  a target index a.  Each item is summed over whole blocks v: it reaches
  block v when its left factor (coef . act) has a nonzero or NaN entry
  there, or when the act-mult table has a non-finite row in block v.  The
  rows of one block are contiguous in the table, so an item is summed
  block by block over views of the table and gathers nothing.  On the
  dim-64 Pauli tower step, each coproduct row of the dim-16 algebra reaches
  4 of its 16 legs; the table there is 64 MB, and a gather of each item's
  reached rows would add 16 MB.

Every other identity costs at most n^5 flops.
"""

import math

import numpy as np


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


def split_product(coef, act, mult, table=None, nonfinite_rows=None):
    """out[..., p, q, k] = sum coef[..., u, v] act[u, p, a] act[v, q, b]
    mult[a, b, k]: products (e_u |> f_p)(e_v |> f_q) weighted by a
    coproduct-shaped coefficient table.

    Contracted as (coef . act) against the act_mult_table of act and mult,
    which may be passed in as table, with its (dim A * dim M,) mask of
    non-finite rows as nonfinite_rows when it is reused.  That table has
    dim A * dim M^3 entries; with a two-index coef it exceeds the dim M^3
    result, and every other pairwise order builds a dim M^4 table.

    Each item (one index of coef's leading axes) is summed only over the
    blocks v that it reaches: those at which its left factor
    (coef . act)[..., v, p, a] has a nonzero or NaN entry, or at which the
    rows (v, a) of table have a non-finite entry.  Only exact 0 * finite
    terms are dropped, so the result equals the full product up to rounding
    and is non-finite where it is.  The rows of one block v are contiguous
    in table, so an item reads views of them, one GEMM per block, and
    nothing is gathered.  When every item reaches every block, the whole
    product is one plain GEMM against table.
    """
    if table is None:
        table = act_mult_table(act, mult)
    if nonfinite_rows is None:
        nonfinite_rows = ~np.isfinite(table).all(axis=1)
    nv, npq, na = act.shape
    items = math.prod(coef.shape[:-2])
    left = np.tensordot(coef, act, axes=([-2], [0])).reshape(items, nv, npq, na)
    reach = (left != 0).any(axis=(2, 3)) | nonfinite_rows.reshape(nv, na).any(axis=1)
    if reach.all():
        out = np.moveaxis(left, 1, 2).reshape(items * npq, nv * na) @ table
    else:
        blocks = table.reshape(nv, na, table.shape[1])
        out = np.zeros((items, npq, blocks.shape[2]), np.result_type(left, table))
        for r, vs in enumerate(reach):
            for v in np.flatnonzero(vs):
                out[r] += np.matmul(left[r, v], blocks[v])
    return out.reshape(coef.shape[:-2] + (npq, npq, mult.shape[2]))


def support_matmul(left, right, nonfinite_rows=None):
    """out[r] = left[r] @ right for a stack left (R, m, K) and a matrix
    right (K, N), each item summed only over its support: the inner indices
    k at which left[r][:, k] has a nonzero entry or right[k] a non-finite
    one (nonfinite_rows, a (K,) mask that may be passed in when right is
    reused).  Only exact 0 * finite terms are dropped, so the result equals
    the full product up to rounding and is non-finite where it is: a NaN or
    inf facing an exact-zero column of an item still gives NaN.

    Items with the same support share one gather of the rows of right in
    that support, and each is one GEMM against it, written in place.  When
    every item touches every inner index, the whole stack is one plain GEMM
    against right, with no gather or copy.
    """
    nr, m, k = left.shape
    nn = right.shape[1]
    if nonfinite_rows is None:
        nonfinite_rows = ~np.isfinite(right).all(axis=1)
    support = (left != 0).any(axis=1) | nonfinite_rows          # [r, k]
    if support.all():
        return (left.reshape(nr * m, k) @ right).reshape(nr, m, nn)
    out = np.empty((nr, m, nn), dtype=np.result_type(left, right))
    groups = {}
    for r, item in enumerate(support):
        groups.setdefault(item.tobytes(), []).append(r)
    for items in groups.values():
        cols = support[items[0]]
        cols = slice(None) if cols.all() else np.flatnonzero(cols)
        rows = right[cols]
        for r in items:
            np.matmul(left[r][:, cols], rows, out=out[r])
        del rows                    # before the next support is gathered
    return out
