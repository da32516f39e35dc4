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

One identity of the package has a dense floor of n^6 flops with n^4
intermediates: axiom Ia of the weak Hopf suite, Delta(xy) = Delta(x) Delta(y).
Its right side cop[i,a,b] cop[j,c,d] mult[a,c,u] mult[b,d,v] is a ring in
which every summed index joins two of the four tables, so every pairwise
order builds an n^4 table and ends in an (n^2 x n^2)(n^2 x n^2) product.
Every other identity costs at most n^5 flops.
"""

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


def split_product(coef, act, mult):
    """out[..., p, q, k] = sum coef[..., u, v] act[u, p, a] act[v, q, b]
    mult[a, b, k]: products (e_u |> f_p)(e_v |> f_q) weighted by a
    coproduct-shaped coefficient table.

    Contracted as (coef . act) against (act . mult).  The second factor has
    dim A * dim M^3 entries; with a two-index coef that exceeds the
    dim M^3 result, and every other pairwise order builds a dim M^4 table.
    """
    left = np.tensordot(coef, act, axes=([-2], [0]))          # [..., v, p, a]
    right = np.tensordot(act, mult, axes=([2], [1]))          # [v, q, a, k]
    return np.tensordot(left, right, axes=([-3, -1], [0, 2]))
