"""Structure-constant contractions shared by the construction and
verification layers.

These kernels, and the identities declared beside their checks, are chains
of pairwise contractions (``@``/``np.matmul`` on C-contiguous
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

Declared identities.  Every n^4 identity that a check of the package
raises on is written once, as data beside its check: associativity and star
antimultiplicativity (weakhopf.algebra), the module composition and
product laws, the unit-coproduct splitting and the coaction laws
(weakhopf.modules), axioms Ia and Ic and the two projection identities that
contract t1 = (Delta (x) id) Delta over (y, z) (weakhopf.hopf), and the
covariance identity, the two canonical quasi-basis identities, the
translation products, the translation exchange identity and the regular
homomorphism products (weakhopf.crossed).  A chain is a leaf or
(subscripts, chain, chain), one pairwise np.einsum step over two chains,
and an identity is a pair of chains with the same output letters, whose
difference is checked.  A leaf is a table name, or conj(name), which reads
that table conjugated: the values of its nonzero list, or each dense slice
of it, so that no conjugated copy of the whole table is made.  evaluate
runs the identities of one call over named tables, each letter of the call
at one size, in one of two ways, chosen per identity from its input:

  * nonzero lists, when every table the identity reads is listed (finite,
    with at most as many nonzeros as the product of its first two
    dimensions, n^2 for an (n, n, n) table, as the tables of every built-in
    algebra, its dual and the crossed products of the package's actions
    have in the natural basis and in any monomial basis) and every join
    fits the list gate, weakhopf._checks.SLICE_BYTES (16 MiB, fits_slice).
    A nonzero list is one format: the row-major flat keys of the entries of
    a table, distinct and in increasing order, and their values; contract
    derives every key from the subscripts and the letter sizes, unravelling
    each operand's keys once, and difference subtracts two lists.  A join's
    exact term count is known from the key histograms of the shared letters
    (join_size) before anything is allocated.  Each list step is linear in its keys and pairs
    and sorts only where its keys need it: a join reads the offsets of its
    right keys from their histogram and sorts them only when they are not
    increasing; a sum (accumulate) groups increasing keys by their runs,
    and keys from a key space at most DENSE_KEYS (4) times their count on a
    presence table of that space, and sorts other keys with np.unique; a
    difference of two lists with equal keys is one elementwise pass.  Every
    result is bit for bit what sorting every time gives: the same pairs in
    the same order, and each sum np.bincount's in the order of its terms;
  * dense slices otherwise (a Haar-random basis, a non-finite entry, a join
    over the gate).  The output is formed one slice of its first letter
    at a time, with the slice sizes of weakhopf._checks.row_slices for the
    largest row of any step of these identities that carries that letter:
    at most DENSE_SLICE_BYTES (2 MiB, a level-2 cache) each, but never less
    than one row (no other module slices a table), and each slice is
    reduced at once (weakhopf._checks.Worst), so the verdict, residual and
    location are those of the whole table.  A subtree without the lead
    letter is formed once per call and held whole, and a step that several
    identities of the call share is formed once per slice and dropped after
    the last of them has read it; an identity one of whose sides is such a
    step is evaluated after the others.  Each step is one np.matmul whose
    result is laid out in the step's output order (dense_step), and the
    two sides are subtracted in place, into a side no later identity
    reads.

Built tables.  A chain also builds a table (build), the one way a crossed
product's tables are formed: the chains PRODUCT, STAR and DESCENT
(weakhopf.crossed) read the tables of M, A and the action gathered at the
picked pure tensors (gathered, listed from their owners' lists) and the
projection onto the classes.  build takes the two ways of evaluate, lists
where every table is listed and every join fits the gate, else dense
slices of the chain's lead letter.  A list-built table keeps its entries,
with the exact-zero sums dropped, whether or not listed would admit them
(row_maxima reads the descent's from them), and fills its dense array only
on request.

The table form.  evaluate and build take, for each name, an array or a
Table.  A Table holds a dense array, the entries that build or gathered
formed on lists, or both, each formed at most once; its nonzero list is
the entries where listed admits them, else listed(dense) on first use.
listed is the one gate of the list path, and a Table answers it with the
list it holds.  WeakHopfAlgebra (cop), ModuleAlgebra (act) and a
StarAlgebra built from arrays hand their tables out as Tables held through
config.memo on the owner (owned), so each is listed once per owner and
freed with it.  A crossed product's algebra built on lists is a
weakhopf.algebra.ListedAlgebra: it holds the Table of its mult alone, which
owned hands out as it is, and its dense array is formed only when a reader
asks for it; every such formation is counted in FORMED.  Its readers are
list steps: times, the list-times-dense step (Gustavson's sparse-times-
dense product: gather the dense operand at the list's digits, scale by the
values, sum with np.bincount into the output keys), for the left and right
regular representations, products of two vectors, the products of the
basis mapped through a matrix, index sums and the trace form;
listed_pair_products for the products of two stacks of vectors, one
matrix product per output coordinate; and commutators for the entries of
the commutator stacks of center and commutant, whose null space is taken
block by block from those entries (weakhopf._linalg.sparse_null_space).
The list-or-dense choice is made once per algebra, when it is built, so an
algebra built from arrays (any Haar-random basis) reads its dense arrays
as before, with no work added per read.  Arrays made per call stay plain.

Every entry outside a list is an exact zero, and products of finite tables
drop only exact 0 * finite terms, so both ways give the same residual up to
rounding.  accumulate returns its keys in increasing, that is row-major,
order, so the first largest entry of a list is the location the dense
slices report (weakhopf._checks.worst_listed).

Held whole on the dense path, besides the tables: Ia's right half
[(b, c), (j, v)] (n^4 entries), the act-mult products [v, a, q, k]
(dim A * dim M^3) that the module product law and the unit-coproduct
splitting share, the [q, i, b, k] factor of coaction multiplicativity
(dim M^2 * dim A^2), the products (e_u)(f_p) [u, p, x] of covariance and
their [u, c, x] factor (dim A * dim X^2), the exchange identity's products
tau_l(f^u) ell(e_k) ((dim A)^4), the regular homomorphism's
[p, b, y, c, r] factor (dim X * dim M^2 * dim A^2), and the operands a
crossed product's tables are built from (multm[ps]: dim X * dim M^2).  Ia
costs n^6 flops there: every summed index of its ring joins two of the four
tables, so every pairwise order builds an n^4 table and ends in one
(n^2 x n^2)(n^2 x n^2) GEMM; associativity costs n^5, and every other
identity at most n^5.
"""

import functools
import math
from collections import Counter

import numpy as np

from ._checks import Worst, fits_slice, row_slices, worst_listed
from .config import memo


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


def listed_pair_products(nonzeros, xs, ys):
    """pair_products from the nonzero list (keys, values) of an (n, n, n)
    table, n the length of the columns: each entry (i, j, k) scales the
    row i of xs by its value and pairs it with the row j of ys, and the
    pairs of one output coordinate k are summed by one matrix product.
    Besides the (a, b, n) result it holds the two gathered stacks of rows,
    (entries, a) and (entries, b)."""
    keys, values = nonzeros
    n = xs.shape[0]
    order = np.argsort(keys % n, kind="stable")
    keys, values = keys[order], values[order]
    k = keys % n
    bounds = np.searchsorted(k, np.arange(n + 1))
    left = xs[keys // (n * n)] * values[:, None]            # [entry, a]
    right = ys[keys // n % n]                               # [entry, b]
    out = np.zeros((n, xs.shape[1], ys.shape[1]), np.result_type(left, right))
    for c in np.flatnonzero(np.diff(bounds)):
        rows = slice(bounds[c], bounds[c + 1])
        out[c] = left[rows].T @ right[rows]
    return out.transpose(1, 2, 0)


def commutators(nonzeros, n, basis):
    """(rows, columns, values): the entries of the stack of rows
    s_a x - x s_a, the matrix [(a, k), j] of weakhopf.algebra._commutators,
    for the columns s_a of basis (the unit matrix when basis is None), from
    the nonzero list of an (n, n, n) mult: the joins of basis's list with
    it, and their difference.  For the whole basis each entry is an entry
    of mult or a difference of two, so the entries are the stack's bit for
    bit.  None when a join does not fit the gate."""
    if basis is None:
        cols, s = n, (np.arange(n) * (n + 1), np.ones(n, complex))
    else:
        cols, s = basis.shape[1], listed(basis)
    dims = {"i": n, "j": n, "k": n, "a": cols}
    got = difference(contract("ia,ijk->akj", s, nonzeros, dims),      # s_a e_j
                     contract("ia,jik->akj", s, nonzeros, dims))      # e_j s_a
    return None if got is None else (got[0] // n, got[0] % n, got[1])


def times(nonzeros, shape, axis, dense):
    """The contraction of a table over one axis with the rows of the dense
    matrix dense, laid out with dense's columns first:
    np.moveaxis(np.tensordot(table, dense, ([axis], [0])), -1, 0), from the
    nonzero list (keys, values) of the table, of the given shape.  Each
    entry gathers the row of dense at its digit along axis, scaled by its
    value, and np.bincount sums the terms at the keys of the other digits,
    column by column (Gustavson's sparse-times-dense product).  Its terms
    take (entries x columns) keys and values."""
    keys, values = nonzeros
    digits, rest = _split_keys(keys, shape, axis)
    size, cols = math.prod(shape) // shape[axis], dense.shape[1]
    at = (np.arange(cols)[:, None] * size + rest).ravel()
    terms = (dense[digits].T * values).ravel()
    return _sums(at, terms, cols * size).reshape((cols,) + shape[:axis] + shape[axis + 1:])


def _split_keys(keys, shape, axis):
    """(the digits along axis, the row-major keys over the other axes) of
    row-major keys over shape."""
    stride = math.prod(shape[axis + 1:])
    return keys // stride % shape[axis], keys // (stride * shape[axis]) * stride + keys % stride


def evaluate(tables, *identities):
    """The declared identities over tables, a dict of name: table, each by
    nonzero lists or by dense slices (see the module docstring): for each,
    the (residual, location) of the difference of its two sides, as
    weakhopf._checks.Worst gives them.  Raises ValueError when two tables
    give one letter of the call different sizes."""
    sides, leaves, leads = _layout(identities)
    dims = _sizes(leaves, tables)
    results, lists, once = [None] * len(sides), {}, {}
    for k, ((lhs, word), (rhs, _)) in enumerate(sides):
        a = _as_list(lhs, tables, dims, lists)
        b = None if a is None else _as_list(rhs, tables, dims, lists)
        if b is not None:
            results[k] = worst_listed(difference(a, b), [dims[x] for x in word])
    for lead, group, words, shared, drops in leads:
        group = [k for k in group if results[k] is None]
        if group:
            _dense_group(lead, group, words, shared, drops, sides, tables, dims, once,
                         results)
    return results


def build(chain, tables):
    """The Table that a declared chain forms from named tables, on nonzero
    lists where every table it reads is listed and every join fits the
    gate, else on dense slices of its lead letter (see the module
    docstring)."""
    word = chain[0].split("->")[1]
    dims = _sizes([n for n in _nodes(chain, word) if isinstance(n[0], str)], tables)
    shape = tuple(dims[x] for x in word)
    got = _as_list(chain, tables, dims, {})
    if got is None:
        return Table(_dense_table(chain, word, tables, dims))
    kept = got[1] != 0
    return Table(None, shape=shape, entries=(got[0][kept], got[1][kept]))


def _dense_table(chain, word, tables, dims):
    """The dense array of chain over the letters word, formed one slice of
    its lead letter at a time (_dense), sized for the steps that carry it."""
    lead, once, out = word[0], {}, None
    row = max(math.prod(dims[x] for x in w.replace(lead, "", 1))
              for c, w in _nodes(chain, word) if not isinstance(c, str) and lead in w)
    for rows in row_slices(dims[lead], row):
        got = _dense(chain, word, (lead, rows, tables, once, {}, ()))
        if out is None:
            out = np.empty(tuple(dims[x] for x in word), got.dtype)
        out[rows] = got
    return out


def _sizes(leaves, tables):
    """The size of each letter of the (name, letters) leaves, read from the
    shapes of the tables; ValueError when two give one letter different
    sizes."""
    dims = {}
    for name, word in leaves:
        for x, d in zip(word, tables[_read(name)[0]].shape):
            if dims.setdefault(x, d) != d:
                raise ValueError(f"letter {x} is read at sizes {dims[x]} and {d}")
    return dims


@functools.lru_cache(maxsize=None)
def _layout(identities):
    """For each identity its two sides [(chain, output letters)], the (name,
    letters) of every table they read, and for each first output letter
    (the lead): the positions of the identities it leads, in the order they
    are evaluated, for each identity the letters of every step of it that
    carries the lead, the steps that two of their sides share and, for each
    identity, the shared steps it is the last to read.  An identity one of
    whose sides is a shared step comes after the others, so that it reads
    that step last."""
    sides, groups = [], {}
    for k, identity in enumerate(identities):
        word = next(c[0].split("->")[1] for c in identity if not isinstance(c, str))
        sides.append([(side, word) for side in identity])
        groups.setdefault(word[0], []).append(k)
    nodes = [[n for side in s for n in _nodes(*side)] for s in sides]
    leaves = sorted({n for ns in nodes for n in ns if isinstance(n[0], str)})
    leads = []
    for lead, group in groups.items():
        steps = {k: [n for n in nodes[k] if not isinstance(n[0], str) and lead in n[1]]
                 for k in group}
        shared = {c for c, count in Counter(c for k in group for c, _ in steps[k]).items()
                  if count > 1}
        group.sort(key=lambda k: any(side in shared for side, _ in sides[k]))
        last = {c: k for k in group for c, _ in nodes[k] if c in shared}
        drops = {k: [c for c, j in last.items() if j == k] for k in group}
        words = {k: {w for _, w in steps[k]} for k in group}
        leads.append((lead, group, words, shared, drops))
    return sides, leaves, leads


def _operands(chain):
    """(operand, its letters) for the two operands of a step."""
    return zip(chain[1:], chain[0].split("->")[0].split(","))


def _nodes(chain, word):
    """(chain, letters) of chain and of every chain below it."""
    yield chain, word
    if not isinstance(chain, str):
        for operand in _operands(chain):
            yield from _nodes(*operand)


def _read(leaf):
    """(table name, whether the leaf reads it conjugated)."""
    if leaf.startswith("conj(") and leaf.endswith(")"):
        return leaf[5:-1], True
    return leaf, False


def _as_list(chain, tables, dims, memo):
    """The nonzero list of chain, each chain formed once per call; None when
    a table it reads is not listed or a join does not fit the gate."""
    if chain not in memo:
        if isinstance(chain, str):
            name, conj = _read(chain)
            if conj:
                a = _as_list(name, tables, dims, memo)
                memo[chain] = None if a is None else (a[0], np.conj(a[1]))
            else:
                memo[chain] = listed(tables[chain])
        else:
            a = _as_list(chain[1], tables, dims, memo)
            memo[chain] = None if a is None else contract(
                chain[0], a, _as_list(chain[2], tables, dims, memo), dims)
    return memo[chain]


def _dense_group(lead, group, words, shared, drops, sides, tables, dims, once, results):
    """results[k] for the identities k of group, whose outputs lead with the
    letter lead, by dense slices of that letter.  words[k] are the letters
    of every step of identity k that carries it, and the slices are sized
    for the largest row of a step of group; once holds the steps without
    it, formed whole once per call, and a step of shared is formed once per
    slice and dropped after the identity k with that step in drops[k]."""
    row = max((math.prod(dims[x] for x in w.replace(lead, "", 1))
               for k in group for w in words[k]), default=1)
    worst = {k: Worst() for k in group}
    for rows in row_slices(dims[lead], row):
        memo = {}
        at = (lead, rows, tables, once, memo, shared)
        for k in group:
            (lhs, word), (rhs, _) = sides[k]
            a, b = _dense(lhs, word, at), _dense(rhs, word, at)
            for c in drops[k]:
                memo.pop(c, None)
            fresh = [v for c, v in ((lhs, a), (rhs, b))
                     if not isinstance(c, str) and c not in memo]
            gap = np.subtract(a, b, out=fresh[0] if fresh else None)
            del a, b, fresh              # the reduction reuses their memory
            worst[k].add(rows.start, gap)
    for k in group:
        results[k] = worst[k].result()


def _dense(chain, word, at):
    """The dense value of chain at the rows of the lead letter, when its
    letters word carry it, else whole; at = (lead, rows, tables, once, memo,
    shared): a step without the lead is kept in once, a step in shared in
    memo, the steps formed for these rows."""
    lead, rows, tables, once, memo, shared = at
    if isinstance(chain, str):
        name, conj = _read(chain)
        table = dense_of(tables[name])
        if lead in word:
            table = table[(slice(None),) * word.index(lead) + (rows,)]
        return np.conj(table) if conj else table
    cache = memo if lead in word else once
    if chain in cache:
        return cache[chain]
    (x, wx), (y, wy) = _operands(chain)
    got = dense_step(chain[0], _dense(x, wx, at), _dense(y, wy, at))
    if lead not in word or chain in shared:
        cache[chain] = got
    return got


@functools.lru_cache(maxsize=1024)
def _plan(subscripts, dims):
    """How dense_step lays out a step on operands whose shapes joined are
    dims: for each operand its axis order and the shape of its stack of
    matrices, and the shape of the output.  The result [batch, rows,
    columns] is the output in order: the columns are the trailing output
    letters of the second operand alone, the rows the output letters of
    the first alone before them, and every earlier output letter is a
    batch letter, which a table without it broadcasts.  Every summed letter
    is carried by both operands."""
    inputs, out = subscripts.split("->")
    w1, w2 = inputs.split(",")
    end = len(out)
    while end and out[end - 1] in w2 and out[end - 1] not in w1:
        end -= 1
    start = end
    while start and out[start - 1] in w1 and out[start - 1] not in w2:
        start -= 1
    batch, rows, cols = out[:start], out[start:end], out[end:]
    summed = "".join(x for x in w1 if x in w2 and x not in out)
    operands = []
    for word, offset, groups in ((w1, 0, (rows, summed)), (w2, len(w1), (summed, cols))):
        order = [c for c in batch if c in word] + list(groups[0] + groups[1])
        merged = [c if c in word else "" for c in batch] + list(groups)
        operands.append((tuple(word.index(c) for c in order),
                         tuple(math.prod(dims[offset + word.index(c)] for c in g)
                               for g in merged)))
    return operands, tuple(dims[(w1 + w2).index(c)] for c in out)


def dense_step(subscripts, x, y):
    """np.einsum(subscripts, x, y) for two tables as one np.matmul whose
    result is laid out in the output order (see _plan); an operand is
    copied only when its letters are not already in the order the product
    reads them."""
    ((ox, sx), (oy, sy)), out = _plan(subscripts, x.shape + y.shape)
    return np.matmul(x.transpose(ox).reshape(sx), y.transpose(oy).reshape(sy)).reshape(out)


_UNLISTED = object()

# How many dense arrays Tables formed on request, by shape.  A listed
# level reads its mult through the list (weakhopf.algebra.ListedAlgebra),
# so no (n, n, n) entry appears here for it unless a reader that stays
# dense asks for the array.
FORMED = Counter()


class Table:
    """A table held as a dense array, as the list of its nonzero entries, or
    both, each formed at most once.  Table(array) holds the array and lists
    it (listed) on first use.  Table(None, shape=shape, entries=(keys,
    values)) holds every nonzero entry of a table that build or gathered
    formed on lists, keys row-major in increasing order: its nonzero list
    is those entries where listed would admit them (_admitted), and its
    dense array is filled from them only on request.  Table(function, None,
    shape) forms its dense array by function on request and has no list.
    Each dense array formed on request is counted in FORMED.  evaluate and
    listed take a Table wherever they take an array."""

    __slots__ = ("_dense", "_nonzeros", "entries", "shape")

    def __init__(self, dense, nonzeros=_UNLISTED, shape=None, entries=None):
        self._dense, self.entries = dense, entries
        self.shape = dense.shape if shape is None else shape
        self._nonzeros = nonzeros if entries is None else _admitted(*entries, self.shape)

    @property
    def dense(self):
        if not isinstance(self._dense, np.ndarray):
            FORMED[self.shape] += 1
            self._dense = _filled(self.entries, self.shape) if self._dense is None \
                else self._dense()
        return self._dense

    def nonzeros(self):
        if self._nonzeros is _UNLISTED:
            self._nonzeros = listed(self.dense)
        return self._nonzeros


def _filled(entries, shape):
    """The dense array of the given shape with the entries (keys, values)."""
    keys, values = entries
    dense = np.zeros(math.prod(shape), values.dtype)
    dense[keys] = values
    return dense.reshape(shape)


def dense_of(t):
    """The dense array of t, a Table or an array."""
    return t.dense if isinstance(t, Table) else t


def owned(owner, name, given=None):
    """The Table of owner's table attribute name, held through config.memo
    so that it is listed at most once per owner: given, a Table of that
    same array, when the first call passes it, else a new one (and a new
    one again if the attribute was rebound).  An owner that holds the table
    as a Table in place of an array, under that name in its instance dict
    (weakhopf.algebra.ListedAlgebra's mult), gives that Table."""
    held = vars(owner).get(name)
    if isinstance(held, Table):
        return held
    array = getattr(owner, name)
    got = memo(owner, ("table", name),
               lambda: given if given is not None and given.dense is array else Table(array))
    return got if got.dense is array else Table(array)


def gathered(table, axis, index):
    """The Table of np.moveaxis(table, axis, 0)[index], table an array or a
    Table: where table is listed and the join fits the gate, its entries
    are the join of index with the digits along axis of the keys of
    table's list, in increasing order; else its dense array is formed from
    table's only on request, and it has no list."""
    shape = (len(index),) + table.shape[:axis] + table.shape[axis + 1:]
    got = listed(table)
    if got is not None:
        keys, values = got
        digits, rest = _split_keys(keys, table.shape, axis)
        if fits_slice(join_size(index, digits)):
            ia, ib = join(index, digits)
            return Table(None, shape=shape,
                         entries=(ia * math.prod(shape[1:]) + rest[ib], values[ib]))
    return Table(lambda: np.moveaxis(dense_of(table), axis, 0)[index], None, shape)


def row_maxima(table):
    """The largest |entry| of each row of a Table along its first axis (0
    for an empty row, NaN for a row with a NaN), from its entries where it
    holds them, listed or not, else from its dense array."""
    if table.entries is None:
        return np.abs(table.dense).reshape(table.shape[0], -1).max(axis=1, initial=0.0)
    keys, values = table.entries
    maxima = np.zeros(table.shape[0])
    np.maximum.at(maxima, keys // max(1, math.prod(table.shape[1:])), np.abs(values))
    return maxima


def listed(table):
    """The nonzero list of table, (row-major flat keys in increasing order,
    values); None when table has a non-finite entry or more nonzeros than
    the product of its first two dimensions.  A Table gives the list it
    holds."""
    if isinstance(table, Table):
        return table.nonzeros()
    if np.count_nonzero(table) > math.prod(table.shape[:2]):
        return None
    keys = np.flatnonzero(table)
    return _admitted(keys, table.ravel()[keys], table.shape)


def _admitted(keys, values, shape):
    """(keys, values), the nonzero list of a table of the given shape, where
    listed gives it (a non-finite entry is nonzero, so it is in the list);
    else None."""
    if keys.size > math.prod(shape[:2]) or not np.isfinite(values).all():
        return None
    return keys, values


def contract(subscripts, a, b, dims):
    """The nonzero list of the contraction of the lists a and b written as
    np.einsum subscripts, such as "ijp,pkq->ijkq": every pair of entries
    that agree on the letters both operands carry is multiplied, and the
    products are summed at the key of the output letters.  dims maps each
    letter to its size.  None when a or b is None, or when the pairs do not
    fit the gate."""
    if a is None or b is None:
        return None
    inputs, output = subscripts.split("->")
    sa, sb = inputs.split(",")
    shared = [x for x in sa if x in sb]
    da, db = _digits(a[0], sa, dims), _digits(b[0], sb, dims)
    ka, kb = _keys(da, shared, dims), _keys(db, shared, dims)
    if not fits_slice(join_size(ka, kb)):
        return None
    ia, ib = join(ka, kb)
    # a letter of both operands is read from a
    keys = _keys(da, output, dims)[ia] + _keys(db, output, dims, skip=sa)[ib]
    return accumulate(keys, a[1][ia] * b[1][ib])


def _digits(keys, word, dims):
    """{letter of word: its digit in each of the row-major keys over word}."""
    digits = np.unravel_index(keys, [dims[x] for x in word])
    return dict(zip(word, digits))


def _keys(digits, within, dims, skip=""):
    """The share of row-major keys over the letters of within that the
    letters of digits (see _digits), other than those in skip, contribute."""
    part, stride = np.zeros(next(iter(digits.values())).shape, np.intp), 1
    for x in reversed(within):
        if x in digits and x not in skip:
            part += digits[x] * stride
        stride *= dims[x]
    return part


def join_size(ka, kb):
    """How many pairs join(ka, kb) returns, from the histograms of the two
    arrays of non-negative integer keys, before any of them is formed."""
    if not (ka.size and kb.size):
        return 0
    keys = int(max(ka.max(), kb.max())) + 1
    return int(np.bincount(ka, minlength=keys) @ np.bincount(kb, minlength=keys))


def _increasing(keys):
    """Is each key at least the one before it?"""
    return not (keys[1:] < keys[:-1]).any()


def join(ka, kb):
    """Every pair of positions (ia, ib) with ka[ia] == kb[ib]: the terms of a
    contraction over the key.  The pairs come in order of ia, and the pairs
    of one ia in order of ib.  The positions of each key in kb are read
    from the histogram of kb; kb is sorted (stably) only when it is not
    already increasing."""
    counts = np.bincount(kb, minlength=int(ka.max(initial=-1)) + 1)
    lo = (np.cumsum(counts) - counts)[ka]          # first place of ka's key in sorted kb
    counts = counts[ka]
    ia = np.repeat(np.arange(ka.size), counts)
    first = np.cumsum(counts) - counts                # position of ia's first pair
    ib = np.repeat(lo - first, counts) + np.arange(ia.size)
    return ia, ib if _increasing(kb) else np.argsort(kb, kind="stable")[ib]


# A sum over keys that are not increasing is taken on a presence table of
# the key space, without a sort, when that space has at most this many keys
# per term (and the table fits the weakhopf._checks gate).
DENSE_KEYS = 4


def accumulate(keys, values):
    """(distinct keys in increasing order, sum of the values at each key),
    each sum np.bincount's, taken in the order of the values.  Increasing
    keys are grouped by their runs, keys from a small key space (DENSE_KEYS)
    by a presence table of it, and any others by np.unique."""
    if _increasing(keys):
        runs = np.empty(keys.size, bool)
        runs[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=runs[1:])
        keys, inverse = keys[runs], np.cumsum(runs) - 1
    else:
        space = int(keys.max()) + 1
        if space <= DENSE_KEYS * keys.size and fits_slice(space):
            present = np.zeros(space, bool)
            present[keys] = True
            keys, inverse = np.flatnonzero(present), (np.cumsum(present) - 1)[keys]
        else:
            keys, inverse = np.unique(keys, return_inverse=True)
    return keys, _sums(inverse, values, keys.size)


def _sums(keys, values, size):
    """np.bincount(keys, values, size) for real or complex values: the sum
    of the values at each key below size, in the order of the values."""
    if not np.iscomplexobj(values):
        return np.bincount(keys, values, size)
    sums = np.empty(size, values.dtype)
    sums.real = np.bincount(keys, values.real, size)
    sums.imag = np.bincount(keys, values.imag, size)
    return sums


def difference(a, b):
    """The nonzero list of a - b, from those of a and b (an entry of either
    list at a key the other lacks stands against an exact zero); None when
    a or b is None.  On equal keys it is one elementwise pass, 0.0 + a plus
    -b: the two additions accumulate makes at each key (two empty lists
    take accumulate, whose empty sums np.bincount types as integers)."""
    if a is None or b is None:
        return None
    if a[0].size and np.array_equal(a[0], b[0]):
        return a[0], (0.0 + a[1]) + -b[1]
    return accumulate(np.concatenate([a[0], b[0]]), np.concatenate([a[1], -b[1]]))
