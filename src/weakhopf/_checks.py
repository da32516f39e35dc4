"""The failure rule shared by every residual check of the package.

A residual is the largest absolute entry of a difference table.  A check
passes only when every entry is at most its bound, a tolerance times one of
the slack levels of weakhopf.config, sometimes scaled by an operand norm.
NaN is never at most anything, so a non-finite residual always fails.

A table too large to hold at once is reduced slice by slice along its
leading index (row_slices, Worst); the maximum over the slices is the
maximum over the table, bit for bit, so the verdict, the residual and the
reported location do not depend on the slicing.

Two byte targets size the work of weakhopf._contract.  SLICE_BYTES (16 MiB)
is the gate of its nonzero lists: a join, a presence table or a gathered
operand is formed whole only where it fits (fits_slice), else the table
goes the dense way.  DENSE_SLICE_BYTES (2 MiB, about one core's level-2
cache) sizes the slices of that dense way (row_slices), so that a slice and
the steps that form it stay in cache; a smaller target makes more, smaller
matrix products and barely lowers the peak any more.  The slicing changes
no result (Worst undoes it); the gate picks between two ways that agree up
to rounding.
"""

import numpy as np

# The gate of the nonzero lists: a join, presence table or gathered operand
# of at most this many bytes of complex entries is formed whole.
SLICE_BYTES = 1 << 24
# The target of a dense slice: it holds at most this many bytes of complex
# entries, but never less than one row.
DENSE_SLICE_BYTES = 1 << 21


def row_slices(rows, row_entries):
    """Consecutive slices covering range(rows), each of as many rows of
    row_entries complex entries as fit in DENSE_SLICE_BYTES (at least
    one)."""
    step = max(1, DENSE_SLICE_BYTES // (16 * max(1, row_entries)))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def fits_slice(entries):
    """Do this many complex entries fit the list gate, SLICE_BYTES?"""
    return 16 * entries <= SLICE_BYTES


def residual(*tables):
    """Largest absolute entry over all the tables; 0 when every table is
    empty, NaN whenever any entry is NaN."""
    worst = 0.0
    for t in tables:
        t = np.asarray(t)
        if t.size:
            m = float(np.abs(t).max())
            if not m <= worst:
                if m != m:
                    return m
                worst = m
    return worst


def outside(values, bound):
    """Elementwise: is the value not within the bound?  NaN is outside."""
    return ~(np.asarray(values) <= bound)


class Worst:
    """The largest |entry| of one table fed slice by slice along its leading
    index, in order, and its index tuple: the first NaN, else the first entry
    of the maximum in row-major order, as argmax finds it on the whole
    table."""

    def __init__(self):
        self.value, self.loc = None, None

    def add(self, offset, gap):
        """Take in the slice gap, whose first row is row offset of the table;
        returns self."""
        if self.value != self.value:
            return self                  # a NaN: nothing later moves it
        mags = np.abs(gap)
        if not mags.size:
            return self
        at = int(mags.argmax())          # the first NaN, else the first maximum
        m = float(mags.flat[at])
        if self.value is not None and m <= self.value:
            return self                  # ties keep the earlier entry
        ix = [int(i) for i in np.unravel_index(at, mags.shape)]
        if ix:
            ix[0] += offset
        self.value, self.loc = m, tuple(ix)
        return self

    def result(self):
        """(largest |entry|, its index tuple); (0.0, None) when every slice
        was empty."""
        return (0.0 if self.value is None else self.value), self.loc


def settle(gap, bound, exc, message, where=None):
    """Raise exc(message, where=..., residual=...) unless the residual of
    gap, a (residual, location) pair as Worst.result() gives it, is at most
    bound; where is as in require()."""
    worst, loc = gap
    if worst <= bound:
        return
    if callable(where):
        where = where(loc)
    raise exc(message, where=where, residual=worst)


def require(gap, bound, exc, message, where=None):
    """Raise exc(message, where=..., residual=...) unless every entry of
    |gap| is at most bound.

    gap is a difference table, a scalar residual or a dict of named
    residuals; the reported residual is its largest entry.  A callable
    where is applied to the location of the worst entry, or of the first
    NaN: its index tuple for a table (where=tuple reports that tuple), its
    key for a dict.  Any other where is reported as given.
    """
    if isinstance(gap, dict):
        keys = list(gap)
        worst, loc = Worst().add(0, np.asarray(list(gap.values()))).result()
        loc = keys[loc[0]] if loc else None
    else:
        worst, loc = Worst().add(0, gap).result()
    settle((worst, loc), bound, exc, message, where)


def worst_listed(listed, shape):
    """Worst.result() of a table of the given shape held as a nonzero list
    (keys, values): keys are row-major flat indices in increasing order, as
    weakhopf._contract.accumulate returns them, and every entry outside the
    list is an exact zero.  The first largest value of the list is then the
    first largest entry of the table in row-major order, so the residual
    and location are those of the whole table."""
    keys, values = listed
    worst, loc = Worst().add(0, values).result()
    if loc is not None:
        loc = tuple(int(i) for i in np.unravel_index(int(keys[loc[0]]), shape))
    return worst, loc


def require_first(checks, bound, exc):
    """Raise at the first basis index that fails any of several checks.

    checks is a sequence of (gaps, message, where): gaps is a table of
    residuals whose leading axis runs over a shared basis index, where maps
    an index tuple into gaps to the reported location.  The first index i
    with an entry outside the bound is reported, with the first check in the
    sequence that fails there and its first failing entry in row-major
    order; the residual is that entry.
    """
    flags = [outside(g, bound) for g, _, _ in checks]
    rows = [np.flatnonzero(f.any(axis=tuple(range(1, f.ndim)))) for f in flags]
    failing = [int(r[0]) for r in rows if r.size]
    if not failing:
        return
    i = min(failing)
    for (gaps, message, where), f in zip(checks, flags):
        if f[i].any():
            ix = (i,) + tuple(int(x) for x in np.unravel_index(np.argmax(f[i]),
                                                               f.shape[1:]))
            raise exc(message, where=where(ix), residual=float(np.asarray(gaps)[ix]))
