"""The failure rule shared by every residual check of the package.

A residual is the largest absolute entry of a difference table.  A check
passes only when every entry is at most its bound, a tolerance times one of
the slack levels of weakhopf.config, sometimes scaled by an operand norm.
NaN is never at most anything, so a non-finite residual always fails.
"""

import numpy as np


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


def require(gap, bound, exc, message, where=None):
    """Raise exc(message, where=..., residual=...) unless every entry of
    |gap| is at most bound.

    gap is a difference table, a scalar residual or a dict of named
    residuals; the reported residual is its largest entry.  A callable
    where is applied to the location of the worst entry, or of the first
    NaN: its index tuple for a table (where=tuple reports that tuple), its
    key for a dict.  Any other where is reported as given.
    """
    keys = list(gap) if isinstance(gap, dict) else None
    mags = np.abs(np.asarray(list(gap.values()) if keys is not None else gap))
    worst = float(mags.max()) if mags.size else 0.0
    if worst <= bound:
        return
    if callable(where):
        flat = int(mags.argmax())
        where = where(keys[flat] if keys is not None else
                      tuple(int(i) for i in np.unravel_index(flat, mags.shape)))
    raise exc(message, where=where, residual=worst)


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
