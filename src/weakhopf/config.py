"""Run-wide numerical configuration."""

import os

DEFAULT_TOL = 1e-9

# Slack levels: a check whose residual accumulates rounding through more
# than one table contraction compares it with a multiple of the tolerance.
# The names describe the typical site; each check keeps the level it has
# always used.
SLACK_DERIVED = 1e2     # maps derived in one step: boundary maps, square roots
SLACK_SOLVED = 1e3      # quantities obtained through solves or spectra
SLACK_COMPOSITE = 1e4   # objects assembled from several solved pieces


def tolerance(tol=None):
    """Resolve a tolerance: explicit argument > WHA_TOL env var > default."""
    if tol is not None:
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        return float(tol)
    env = os.environ.get("WHA_TOL")
    if env:
        val = float(env)
        if val <= 0:
            raise ValueError("WHA_TOL must be positive")
        return val
    return DEFAULT_TOL


def memo(obj, key, build):
    """The one cache rule: obj._cache[key], calling build() on first use.
    The first value stored wins, so a derived object is the same object on
    every call.  Data that depends on the tolerance keys on tolerance(tol)."""
    cache = obj._cache
    if key in cache:
        return cache[key]
    return cache.setdefault(key, build())


DEFAULT_DIM_BUDGET = 5000
