"""The list steps of weakhopf._contract (join, accumulate, difference and
contract) against reference copies of their sorting forms, byte for byte.

The references below are the forms these steps had when each of them
sorted its keys: a stable argsort and two searchsorted calls per join,
np.unique per sum, a difference as one sum over both lists, and the keys of
a contraction unravelled once per use.  The kernel now skips the sorts
where the keys allow, and must still give the same pairs in the same order
and the same sums to the last bit, keys and values alike (tobytes()).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf import _checks, _contract
from weakhopf._contract import DENSE_KEYS, accumulate, contract, difference, join


def reference_join(ka, kb):
    order = np.argsort(kb, kind="stable")
    ordered = kb[order]
    lo = np.searchsorted(ordered, ka, "left")
    counts = np.searchsorted(ordered, ka, "right") - lo
    ia = np.repeat(np.arange(ka.size), counts)
    first = np.cumsum(counts) - counts
    return ia, order[np.repeat(lo - first, counts) + np.arange(ia.size)]


def reference_accumulate(keys, values):
    keys, inverse = np.unique(keys, return_inverse=True)
    if not np.iscomplexobj(values):
        return keys, np.bincount(inverse, values, keys.size)
    sums = np.empty(keys.size, values.dtype)
    sums.real = np.bincount(inverse, values.real, keys.size)
    sums.imag = np.bincount(inverse, values.imag, keys.size)
    return keys, sums


def reference_difference(a, b):
    return reference_accumulate(np.concatenate([a[0], b[0]]), np.concatenate([a[1], -b[1]]))


def reference_keys(keys, word, within, dims, skip=""):
    digits = dict(zip(word, np.unravel_index(keys, [dims[x] for x in word])))
    part, stride = np.zeros(keys.shape, np.intp), 1
    for x in reversed(within):
        if x in digits and x not in skip:
            part += digits[x] * stride
        stride *= dims[x]
    return part


def reference_contract(subscripts, a, b, dims):
    inputs, output = subscripts.split("->")
    sa, sb = inputs.split(",")
    shared = [x for x in sa if x in sb]
    ia, ib = reference_join(reference_keys(a[0], sa, shared, dims),
                            reference_keys(b[0], sb, shared, dims))
    keys = reference_keys(a[0], sa, output, dims)[ia] \
        + reference_keys(b[0], sb, output, dims, skip=sa)[ib]
    return reference_accumulate(keys, a[1][ia] * b[1][ib])


def assert_same_bytes(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.shape == r.shape and g.tobytes() == r.tobytes()


# values whose sums round, cancel or carry a signed zero, so that a change
# of summation order or a dropped 0.0 + x shows in the bytes
REALS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e16, -1e16, 3e-17]),
                  st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def key_arrays(draw, max_size=40):
    """Keys with duplicates, increasing or in any order (or empty), from a
    key space within DENSE_KEYS times their count or far beyond it, its
    largest key sometimes present so that the space sits at the rule's
    edge."""
    n = draw(st.integers(0, max_size))
    space = max(1, draw(st.sampled_from([1, 2, DENSE_KEYS, DENSE_KEYS + 1, 40, 5000])) * n
                + draw(st.integers(-1, 1)))
    keys = draw(st.lists(st.integers(0, space - 1), min_size=n, max_size=n))
    if keys and draw(st.booleans()):
        keys[draw(st.integers(0, n - 1))] = space - 1
    if draw(st.booleans()):
        keys.sort()
    return np.array(keys, dtype=np.intp)


@st.composite
def value_arrays(draw, size):
    """size real values, or size complex ones."""
    re = np.array(draw(st.lists(REALS, min_size=size, max_size=size)), dtype=float)
    if not draw(st.booleans()):
        return re
    return re + 1j * np.array(draw(st.lists(REALS, min_size=size, max_size=size)))


@st.composite
def nonzero_lists(draw, space):
    """A nonzero list: distinct keys in increasing order below space."""
    keys = draw(st.sets(st.integers(0, space - 1), max_size=min(space, 30)))
    keys = np.array(sorted(keys), dtype=np.intp)
    return keys, draw(value_arrays(keys.size))


@settings(max_examples=400, deadline=None, database=None)
@given(key_arrays(), key_arrays())
def test_join_is_the_sorted_join(ka, kb):
    assert_same_bytes(join(ka, kb), reference_join(ka, kb))


@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_accumulate_is_the_sorted_sum(data):
    keys = data.draw(key_arrays(max_size=60))
    values = data.draw(value_arrays(keys.size))
    assert_same_bytes(accumulate(keys, values), reference_accumulate(keys, values))


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_difference_is_the_sum_of_both_lists(data):
    space = data.draw(st.integers(1, 60))
    a = data.draw(nonzero_lists(space))
    if data.draw(st.booleans()):                  # equal supports
        b = (a[0].copy(), data.draw(value_arrays(a[0].size)))
    else:
        b = data.draw(nonzero_lists(space))
    assert_same_bytes(difference(a, b), reference_difference(a, b))


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_contract_is_the_sorted_contraction(data):
    subscripts = data.draw(st.sampled_from(
        ["ijp,pkq->ijkq", "ij,jk->ik", "ijk,kj->i", "ABpwjr,prs->ABwjs", "ijp,jpq->ijq"]))
    dims = {x: data.draw(st.integers(1, 4)) for x in set(subscripts) - set(",->")}
    inputs = subscripts.split("->")[0].split(",")
    a, b = (data.draw(nonzero_lists(int(np.prod([dims[x] for x in w])))) for w in inputs)
    assert_same_bytes(contract(subscripts, a, b, dims),
                      reference_contract(subscripts, a, b, dims))


def test_the_sorts_run_only_where_the_keys_need_them(monkeypatch):
    # increasing keys, a small key space and equal supports take no sort,
    # and a join sorts only right keys that are not increasing
    lists = (np.array([1, 5]), np.array([1.0, -0.0]))
    other = (lists[0].copy(), np.array([0.0, 2j]))
    ref = reference_difference(lists, other)
    sorts = []
    for name in ("unique", "argsort", "sort", "searchsorted"):
        monkeypatch.setattr(_contract.np, name,
                            lambda *a, _f=getattr(np, name), _n=name, **k:
                            sorts.append(_n) or _f(*a, **k))
    values = np.array([1.0, 2.0, -0.0, 4.0])
    accumulate(np.array([0, 0, 3, 9]), values)                     # increasing
    accumulate(np.array([3, 0, 3, 15]), values)                    # 16 keys <= 4 * 4
    join(np.array([4, 1, 1]), np.array([0, 1, 1, 4]))
    assert_same_bytes(difference(lists, other), ref)
    assert sorts == []
    accumulate(np.array([3, 0, 3, 16]), values)                    # 17 keys > 4 * 4
    join(np.array([4, 1, 1]), np.array([1, 0, 1, 4]))
    assert sorts == ["unique", "argsort"]


def test_a_presence_table_over_one_slice_falls_back_to_unique(monkeypatch):
    keys, values = np.array([7, 2, 7, 0]), np.array([1.0, 1e16, -1e16, 2.0])
    ref = reference_accumulate(keys, values)
    monkeypatch.setattr(_checks, "SLICE_BYTES", 16 * 7)                # 8 keys do not fit
    unique = []
    monkeypatch.setattr(_contract.np, "unique",
                        lambda *a, _f=np.unique, **k: unique.append(1) or _f(*a, **k))
    assert_same_bytes(accumulate(keys, values), ref)
    assert unique == [1]

