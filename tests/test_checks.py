"""The shared failure rule: residual(), outside(), require() and
require_first() in weakhopf._checks, its streamed form (Worst fed slice by
slice, then settle), the NaN cases it closes, and source guards that keep
the rule in that one module, the slicing in weakhopf._contract, the rank
rule in weakhopf._linalg and the cache rule in weakhopf.config.memo.  Also:
caches of tolerance-dependent data are kept per tolerance."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from weakhopf import _linalg as la
from weakhopf import examples as ex
from weakhopf._checks import Worst, outside, require, require_first, residual, settle
from weakhopf.algebra import StarAlgebra, is_positive, make_star_algebra
from weakhopf.errors import (
    ActionAxiomViolation,
    AssociativityViolation,
    AxiomViolation,
    NoHaar,
    NoSolution,
    StarViolation,
    UnitViolation,
)
from weakhopf.hopf import WeakHopfAlgebra, make_weak_hopf, verify_weak_hopf
from weakhopf.modules import make_module_algebra

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "weakhopf"
OWNER = "_checks.py"


# ---------------------------------------------------------------------------
# the helpers


def test_residual_is_the_max_abs_over_all_tables():
    assert residual() == 0.0
    assert residual(np.zeros((0, 3)), []) == 0.0
    assert residual(np.array([1 - 1j, 0.5]), np.array([[-2.0]])) == 2.0
    assert residual(3j) == 3.0


def test_residual_keeps_a_nan_in_a_later_table():
    a, b = np.ones(3), np.array([0.0, np.nan])
    assert np.isnan(residual(a, b))
    assert np.isnan(residual(b, a))
    assert np.isnan(residual(np.zeros(0), a, b))


def test_outside_fails_nan_and_inf():
    got = outside(np.array([0.0, 1.0, 1.5, np.nan, np.inf]), 1.0)
    assert got.tolist() == [False, False, True, True, True]
    assert outside(np.nan, 1.0) and not outside(1.0, 1.0)


def test_require_passes_within_the_bound():
    require(np.full((2, 2), 1e-10), 1e-9, NoHaar, "unused")
    require(np.zeros(0), 0.0, NoHaar, "unused")
    require({"a": 0.0, "b": 1e-9}, 1e-9, NoHaar, "unused")


def test_require_reports_the_worst_entry():
    gap = np.zeros((2, 3, 4), dtype=complex)
    gap[1, 2, 0] = 3j
    gap[0, 1, 1] = -2.0
    with pytest.raises(NoHaar, match="fails") as info:
        require(gap, 1.0, NoHaar, "fails", where=tuple)
    assert info.value.residual == 3.0
    assert info.value.where == (1, 2, 0)

    with pytest.raises(NoHaar) as info:
        require(gap, 1.0, NoHaar, "fails", where=lambda ix: ("level", ix[0]))
    assert info.value.where == ("level", 1)

    with pytest.raises(NoHaar) as info:
        require(gap, 1.0, NoHaar, "fails", where="fixed")
    assert info.value.where == "fixed"

    with pytest.raises(NoHaar) as info:
        require(2.5, 1.0, NoHaar, "fails")
    assert info.value.where is None and info.value.residual == 2.5


def test_require_locates_the_first_nan():
    gap = np.array([[5.0, 0.0], [np.nan, np.nan]])
    with pytest.raises(NoHaar) as info:
        require(gap, 10.0, NoHaar, "fails", where=tuple)
    assert info.value.where == (1, 0)
    assert np.isnan(info.value.residual)


def test_require_names_the_worst_key():
    checks = {"idempotent": 1e-3, "self_adjoint": 2e-3, "antipode_fixed": 2e-3}
    with pytest.raises(NoHaar) as info:
        require(checks, 1e-9, NoHaar, "fails", where=lambda name: name)
    assert info.value.where == "self_adjoint" and info.value.residual == 2e-3

    checks["idempotent"] = np.nan
    with pytest.raises(NoHaar) as info:
        require(checks, 1e-9, NoHaar, "fails", where=lambda name: name)
    assert info.value.where == "idempotent"


# ---------------------------------------------------------------------------
# the streamed form: gap slices along the leading index, as
# weakhopf._contract reduces them


def _slices(gap, cuts):
    bounds = [0] + list(cuts) + [len(gap)]
    return [(a, gap[a:b]) for a, b in zip(bounds, bounds[1:])]


def _verdict(fn):
    """None when fn passes, else (type, message, where, residual) with a NaN
    residual written as 'nan' so verdicts compare equal."""
    try:
        fn()
    except NoHaar as exc:
        res = exc.residual
        return type(exc), str(exc), exc.where, "nan" if res != res else res
    return None


ENTRIES = [0.0, 1.0, -1.0, 1j, 2.0, -2j, 1 + 1j, 1e-12, np.nan, complex(1, np.nan),
           np.inf, complex(0, -np.inf)]


@st.composite
def _sliced_tables(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4))
    gap = draw(hnp.arrays(complex, shape, elements=st.sampled_from(ENTRIES)))
    cuts = draw(st.sets(st.integers(1, max(1, shape[0] - 1)), max_size=shape[0]))
    bound = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, np.inf]))
    return gap, sorted(c for c in cuts if c < shape[0]), bound


@settings(max_examples=300, deadline=None, database=None)
@given(_sliced_tables())
def test_sliced_rule_agrees_with_the_whole_table(case):
    """Random tables with NaN, inf and tied maxima, cut into random slices:
    Worst fed the slices in order, then settle, gives the same pass/fail,
    exception type, message, residual and where as require on the whole
    table."""
    gap, cuts, bound = case
    whole = _verdict(lambda: require(gap, bound, NoHaar, "fails", where=tuple))
    worst = Worst()
    for offset, part in _slices(gap, cuts):
        worst.add(offset, part)
    sliced = _verdict(lambda: settle(worst.result(), bound, NoHaar, "fails", where=tuple))
    assert sliced == whole


# ---------------------------------------------------------------------------
# NaN tables are rejected by the constructors


def test_module_algebra_rejects_a_nan_action_entry():
    W, MA = ex.m2_inner_z2_action()
    act = MA.act.copy()
    act[1, 2, 3] = np.nan
    with pytest.raises(ActionAxiomViolation, match="composition law"):
        make_module_algebra(W, MA.target, act)


def test_star_algebra_rejects_a_nan_product_entry():
    A = ex.matrix_algebra(2)[0]
    mult = A.mult.copy()
    mult[1, 2, 0] = np.nan
    with pytest.raises(AssociativityViolation):
        make_star_algebra(mult, A.unit, A.star)


# ---------------------------------------------------------------------------
# sites that name a basis row keep their rule


def test_unit_law_names_the_worst_row():
    # the row of the largest entry of the left table, unless the right
    # table's largest entry is strictly larger
    # M_2 in a skew basis, where left and right multiplications differ
    A = ex.matrix_algebra(2)[0]
    rng = np.random.default_rng(3)
    P = np.eye(4) + 0.5 * rng.standard_normal((4, 4))
    mult = np.einsum("ai,bj,abc,kc->ijk", P, P, A.mult, np.linalg.inv(P))
    labels = [f"b{i}" for i in range(4)]
    sides = set()
    for _ in range(12):
        unit = np.linalg.solve(P, A.unit) + 1e-3 * rng.standard_normal(4)
        lu = np.abs(np.einsum("i,ijk->jk", unit, mult) - np.eye(4))
        ru = np.abs(np.einsum("j,ijk->ik", unit, mult) - np.eye(4))
        gap = lu if lu.max() >= ru.max() else ru
        sides.add(gap is lu)
        with pytest.raises(UnitViolation) as info:
            make_star_algebra(mult, unit, np.eye(4), labels=labels)
        assert info.value.where == labels[int(gap.max(axis=1).argmax())]
    assert sides == {True, False}


def test_involution_names_the_worst_row():
    A = ex.matrix_algebra(2)[0]
    star = A.star.copy()
    star[0, 1] = 1e-3                        # E11* := E11 + 1e-3 E12
    gap = np.abs(np.conj(star) @ star - np.eye(4))
    assert gap.argmax() == 1                 # row E11, column E12
    with pytest.raises(StarViolation, match="involutive") as info:
        make_star_algebra(A.mult, A.unit, star, labels=A.labels)
    assert info.value.where == A.labels[int(gap.max(axis=1).argmax())]
    assert info.value.residual == pytest.approx(gap.max(), rel=1e-12)


# ---------------------------------------------------------------------------
# source guard: the rule lives in one module


def _is_abs(node):
    f = node.func if isinstance(node, ast.Call) else None
    return (isinstance(f, ast.Attribute) and f.attr == "abs") \
        or (isinstance(f, ast.Name) and f.id == "abs")


def _is_max_abs(node):
    """np.abs(x).max() or np.max(np.abs(x)), with no axis."""
    if not isinstance(node, ast.Call) or node.keywords:
        return False
    f = node.func
    if isinstance(f, ast.Attribute) and f.attr == "max" and not node.args:
        return _is_abs(f.value)
    return (isinstance(f, ast.Attribute) and f.attr in ("max", "amax")
            and len(node.args) == 1 and _is_abs(node.args[0]))


def _returned(node):
    """Expressions a return value reduces to through float() and if/else."""
    if isinstance(node, ast.IfExp):
        return _returned(node.body) + _returned(node.orelse)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "float" and len(node.args) == 1:
        return _returned(node.args[0])
    return [node]


def _is_tolerance(node):
    if isinstance(node, ast.Name):
        return node.id in ("t", "tol")
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "tolerance"
        or getattr(node.func, "attr", None) == "tolerance")


def _is_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
        and not isinstance(node.value, bool)


def _rule_copies(source):
    """(line, what) for every local copy of the failure rule in source:
    a helper returning a max-abs residual, a helper locating an argmax, or
    a tolerance multiplied by a numeric literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for ret in ast.walk(node):
                if not isinstance(ret, ast.Return) or ret.value is None:
                    continue
                if any(_is_max_abs(e) for e in _returned(ret.value)):
                    found.append((node.lineno, f"max-abs helper {node.name}"))
                if any(getattr(c, "func", None) is not None
                       and getattr(c.func, "attr", None) == "unravel_index"
                       for c in ast.walk(ret.value)):
                    found.append((node.lineno, f"argmax helper {node.name}"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = (node.left, node.right)
            if any(map(_is_literal, sides)) and any(map(_is_tolerance, sides)):
                found.append((node.lineno, "literal tolerance multiple"))
    return found


def test_guard_recognizes_the_copies_it_forbids():
    source = """
def _mx(t):
    return float(np.abs(t).max()) if t.size else 0.0

def _mx2(t):
    return np.max(np.abs(t))

def _argmax_idx(gap):
    return tuple(int(x) for x in np.unravel_index(int(gap.argmax()), gap.shape))

def check(gap, tol):
    t = tolerance(tol)
    return gap > 1e4 * t or gap > t * 100 or gap > -1e3 * tolerance(tol) * 2
"""
    whats = [w for _, w in _rule_copies(source)]
    assert whats == ["max-abs helper _mx", "max-abs helper _mx2",
                     "argmax helper _argmax_idx"] + ["literal tolerance multiple"] * 3
    assert _rule_copies("def f(x, tol):\n    return x * tol * max(1.0, 2.0)\n") == []


def test_failure_rule_lives_in_one_module():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert OWNER in sources
    copies = {name: _rule_copies(src) for name, src in sources.items()
              if name != OWNER}
    assert {name: c for name, c in copies.items() if c} == {}
    assert "def residual(" in sources[OWNER]


# ---------------------------------------------------------------------------
# the first failing basis index


def _first(checks, bound=1.0):
    try:
        require_first(checks, bound, NoHaar)
    except NoHaar as exc:
        return str(exc).split(",")[0], exc.where, exc.residual
    return None


def test_require_first_orders_by_index_then_check():
    prods = np.zeros((3, 3))
    stars = np.zeros(3)
    checks = [(prods, "products", tuple), (stars, "star", lambda ix: ix[0])]
    assert _first(checks) is None
    prods[2, 0], prods[1, 2], prods[1, 1] = 9.0, 2.0, np.nan
    stars[2], stars[0] = 5.0, 1.0
    # row 1 fails first; within it the first entry in row-major order
    assert _first(checks)[:2] == ("products", (1, 1))
    stars[1] = 3.0
    assert _first(checks)[:2] == ("products", (1, 1))      # products first
    stars[0] = 4.0                                         # an earlier index
    assert _first(checks) == ("star", 0, 4.0)
    message, where, worst = _first([(prods, "products", tuple)])
    assert (message, where) == ("products", (1, 1)) and np.isnan(worst)
    assert _first([(np.zeros((0, 2)), "empty", tuple)]) is None


def test_require_first_reports_the_entry_not_the_worst():
    gaps = np.array([0.5, 2.0, 7.0])
    assert _first([(gaps, "g", lambda ix: ("at",) + ix)]) == ("g", ("at", 1), 2.0)


# ---------------------------------------------------------------------------
# non-finite structure tables


@pytest.mark.parametrize("table", ["counit", "antipode", "cop"])
def test_weak_hopf_rejects_a_nan_table_entry(table):
    W = ex.group_weak_hopf(ex.cyclic_group(2), [0, 1])
    tables = {"cop": W.cop.copy(), "counit": W.counit.copy(),
              "antipode": W.antipode.copy()}
    tables[table].flat[1] = np.nan
    args = (tables["cop"], tables["counit"], tables["antipode"])
    failures = verify_weak_hopf(WeakHopfAlgebra(W.alg, *args)).failures()
    named = {"counit": ["IIa", "counit_positive"],
             "antipode": ["IIIa", "antipode_invertible"],
             "cop": ["Ia", "Ic"]}[table]
    assert set(named) <= set(failures)
    with pytest.raises(AxiomViolation, match=f"axiom {failures[0]} fails"):
        make_weak_hopf(W.alg, *args)


def _spy_factorizations(monkeypatch):
    """Names of the np.linalg factorizations called from now on."""
    reached = []
    for name in ("qr", "svd"):
        real = getattr(np.linalg, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            reached.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return reached


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_svd_helpers_refuse_non_finite_input(bad, monkeypatch):
    reached = _spy_factorizations(monkeypatch)
    for shape in ((3, 3), (6, 3), (3, 6)):
        a = np.eye(*shape, dtype=complex)
        a[1, 2] = bad
        b = np.ones(shape[0])
        helpers = [la.rank, la.null_space, la.orth, la.orth_split,
                   lambda m: la.affine_solutions(m, b)]
        if shape[0] == shape[1]:
            helpers.append(la.invertible)
        for helper in helpers:
            with pytest.raises(NoSolution, match="non-finite"):
                helper(a)
    assert reached == []


@pytest.mark.parametrize("shape", [(3, 3), (6, 3), (3, 6)])
def test_solve_with_a_non_finite_right_hand_side_fails_its_residual(shape):
    a = np.eye(*shape, dtype=complex)
    b = np.ones(shape[0])
    b[1] = np.nan
    with pytest.raises(NoSolution, match="no solution") as exc:
        la.affine_solutions(a, b)
    assert np.isnan(exc.value.residual)


def test_invertibility_rule():
    ok, smallest = la.invertible(np.diag([2.0, 1e-3]))
    assert ok and smallest == pytest.approx(1e-3)
    assert la.invertible(np.diag([1.0, 1e-10]))[0] is False
    assert la.invertible(np.diag([1e12, 1.0]), tol=1e-9)[0] is False


# ---------------------------------------------------------------------------
# caches are kept per tolerance


def test_center_is_cached_per_tolerance():
    A = ex.matrix_algebra(2)[0]
    assert A.center(tol=10.0).dim == 4
    assert A.center().dim == 1
    assert A.center() is A.center(tol=1e-9)


def test_gram_factor_is_cached_per_tolerance():
    # a trace form that is hermitian only to about 1e-7
    A = ex.matrix_algebra(2)[0]
    star = A.star.copy()
    star[0, 1] += 1e-7
    B = StarAlgebra(A.mult, A.unit, star)
    with pytest.raises(NoSolution, match="hermitian"):
        B.gram_factor()
    loose = B.gram_factor(tol=1e-5)
    assert B.gram_factor(tol=1e-5) is loose
    # the positivity calculus factors the form under the caller's tolerance
    assert is_positive(B.one, tol=1e-5)


def test_boundary_and_haar_are_cached_per_tolerance():
    W = ex.group_weak_hopf(ex.symmetric_group_3(), [0, 1, 2])
    assert W.boundary("L", tol=10.0).dim == 0
    assert W.boundary("L").dim == 3
    assert W.haar() is W.haar(tol=1e-9)
    assert W.haar(tol=1e-8) is not W.haar()


def test_boundary_intersection_is_cached_per_tolerance():
    W = ex.group_weak_hopf(ex.symmetric_group_3(), [0, 1, 2])
    meet = W.boundary_intersection()
    assert W.boundary_intersection(tol=1e-9) is meet
    assert W.boundary_intersection(tol=1e-8) is not meet
    assert meet.equals(W.boundary("L").intersect(W.boundary("R")))


# ---------------------------------------------------------------------------
# source guard: the cache rule lives in config.memo


CACHE_OWNER = ("config.py", "memo")


def _starts_empty_cache(node):
    """self._cache = {}: a constructor starting its own empty cache."""
    return isinstance(node, ast.Assign) and len(node.targets) == 1 \
        and getattr(node.targets[0], "attr", None) == "_cache" \
        and getattr(node.targets[0].value, "id", None) == "self" \
        and isinstance(node.value, ast.Dict) and not node.value.keys


def _cache_accesses(source, owner=None):
    """(line, function) for every read or write of an _cache attribute, or
    the name "_cache" as a string, outside the function named owner; a
    constructor may start its own empty cache."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == owner:
                return
            func = node.name
        if func == "__init__" and _starts_empty_cache(node):
            return
        if getattr(node, "attr", None) == "_cache" \
                or (isinstance(node, ast.Constant) and node.value == "_cache"):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_cache_guard_recognizes_the_accesses_it_forbids():
    source = """
class A:
    def __init__(self, other):
        self._cache = {}
        self._cache = other._cache

    def f(self):
        if "k" not in self._cache:
            self._cache["k"] = 1
        return getattr(self, "_cache")["k"]

def memo(obj, key, build):
    return obj._cache.setdefault(key, build())
"""
    assert _cache_accesses(source, owner="memo") == [
        (5, "__init__"), (5, "__init__"), (8, "f"), (9, "f"), (10, "f")]
    assert _cache_accesses(source) == [
        (5, "__init__"), (5, "__init__"), (8, "f"), (9, "f"), (10, "f"), (13, "memo")]


def test_cache_rule_lives_in_memo():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    name, func = CACHE_OWNER
    accesses = {n: _cache_accesses(src, owner=func if n == name else None)
                for n, src in sources.items()}
    assert {n: a for n, a in accesses.items() if a} == {}
    assert _cache_accesses(sources[name])


# ---------------------------------------------------------------------------
# source guard: the nonzero-list key format and the choice between the two
# paths live in _contract


KEY_OWNER = "_contract.py"
KEY_HELPERS = {"join", "join_size", "accumulate", "listed", "contract", "difference"}


def _key_helper_uses(source):
    """(line, name) for every import of a nonzero-list helper (join,
    join_size, accumulate, listed, contract or difference), and every call
    of one by name or through _contract (str.join is not one)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in KEY_HELPERS]
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else None
            if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "_contract":
                name = f.attr
            if name in KEY_HELPERS:
                found.append((node.lineno, name))
    return found


def test_key_format_lives_in_contract():
    sample = """
from ._contract import evaluate, join, listed
from . import _contract
keys = join(a, b)
size = _contract.join_size(a, b)
text = ", ".join(parts)
total = np.add.accumulate(x)
gap = _contract.difference(contract(s, a, b, n), c)
rest = names.difference(seen)
"""
    assert _key_helper_uses(sample) == [(2, "join"), (2, "listed"), (4, "join"),
                                        (5, "join_size"), (8, "difference"), (8, "contract")]
    uses = {p.name: _key_helper_uses(p.read_text()) for p in sorted(SRC.glob("*.py"))
            if p.name != KEY_OWNER}
    assert {n: u for n, u in uses.items() if u} == {}
    assert _key_helper_uses((SRC / KEY_OWNER).read_text())


# ---------------------------------------------------------------------------
# source guard: _contract is the one module that slices a table


SLICE_OWNERS = {"_checks.py", "_contract.py"}      # where row_slices is defined and used


def _row_slices_imports(source):
    """Lines of every import that brings in row_slices, by name or with the
    whole of weakhopf._checks under which it could be reached."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if "row_slices" in names or "*" in names \
                    or (node.module is None and "_checks" in names):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.endswith("_checks") for a in node.names):
                found.append(node.lineno)
    return found


def test_slice_guard_recognizes_the_imports_it_forbids():
    source = """
from ._checks import require, row_slices
from ._checks import *
from . import _checks
import weakhopf._checks
from ._checks import Worst, settle
from ._contract import evaluate
"""
    assert _row_slices_imports(source) == [2, 3, 4, 5]


def test_one_slicing_path():
    found = {p.name: _row_slices_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name not in SLICE_OWNERS}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert "row_slices" in (SRC / "_contract.py").read_text()


# ---------------------------------------------------------------------------
# source guard: the rank rule lives in _linalg


RANK_OWNER = "_linalg.py"


def _rank_calls(source):
    """(line, name) for every call of an SVD or a QR factorization, of
    matrix_rank, or of the SVD-backed pinv and lstsq, which apply numpy's
    own rank cutoffs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("svd", "qr", "matrix_rank", "pinv", "lstsq"):
                found.append((node.lineno, name))
    return found


def test_rank_guard_recognizes_the_calls_it_forbids():
    source = """
s = np.linalg.svd(a, compute_uv=False)
r = np.linalg.matrix_rank(b)
u = svd(c)
n = la.rank(a)
t = np.linalg.qr(a, mode="r")
"""
    assert _rank_calls(source) == [(2, "svd"), (3, "matrix_rank"), (4, "svd"),
                                   (6, "qr")]


def test_rank_guard_recognizes_pinv_and_lstsq():
    source = """
p = np.linalg.pinv(a)
x, *_ = np.linalg.lstsq(a, b, rcond=None)
q = la.affine_solutions(a, b)
"""
    assert _rank_calls(source) == [(2, "pinv"), (3, "lstsq")]


def test_rank_rule_lives_in_linalg():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    calls = {name: _rank_calls(src) for name, src in sources.items()
             if name != RANK_OWNER}
    assert {name: c for name, c in calls.items() if c} == {}
    assert _rank_calls(sources[RANK_OWNER])


# ---------------------------------------------------------------------------
# source guard: a function that is given tol passes it on


def _takes_tol(node):
    if not isinstance(node, ast.FunctionDef):
        return False
    args = node.args
    return any(a.arg == "tol" for a in args.posonlyargs + args.args + args.kwonlyargs)


def _tol_helpers(sources):
    """Names of the functions and methods that take a tol parameter."""
    return {node.name for source in sources for node in ast.walk(ast.parse(source))
            if _takes_tol(node)}


def _dropped_tol(source, helpers):
    """(line, name) for every call of one of the helpers, inside a function
    that takes tol, that passes tol neither by keyword nor by position."""
    found = set()
    for fn in filter(_takes_tol, ast.walk(ast.parse(source))):
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            passed = any(k.arg in ("tol", None) for k in node.keywords) or any(
                isinstance(a, ast.Name) and a.id == "tol" for a in node.args)
            if name in helpers and not passed:
                found.add((node.lineno, name))
    return sorted(found)


def test_tol_guard_recognizes_a_dropped_tol():
    source = """
def orth(a, tol=None):
    return a

def f(a, tol=None):
    b = la.orth(a)
    c = orth(a, tol=tol)
    d = orth(a, tol)
    e = la.orth(a, **options)
    return np.linalg.svd(a)

def g(a):
    return orth(a)
"""
    assert _dropped_tol(source, _tol_helpers([source])) == [(6, "orth")]


def test_every_function_given_tol_passes_it_on():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    helpers = _tol_helpers(sources.values())
    assert {"orth", "invert", "rank", "crossed_product"} <= helpers
    found = {name: _dropped_tol(src, helpers) for name, src in sources.items()}
    assert {name: calls for name, calls in found.items() if calls} == {}


# ---------------------------------------------------------------------------
# solves under the rank rule


def test_affine_solutions_take_one_svd(monkeypatch):
    # on a tall system the one SVD is that of the 7x7 triangular factor
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 7))      # rank 3
    b = a @ rng.standard_normal(7)
    calls = []
    svd = np.linalg.svd

    def spy(m, *args, **kwargs):
        calls.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    x, ns = la.affine_solutions(a, b)
    assert calls == [(7, 7)]
    monkeypatch.undo()
    ref = np.linalg.lstsq(a, b, rcond=None)[0]            # the minimum-norm solution
    assert np.abs(x - ref).max() < 1e-12
    assert ns.shape == (7, 4) and np.abs(a @ ns).max() < 1e-12
    assert la.span_equal(ns, la.null_space(a))
    with pytest.raises(NoSolution, match="no solution"):
        la.affine_solutions(a, b + rng.standard_normal(12))


def _isometry(rng, m, k):
    z = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    return np.linalg.qr(z)[0]


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(["tall", "wide", "square", "one-taller"]),
       n=st.integers(1, 7), extra=st.integers(2, 9), deficit=st.integers(0, 6),
       log_scale=st.floats(-3, 3), cols=st.sampled_from([None, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_reduced_helpers_agree_with_a_direct_svd(shape, n, extra, deficit, log_scale,
                                                 cols, seed):
    m = {"tall": n + extra, "wide": max(1, n - extra), "square": n,
         "one-taller": n + 1}[shape]
    k = max(1, min(m, n) - deficit)                   # rank of the product
    rng = np.random.default_rng(seed)
    sv = 10.0 ** log_scale * rng.uniform(1.0, 10.0, k)
    a = (_isometry(rng, m, k) * sv) @ _isometry(rng, n, k).conj().T
    u, s, vh = np.linalg.svd(a)                       # full, unreduced
    cut = la._cutoff(s, None)
    assert s[k - 1] > 10 * cut and (k == s.size or s[k] < cut / 10)   # a clear gap

    assert la.rank(a) == k
    assert la.null_space(a).shape[1] == n - k
    assert la.span_equal(la.null_space(a), vh[k:].conj().T)
    assert la.orth(a).shape[1] == k and la.span_equal(la.orth(a), u[:, :k])
    rng_basis, complement = la.orth_split(a)
    assert rng_basis.shape[1] == k and complement.shape[1] == m - k
    assert la.span_equal(rng_basis, u[:, :k]) and la.span_equal(complement, u[:, k:])

    x0 = rng.standard_normal((n, cols) if cols else n)
    b = a @ x0
    ref = np.linalg.lstsq(a, b, rcond=cut / s[0])[0]   # minimum norm, same cutoff
    y, ns = la.affine_solutions(a, b)
    assert np.linalg.norm(y - ref) <= 1e-10 * np.linalg.norm(ref)
    assert ns.shape[1] == n - k and la.span_equal(ns, vh[k:].conj().T)
    if k < m:                                         # a right-hand side off the range
        off = u[:, k] if cols is None else np.outer(u[:, k], [1.0, -1.0])
        with pytest.raises(NoSolution, match="no solution"):
            la.affine_solutions(a, b + off)


def _block_diagonal(rng, blocks, empty_rows, empty_cols):
    """(a, u, s, v): a complex matrix a = u diag(s) v^H whose rows and
    columns split, after a permutation, into the given (rows, cols, rank,
    scale) blocks and the given numbers of empty rows and columns.  Each
    block is dense, with singular values in [1, 10] * scale up to its rank
    and 0 beyond; u and v hold the blocks' singular vectors."""
    m = sum(b[0] for b in blocks) + empty_rows
    n = sum(b[1] for b in blocks) + empty_cols
    k = sum(b[2] for b in blocks)
    u, v = np.zeros((m, k), dtype=complex), np.zeros((n, k), dtype=complex)
    s = np.zeros(k)
    i = j = t = 0
    for p, q, r, scale in blocks:
        u[i:i + p, t:t + r], v[j:j + q, t:t + r] = _isometry(rng, p, r), _isometry(rng, q, r)
        s[t:t + r] = rng.uniform(1.0, 10.0, r) * scale
        i, j, t = i + p, j + q, t + r
    u, v = u[rng.permutation(m)], v[rng.permutation(n)]
    return (u * s) @ v.conj().T, u, s, v


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3),
                                 st.sampled_from([1e-7, 1.0, 1e4])),
                       min_size=1, max_size=6),
       repeats=st.integers(0, 3), empty_rows=st.integers(0, 3), empty_cols=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_blockwise_helpers_agree_with_a_dense_svd(shapes, repeats, empty_rows, empty_cols,
                                                  seed):
    # one cutoff over all blocks: a block at scale 1e-7 counts beside blocks
    # at scale 1 and drops out beside one at scale 1e4
    rng = np.random.default_rng(seed)
    blocks = [(p, q, max(1, min(p, q) - d), scale)
              for p, q, d, scale in shapes + shapes[:1] * repeats]
    a, u, sv, v = _block_diagonal(rng, blocks, empty_rows, empty_cols)
    m, n = a.shape
    found = la._blocks(a)
    assert (1 if found is None else sum(rows.shape[0] for rows, _ in found)) == len(blocks)
    s = np.linalg.svd(a, compute_uv=False)
    cut = la._cutoff(s, None)
    k = int(np.sum(s > cut))
    assert s[k - 1] > 10 * cut and (k == s.size or s[k] < cut / 10)   # a clear gap
    # the spans the dense SVD finds, from the planted singular vectors: the
    # dense u and vh of a kept value near 1e-7 beside one near 10 carry an
    # error of about eps * 10 / 1e-7, which span_equal would refuse
    assert np.sum(sv > cut) == k
    u, v = u[:, sv > cut], v[:, sv > cut]

    def orthonormal(b):
        return np.abs(b.conj().T @ b - np.eye(b.shape[1])).max(initial=0.0) < 1e-12

    def orthogonal(b, c):
        return np.abs(b.conj().T @ c).max(initial=0.0) < 1e-12

    assert la.rank(a) == k
    ns = la.null_space(a)
    assert ns.shape[1] == n - k and orthonormal(ns) and orthogonal(v, ns)
    span = la.orth(a)
    assert span.shape[1] == k and orthonormal(span) and la.span_equal(span, u)
    span, complement = la.orth_split(a)
    assert span.shape[1] == k and complement.shape[1] == m - k
    assert orthonormal(span) and orthonormal(complement) and la.span_equal(span, u)
    assert orthogonal(span, complement) and orthogonal(u, complement)


@pytest.mark.parametrize("shape", [(9, 4), (4, 9), (6, 6)])
def test_a_dense_input_is_factored_whole_and_once(shape, monkeypatch):
    rng = np.random.default_rng(8)
    a = _isometry(rng, shape[0], 3) @ _isometry(rng, shape[1], 3).conj().T   # rank 3
    assert a.all() and la._blocks(a) is None
    calls = []
    svd = np.linalg.svd

    def spy(x, *args, **kwargs):
        calls.append(x)
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for helper in (la.rank, la.null_space, la.orth, la.orth_split):
        calls.clear()
        helper(a)
        # one SVD, of a itself or of its square triangular factor
        assert len(calls) == 1
        assert calls[0] is a or calls[0].shape == (min(shape),) * 2


def test_affine_solutions_drop_what_the_rank_rule_drops():
    a = np.diag([2.0, 1e-12, 0.5])
    assert np.abs(la.affine_solutions(a, np.array([1.0, 0.0, 1.0]))[0]
                  - [0.5, 0.0, 2.0]).max() < 1e-15
