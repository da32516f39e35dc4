"""Sliced exact verification: the n^4 identity checks are evaluated one
slice of their leading index at a time (weakhopf._checks.row_slices).

Every sliced check must report what the whole-table check reports (the
verdict, exception type, message, residual and location) whatever the
slice size, and the constructors must stay within O(n^3) bytes beyond the
tables they share between checks.  The slice size is varied through the
dense target, _checks.DENSE_SLICE_BYTES; the list gate, _checks.SLICE_BYTES,
is set to 1 where a test needs the dense path on listed tables.
"""

import tracemalloc

import numpy as np
import pytest

from weakhopf import _checks, _contract
from weakhopf import crossed as cr
from weakhopf import examples as ex
from weakhopf import tower as tw
from weakhopf.algebra import StarAlgebra, make_star_algebra
from weakhopf.errors import ActionAxiomViolation, AssociativityViolation, AxiomViolation
from weakhopf.hopf import WeakHopfAlgebra, verify_weak_hopf
from weakhopf.modules import ModuleAlgebra, make_module_algebra, to_coaction

# one row per slice, a few rows per slice, and the default target, under
# which the tables of these small instances are one slice
TARGETS = [1, 10_000, 100_000, _checks.DENSE_SLICE_BYTES]


@pytest.fixture
def rng():
    return np.random.default_rng(23)


def _rand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _outcome(fn):
    """(exception type, message, where, residual) of what fn raises, with a
    NaN residual written as the string 'nan' so outcomes compare equal."""
    with pytest.raises(Exception) as info:
        fn()
    exc = info.value
    res = exc.residual
    return type(exc), str(exc), exc.where, "nan" if res != res else res


def _same_for_every_target(monkeypatch, fn):
    outcomes = []
    for target in TARGETS:
        monkeypatch.setattr(_checks, "DENSE_SLICE_BYTES", target)
        outcomes.append(_outcome(fn))
    assert outcomes[1:] == outcomes[:-1]
    return outcomes[0]


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_slices_cover_the_rows_in_order(monkeypatch):
    monkeypatch.setattr(_checks, "DENSE_SLICE_BYTES", 16 * 10 * 3)
    got = _checks.row_slices(7, 10)
    assert [(s.start, s.stop) for s in got] == [(0, 3), (3, 6), (6, 7)]
    monkeypatch.setattr(_checks, "DENSE_SLICE_BYTES", 1)
    assert len(_checks.row_slices(5, 10 ** 6)) == 5          # never below one row
    assert _checks.row_slices(0, 10) == []


# ---------------------------------------------------------------------------
# every sliced check reports as the whole table does


@pytest.mark.parametrize("nan", [False, True])
def test_associativity(monkeypatch, rng, nan):
    mult = _rand(rng, 6, 6, 6)
    if nan:
        mult[4, 1, 2] = np.nan
    exc, _, where, worst = _same_for_every_target(
        monkeypatch, lambda: make_star_algebra(mult, np.eye(6)[0], np.eye(6)))
    assert exc is AssociativityViolation
    gap = np.einsum("ijp,pkq->ijkq", mult, mult) - np.einsum("jkp,ipq->ijkq", mult, mult)
    flat = int(np.abs(gap).argmax())
    i, j, k, _ = np.unravel_index(flat, gap.shape)
    assert where == (f"e{i}", f"e{j}", f"e{k}")
    if nan:
        assert worst == "nan"


@pytest.fixture(scope="module")
def pauli_parts():
    W, MA = ex.m2_pauli_action()          # W dim 16 on M dim 4
    return W, MA.target, MA.act


def test_composition_law(monkeypatch, rng, pauli_parts):
    W, M, act = pauli_parts
    act = act + 1e-3 * _rand(rng, *act.shape)
    exc, message, where, _ = _same_for_every_target(
        monkeypatch, lambda: make_module_algebra(W, M, act))
    assert exc is ActionAxiomViolation and "composition" in message
    assert len(where) == 4


def test_product_law_and_unit_splitting(monkeypatch, rng, pauli_parts):
    W, M, act = pauli_parts
    skewed = StarAlgebra(M.mult + 1e-3 * _rand(rng, 4, 4, 4), M.unit, M.star)
    exc, message, _, _ = _same_for_every_target(
        monkeypatch, lambda: make_module_algebra(W, skewed, act))
    assert exc is ActionAxiomViolation and "product law" in message

    # only the splitting check reads Delta(1) once the counital maps are cached
    W.counital("L")
    V = WeakHopfAlgebra(W.alg, W.cop, W.counit, W.antipode)
    V._cache = dict(W._cache, D1=W.delta_one() + 1e-3 * _rand(rng, 16, 16))
    exc, message, _, _ = _same_for_every_target(
        monkeypatch, lambda: make_module_algebra(V, M, act))
    assert "splitting" in message


@pytest.mark.parametrize("law", ["coassociativity", "multiplicative"])
def test_coaction_laws(monkeypatch, rng, pauli_parts, law):
    W, M, act = pauli_parts
    if law == "coassociativity":
        MA = ModuleAlgebra(W, M, act + 1e-3 * _rand(rng, *act.shape))
    else:
        MA = ModuleAlgebra(W, StarAlgebra(M.mult + 1e-3 * _rand(rng, 4, 4, 4),
                                          M.unit, M.star), act)
    _, message, _, _ = _same_for_every_target(monkeypatch, lambda: to_coaction(MA))
    assert law in message


def test_axiom_suite(monkeypatch, rng):
    n = 6
    alg = StarAlgebra(_rand(rng, n, n, n), _rand(rng, n), _rand(rng, n, n))
    cop = _rand(rng, n, n, n)
    cop[2, 3, 1] = np.nan                          # Ia and Ic see it, not every row
    W = WeakHopfAlgebra(alg, cop, _rand(rng, n), _rand(rng, n, n))
    reports = []
    for target in TARGETS:
        monkeypatch.setattr(_checks, "DENSE_SLICE_BYTES", target)
        reports.append({k: repr(v) for k, v in verify_weak_hopf(W).residuals.items()})
    assert reports[1:] == reports[:-1]
    assert reports[0]["Ia"] == reports[0]["Ic"] == "nan"
    assert reports[0]["antipode_antimultiplicative"] != "nan"


@pytest.fixture(scope="module")
def pauli_crossed():
    _, MA = ex.m2_pauli_action()
    return cr.crossed_product(MA)


@pytest.mark.parametrize("table", ["tau_r", "ell", "images"])
def test_regular_rep_checks(monkeypatch, rng, pauli_crossed, table):
    reg = cr.regular_homomorphism(pauli_crossed)
    W = pauli_crossed.base.hopf
    setattr(reg, table, getattr(reg, table) + 1e-3 * _rand(rng, *getattr(reg, table).shape))
    check = reg._check_homomorphism if table == "images" \
        else lambda: reg._check_translations(W, W.dual())
    exc, message, _, _ = _same_for_every_target(monkeypatch, check)
    assert exc is AxiomViolation
    assert ("homomorphism" if table == "images" else "translation") in message


def _haar_rebased(MA, rng):
    """MA with A and M each on a Haar-random unitary basis."""
    def unitary(n):
        q, r = np.linalg.qr(_rand(rng, n, n))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def rebased(A, U):
        V = U.conj().T
        return StarAlgebra(np.einsum("ia,jb,ijk,ck->abc", U, U, A.mult, V, optimize=True),
                           V @ A.unit,
                           np.einsum("ia,ik,ck->ac", U.conj(), A.star, V, optimize=True))

    W, M = MA.hopf, MA.target
    P, U = unitary(W.dim), unitary(M.dim)
    Q = P.conj().T
    Wp = WeakHopfAlgebra(rebased(W.alg, P),
                         np.einsum("ia,iuv,bu,cv->abc", P, W.cop, Q, Q, optimize=True),
                         P.T @ W.counit, Q @ W.antipode @ P)
    act = np.einsum("ia,pb,ipq,cq->abc", P, U, MA.act, U.conj().T, optimize=True)
    return make_module_algebra(Wp, rebased(M, U), act)


def test_dense_slices_keep_to_the_dense_target(monkeypatch, rng):
    # dual-z3's depth-2 tower in a Haar-random basis runs the dense path;
    # at its dim-27 level a whole n^4 table (8.5 MB) is over the target, and
    # every step that carries the lead letter holds at most the target, or
    # one row of it (the steps without the lead are formed whole, once)
    MA = _haar_rebased(ex.named_action("dual-z3"), rng)
    leads, seen = [], []
    group, table, step = _contract._dense_group, _contract._dense_table, _contract.dense_step

    def on_lead(inner, lead_of):
        def spy(*args):
            leads.append(lead_of(args))
            try:
                return inner(*args)
            finally:
                leads.pop()
        return spy

    def spy_step(subscripts, x, y):
        out, word = step(subscripts, x, y), subscripts.split("->")[1]
        if leads and leads[-1] in word:
            seen.append((out.nbytes, out.shape[word.index(leads[-1])], out.ndim))
        return out

    monkeypatch.setattr(_contract, "_dense_group", on_lead(group, lambda a: a[0]))
    monkeypatch.setattr(_contract, "_dense_table", on_lead(table, lambda a: a[1][0]))
    monkeypatch.setattr(_contract, "dense_step", spy_step)
    assert tw.build_tower(MA, 2).dims() == [1, 3, 9, 27]
    target = _checks.DENSE_SLICE_BYTES
    assert all(nbytes <= target or rows == 1 for nbytes, rows, _ in seen)
    # the n^4 steps of the dim-27 level are cut into slices of several rows
    cut = {rows for nbytes, rows, ndim in seen if ndim == 4 and nbytes > 16 * 27 ** 3}
    assert cut and max(cut) < 27


# ---------------------------------------------------------------------------
# the constructors hold O(n^3) bytes beyond their shared tables


def test_star_algebra_memory(monkeypatch, pauli_crossed):
    A = pauli_crossed.algebra
    n = A.dim
    assert n == 16
    monkeypatch.setattr(_checks, "SLICE_BYTES", 1)
    monkeypatch.setattr(_checks, "DENSE_SLICE_BYTES", 1)
    peak = _peak(lambda: make_star_algebra(A.mult, A.unit, A.star))
    # a whole associativity table alone takes 16 n^4 bytes
    assert peak <= 6 * 16 * n ** 3


def test_module_algebra_memory(monkeypatch, pauli_crossed):
    # with one-row slices no join fits, so both actions take the dense
    # product law, one GEMM per slice against the shared act-mult table
    seed = ex.m2_pauli_action()[1]
    monkeypatch.setattr(_checks, "SLICE_BYTES", 1)
    monkeypatch.setattr(_checks, "DENSE_SLICE_BYTES", 1)
    for MA, dims in ((pauli_crossed.as_module, (16, 16)), (seed, (16, 4))):
        da, dm = MA.hopf.dim, MA.target.dim
        assert (da, dm) == dims
        peak = _peak(lambda: make_module_algebra(MA.hopf, MA.target, MA.act))
        shared = 16 * da * dm ** 3                 # the act-mult table
        assert peak <= shared + 8 * 16 * max(da, dm) * dm ** 2



@pytest.fixture(scope="module")
def pauli_middle():
    """A fresh dim-16 Pauli crossed product, whose dual action builds the
    dim-64 level."""
    return cr.CrossedProduct(ex.named_action("m2-pauli"))


def test_crossed_product_memory(pauli_middle):
    # the level keeps mult (16 n^3 bytes) and n^2 tables; its construction
    # arrays are freed before the quotient is certified, and the dual
    # action is checked one functional at a time.  Measured: 3.0 * 16 n^3
    # bytes, against 8.3 when they stayed alive through the checks
    built = []
    peak = _peak(lambda: built.append(cr.CrossedProduct(pauli_middle.as_module)))
    n = built[0].dim
    assert n == 64
    assert peak <= 3.5 * 16 * n ** 3


def test_center_memory(pauli_middle):
    # one n^3 stack of commutators beside the tables, and what null_space
    # takes of it.  Measured: 1.1 * 16 n^3 bytes, against 3.0 with
    # separate L_x and R_x stacks and a transposed copy
    A = cr.crossed_product(pauli_middle.as_module).algebra
    n = A.dim
    fresh = StarAlgebra(A.mult, A.unit, A.star)
    peak = _peak(fresh.center)
    assert fresh.center().dim == A.center().dim == 1
    assert peak <= 1.5 * 16 * n ** 3
