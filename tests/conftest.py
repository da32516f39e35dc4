import numpy as np
import pytest

from weakhopf import _contract
from weakhopf import examples as ex


@pytest.fixture(scope="session")
def cz2():
    return ex.group_weak_hopf(ex.cyclic_group(2))


@pytest.fixture(scope="session")
def cz3():
    return ex.group_weak_hopf(ex.cyclic_group(3))


@pytest.fixture(scope="session")
def cs3():
    return ex.group_weak_hopf(ex.symmetric_group_3())


@pytest.fixture(scope="session")
def wz2z2():
    """C[Z2] x_Ad Z2, the dim-4 workhorse."""
    return ex.group_weak_hopf(ex.cyclic_group(2), [0, 1])


@pytest.fixture(scope="session")
def wz2_klein():
    """H = Z2 inside G = Z2 x Z2, dim 8."""
    return ex.group_weak_hopf(ex.klein_four(), [0, 1])


@pytest.fixture(scope="session")
def wz3s3():
    """H = Z3 inside G = S3, dim 18."""
    return ex.group_weak_hopf(ex.symmetric_group_3(), [0, 1, 2])


@pytest.fixture(scope="session")
def pauli():
    """The cocycle-twisted Klein instance with its M_2 action."""
    W, MA = ex.m2_pauli_action()
    return W, MA


@pytest.fixture(scope="session")
def m2_action():
    W, MA = ex.m2_inner_z2_action()
    return W, MA


@pytest.fixture(scope="session")
def collapsed_action():
    W, MA = ex.m2_collapsed_action()
    return W, MA


@pytest.fixture(scope="session")
def group_instances(cz2, cz3, cs3, wz2z2, wz2_klein, wz3s3):
    return {"CZ2": cz2, "CZ3": cz3, "CS3": cs3, "Z2xZ2": wz2z2,
            "Z2xKlein": wz2_klein, "Z3xS3": wz3s3}


@pytest.fixture(scope="session")
def all_instances(group_instances, pauli):
    out = dict(group_instances)
    out["Pauli"] = pauli[0]
    return out


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def selection():
    """Call it on a crossed product X for the 0/1 selection of its picked
    pure tensors, as [p, i, B]: 1 where class B is that of f_p (x) e_i."""
    def select(X):
        out = np.zeros((X.base.target.dim, X.base.hopf.dim, X.dim))
        out[X.ps, X.js, np.arange(X.dim)] = 1.0
        return out
    return select


# ---------------------------------------------------------------------------
# the two paths of weakhopf._contract.evaluate


@pytest.fixture()
def joins(monkeypatch):
    """The key counts of every join of the nonzero-list path, in order."""
    seen, join = [], _contract.join

    def spy(ka, kb):
        seen.append((ka.size, kb.size))
        return join(ka, kb)

    monkeypatch.setattr(_contract, "join", spy)
    return seen


@pytest.fixture()
def dense_steps(monkeypatch):
    """The subscripts of every step of the dense path, in order."""
    seen, step = [], _contract.dense_step

    def spy(subscripts, x, y):
        seen.append(subscripts)
        return step(subscripts, x, y)

    monkeypatch.setattr(_contract, "dense_step", spy)
    return seen


@pytest.fixture()
def force_dense(monkeypatch):
    """Call it to send every declared identity down the dense path: no table
    passes the list gate."""
    return lambda: monkeypatch.setattr(_contract, "listed", lambda table: None)
