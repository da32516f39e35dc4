"""The benchmark's workloads: the inputs each one writes, the ops it runs on
them, and what each op's outcome must show.

Inputs are built once with the library's example constructors in the
natural basis, then re-expressed in a basis drawn from the run's seed and
written as JSON records.  The library only ever sees those files: every op
starts from its input file on disk, as ``wha`` does.

* ``tower-pauli`` and ``mid-s3`` use a seeded monomial unitary (a
  permutation times phases), which keeps the tables as sparse as the
  natural ones; their point is the cost of those exact table shapes.
* ``family-small`` draws a fresh Haar-random unitary per record and per
  pass, so nothing memoised between ops makes a repeated pass cheaper.

A basis change is an isomorphism, so every invariant an op reports (exit
code, dims, boundary and integral-space dims, commutant and center tables,
depth-2 flag) must equal the one recorded in ``oracle.json`` in the natural
basis.  Residuals are compared with the library's own thresholds (``tol``
for axioms and modular identities, ``1e4 * tol`` for the Temperley-Lieb
relations, as in ``weakhopf.cli``), never bit for bit.
"""

import json
import os

import numpy as np

TOWER_DEPTH = 2

# name -> (group, subgroup) for `wha example group`, or "pauli" for the
# twisted Klein instance; each record also runs as its dual ("<name>^")
FAMILY_HOPF = {
    "z2": ("z2", None), "z3": ("z3", None), "z4": ("z4", None),
    "z2xz2": ("z2xz2", None), "s3": ("s3", None),
    "z2/0,1": ("z2", [0, 1]), "z2xz2/0,1": ("z2xz2", [0, 1]),
    "s3/0,1,2": ("s3", [0, 1, 2]), "pauli": "pauli",
}
FAMILY_MODULES = ["m2-z2", "m2-collapsed", "dual-z3", "dual-z2/0,1"]
MID_HOPF = ("s3", [0, 1, 2, 3, 4, 5])     # C[S3] x_Ad S3, dim 36
MID_MODULE = "dual-s3"                    # crossed product of dim 36
TOWER_MODULE = "m2-pauli"                 # tower dims [1, 4, 16, 64]

BROKEN_COUNIT_SHIFT = 0.5


# ---------------------------------------------------------------------------
# tables, bases and records

def hopf_tables(W):
    A = W.alg
    return {"mult": A.mult, "unit": A.unit, "star": A.star,
            "cop": W.cop, "counit": W.counit, "antipode": W.antipode}


def module_tables(MA):
    M = MA.target
    return {"hopf": hopf_tables(MA.hopf),
            "target": {"mult": M.mult, "unit": M.unit, "star": M.star},
            "act": MA.act}


def haar_unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def monomial_unitary(rng, n):
    p = np.zeros((n, n), dtype=complex)
    p[rng.permutation(n), np.arange(n)] = np.exp(2j * np.pi * rng.random(n))
    return p


def change_algebra(t, P):
    """Tables of the same algebra on the basis f_a = sum_i P[i, a] e_i."""
    Q = P.conj().T
    out = dict(t)
    out["mult"] = np.einsum("ia,jb,ijk,ck->abc", P, P, t["mult"], Q, optimize=True)
    out["unit"] = Q @ t["unit"]
    out["star"] = np.einsum("ia,ik,ck->ac", P.conj(), t["star"], Q, optimize=True)
    if "cop" in t:
        out["cop"] = np.einsum("ia,iuv,bu,cv->abc", P, t["cop"], Q, Q, optimize=True)
        out["counit"] = P.T @ t["counit"]
        out["antipode"] = Q @ t["antipode"] @ P
    return out


def change_module(t, PW, PM):
    return {"hopf": change_algebra(t["hopf"], PW),
            "target": change_algebra(t["target"], PM),
            "act": np.einsum("ia,pb,ipq,cq->abc", PW, PM, t["act"], PM.conj().T,
                             optimize=True)}


def _pairs(a):
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def record(t):
    """The JSON record `wha` reads for a table dict."""
    if "act" in t:
        return {"hopf": record(t["hopf"]), "target": record(t["target"]),
                "action": _pairs(t["act"])}
    n = len(t["unit"])
    rec = {"dim": n, "mult": _pairs(t["mult"]), "unit": _pairs(t["unit"]),
           "star": _pairs(t["star"])}
    if "cop" in t:
        rec["coproduct"] = _pairs(np.reshape(t["cop"], (n, n * n)))
        rec["counit"] = _pairs(t["counit"])
        rec["antipode"] = _pairs(t["antipode"])
    return rec


def write_record(path, t):
    with open(path, "w") as fh:
        json.dump(record(t), fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# self-test of the basis generator (numpy only, no library calls)

def _spectra(t):
    """Basis-independent numbers of a table dict under a unitary change of
    basis: singular values of each table flattened on its first index,
    tr S and tr S^2, and eps(1)."""
    if "act" in t:
        a = t["act"]
        return (_spectra(t["hopf"]) + _spectra(t["target"])
                + [np.linalg.svd(a.reshape(a.shape[0], -1), compute_uv=False)])
    n = len(t["unit"])
    out = [np.linalg.svd(t["mult"].reshape(n, -1), compute_uv=False),
           np.linalg.svd(t["star"], compute_uv=False)]
    if "cop" in t:
        S = t["antipode"]
        out += [np.linalg.svd(t["cop"].reshape(n, -1), compute_uv=False),
                np.array([np.trace(S), np.trace(S @ S), t["counit"] @ t["unit"]])]
    return out


def _max_gap(t1, t2):
    if isinstance(t1, dict):
        return max(_max_gap(t1[k], t2[k]) for k in t1)
    return float(np.abs(np.asarray(t1) - np.asarray(t2)).max())


def check_basis(natural, moved, back):
    """Problems with one generated record: `moved` must carry the natural
    record's invariants, and `back` (moved through the inverse basis change)
    must reproduce the natural tables."""
    problems = []
    for a, b in zip(_spectra(natural), _spectra(moved)):
        if a.shape != b.shape or np.abs(a - b).max() > 1e-9 * max(1.0, np.abs(a).max()):
            problems.append("invariants differ after the basis change")
            break
    if _max_gap(natural, back) > 1e-10:
        problems.append("inverse basis change does not restore the tables")
    return problems


# ---------------------------------------------------------------------------
# ops and their outcomes

class Op:
    """One timed call.  `argv` ops run through `weakhopf.cli.main` and
    report to `out`; library ops run `call(state)`."""

    def __init__(self, name, kind, argv=None, out=None, call=None):
        self.name, self.kind = name, kind
        self.argv, self.out, self.call = argv, out, call

    def clear(self):
        """Remove the previous report, outside the timed call."""
        if self.out is not None and os.path.exists(self.out):
            os.remove(self.out)

    def run(self, wh, state):
        if self.call is not None:
            return self.call(wh, state)
        return wh["weakhopf.cli"].main(["--out", self.out] + self.argv)


def _within(values, limit):
    return bool(max(values) <= limit) if values else True


def outcome(op, value, tol):
    """The invariants of one finished op, as compared with the oracle:
    library ops return theirs, CLI ops return an exit code and leave a
    report file."""
    if op.call is not None:
        return dict(value, rc=0)
    rc = value
    rep = None
    if os.path.exists(op.out):
        with open(op.out) as fh:
            rep = json.load(fh)
    res = {"rc": rc}
    if rep is None:
        res["report"] = None
        return res
    if op.kind in ("verify", "verify-broken"):
        res.update(passed=rep["passed"], has_failures=bool(rep["failures"]),
                   antipode_invertible=rep["antipode_invertible"],
                   relaxed_system_passed=rep["relaxed_system_passed"],
                   residuals_within_tol=_within(list(rep["residuals"].values()), tol))
    elif op.kind == "report":
        res.update(passed=rep["passed"],
                   axioms_within_tol=_within(list(rep["axioms"].values()), tol))
        for key in ("boundary_dims", "pure", "dual_passed"):
            res[key] = rep.get(key)
        res["modular_within_tol"] = _within(
            list(rep.get("modular_residuals", {}).values()), tol)
    elif op.kind == "integrals":
        res.update(left_space_dim=rep["left_space_dim"],
                   right_space_dim=rep["right_space_dim"],
                   modular_within_tol=_within(list(rep["modular_residuals"].values()), tol))
    elif op.kind == "crossed":
        for key in ("pre_dim", "dim", "relation_rank", "m_embedding_kernel_dim",
                    "a_embedding_kernel_dim", "commutants"):
            res[key] = rep[key]
        res["tlj_within_tol"] = _within(list(rep["tlj_residuals"].values()), 1e4 * tol)
    elif op.kind == "tower":
        for key in ("depth", "dims", "n_commutant_dims", "center_dims",
                    "joint_center_dims", "regular", "depth2", "regular_table"):
            res[key] = rep.get(key)
    return res


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _crossed_product(path):
    def call(wh, state):
        ser, cr = wh["weakhopf.serialize"], wh["weakhopf.crossed"]
        MA = ser.module_algebra_from_record(_load(path), tol=state["tol"])
        X = cr.crossed_product(MA, tol=state["tol"])
        state["X"] = X
        return {"pre_dim": MA.target.dim * MA.hopf.dim, "dim": X.dim,
                "relation_rank": int(X.relation_rank)}
    return call


def _commutant_suite(wh, state):
    suite = wh["weakhopf.crossed"].commutant_suite(state["X"], tol=state["tol"])
    return {k: (bool(v) if isinstance(v, (bool, np.bool_)) else int(v))
            for k, v in suite.items()}


def _hat_expectation(wh, state):
    X = state["X"]
    hd = X.base.hopf.haar(tol=state["tol"])
    E = wh["weakhopf.crossed"].hat_expectation(X, hd.hhat, tol=state["tol"])
    # E projects onto the image of M: its range has dim M
    return {"range_dim": int(np.linalg.matrix_rank(E.table, tol=1e-6))}


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Inputs and op list of one workload.  Construction is part of the
    benchmark's set-up; `prepare(k)` writes the files of pass k and returns
    its ops.  With `natural=True` the records stay in the natural basis
    (used to record the oracle).

    Group instances are built without their weak-Hopf verification: the
    ops verify every record, so set-up only pays for building the tables."""

    def __init__(self, name, wh, workdir, seed, natural=False):
        self.name, self.workdir = name, workdir
        self.seed, self.natural = seed, natural
        ex = wh["weakhopf.examples"]
        self.hopf, self.modules = {}, {}
        if name == "tower-pauli":
            self.modules[TOWER_MODULE] = module_tables(ex.named_action(TOWER_MODULE))
        elif name == "mid-s3":
            W = ex.group_weak_hopf(ex.named_group(MID_HOPF[0]), MID_HOPF[1],
                                   verify=False)
            self.hopf["s3/all"] = hopf_tables(W)
            self.hopf["s3/all^"] = hopf_tables(W.dual())
            self.modules[MID_MODULE] = module_tables(ex.named_action(MID_MODULE))
        elif name == "family-small":
            for key, spec in FAMILY_HOPF.items():
                if spec == "pauli":
                    W = ex.m2_pauli_action()[0]
                else:
                    W = ex.group_weak_hopf(ex.named_group(spec[0]), spec[1],
                                           verify=False)
                self.hopf[key] = hopf_tables(W)
                self.hopf[key + "^"] = hopf_tables(W.dual())
            for key in FAMILY_MODULES:
                self.modules[key] = module_tables(ex.named_action(key))
        else:
            raise KeyError(f"unknown workload {name!r}")
        self.generated = {}        # file -> (natural, moved, inverse P's)
        self.ops = []

    def _bases(self, k):
        """(draw(n) -> unitary, rng) for pass k."""
        if self.name == "family-small":
            rng = np.random.default_rng([self.seed, k])
            return (lambda n: haar_unitary(rng, n)), rng
        rng = np.random.default_rng([self.seed, 0])   # same inputs every pass
        return (lambda n: monomial_unitary(rng, n)), rng

    def _file(self, key, suffix=""):
        safe = key.replace("/", "_").replace(",", "-").replace("^", "_dual")
        return os.path.join(self.workdir, f"{safe}{suffix}.json")

    def prepare(self, k):
        """Write the input files of pass k and return its op list."""
        if k > 0 and self.name != "family-small":
            return self.ops
        draw, rng = self._bases(k)
        self.generated = {}
        ops = []
        for key, t in self.hopf.items():
            n = len(t["unit"])
            P = np.eye(n, dtype=complex) if self.natural else draw(n)
            moved = change_algebra(t, P)
            path = self._file(key)
            write_record(path, moved)
            self.generated[path] = (t, moved, (P.conj().T,))
            for cmd in ("verify", "report", "integrals"):
                ops.append(Op(f"{cmd}:{key}", cmd, [cmd, path],
                              self._file(key, f".{cmd}.out")))
            if self.name == "family-small":
                broken = dict(moved)
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                broken["counit"] = moved["counit"] + BROKEN_COUNIT_SHIFT * v / np.linalg.norm(v)
                bpath = self._file(key, ".broken")
                write_record(bpath, broken)
                ops.append(Op(f"verify-broken:{key}", "verify-broken",
                              ["verify", bpath], self._file(key, ".broken.out")))
        for key, t in self.modules.items():
            a, m = len(t["hopf"]["unit"]), len(t["target"]["unit"])
            if self.natural:
                PW, PM = np.eye(a, dtype=complex), np.eye(m, dtype=complex)
            else:
                PW, PM = draw(a), draw(m)
            moved = change_module(t, PW, PM)
            path = self._file(key)
            write_record(path, moved)
            self.generated[path] = (t, moved, (PW.conj().T, PM.conj().T))
            if self.name == "mid-s3":
                ops += [Op(f"crossed_product:{key}", "crossed_product",
                           call=_crossed_product(path)),
                        Op(f"commutant_suite:{key}", "commutant_suite",
                           call=_commutant_suite),
                        Op(f"hat_expectation:{key}", "hat_expectation",
                           call=_hat_expectation)]
            if self.name == "family-small":
                ops.append(Op(f"crossed:{key}", "crossed", ["crossed", path],
                              self._file(key, ".crossed.out")))
            # mid-s3 keeps the tower layer measured with a depth-0 tower
            # (16 ms); depth 1 would repeat the dim-36 crossed product
            depth = 0 if self.name == "mid-s3" else TOWER_DEPTH
            ops.append(Op(f"tower:{key}", "tower",
                          ["tower", "--seed", path, "--depth", str(depth)],
                          self._file(key, ".tower.out")))
        self.ops = ops
        return ops

    def check_generated(self):
        """Self-test of the basis generator on the files of the last pass."""
        problems = []
        for path, (natural, moved, inverse) in self.generated.items():
            if "act" in natural:
                back = change_module(moved, *inverse)
            else:
                back = change_algebra(moved, inverse[0])
            problems += [f"{os.path.basename(path)}: {p}"
                         for p in check_basis(natural, moved, back)]
        return problems
