"""Shared builders for the test suite: jets, frozen reference expressions,
random-polynomial generators, and the reference checks and slow paths that
the tests compare the library against."""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from nlsdual.brackets import (_BASE_FIELDS, _chain_field, _mu_field, _solve_linear_coeff_system,
                              BracketTable, leibniz_bracket, matrix_bracket)
from nlsdual.hierarchy import _neumann_series, _partner_direction, solve_W
from nlsdual.laxalg import (LaxMatrix, TensorMatrix, _add2, _mul2, _scale2, _zeros2,
                            rmatrix_bracket_rhs)
from nlsdual.ringcore import (KAPPA, PSI, PSIBAR, SQRT_KAPPA, Coeff, DiffPoly, JetVar, Monomial,
                              _accumulate, _jet_key)

I = Coeff.i()
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded once without
    touching sys.path."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def canonical_digest(obj) -> str:
    """The benchmark's canonical-JSON digest."""
    return perfbench_workloads().digest(obj)


def pj(dx=0, t=()) -> JetVar:
    return JetVar("psi", dx, tuple(t))


def qj(dx=0, t=()) -> JetVar:
    return JetVar("psibar", dx, tuple(t))


def v(var: JetVar, c=1) -> DiffPoly:
    return DiffPoly.var(var, c if isinstance(c, Coeff) else Coeff.make(c))


def mono(jets, c=1) -> DiffPoly:
    return DiffPoly.monomial(jets, c if isinstance(c, Coeff) else Coeff.make(c))


def cf(re=0, im=0, skpow=0) -> Coeff:
    """(re + i*im) * sqrt(kappa)**skpow."""
    c = Coeff.make(Fraction(re), Fraction(im))
    root = SQRT_KAPPA if skpow > 0 else SQRT_KAPPA.inverse()
    for _ in range(abs(skpow)):
        c = c * root
    return c


# --- frozen reference expressions (exact forms of the printed objects) -----

def x_block() -> DiffPoly:
    """-kappa (psibar_x psi - psi_x psibar)."""
    return mono([qj(1), pj()], cf(-1, 0, 2)) + mono([pj(1), qj()], cf(1, 0, 2))


def y_block() -> DiffPoly:
    """sqrt(kappa) psi_xx - 2 kappa^(3/2) |psi|^2 psi."""
    return v(pj(2), cf(1, 0, 1)) + mono([pj(), pj(), qj()], cf(-2, 0, 3))


def nls_hamiltonian_density() -> DiffPoly:
    """psi_x psibar_x + kappa (psi psibar)^2."""
    return mono([pj(1), qj(1)]) + mono([pj(), pj(), qj(), qj()], cf(1, 0, 2))


def random_coeff(rng: random.Random) -> Coeff:
    c = Coeff.zero()
    for _ in range(rng.randint(1, 2)):
        c = c + cf(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   rng.randint(-1, 2))
    return c


def random_poly(rng: random.Random, jets=None, n_terms=3, max_deg=2) -> DiffPoly:
    if jets is None:
        jets = [pj(), qj(), pj(1), qj(1), pj(0, [(2, 1)])]
    out = DiffPoly.zero()
    for _ in range(rng.randint(1, n_terms)):
        deg = rng.randint(0, max_deg)
        monomial = [rng.choice(jets) for _ in range(deg)]
        out = out + DiffPoly.monomial(monomial, random_coeff(rng))
    return out


def random_x_poly(rng: random.Random, n_terms=3, max_deg=3) -> DiffPoly:
    jets = [pj(), qj(), pj(1), qj(1), pj(2), qj(2)]
    return random_poly(rng, jets, n_terms, max_deg)


# --- frozen flow matrices (exact renditions of the published displays) -----

def printed_v(n: int):
    """The first four flow matrices of the hierarchy, entered literally."""
    Z = DiffPoly.zero()
    sk = SQRT_KAPPA
    i = I
    half_i = Coeff.make(0, Fraction(1, 2))
    ik = i * KAPPA
    if n == 0:
        return sigma3(half_i)
    if n == 1:
        return LaxMatrix({1: sigma3(half_i).lam_coeff(0),
                          0: (Z, v(qj(), -sk), v(pj(), -sk), Z)})
    level0 = (mono([pj(), qj()], ik), v(qj(1), -i * sk),
              v(pj(1), i * sk), mono([pj(), qj()], -ik))
    if n == 2:
        return LaxMatrix({2: sigma3(half_i).lam_coeff(0),
                          1: (Z, v(qj(), -sk), v(pj(), -sk), Z),
                          0: level0})
    if n == 3:
        X = x_block()
        Y = y_block()
        return LaxMatrix({3: sigma3(half_i).lam_coeff(0),
                          2: (Z, v(qj(), -sk), v(pj(), -sk), Z),
                          1: level0,
                          0: (X, Y.conjugate(), Y, -X)})
    raise ValueError(n)


def printed_dual(m: int):
    """The dual table built on the level-2 flow matrix.

    The level-3 member's lambda-free off-diagonal entry is
    -i sqrt(kappa) psi_t2 (the value forced by the recursion; the variant
    carrying an extra -2 kappa^(3/2)|psi|^2 psi is proven inconsistent in
    the test suite)."""
    Z = DiffPoly.zero()
    sk = SQRT_KAPPA
    i = I
    mhalf_i = Coeff.make(0, Fraction(-1, 2))
    ik = i * KAPPA
    if m == 0:
        return sigma3(mhalf_i)
    if m == 1:
        return LaxMatrix({1: sigma3(mhalf_i).lam_coeff(0),
                          0: (Z, v(qj(), sk), v(pj(), sk), Z)})
    level0 = (mono([pj(), qj()], -ik), v(qj(1), i * sk),
              v(pj(1), -i * sk), mono([pj(), qj()], ik))
    if m == 2:
        return LaxMatrix({2: sigma3(mhalf_i).lam_coeff(0),
                          1: (Z, v(qj(), sk), v(pj(), sk), Z),
                          0: level0})
    if m == 3:
        Phi = x_block()
        Om = v(pj(0, [(2, 1)]), -i * sk)
        return LaxMatrix({3: sigma3(mhalf_i).lam_coeff(0),
                          2: (Z, v(qj(), sk), v(pj(), sk), Z),
                          1: level0,
                          0: (-Phi, -Om.conjugate(), -Om, Phi)})
    raise ValueError(m)


# --- slow reference paths, kept to check the fast ones against -------------

def compositions(n: int, j: int):
    """Ordered compositions m_1 + ... + m_j = n with every m_i >= 1."""
    if j == 1:
        yield (n,)
        return
    for first in range(1, n - j + 2):
        for rest in compositions(n - first, j - 1):
            yield (first,) + rest


def alternating_products(W, n: int):
    """sum_{j=1}^n (-1)^j sum over ordered compositions m_1+..+m_j = n of
    W^(m_1) ... W^(m_j); this is the 1/mu^n coefficient of (1+W)^-1 - 1."""
    total = _zeros2()
    for j in range(1, n + 1):
        sgn = (-1) ** j
        for comp in compositions(n, j):
            prod = None
            for m in comp:
                prod = W.w(m) if prod is None else _mul2(prod, W.w(m))
            total = _add2(total, _scale2(prod, sgn))
    return total


def generating_function_expand_neumann(X: LaxMatrix, gamma: int, K: int) -> list:
    """[Y^(0), ..., Y^(K-1)] from the generating function, with
    G = (1+W) sigma_3 (1+W)^-1 formed as the product of (1+W) sigma_3 and the
    Neumann series of (1+W)^-1 to order K, W solved to order K+1."""
    W = solve_W(X, K + 1)
    inv = _neumann_series(W, K)
    sig = (DiffPoly.const(1), DiffPoly.zero(), DiffPoly.zero(), DiffPoly.const(-1))
    Wsig = [_mul2(inv[0] if a == 0 else W.w(a), sig) for a in range(K + 1)]
    G = {}
    for n in range(K + 1):
        prods = [_mul2(Wsig[a], inv[n - a]) for a in range(n + 1)]
        G[n] = tuple(DiffPoly.sum(p[i] for p in prods) for i in range(4))
    pref = Coeff.make(0, Fraction(gamma, 2))
    return [LaxMatrix({k: tuple(x.scale(pref) for x in G[m - 1 - k]) for k in range(m)},
                      xi=_partner_direction(X, m - 1))
            for m in range(1, K + 1)]


def leibniz_bracket_per_entry(f: DiffPoly, g: DiffPoly, table) -> DiffPoly:
    """The Leibniz bracket summed entry by entry, differentiating f and g
    afresh for every table entry."""
    out = DiffPoly.zero()
    for (a, b), t in table.entries.items():
        fa = f.diff(a)
        if fa.is_zero():
            continue
        gb = g.diff(b)
        if gb.is_zero():
            continue
        out = out + fa * gb * t
    return out


def matrix_bracket_per_pair(A, B, table):
    """{A_1(lambda), B_2(mu)} with one per-entry Leibniz bracket for every
    pair of nonzero entries, both of them differentiated afresh each time."""
    Z = DiffPoly.zero()
    acc: dict[tuple[int, int], list] = {}
    for pa, ea in A.coeffs.items():
        for pb, eb in B.coeffs.items():
            cur = acc.setdefault((pa, pb), [Z] * 16)
            for i in range(2):
                for j in range(2):
                    x = ea[2 * i + j]
                    if x.is_zero():
                        continue
                    for k in range(2):
                        for l in range(2):
                            y = eb[2 * k + l]
                            if y.is_zero():
                                continue
                            idx = 4 * (2 * i + k) + (2 * j + l)
                            cur[idx] = cur[idx] + leibniz_bracket_per_entry(x, y, table)
    return TensorMatrix({k: tuple(v) for k, v in acc.items()})


def tensor_entries(T: TensorMatrix):
    """(bigrade, row, column, entry) for each nonzero entry of T, blocks in
    sorted order."""
    for pw, e in sorted(T.coeffs.items()):
        for idx in range(16):
            if not e[idx].is_zero():
                yield pw, idx // 4, idx % 4, e[idx]


def verify_rmatrix_by_difference(A, table, gamma: int) -> dict:
    """``brackets.verify_rmatrix``'s report from the whole difference
    {A_1, A_2} - rhs, a TensorMatrix, read entry by entry."""
    diff = matrix_bracket(A, table) - rmatrix_bracket_rhs(A, gamma)
    residuals = [
        {"lambda_pow": pw[0], "mu_pow": pw[1], "row": i, "col": j, "residual": repr(v)}
        for pw, i, j, v in tensor_entries(diff)
    ]
    return {
        "identity": f"ultralocal r-matrix algebra, table {table.label or 'unnamed'}",
        "gamma": gamma,
        "status": "pass" if not residuals else "fail",
        "per_entry_residuals": residuals,
    }


def invert_coeff_matrix_per_column(A) -> list:
    """A^-1 by one full elimination per column of the identity, each column
    solved as its own system: the O(n^4) route that one elimination over all
    columns replaced."""
    n = len(A)
    cols = []
    for j in range(n):
        e = [[DiffPoly.const(Coeff.one()) if i == j else DiffPoly.zero()] for i in range(n)]
        cols.append([x for (x,) in _solve_linear_coeff_system(A, e)])
    return [[cols[j][i].coefficient(()) for j in range(n)] for i in range(n)]


def station_derivatives_matmul(fields, half_length: float, station: int, order: int) -> list:
    """The jets of ``numlab._station_jets`` at one station, with one
    matrix-vector product per order instead of a dot per row: the same
    circulant filter, applied as ``fields @ filt[back]``."""
    from nlsdual.numlab import spectral_derivative
    n = fields.shape[1]
    impulse = np.zeros(n, dtype=complex)
    impulse[0] = 1.0
    back = (station - np.arange(n)) % n
    return [fields[:, station]] + [fields @ spectral_derivative(impulse, half_length, k)[back]
                                   for k in range(1, order + 1)]


def transfer_along_t_per_record(M, traj, lam_values, station: int) -> list:
    """t-direction transfer matrices of M at grid index ``station``, taking
    one FFT of every recorded step and building the 2x2 matrix afresh at
    every RK4 stage."""
    from nlsdual.numlab import spectral_derivative
    fields = traj.fine_fields
    n_rec = fields.shape[0]
    order = max((v.dx for v in M.jets()), default=0)
    col = {0: fields[:, station]}
    for k in range(1, order + 1):
        col[k] = np.array([spectral_derivative(fields[r], traj.half_length, k)[station]
                           for r in range(n_rec)])
    vals = {v: col[v.dx] if v.field == "psi" else np.conj(col[v.dx]) for v in M.jets()}
    entries = {p: [np.broadcast_to(np.asarray(x.evaluate(vals, traj.kappa), dtype=complex), (n_rec,))
                   for x in e]
               for p, e in M.coeffs.items()}
    h = 2 * (traj.fine_times[1] - traj.fine_times[0])
    mats = []
    for lam in lam_values:
        def A_at(idx):
            a = np.zeros((2, 2), dtype=complex)
            for p, arrs in entries.items():
                a += lam**p * np.array([arr[idx] for arr in arrs]).reshape(2, 2)
            return a

        T = np.eye(2, dtype=complex)
        for j in range((n_rec - 1) // 2):
            A0, A1, A2 = A_at(2 * j), A_at(2 * j + 1), A_at(2 * j + 2)
            k1 = A0 @ T
            k2 = A1 @ (T + 0.5 * h * k1)
            k3 = A1 @ (T + 0.5 * h * k2)
            k4 = A2 @ (T + h * k3)
            T = T + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        mats.append(T)
    return mats


def matmul2_stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked 2x2 products a @ b of (..., 2, 2) arrays, as column-times-row
    sums in the order of ``numlab._matmul2``."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def step_propagators_stacked(entry_arrays, lam: complex, h: float) -> np.ndarray:
    """``numlab._step_propagators`` on (npts, 2, 2) entry arrays, returning
    one (n_steps, 2, 2) array."""
    A = sum(lam**p * arr for p, arr in entry_arrays.items())
    npts = len(A)
    j = np.arange(npts // 2)
    A0, A1, A2 = A[2 * j], A[2 * j + 1], A[(2 * j + 2) % npts]
    k2 = A1 + (0.5 * h) * matmul2_stacked(A1, A0)
    k3 = A1 + (0.5 * h) * matmul2_stacked(A1, k2)
    k4 = A2 + h * matmul2_stacked(A2, k3)
    P = (h / 6.0) * (A0 + 2 * k2 + 2 * k3 + k4)
    P[:, 0, 0] += 1.0
    P[:, 1, 1] += 1.0
    return P


def ordered_product_stacked(P: np.ndarray) -> np.ndarray:
    """``numlab._ordered_product`` on an (n, 2, 2) array."""
    while len(P) > 1:
        n = len(P)
        pairs = matmul2_stacked(P[1:n - n % 2:2], P[0:n - n % 2:2])
        if n % 2:
            pairs[-1] = matmul2_stacked(P[-1], pairs[-1])
        P = pairs
    return P[0]


def entry_arrays_dense(M, values, kappa: float, npts: int) -> dict:
    """For each lambda power, M's entries over the npts points as one
    (npts, 2, 2) array, its zero entries included as zeros."""
    out = {}
    for p, e in M.coeffs.items():
        arr = np.zeros((npts, 2, 2), dtype=complex)
        for i, x in enumerate(e):
            if not x.is_zero():
                arr[:, i // 2, i % 2] = x.evaluate(values, kappa)
        out[p] = arr
    return out


def entry_columns(stacked: np.ndarray) -> tuple:
    """The four entries (row major) of an (npts, 2, 2) array as 1-d arrays."""
    return tuple(np.ascontiguousarray(stacked[:, i // 2, i % 2]) for i in range(4))


def rk4_transfer_sequential(entry_arrays, lam: complex, h: float, n_steps: int):
    """Integrate T' = A(s; lam) T across the cell one RK4 step at a time; A is
    sampled at half-steps (2*n_steps points with a periodic wrap for the
    final one, or 2*n_steps+1 points)."""
    A = sum(lam**p * arr for p, arr in entry_arrays.items())
    npts = len(A)
    T = np.eye(2, dtype=complex)
    for j in range(n_steps):
        A0, A1, A2 = A[2 * j], A[2 * j + 1], A[(2 * j + 2) % npts]
        k1 = A0 @ T
        k2 = A1 @ (T + 0.5 * h * k1)
        k3 = A1 @ (T + 0.5 * h * k2)
        k4 = A2 @ (T + h * k3)
        T = T + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return T


def evolve_nls_per_stage(initial, t_span, steps: int):
    """Every record of an RK4 run of i psi_t = -psi_xx + 2 kappa |psi|^2 psi
    whose right-hand side calls spectral_derivative afresh at every stage."""
    from nlsdual.numlab import spectral_derivative
    L, kap = initial.half_length, initial.kappa

    def rhs(psi):
        return 1j * spectral_derivative(psi, L, 2) - 2j * kap * np.abs(psi) ** 2 * psi

    dt = (t_span[1] - t_span[0]) / steps
    psi = initial.samples.copy()
    fine = [psi.copy()]
    for _ in range(steps):
        k1 = rhs(psi)
        k2 = rhs(psi + 0.5 * dt * k1)
        k3 = rhs(psi + 0.5 * dt * k2)
        k4 = rhs(psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        fine.append(psi.copy())
    return np.array(fine)


# --- Lax matrices and the independent 4x4 tensor-product route ---------------

def sigma3(c: Coeff | int = 1) -> LaxMatrix:
    cc = c if isinstance(c, Coeff) else Coeff.make(c)
    Z = DiffPoly.zero()
    return LaxMatrix({0: (DiffPoly.const(cc), Z, Z, DiffPoly.const(-cc))})


def field_matrix() -> LaxMatrix:
    """Off-diagonal matrix with psibar above and psi below the diagonal."""
    Z = DiffPoly.zero()
    return LaxMatrix({0: (Z, DiffPoly.var(PSIBAR), DiffPoly.var(PSI), Z)})


def tensor_matmul(A: TensorMatrix, B: TensorMatrix) -> TensorMatrix:
    """The product of two (lambda, mu)-bigraded 4x4 matrices."""
    Z = DiffPoly.zero()
    acc: dict[tuple[int, int], list] = {}
    for (l1, m1), e1 in A.coeffs.items():
        for (l2, m2), e2 in B.coeffs.items():
            key = (l1 + l2, m1 + m2)
            cur = acc.setdefault(key, [Z] * 16)
            for i in range(4):
                for j in range(4):
                    s = cur[4 * i + j]
                    for k in range(4):
                        a = e1[4 * i + k]
                        b = e2[4 * k + j]
                        if a.is_zero() or b.is_zero():
                            continue
                        s = s + a * b
                    cur[4 * i + j] = s
    return TensorMatrix({k: tuple(v) for k, v in acc.items()})


def embed1(A: LaxMatrix) -> TensorMatrix:
    """A(lambda) acting on the first tensor slot: A x I."""
    Z = DiffPoly.zero()
    out = {}
    for p, e in A.coeffs.items():
        t = [Z] * 16
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    t[4 * (2 * i + k) + (2 * j + k)] = e[2 * i + j]
        out[(p, 0)] = tuple(t)
    return TensorMatrix(out)


def embed2(A: LaxMatrix) -> TensorMatrix:
    """A(mu) acting on the second tensor slot: I x A."""
    Z = DiffPoly.zero()
    out = {}
    for p, e in A.coeffs.items():
        t = [Z] * 16
        for i in range(2):
            for k in range(2):
                for l in range(2):
                    t[4 * (2 * i + k) + (2 * i + l)] = e[2 * k + l]
        out[(0, p)] = tuple(t)
    return TensorMatrix(out)


def permutation() -> TensorMatrix:
    """P_12 with P(u x v) = v x u."""
    Z = DiffPoly.zero()
    one = DiffPoly.const(1)
    t = [Z] * 16
    for i in range(2):
        for k in range(2):
            # P[(i,k),(j,l)] = delta_il delta_kj
            t[4 * (2 * i + k) + (2 * k + i)] = one
    return TensorMatrix({(0, 0): tuple(t)})


# --- the W-series: Riccati residual and reality ---------------------------------

def riccati_residual(X: LaxMatrix, W) -> dict[int, tuple]:
    """Order-by-order residual of W_xi - X_d W + W X_d - X_o + W X_o W.

    Keys are lambda-powers from N down to -(K-N); with a consistent series
    every available order vanishes.  A nonzero residual is returned, not
    raised: it is data for the verification report.
    """
    N = X.degree()
    K = W.order
    Xd = {j: X.diag_part().lam_coeff(j) for j in range(N + 1)}
    Xo = {j: X.off_part().lam_coeff(j) for j in range(N + 1)}

    def d_xi(e):
        return tuple(x.d_along(X.xi) for x in e)

    res = {}
    lo = -(K - N) if K > N else 0
    for m in range(N, lo - 1, -1):
        R = _zeros2()
        if m <= -1:
            R = _add2(R, d_xi(W.w(-m)))
        for j in range(N + 1):
            k = j - m
            if 1 <= k <= K:
                Xdj = Xd.get(j, _zeros2())
                R = _add2(R, _scale2(_add2(_mul2(Xdj, W.w(k)), _scale2(_mul2(W.w(k), Xdj), -1)), -1))
        if 0 <= m <= N:
            R = _add2(R, _scale2(Xo.get(m, _zeros2()), -1))
        for j in range(N + 1):
            tot = j - m
            for a in range(1, tot):
                b = tot - a
                if 1 <= b <= K and a <= K:
                    R = _add2(R, _mul2(_mul2(W.w(a), Xo.get(j, _zeros2())), W.w(b)))
        res[m] = R
    return res


def lower_component(W, n: int) -> DiffPoly:
    """The scalar w^(n) in W^(n) = i sqrt(kappa) [[0, -conj(w)], [w, 0]]."""
    c = (I * SQRT_KAPPA).inverse()
    return W.w(n)[2].scale(c)


def check_reality(W) -> bool:
    """W^(n) = i sqrt(kappa) [[0, -wbar], [w, 0]] with wbar = conj(w)."""
    for e in W.entries:
        if not (e[0].is_zero() and e[3].is_zero()):
            return False
        w = e[2].scale((I * SQRT_KAPPA).inverse())
        want_upper = -w.conjugate().scale(I * SQRT_KAPPA)
        if not (e[1] - want_upper).is_zero():
            return False
    return True


# --- bracket tables and the Ostrogradski reduction ------------------------------

def canonical_table(cs) -> BracketTable:
    """{P, q} = 1 for each coordinate q of a constraint system and its momentum P."""
    return BracketTable(list(cs.coords) + list(cs.momenta),
                        {(m, c): DiffPoly.const(1) for m, c in zip(cs.momenta, cs.coords)},
                        label="canonical")


def dirac_bracket(cs, f: DiffPoly, g: DiffPoly) -> DiffPoly:
    """{f, g}_D = {f, g} - sum_ab {f, C_a} Minv[a][b] {C_b, g} on the full phase
    space of a constraint system, every bracket by leibniz_bracket on the
    canonical table and nothing eliminated: the textbook formula that the
    pipeline's stage 4 reads off its constraint covectors."""
    canonical = canonical_table(cs)
    out = leibniz_bracket(f, g, canonical)
    fc = [leibniz_bracket(f, C, canonical) for C in cs.constraints]
    cg = [leibniz_bracket(C, g, canonical) for C in cs.constraints]
    for a, fa in enumerate(fc):
        for b, gb in enumerate(cg):
            out = out - (fa * gb).scale(cs.Minv[a][b])
    return out


def jacobi_defect(table, a: JetVar, b: JetVar, c: JetVar) -> DiffPoly:
    """{a,{b,c}} + {b,{c,a}} + {c,{a,b}} for coordinate triples."""
    A, B, C = (DiffPoly.var(v) for v in (a, b, c))
    out = leibniz_bracket(A, leibniz_bracket(B, C, table), table)
    out = out + leibniz_bracket(B, leibniz_bracket(C, A, table), table)
    out = out + leibniz_bracket(C, leibniz_bracket(A, B, table), table)
    return out


def full_euler(L: DiffPoly, fld: str, level: int) -> DiffPoly:
    """Variational derivative over both x and t_level derivatives.

    The sum over the x-orders k present in L of (-d_x)^k applied to the
    t_level Euler operator at the k-th x-jet of ``fld``, so no order is cut
    off; a jet of ``fld`` that is not an x/t_level-derivative raises.
    """
    w = ("t", level)
    orders = set()
    for v in L.jets():
        if v.field == fld:
            if v.prolongation_depth(JetVar(fld, v.dx), w) is None:
                raise ValueError(f"jet {v} is not an x/t_{level} derivative of {fld}")
            orders.add(v.dx)
    terms = []
    for k in orders:
        term = L.euler_along(JetVar(fld, k), w)
        for _ in range(k):
            term = -term.d_x()
        terms.append(term)
    return DiffPoly.sum(terms)


def multipliers_from_euler_lagrange(red) -> dict[JetVar, DiffPoly]:
    """Solve the chain-field variational equations of a reduction for the multipliers."""
    out = {}
    for k in range(1, red.order):
        for j in range(2):
            mu = JetVar(_mu_field(k, j), 0)
            el = full_euler(red.lagrangian, _chain_field(k, j), red.level)
            c = el.diff(mu).coefficient(())
            if c.is_zero():
                raise ValueError("multiplier does not appear in its variational equation")
            rest = el - DiffPoly.var(mu, c)
            out[mu] = rest.scale(-(c.inverse()))
    return out


def euler_lagrange_check(red) -> bool:
    """The auxiliary variational equations reproduce the original ones.

    Substituting the constraints (chain fields -> x-jets) and the solved
    multipliers into the base-field equations must give exactly the
    Euler-Lagrange equations of the original Lagrangian.
    """
    mus = multipliers_from_euler_lagrange(red)
    back = _back_to_jets(red)
    for j, fld in enumerate(_BASE_FIELDS):
        el = full_euler(red.lagrangian, fld, red.level)
        el = el.substitute(mus).substitute(back)
        orig = full_euler(red.original, ("psi", "psibar")[j], red.level)
        if not (el - orig).is_zero():
            return False
    return True


def _back_to_jets(red) -> dict[JetVar, DiffPoly]:
    rules = {}
    for j, psi_name in enumerate(("psi", "psibar")):
        rules[JetVar(_BASE_FIELDS[j], 0)] = DiffPoly.var(JetVar(psi_name, 0))
        for k in range(1, red.order):
            rules[JetVar(_chain_field(k, j), 0)] = DiffPoly.var(JetVar(psi_name, k))
    return rules


# --- by-parts normal form, one depression step at a time ----------------------

def is_total_x_derivative(a: DiffPoly) -> bool:
    """Kernel test: a polynomial density with no constant term is a total
    x-derivative iff its variational derivatives in every field vanish.  The
    reference for the pair decision of brackets.byparts_normal_form, which
    tests psi alone; x-jets only."""
    if any(v.dt for v in a.jets()):
        raise ValueError("the kernel test requires x-jets only")
    fields = {v.field for v in a.jets()}
    return all(a.euler_along(JetVar(f), "x").is_zero() for f in fields)


def byparts_normal_form_stepwise(h: DiffPoly) -> DiffPoly:
    """Reference for brackets.byparts_normal_form: each step rescans the sorted
    terms, depresses the first monomial whose single top jet sits two or more
    orders above the rest, and rebuilds the polynomial; then each conjugate
    pair whose sum has vanishing Euler derivatives is antisymmetrised, one
    rebuild per pair."""
    key = lambda m: tuple(v.sort_key() for v in m)
    cur = h
    while True:
        target = None
        for m in sorted(cur.terms, key=key):
            if not m:
                continue
            kmax = max(v.dx for v in m)
            top = [v for v in m if v.dx == kmax]
            rest_max = max((v.dx for v in m if v.dx != kmax), default=-10)
            if len(top) == 1 and kmax >= rest_max + 2 and len(m) > 1:
                target = (m, top[0])
                break
        if target is None:
            break
        m, topjet = target
        c = cur.terms[m]
        rest = list(m)
        rest.remove(topjet)
        lowered = DiffPoly.var(JetVar(topjet.field, topjet.dx - 1, topjet.dt))
        repl = -(lowered * DiffPoly.monomial(rest).d_x())
        cur = cur - DiffPoly({m: c}) + repl.scale(c)

    done = set()
    for m in sorted(cur.terms, key=key):
        if m in done or m not in cur.terms:
            continue
        conj = tuple(sorted((v.conjugate_var() for v in m), key=JetVar.sort_key))
        if conj == m or conj in done:
            continue
        done.add(m)
        done.add(conj)
        if not is_total_x_derivative(DiffPoly.monomial(m) + DiffPoly.monomial(conj)):
            continue
        cm = cur.terms.get(m, Coeff.zero())
        cc = cur.terms.get(conj, Coeff.zero())
        a = (cm - cc) * Coeff.make(Fraction(1, 2))
        cur = cur - DiffPoly({m: cm, conj: cc}) + DiffPoly({m: a, conj: -a})
    return cur


def is_balanced(h: DiffPoly) -> bool:
    """No monomial has a single top jet two or more orders above the rest."""
    for m in h.terms:
        orders = sorted(v.dx for v in m)
        if len(orders) > 1 and orders[-1] > orders[-2] + 1:
            return False
    return True


# --- the JSON reader of DiffPoly.to_json_obj -------------------------------------

def poly_from_json_obj(items: list) -> DiffPoly:
    acc: dict[Monomial, Coeff] = {}
    for it in items:
        c = it["coeff"]
        coeff = Coeff({int(c["sqrtkappa_pow"]): (
            Fraction(c["re"][0], c["re"][1]),
            Fraction(c["im"][0], c["im"][1]),
        )})
        mono = tuple(sorted(
            (JetVar(j["field"], int(j["dx"]), tuple((int(n), int(k)) for n, k in j["dt"]))
             for j in it["jets"]),
            key=_jet_key,
        ))
        _accumulate(acc, {mono: coeff})
    return DiffPoly(acc)


def poly_from_json(text: str) -> DiffPoly:
    return poly_from_json_obj(json.loads(text))
