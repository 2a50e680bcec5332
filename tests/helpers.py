"""Shared builders for the test suite: jets, frozen reference expressions,
random-polynomial generators."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from nlsdual.ringcore import Coeff, DiffPoly, JetVar

I = Coeff.i()
SK = Coeff.make(1, 0, 1)       # sqrt(kappa)
K = Coeff.make(1, 0, 2)        # kappa
K32 = Coeff.make(1, 0, 3)      # kappa^(3/2)


def pj(dx=0, t=()) -> JetVar:
    return JetVar("psi", dx, tuple(t))


def qj(dx=0, t=()) -> JetVar:
    return JetVar("psibar", dx, tuple(t))


def v(var: JetVar, c=1) -> DiffPoly:
    return DiffPoly.var(var, c if isinstance(c, Coeff) else Coeff.make(c))


def mono(jets, c=1) -> DiffPoly:
    return DiffPoly.monomial(jets, c if isinstance(c, Coeff) else Coeff.make(c))


def cf(re=0, im=0, skpow=0) -> Coeff:
    return Coeff.make(Fraction(re) if not isinstance(re, Fraction) else re,
                      Fraction(im) if not isinstance(im, Fraction) else im, skpow)


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
        c = c + Coeff.make(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
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

def _sigma3_const(c: Coeff):
    from nlsdual.laxalg import lax_from_entries
    Z = DiffPoly.zero()
    return lax_from_entries({0: (DiffPoly.const(c), Z, Z, DiffPoly.const(-c))})


def printed_v(n: int):
    """The first four flow matrices of the hierarchy, entered literally."""
    from nlsdual.laxalg import lax_from_entries
    Z = DiffPoly.zero()
    sk = SK
    i = I
    half_i = Coeff.make(0, Fraction(1, 2))
    ik = i * K
    if n == 0:
        return _sigma3_const(half_i)
    if n == 1:
        return lax_from_entries({1: _sigma3_const(half_i).lam_coeff(0),
                                 0: (Z, v(qj(), -sk), v(pj(), -sk), Z)})
    level0 = (mono([pj(), qj()], ik), v(qj(1), -i * sk),
              v(pj(1), i * sk), mono([pj(), qj()], -ik))
    if n == 2:
        return lax_from_entries({2: _sigma3_const(half_i).lam_coeff(0),
                                 1: (Z, v(qj(), -sk), v(pj(), -sk), Z),
                                 0: level0})
    if n == 3:
        X = x_block()
        Y = y_block()
        return lax_from_entries({3: _sigma3_const(half_i).lam_coeff(0),
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
    from nlsdual.laxalg import lax_from_entries
    Z = DiffPoly.zero()
    sk = SK
    i = I
    mhalf_i = Coeff.make(0, Fraction(-1, 2))
    ik = i * K
    if m == 0:
        return _sigma3_const(mhalf_i)
    if m == 1:
        return lax_from_entries({1: _sigma3_const(mhalf_i).lam_coeff(0),
                                 0: (Z, v(qj(), sk), v(pj(), sk), Z)})
    level0 = (mono([pj(), qj()], -ik), v(qj(1), i * sk),
              v(pj(1), -i * sk), mono([pj(), qj()], ik))
    if m == 2:
        return lax_from_entries({2: _sigma3_const(mhalf_i).lam_coeff(0),
                                 1: (Z, v(qj(), sk), v(pj(), sk), Z),
                                 0: level0})
    if m == 3:
        Phi = x_block()
        Om = v(pj(0, [(2, 1)]), -i * sk)
        return lax_from_entries({3: _sigma3_const(mhalf_i).lam_coeff(0),
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
    from nlsdual.laxalg import _add2, _mul2, _scale2, _zeros2
    total = _zeros2()
    for j in range(1, n + 1):
        sgn = (-1) ** j
        for comp in compositions(n, j):
            prod = None
            for m in comp:
                prod = W.w(m) if prod is None else _mul2(prod, W.w(m))
            total = _add2(total, _scale2(prod, sgn))
    return total


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
    from nlsdual.laxalg import TensorMatrix
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
