"""Numerical verification on periodic grids.

Double precision lives here and only here.  The module evolves periodic
field data under the focusing/defocusing cubic Schroedinger flow with a
4th-order explicit scheme and spectral x-derivatives, evaluates symbolic
densities on grids, and integrates the auxiliary linear problem across a
periodic cell in either the x- or the t-direction to produce transfer
(monodromy) matrices whose traces are the conserved generating objects.

Both directions sample psi and its x-derivatives along the integration
line (a supersampled snapshot, or one station for every recorded step);
one jet evaluator maps them onto psi/psibar jets.  The ODE is linear, so
each RK4 step is a 2x2 propagator: for each lambda all of them are built at
once, and their ordered product is taken by pairwise tree reduction.

t-jets required inside a flow matrix during time-direction transfer are
obtained by substituting the symbolic evolution rules and evaluating
x-jets spectrally; they are never computed by numerical t-differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ringcore import DiffPoly, JetVar
from .laxalg import LaxMatrix


@dataclass
class GridState:
    """Complex samples of psi on a uniform periodic grid in one variable."""

    samples: np.ndarray
    half_length: float              # domain is [-L, L)
    kappa: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim != 1 or self.samples.size < 16:
            raise ValueError("need a 1-d grid with at least 16 samples")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def step(self) -> float:
        return 2.0 * self.half_length / self.n

    def grid(self) -> np.ndarray:
        return -self.half_length + self.step * np.arange(self.n)


def _wavenumbers(n: int, half_length: float) -> np.ndarray:
    """Angular wavenumbers of the FFT of n samples on [-L, L)."""
    return np.fft.fftfreq(n, d=2.0 * half_length / n) * 2.0 * np.pi


def spectral_derivative(samples: np.ndarray, half_length: float, order: int = 1) -> np.ndarray:
    """Periodic spectral derivative of given order.

    For odd orders on an even grid the Nyquist coefficient is zeroed: odd
    derivatives of that mode vanish at every sample (d/dx cos(8x) is 0 on
    16 points), while (ik)^order would give it an imaginary value."""
    n = samples.size
    mult = (1j * _wavenumbers(n, half_length)) ** order
    if order % 2 and n % 2 == 0:
        mult[n // 2] = 0.0
    return np.fft.ifft(mult * np.fft.fft(samples))


def spectral_resample(samples: np.ndarray, factor: int) -> np.ndarray:
    """Band-limited upsampling by an integer factor via zero-padded FFT."""
    n = samples.size
    coeffs = np.fft.fft(samples)
    big = np.zeros(n * factor, dtype=complex)
    h = n // 2
    n_neg = n - h - 1                   # strictly negative frequencies
    big[:h] = coeffs[:h]
    big[n * factor - n_neg:] = coeffs[h + 1:]
    if n % 2:
        big[h] = coeffs[h]
    else:
        # split the Nyquist coefficient symmetrically
        big[h] += 0.5 * coeffs[h]
        big[n * factor - h] += 0.5 * coeffs[h]
    return np.fft.ifft(big) * factor


@dataclass
class Trajectory:
    """Snapshots of an evolution run plus (optionally) every time step."""

    times: np.ndarray
    snapshots: list[np.ndarray]
    half_length: float
    kappa: float
    fine_times: np.ndarray | None = None
    fine_fields: np.ndarray | None = None   # shape (n_steps+1, N) when recorded

    def state(self, i: int) -> GridState:
        return GridState(self.snapshots[i], self.half_length, self.kappa)


def evolve_nls(initial: GridState, t_span: tuple[float, float], steps: int,
               n_snapshots: int = 5, record_fine: bool = False) -> Trajectory:
    """RK4 time stepping of i psi_t = -psi_xx + 2 kappa |psi|^2 psi.

    Spectral x-derivatives; aborts on norm blowup (step-size instability).
    Returns exactly ``n_snapshots`` snapshots, evenly spaced in steps.
    """
    if steps < 1 or not 1 <= n_snapshots <= steps + 1:
        raise ValueError(f"need steps >= 1 and 1 <= n_snapshots <= steps + 1, "
                         f"got steps={steps}, n_snapshots={n_snapshots}")
    t0, t1 = t_span
    dt = (t1 - t0) / steps
    psi = initial.samples.copy()
    L, kap = initial.half_length, initial.kappa
    lap = (1j * _wavenumbers(psi.size, L)) ** 2

    def rhs(u):
        return 1j * np.fft.ifft(lap * np.fft.fft(u)) - 2j * kap * np.abs(u) ** 2 * u

    norm0 = np.linalg.norm(psi)
    snap_at = {round(i * steps / (n_snapshots - 1)) for i in range(n_snapshots)} if n_snapshots > 1 else {0}
    times, snaps = [], []
    if record_fine:
        fine = np.empty((steps + 1, psi.size), dtype=complex)
        fine[0] = psi
    if 0 in snap_at:
        times.append(t0)
        snaps.append(psi.copy())
    for s in range(1, steps + 1):
        k1 = rhs(psi)
        k2 = rhs(psi + 0.5 * dt * k1)
        k3 = rhs(psi + 0.5 * dt * k2)
        k4 = rhs(psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(psi).all() or np.linalg.norm(psi) > 1e6 * (norm0 + 1):
            raise FloatingPointError(f"norm blowup at step {s}: reduce the time step")
        if record_fine:
            fine[s] = psi
        if s in snap_at:
            times.append(t0 + s * dt)
            snaps.append(psi.copy())
    traj = Trajectory(np.array(times), snaps, L, kap)
    if record_fine:
        traj.fine_times = t0 + dt * np.arange(steps + 1)
        traj.fine_fields = fine
    return traj


def plane_wave(n: int, half_length: float, kappa: float, amplitude: float, mode: int) -> GridState:
    """A exp(i k x) with k commensurate with the box."""
    x = -half_length + (2 * half_length / n) * np.arange(n)
    k = mode * np.pi / half_length
    return GridState(amplitude * np.exp(1j * k * x), half_length, kappa)


def plane_wave_exact(state: GridState, mode: int, amplitude: float, t: float) -> np.ndarray:
    """Exact evolution of the plane wave: frequency k^2 + 2 kappa A^2."""
    x = state.grid()
    k = mode * np.pi / state.half_length
    omega = k * k + 2.0 * state.kappa * amplitude**2
    return amplitude * np.exp(1j * (k * x - omega * t))


# ---------------------------------------------------------------------------
# evaluating symbolic densities on grids
# ---------------------------------------------------------------------------


def _x_derivatives(psi: np.ndarray, half_length: float, order: int) -> list[np.ndarray]:
    """psi and its spectral x-derivatives up to ``order``."""
    return [psi] + [spectral_derivative(psi, half_length, k) for k in range(1, order + 1)]


def _station_derivatives(fields: np.ndarray, half_length: float, station: int,
                         order: int) -> list[np.ndarray]:
    """psi and its x-derivatives up to ``order`` at grid index ``station``, for
    every row of ``fields``.  Spectral differentiation is circulant, so row
    ``station`` of the k-th derivative matrix is the derivative of a unit
    impulse at index 0, read at (station - j) mod n."""
    n = fields.shape[1]
    impulse = np.zeros(n, dtype=complex)
    impulse[0] = 1.0
    back = (station - np.arange(n)) % n
    out = [fields[:, station]]
    for k in range(1, order + 1):
        out.append(fields @ spectral_derivative(impulse, half_length, k)[back])
    return out


def _jet_values(derivs: Sequence[np.ndarray], jets: Sequence[JetVar]) -> dict[JetVar, np.ndarray]:
    """Map psi/psibar x-jets onto ``derivs``, the x-derivatives of psi by order."""
    vals: dict[JetVar, np.ndarray] = {}
    for v in sorted(jets, key=JetVar.sort_key):
        if v.dt:
            raise ValueError(f"t-jet {v} cannot be evaluated from x-derivatives; "
                             "substitute the evolution rules first")
        if v.field == "psi":
            vals[v] = derivs[v.dx]
        elif v.field == "psibar":
            vals[v] = np.conj(derivs[v.dx])
        else:
            raise ValueError(f"cannot evaluate field {v.field!r} on a grid")
    return vals


def evaluate_density(density: DiffPoly, psi: np.ndarray, half_length: float, kappa: float) -> np.ndarray:
    derivs = _x_derivatives(psi, half_length, density.max_x_order())
    return density.evaluate(_jet_values(derivs, density.jets()), kappa)


def charge_evaluate(density: DiffPoly, traj: Trajectory,
                    rules: Mapping[JetVar, DiffPoly] | None = None) -> np.ndarray:
    """Integral of the density over the periodic cell, per snapshot.

    If the density contains t-jets, the symbolic evolution ``rules`` must be
    supplied so they can be eliminated before evaluation.
    """
    dens = density.substitute(rules) if rules else density
    if any(v.dt for v in dens.jets()):
        raise ValueError("density still contains t-jets; pass the evolution rules")
    dx = 2 * traj.half_length / traj.snapshots[0].size
    out = []
    for psi in traj.snapshots:
        vals = evaluate_density(dens, psi, traj.half_length, traj.kappa)
        out.append(np.sum(vals) * dx)
    return np.array(out)


# ---------------------------------------------------------------------------
# transfer (monodromy) matrices
# ---------------------------------------------------------------------------


@dataclass
class MonodromySample:
    lam_values: list[complex]
    matrices: list[np.ndarray]          # 2x2 complex transfer matrices
    direction: str                      # 'along_x' or 'along_t'

    def traces(self) -> np.ndarray:
        return np.array([np.trace(m) for m in self.matrices])

    def det_errors(self) -> np.ndarray:
        return np.array([abs(np.linalg.det(m) - 1.0) for m in self.matrices])


def _entry_arrays(M: LaxMatrix, values: Mapping[JetVar, np.ndarray], kappa: float,
                  npts: int) -> dict[int, np.ndarray]:
    """For each lambda power, the entries of M as one (npts, 2, 2) array."""
    out = {}
    for p, e in M.coeffs.items():
        arr = np.zeros((npts, 2, 2), dtype=complex)
        for idx, x in enumerate(e):
            if not x.is_zero():
                arr[:, idx // 2, idx % 2] = x.evaluate(values, kappa)
        out[p] = arr
    return out


def _matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked 2x2 products a @ b, written out as column-times-row sums:
    numpy's batched ``@`` handles each 2x2 matrix separately and is several
    times slower on long stacks."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def _step_propagators(entry_arrays: Mapping[int, np.ndarray], lam: complex, h: float) -> np.ndarray:
    """The RK4 step maps T -> P_j T of T' = A(s; lam) T for every step j at
    once, as one (n_steps, 2, 2) array.

    A = sum_p lam^p E_p is sampled at half-steps: 2*n_steps points on a
    periodic line (the last step ends on the first point) or 2*n_steps+1
    points.  P_j is the RK4 stage formula applied to T = I."""
    A = sum(lam**p * arr for p, arr in entry_arrays.items())
    npts = len(A)
    j = np.arange(npts // 2)
    A0, A1, A2 = A[2 * j], A[2 * j + 1], A[(2 * j + 2) % npts]
    k2 = A1 + (0.5 * h) * _matmul2(A1, A0)
    k3 = A1 + (0.5 * h) * _matmul2(A1, k2)
    k4 = A2 + h * _matmul2(A2, k3)
    P = (h / 6.0) * (A0 + 2 * k2 + 2 * k3 + k4)
    P[:, 0, 0] += 1.0
    P[:, 1, 1] += 1.0
    return P


def _ordered_product(P: np.ndarray) -> np.ndarray:
    """P[n-1] ... P[1] P[0] by pairwise tree reduction: each level multiplies
    neighbours in one batched product, and an odd last factor is folded into
    the last pair."""
    while len(P) > 1:
        n = len(P)
        pairs = _matmul2(P[1:n - n % 2:2], P[0:n - n % 2:2])
        if n % 2:
            pairs[-1] = _matmul2(P[-1], pairs[-1])
        P = pairs
    return P[0]


def transfer_matrix(M: LaxMatrix, data, lam_values: Sequence[complex], direction: str,
                    rules: Mapping[JetVar, DiffPoly] | None = None,
                    station: int = 0, det_tol: float = 1e-6,
                    substeps: int = 2) -> MonodromySample:
    """Fundamental solution of d/ds Psi = M(s; lam) Psi across one period.

    direction 'along_x': ``data`` is a GridState (one snapshot); the entries
    of M are sampled on a spatial grid supersampled by ``2 * substeps``, and
    the integration step is ``step / substeps``.
    direction 'along_t': ``data`` is a Trajectory recorded with
    ``record_fine=True``; the entries are evaluated at the x-index
    ``station`` for every recorded step, and the integration step is two
    recording steps so midpoints are available.

    Any t-jets in M must be eliminated via ``rules`` (symbolic substitution).
    """
    if len(lam_values) == 0:
        raise ValueError("lam_values is empty; give at least one spectral parameter")
    Msub = M.substitute(rules) if rules else M
    jets = Msub.jets()
    if any(v.dt for v in jets):
        raise ValueError("matrix still contains t-jets; pass the evolution rules")
    order = max((v.dx for v in jets), default=0)

    if direction == "along_x":
        state: GridState = data
        psi_fine = spectral_resample(state.samples, 2 * substeps)
        derivs = _x_derivatives(psi_fine, state.half_length, order)
        h = state.step / substeps
    elif direction == "along_t":
        traj: Trajectory = data
        if traj.fine_fields is None:
            raise ValueError("time-direction transfer needs a trajectory recorded with record_fine=True")
        if traj.fine_fields.shape[0] % 2 == 0:
            raise ValueError("need an even number of steps (odd number of records)")
        derivs = _station_derivatives(traj.fine_fields, traj.half_length, station, order)
        h = 2 * (traj.fine_times[1] - traj.fine_times[0])
    else:
        raise ValueError("direction must be 'along_x' or 'along_t'")

    arrays = _entry_arrays(Msub, _jet_values(derivs, jets), data.kappa, derivs[0].size)
    # one lambda at a time: stacking them is no faster and multiplies the
    # transient (steps, 2, 2) arrays by the number of lambdas
    mats = [_ordered_product(_step_propagators(arrays, lam, h)) for lam in lam_values]
    sample = MonodromySample(list(lam_values), mats, direction)
    bad = sample.det_errors().max()
    if bad > det_tol:
        raise ValueError(f"transfer matrix determinant deviates from 1 by {bad:.2e}")
    return sample


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


def plane_wave_convergence(n: int = 32, half_length: float = np.pi, kappa: float = 1.0,
                           amplitude: float = 0.8, mode: int = 1, t_end: float = 0.5,
                           base_steps: int = 100, refinements: int = 3) -> list[dict]:
    """Max pointwise error against the exact plane wave at successive step
    halvings; 4th-order stepping means successive ratios near 16.

    The grid is kept small so the coarsest step sits inside the stability
    region of the explicit scheme and the error stays above roundoff."""
    rows = []
    prev = None
    for r in range(refinements):
        steps = base_steps * 2**r
        st = plane_wave(n, half_length, kappa, amplitude, mode)
        traj = evolve_nls(st, (0.0, t_end), steps, n_snapshots=2)
        exact = plane_wave_exact(st, mode, amplitude, t_end)
        err = float(np.max(np.abs(traj.snapshots[-1] - exact)))
        row = {"steps": steps, "error": err}
        if prev is not None and err > 0:
            row["ratio"] = prev / err
        rows.append(row)
        prev = err
    return rows
