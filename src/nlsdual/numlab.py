"""Numerical verification on periodic grids.

Double precision lives here and only here.  The module evolves periodic
field data under the focusing/defocusing cubic Schroedinger flow with a
4th-order explicit scheme and spectral x-derivatives, evaluates symbolic
densities on grids, and integrates the auxiliary linear problem across a
periodic cell in either the x- or the t-direction to produce transfer
(monodromy) matrices whose traces are the conserved generating objects.

The RK4 stepper allocates nothing per step: its stage buffers are made once,
every FFT and ufunc writes into them in the order of the plain expression
(so trajectories are bit for bit those of the allocating form), each step
lands directly in its row of the recorded fields, and a single reduction,
sum |psi|^2, catches NaN, inf and norm blowup.  At 256 points a step is
bound by per-call overhead, not arithmetic, and about half of each FFT call
is ``np.fft``'s Python wrapper (at n = 256 on a 2-vCPU VM, fft 10.2
against 4.7 us, ifft 11.7 against 5.8 us), so the stepper calls the
pocketfft gufuncs behind it directly, with the wrapper's normalisation
factors, and passes every scalar as a complex 0-d array made once per run.
It looks those gufuncs up on its first call: ``import numpy`` does not load
``numpy.fft``, and importing this module does not either, which keeps about
1.8 ms out of its import.

A step makes 44 numpy calls (50 before the rewrites below), each call one
that gives the same bits as the call it replaces.  The i of i psi_xx sits in
the Laplacian multiplier, not in one multiply after each inverse FFT: i z
only swaps and negates the parts of z, so ifft(i z) is i ifft(z) bit for bit.
k2 and k3 come out of the right-hand side doubled, from doubled multipliers,
so the sum needs no multiply by 2 and the next stage scales 2 k2 by dt/4:
scaling by a power of two is exact unless a value is subnormal.  |psi|^2 is
kept in a complex buffer with a zero imaginary part, so the nonlinear
coefficient multiplies complex by complex; a float operand would be cast on
every call (0.96 against 0.49 us at n = 256).

Both directions sample psi and its x-derivatives along the integration
line (a supersampled snapshot, or one station for every recorded step);
one jet evaluator maps them onto psi/psibar jets.  The ODE is linear, so
each RK4 step is a 2x2 propagator: for each lambda they are written into one
array per matrix entry, and their ordered product is taken by pairwise tree
reduction.  Zero entries stay out of the lambda-sum (x + 0 is x), and the
samples at the start, middle and end of each step are strided views of the
lambda-sum, not fancy-indexed copies; only the periodic end point takes a
``concatenate``.  The propagators are built ``_BLOCK_STEPS`` = 1024 steps at
a time, so that a block's lambda-sum, stages and temporaries (about 0.5 MB)
stay in a core's L2 cache, where at full length they reached 1.7 MB for the
4000 steps of an 8001-record trajectory.  Built at once, that transfer
peaked about 1.0 MB higher (tracemalloc, one lambda); per station, with four
lambdas, the propagators and their product took 3.7-5.5 ms in blocks of
1024 steps, against 5.1-8.9 ms in blocks of 512, 4.0-6.0 ms in blocks of
2048 and 4.2-7.2 ms at full length (min of 30, in three rounds on a shared
2-vCPU VM).  The blocks change no bits: each element sees the same
operations in the same order.

Along t, each station derivative is one dot product per recorded row
(``np.vecdot``), which OpenBLAS runs as ``zdotc`` on the calling thread.  A
matrix-vector product ``fields @ filt`` would go to OpenBLAS's threaded
``zgemv``, whose hand-off to its worker threads took a median 8.0 ms per
call on a 2-vCPU VM, on a 401 x 32 record and an 8001 x 256 one alike; the
per-row dots took 0.018 ms and 1.5-2.4 ms.  No thread count is set: that
would be a knob and a process-wide side effect.

A flow matrix enters the transfer with x-jets only: any t-jets in it are
first replaced by the symbolic evolution rules, so they are never computed
by numerical t-differentiation.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .ringcore import DiffPoly, JetVar
from .laxalg import LaxMatrix


class GridState:
    """Complex samples of psi on a uniform periodic grid in one variable."""

    __slots__ = ("samples", "half_length", "kappa")

    def __init__(self, samples: np.ndarray, half_length: float, kappa: float):
        self.samples = np.asarray(samples, dtype=complex)
        self.half_length = half_length      # domain is [-L, L)
        self.kappa = kappa
        if self.samples.ndim != 1 or self.samples.size < 16:
            raise ValueError("need a 1-d grid with at least 16 samples")
        # count_nonzero, not .all(): a process's first ufunc reduction sets
        # up about 0.2 MB of state, which construction need not pay for
        if np.count_nonzero(np.isfinite(self.samples)) != self.samples.size:
            raise ValueError("samples must be finite; got NaN or inf")
        if not (math.isfinite(half_length) and half_length > 0):
            raise ValueError(f"half_length must be finite and > 0, got half_length={half_length}")
        if not math.isfinite(kappa):
            raise ValueError(f"kappa must be finite, got kappa={kappa}")

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
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got order={order}")
    n = samples.size
    mult = (1j * _wavenumbers(n, half_length)) ** order
    if order % 2 and n % 2 == 0:
        mult[n // 2] = 0.0
    return np.fft.ifft(mult * np.fft.fft(samples))


def spectral_resample(samples: np.ndarray, factor: int) -> np.ndarray:
    """Band-limited upsampling by an integer factor via zero-padded FFT."""
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"resampling factor must be an integer >= 1, got factor={factor!r}")
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


class Trajectory:
    """Snapshots of an evolution run.  ``fine_times`` and ``fine_fields``
    (shape (n_steps+1, N)) hold every time step when the run was recorded
    and are None otherwise."""

    __slots__ = ("times", "snapshots", "half_length", "kappa", "fine_times", "fine_fields")

    def __init__(self, times: np.ndarray, snapshots: list[np.ndarray], half_length: float,
                 kappa: float):
        self.times = times
        self.snapshots = snapshots
        self.half_length = half_length
        self.kappa = kappa
        self.fine_times: np.ndarray | None = None
        self.fine_fields: np.ndarray | None = None

    def state(self, i: int) -> GridState:
        return GridState(self.snapshots[i], self.half_length, self.kappa)


def _fft_kernels(n: int):
    """The pocketfft gufuncs behind ``np.fft.fft`` and ``np.fft.ifft``, and the
    normalisation factors those wrappers pass them for n points (1 forward,
    1/n inverse) as 0-d arrays: ``kernel(a, factor, out)`` is bit for bit
    ``np.fft.fft(a, out=out)`` (or ``ifft``) on a 1-d array.  Imported on
    first use, not with numlab."""
    from numpy.fft import _pocketfft_umath as pfu
    return pfu.fft, pfu.ifft, np.array(1.0), np.array(1.0 / n)


def evolve_nls(initial: GridState, t_span: tuple[float, float], steps: int,
               n_snapshots: int = 5, record_fine: bool = False) -> Trajectory:
    """RK4 time stepping of i psi_t = -psi_xx + 2 kappa |psi|^2 psi.

    Spectral x-derivatives.  The step loop allocates nothing: the spectrum,
    |psi|^2, the nonlinear term, the four stages and the stage argument live
    in buffers made once, and every FFT and ufunc writes into one of them,
    in the order of operations of the plain expression, up to the exact
    rewrites of the module docstring, so each step is bit for bit what
    ``psi + dt/6 (k1 + 2 k2 + 2 k3 + k4)`` gives.  At a few
    hundred points a step costs per-call overhead rather than arithmetic, so
    the loop calls the FFT gufuncs directly (``_fft_kernels``), passes every
    scalar as a complex 0-d array made once and every output positionally.
    Raises ValueError when either end of ``t_span`` is not finite.  Step s
    is written straight into row s of ``fine_fields`` (or, when the run is
    not recorded, over one row in place).  One reduction per step, |psi|^2
    summed, aborts on norm blowup (step-size instability), NaN or inf.
    Returns exactly ``n_snapshots`` snapshots, evenly spaced in steps.
    """
    if steps < 1 or not 1 <= n_snapshots <= steps + 1:
        raise ValueError(f"need steps >= 1 and 1 <= n_snapshots <= steps + 1, "
                         f"got steps={steps}, n_snapshots={n_snapshots}")
    t0, t1 = t_span
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got t_span=({t0}, {t1})")
    dt = (t1 - t0) / steps
    n, L, kap = initial.n, initial.half_length, initial.kappa
    # i (ik)^2, the i of i psi_xx folded in, and its double for k2 and k3
    ilap = 1j * (1j * _wavenumbers(n, L)) ** 2
    ilap2 = 2 * ilap
    fft, ifft, fwd, inv = _fft_kernels(n)
    # complex 0-d operands: a Python scalar is converted on every call, and a
    # real one is also cast per call; x + 0j is what either would become
    half, quarter, sixth, nonlin_coeff, nonlin_coeff2 = (
        np.array(c, dtype=complex) for c in (0.5 * dt, 0.25 * dt, dt / 6.0, 2j * kap, 4j * kap))
    multiply, add, subtract, absolute, square, vdot = (
        np.multiply, np.add, np.subtract, np.absolute, np.square, np.vdot)
    # the blowup test is `not sum |psi|^2 <= lim2`, so a NaN sum fails it too
    lim2 = (1e6 * (np.linalg.norm(initial.samples) + 1)) ** 2

    spec, nonlin, mod2, stage, k1, k2, k3, k4 = (np.empty(n, dtype=complex) for _ in range(8))
    # |u|^2 goes into the real part; the imaginary part stays 0
    mod2.imag = 0.0
    mod2_re = mod2.real

    def rhs(u, out, lapmul, coeff):
        """out = ifft(i lap fft(u)) - 2j kappa |u|^2 u, one operation at a time;
        with the doubled multipliers, exactly twice that."""
        fft(u, fwd, spec)
        multiply(lapmul, spec, spec)
        ifft(spec, inv, out)
        absolute(u, mod2_re)
        square(mod2_re, mod2_re)
        multiply(coeff, mod2, nonlin)
        multiply(nonlin, u, nonlin)
        subtract(out, nonlin, out)

    # step s goes to rows[s % nrows]: its own row when recorded, else the
    # one row, updated in place
    nrows = steps + 1 if record_fine else 1
    rows = np.empty((nrows, n), dtype=complex)
    psi = rows[0]
    psi[:] = initial.samples
    snap_at = {round(i * steps / (n_snapshots - 1)) for i in range(n_snapshots)} if n_snapshots > 1 else {0}
    times, snaps = [], []
    if 0 in snap_at:
        times.append(t0)
        snaps.append(psi.copy())
    for s in range(1, steps + 1):
        # k2 and k3 hold 2 k2 and 2 k3, so the stages scale them by dt/4
        # and dt/2: scaling by 2 is exact, so every sum is that of
        # psi + dt/6 (k1 + 2 k2 + 2 k3 + k4)
        rhs(psi, k1, ilap, nonlin_coeff)
        multiply(half, k1, stage)
        add(psi, stage, stage)
        rhs(stage, k2, ilap2, nonlin_coeff2)
        multiply(quarter, k2, stage)
        add(psi, stage, stage)
        rhs(stage, k3, ilap2, nonlin_coeff2)
        multiply(half, k3, stage)
        add(psi, stage, stage)
        rhs(stage, k4, ilap, nonlin_coeff)
        # k1 accumulates k1 + 2 k2 + 2 k3 + k4, then its dt/6 multiple
        add(k1, k2, k1)
        add(k1, k3, k1)
        add(k1, k4, k1)
        multiply(sixth, k1, k1)
        psi = add(psi, k1, rows[s % nrows])
        if not vdot(psi, psi).real <= lim2:
            raise FloatingPointError(f"norm blowup at step {s}: reduce the time step")
        if s in snap_at:
            times.append(t0 + s * dt)
            snaps.append(psi.copy())
    traj = Trajectory(np.array(times), snaps, L, kap)
    if record_fine:
        traj.fine_times = t0 + dt * np.arange(steps + 1)
        traj.fine_fields = rows
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
    impulse at index 0, read at (station - j) mod n.  Each row is one dot
    product (``np.vecdot``, which conjugates its first argument), not a
    matrix-vector ``@``: see the module docstring."""
    n = fields.shape[1]
    impulse = np.zeros(n, dtype=complex)
    impulse[0] = 1.0
    back = (station - np.arange(n)) % n
    out = [fields[:, station]]
    for k in range(1, order + 1):
        filt = spectral_derivative(impulse, half_length, k)
        out.append(np.vecdot(np.conj(filt[back]), fields))
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


def charge_evaluate(density: DiffPoly, traj: Trajectory) -> np.ndarray:
    """Integral of the density over the periodic cell, per snapshot.

    The density must be free of t-jets: substitute the evolution rules into
    it first.
    """
    if any(v.dt for v in density.jets()):
        raise ValueError("density contains t-jets; substitute the evolution rules first")
    dx = 2 * traj.half_length / traj.snapshots[0].size
    out = []
    for psi in traj.snapshots:
        vals = evaluate_density(density, psi, traj.half_length, traj.kappa)
        out.append(np.sum(vals) * dx)
    return np.array(out)


# ---------------------------------------------------------------------------
# transfer (monodromy) matrices
# ---------------------------------------------------------------------------


class MonodromySample:
    __slots__ = ("lam_values", "matrices", "direction")

    def __init__(self, lam_values: list[complex], matrices: list[np.ndarray], direction: str):
        self.lam_values = lam_values
        self.matrices = matrices            # 2x2 complex transfer matrices
        self.direction = direction          # 'along_x' or 'along_t'

    def traces(self) -> np.ndarray:
        return np.array([np.trace(m) for m in self.matrices])

    def det_errors(self) -> np.ndarray:
        return np.array([abs(np.linalg.det(m) - 1.0) for m in self.matrices])


def _entry_arrays(M: LaxMatrix, values: Mapping[JetVar, np.ndarray], kappa: float,
                  npts: int) -> dict[int, tuple[np.ndarray | None, ...]]:
    """For each lambda power, the four entries of M (row major) as 1-d arrays
    over the npts points, None where the entry is zero.  An entry that is
    zero at every power (at power 0 if M is zero) keeps one zero array, so
    each lambda-sum has a term."""
    out = {p: [None if x.is_zero() else np.full(npts, x.evaluate(values, kappa), dtype=complex)
               for x in e]
           for p, e in M.coeffs.items()} or {0: [None] * 4}
    for i in range(4):
        if all(arrs[i] is None for arrs in out.values()):
            next(iter(out.values()))[i] = np.zeros(npts, dtype=complex)
    return {p: tuple(arrs) for p, arrs in out.items()}


def _matmul2(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Elementwise 2x2 products a @ b of matrices stored as four entry arrays
    (row major).  One array per entry makes every product a plain 1-d ufunc
    call: on stacked (n, 2, 2) arrays numpy's batched ``@`` handles each
    matrix separately, and broadcast column-times-row sums work on strided
    3-d views."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)


# steps per block of _step_propagators: a block's lambda-sums, RK4 stages and
# their temporaries (about 0.5 MB at 1024 steps) stay in a core's L2 cache;
# 1024 was faster than 512 and 2048 (module docstring)
_BLOCK_STEPS = 1024


def _step_propagators(entry_arrays: Mapping[int, tuple[np.ndarray | None, ...]], lam: complex,
                      h: float) -> list[np.ndarray]:
    """The RK4 step maps T -> P_j T of T' = A(s; lam) T for every step j, as
    four entry arrays of length n_steps.

    A = sum_p lam^p E_p is sampled at half-steps: 2*n_steps points on a
    periodic line (the last step ends on the first point) or 2*n_steps+1
    points.  P_j is the RK4 stage formula applied to T = I.  The steps are
    taken ``_BLOCK_STEPS`` at a time: A, its samples at the start, middle and
    end of each step and the stages are made over one block's 2b+1 points
    only, and the block's P is written into its slice of the full-length
    arrays, so the temporaries fit in cache.  Each element sees the same
    operations in the same order as on full-length arrays, so P does not
    depend on the block size."""
    # zero entries are left out of the lambda-sum: x + 0 is x, and 1.0 * x
    # is x, so the lambda^0 term is used as it is
    terms = [[(None if p == 0 else lam**p, arrs[i]) for p, arrs in entry_arrays.items()
              if arrs[i] is not None] for i in range(4)]

    def lam_sum(entry_terms, seg):
        parts = [a[seg] if c is None else c * a[seg] for c, a in entry_terms]
        return sum(parts[1:], parts[0])

    npts = len(terms[0][0][1])
    n_steps = npts // 2
    P = [np.empty(n_steps, dtype=complex) for _ in range(4)]
    for lo in range(0, n_steps, _BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, n_steps)
        if 2 * hi < npts:
            A = [lam_sum(t, slice(2 * lo, 2 * hi + 1)) for t in terms]
        else:       # the periodic line's last step ends on the first point
            A = [np.concatenate((lam_sum(t, slice(2 * lo, None)), lam_sum(t, slice(0, 1))))
                 for t in terms]
        # strided views, not copies
        A0, A1, A2 = [a[0:-1:2] for a in A], [a[1::2] for a in A], [a[2::2] for a in A]
        k2 = [a + (0.5 * h) * m for a, m in zip(A1, _matmul2(A1, A0))]
        k3 = [a + (0.5 * h) * m for a, m in zip(A1, _matmul2(A1, k2))]
        k4 = [a + h * m for a, m in zip(A2, _matmul2(A2, k3))]
        for out, a0, b, c, d in zip(P, A0, k2, k3, k4):
            np.multiply(h / 6.0, a0 + 2 * b + 2 * c + d, out=out[lo:hi])
    P[0] += 1.0
    P[3] += 1.0
    return P


def _ordered_product(P: Sequence[np.ndarray]) -> np.ndarray:
    """P[n-1] ... P[1] P[0] of matrices given as four entry arrays, by
    pairwise tree reduction: each level multiplies neighbours in one batched
    product, and an odd last factor is folded into the last pair.  Returns
    the 2x2 product."""
    while len(P[0]) > 1:
        n = len(P[0])
        m = n - n % 2
        pairs = _matmul2([x[1:m:2] for x in P], [x[0:m:2] for x in P])
        if n % 2:
            last = _matmul2([x[-1:] for x in P], [x[-1:] for x in pairs])
            for x, y in zip(pairs, last):
                x[-1:] = y
        P = pairs
    return np.array(P).reshape(2, 2)


def transfer_matrix(M: LaxMatrix, data, lam_values: Sequence[complex], direction: str,
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

    M must hold x-jets only: substitute the evolution rules for its t-jets
    first (``LaxMatrix.substitute``).
    """
    if len(lam_values) == 0:
        raise ValueError("lam_values is empty; give at least one spectral parameter")
    jets = M.jets()
    if any(v.dt for v in jets):
        raise ValueError("matrix contains t-jets; substitute the evolution rules first")
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
        n = traj.fine_fields.shape[1]
        if not 0 <= station < n:
            raise ValueError(f"station must satisfy 0 <= station < n, got station={station}, n={n}")
        derivs = _station_derivatives(traj.fine_fields, traj.half_length, station, order)
        h = 2 * (traj.fine_times[1] - traj.fine_times[0])
    else:
        raise ValueError("direction must be 'along_x' or 'along_t'")

    arrays = _entry_arrays(M, _jet_values(derivs, jets), data.kappa, derivs[0].size)
    # one lambda at a time: stacking them is no faster and multiplies the
    # transient per-step entry arrays by the number of lambdas
    mats = [_ordered_product(_step_propagators(arrays, lam, h)) for lam in lam_values]
    sample = MonodromySample(list(lam_values), mats, direction)
    bad = sample.det_errors().max()
    if not np.isfinite(bad):            # a NaN would pass `bad > det_tol`
        raise ValueError(f"transfer matrix is not finite (determinant error {bad})")
    if bad > det_tol:
        raise ValueError(f"transfer matrix determinant deviates from 1 by {bad:.2e}")
    return sample


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------


# the convergence study's plane wave; the grid is kept small so the coarsest
# step sits inside the stability region of the explicit scheme and the error
# stays above roundoff
_CONV_GRID = 32
_CONV_HALF_LENGTH = np.pi
_CONV_KAPPA = 1.0
_CONV_AMPLITUDE = 0.8
_CONV_MODE = 1
_CONV_T_END = 0.5


def plane_wave_convergence(base_steps: int = 100, refinements: int = 3) -> list[dict]:
    """Max pointwise error against the exact plane wave at successive step
    halvings; 4th-order stepping means successive ratios near 16."""
    rows = []
    prev = None
    for r in range(refinements):
        steps = base_steps * 2**r
        st = plane_wave(_CONV_GRID, _CONV_HALF_LENGTH, _CONV_KAPPA, _CONV_AMPLITUDE, _CONV_MODE)
        traj = evolve_nls(st, (0.0, _CONV_T_END), steps, n_snapshots=2)
        exact = plane_wave_exact(st, _CONV_MODE, _CONV_AMPLITUDE, _CONV_T_END)
        err = float(np.max(np.abs(traj.snapshots[-1] - exact)))
        row = {"steps": steps, "error": err}
        if prev is not None and err > 0:
            row["ratio"] = prev / err
        rows.append(row)
        prev = err
    return rows
