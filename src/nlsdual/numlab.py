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
lands directly in its row of the recorded fields or of the streaming ring,
and a single reduction,
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
line (a supersampled snapshot, or one station for every time step); one jet
evaluator maps them onto psi/psibar jets.  The ODE is linear, so each RK4
step is a 2x2 propagator: for each lambda they are written into one array
per matrix entry, and their ordered product is taken by pairwise tree
reduction.  Zero entries stay out of the lambda-sum (x + 0 is x), and the
samples at the start, middle and end of each step are strided views of the
lambda-sum, not fancy-indexed copies.

A transfer consumes its samples ``_BLOCK_STEPS`` = 1024 steps at a time,
blocks in the outer loop: a block takes its station jets (or its slice of
the x-jets), evaluates M's entries on them once, builds every lambda's
propagators and reduces them by the first L = min(v2(n_steps), 10) levels
of the product tree.  The blocks start at multiples of 2^L and no level up
to L has an odd length, so each block's partial products are exactly its
slice of the whole tree's level-L array, and only those (125 per lambda for
4000 steps) outlive the block; the tree is finished from them, for every
lambda in one batched product per level.  So every element sees the same
operations in the same order as on full-length arrays, and nothing changes
a bit.  A block's samples, entries, stages and temporaries (about 0.5 MB)
stay in a core's L2 cache; at full length an along-t transfer of an
8001-step trajectory held station jets, entry arrays and propagators of
1.96 MB (tracemalloc), in blocks 0.86 MB.  Per station, with four lambdas,
the propagators and their product took 3.7-5.5 ms in blocks of 1024 steps,
against 5.1-8.9 ms in blocks of 512, 4.0-6.0 ms in blocks of 2048 and
4.2-7.2 ms at full length (min of 30, in three rounds on a shared 2-vCPU
VM).  A process's first call of some numpy loops (np.power, an integer
remainder, argmax) raises its peak RSS by about 0.12 MB each, so the
transfers call none that the rest of a run does not need.  The same holds
for LAPACK: a first ``np.linalg.det`` raised it by 0.19-0.31 MB, so the
determinant check reads ad - bc in closed form off the (lambdas, 2, 2)
array of transfers, and the traces are a00 + a11, bit for bit np.trace.

Along t, each station derivative is one dot product per time step
(``np.vecdot``), which OpenBLAS runs as ``zdotc`` on the calling thread.  A
matrix-vector product ``fields @ filt`` would go to OpenBLAS's threaded
``zgemv``, whose hand-off to its worker threads took a median 8.0 ms per
call on a 2-vCPU VM, on a 401 x 32 record and an 8001 x 256 one alike; the
per-row dots took 0.018 ms and 1.5-2.4 ms.  No thread count is set here:
that would be a process-wide side effect of importing the library.  The
jets come from one of two places, and one kernel, ``_station_jets``, takes
them in both: psi by column, and each x-derivative at every station and
order with one broadcast ``np.vecdot``, still one ``zdotc`` per row.  A run
recorded with ``record_fine`` keeps every step (8001 x 256 complex values
are 33 MB), and the transfer applies the kernel to each block's rows.  A
run told its stations and x-order up front streams them instead:
``evolve_nls`` keeps the last ``_RING_ROWS`` = 64 steps in a ring and
applies the kernel to it whenever it is full, so the streamed jets and
every transfer from them are bit for bit those of the record.

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
    ik = 1j * _wavenumbers(n, half_length)
    # x ** 1 is x bit for bit, and a process that takes only first
    # derivatives then never calls np.power (module docstring)
    mult = ik if order == 1 else ik ** order
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
    """Snapshots of an evolution run.  ``fine_fields`` (shape (n_steps+1, N))
    holds every time step when the run was recorded and is None otherwise.
    ``station_jets`` (shape (len(stations), order+1, n_steps+1)) holds psi
    and its x-derivatives up to the streamed order at each of ``stations``
    for every time step when the run streamed them, and is None otherwise.
    ``fine_times`` holds the time of every step when either is set."""

    __slots__ = ("times", "snapshots", "half_length", "kappa", "fine_times", "fine_fields",
                 "stations", "station_jets")

    def __init__(self, times: np.ndarray, snapshots: list[np.ndarray], half_length: float,
                 kappa: float):
        self.times = times
        self.snapshots = snapshots
        self.half_length = half_length
        self.kappa = kappa
        self.fine_times: np.ndarray | None = None
        self.fine_fields: np.ndarray | None = None
        self.stations: tuple[int, ...] = ()
        self.station_jets: np.ndarray | None = None

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


# rows of the ring that evolve_nls keeps when it streams station jets: each
# flush computes the jets of up to this many steps with one broadcast vecdot,
# where one vecdot per step would cost a call per step and station
_RING_ROWS = 64


def evolve_nls(initial: GridState, t_span: tuple[float, float], steps: int,
               n_snapshots: int = 5, record_fine: bool = False, stations: Sequence[int] = (),
               station_order: int = 0) -> Trajectory:
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
    is written straight into row s of ``fine_fields`` when the run is
    recorded; otherwise into row s mod ``_RING_ROWS`` of a ring when it
    streams ``stations``, or over one row in place.  Streaming fills
    ``station_jets`` with psi and its x-derivatives up to ``station_order``
    at each station: every ``_RING_ROWS`` steps (and after the last)
    ``_station_jets`` takes them from the rows held since the last flush,
    the kernel that ``transfer_matrix`` applies to a recorded run, so the
    jets are bit for bit those it takes from the record.  One
    reduction per step, |psi|^2 summed, aborts on norm blowup (step-size
    instability), NaN or inf.  Returns exactly ``n_snapshots`` snapshots,
    evenly spaced in steps.
    """
    if steps < 1 or not 1 <= n_snapshots <= steps + 1:
        raise ValueError(f"need steps >= 1 and 1 <= n_snapshots <= steps + 1, "
                         f"got steps={steps}, n_snapshots={n_snapshots}")
    t0, t1 = t_span
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got t_span=({t0}, {t1})")
    n, L, kap = initial.n, initial.half_length, initial.kappa
    stations = tuple(stations)
    if not all(0 <= q < n for q in stations) or station_order < 0:
        raise ValueError(f"need 0 <= station < n and station_order >= 0, got stations={stations}, "
                         f"n={n}, station_order={station_order}")
    dt = (t1 - t0) / steps
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

    # step s goes to rows[s % nrows]: its own row when recorded, a ring row
    # when streamed, else the one row, updated in place
    nrows = steps + 1 if record_fine else _RING_ROWS if stations else 1
    rows = np.empty((nrows, n), dtype=complex)
    psi = rows[0]
    psi[:] = initial.samples
    if stations:
        filters = _station_filters(n, L, stations, station_order)
        jets = np.empty((len(stations), station_order + 1, steps + 1), dtype=complex)

        def flush(last):
            """The station jets of steps first..last, whose rows the ring holds."""
            first = last - last % _RING_ROWS
            held = rows[first % nrows:last % nrows + 1]
            jets[:, :, first:last + 1] = _station_jets(held, stations, filters)

    flush_at = min(_RING_ROWS - 1, steps) if stations else -1
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
        if s == flush_at:
            flush(s)
            flush_at = min(s + _RING_ROWS, steps)
        if s in snap_at:
            times.append(t0 + s * dt)
            snaps.append(psi.copy())
    traj = Trajectory(np.array(times), snaps, L, kap)
    if record_fine or stations:
        traj.fine_times = t0 + dt * np.arange(steps + 1)
    if record_fine:
        traj.fine_fields = rows
    if stations:
        traj.stations, traj.station_jets = stations, jets
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


def _station_filters(n: int, half_length: float, stations: Sequence[int],
                     order: int) -> np.ndarray:
    """Row ``station`` of the k-th spectral derivative matrix on n points,
    conjugated for ``np.vecdot``, for each station and k = 1..order: shape
    (len(stations), order, n).  Spectral differentiation is circulant, so
    that row is the derivative f of a unit impulse at index 0, read at
    (station - j) mod n: f reversed and rolled by station + 1, which copies
    and takes no integer remainder (module docstring)."""
    impulse = np.zeros(n, dtype=complex)
    impulse[0] = 1.0
    out = np.empty((len(stations), order, n), dtype=complex)
    for k in range(order):
        reversed_filt = np.conj(spectral_derivative(impulse, half_length, k + 1))[::-1]
        for i, station in enumerate(stations):
            out[i, k] = np.roll(reversed_filt, station + 1)
    return out


def _station_jets(rows: np.ndarray, stations: Sequence[int], filters: np.ndarray) -> np.ndarray:
    """psi and its x-derivatives at each grid index of ``stations`` for every
    row of ``rows``, given their ``_station_filters``: shape (len(stations),
    order + 1, len(rows)).  psi is read off by column, and the derivatives
    are one broadcast ``np.vecdot`` (which conjugates its first argument),
    one dot product per row, station and order, not a matrix-vector ``@``:
    see the module docstring."""
    jets = np.empty((len(stations), filters.shape[1] + 1, len(rows)), dtype=complex)
    for i, station in enumerate(stations):
        jets[i, 0] = rows[:, station]
    np.vecdot(filters[:, :, None, :], rows, out=jets[:, 1:])
    return jets


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
    __slots__ = ("matrices",)

    def __init__(self, matrices: np.ndarray):
        self.matrices = matrices            # (lambdas, 2, 2) complex transfer matrices

    def traces(self) -> np.ndarray:
        m = self.matrices
        return m[:, 0, 0] + m[:, 1, 1]

    def det_errors(self) -> np.ndarray:
        """|ad - bc - 1| per matrix, in closed form: no LAPACK call."""
        m = self.matrices
        return np.abs(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0] - 1.0)


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


# steps per block of a transfer: a block's samples, entry values, lambda-sums,
# RK4 stages and their temporaries (about 0.5 MB at 1024 steps) stay in a
# core's L2 cache; 1024 was faster than 512 and 2048 (module docstring).  A
# power of two, so that the blocks are aligned with the product tree's levels
_BLOCK_STEPS = 1024


def _step_propagators(entry_arrays: Mapping[int, tuple[np.ndarray | None, ...]], lam: complex,
                      h: float) -> list[np.ndarray]:
    """The RK4 step maps T -> P_j T of T' = A(s; lam) T for every step j, as
    four entry arrays of length n_steps.

    A = sum_p lam^p E_p is given at half-steps, 2*n_steps+1 points: the
    start, middle and end of each step are strided views of its lambda-sum,
    not fancy-indexed copies.  P_j is the RK4 stage formula applied to
    T = I."""
    # zero entries are left out of the lambda-sum: x + 0 is x, and 1.0 * x
    # is x, so the lambda^0 term is used as it is
    terms = [[a if p == 0 else lam**p * a for p, arrs in entry_arrays.items()
              if (a := arrs[i]) is not None] for i in range(4)]
    A = [sum(t[1:], t[0]) for t in terms]
    A0, A1, A2 = [a[0:-1:2] for a in A], [a[1::2] for a in A], [a[2::2] for a in A]
    k2 = [a + (0.5 * h) * m for a, m in zip(A1, _matmul2(A1, A0))]
    k3 = [a + (0.5 * h) * m for a, m in zip(A1, _matmul2(A1, k2))]
    k4 = [a + h * m for a, m in zip(A2, _matmul2(A2, k3))]
    P = [(h / 6.0) * (a0 + 2 * b + 2 * c + d) for a0, b, c, d in zip(A0, k2, k3, k4)]
    P[0] += 1.0
    P[3] += 1.0
    return P


def _pair_level(P: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """One level of the pairwise product tree of matrices given as four entry
    arrays, along their last axis: P[2k+1] P[2k] for each pair, in one
    batched product, with an odd last factor folded into the last pair."""
    n = P[0].shape[-1]
    m = n - n % 2
    pairs = _matmul2([x[..., 1:m:2] for x in P], [x[..., 0:m:2] for x in P])
    if n % 2:
        last = _matmul2([x[..., -1:] for x in P], [x[..., -1:] for x in pairs])
        for x, y in zip(pairs, last):
            x[..., -1:] = y
    return pairs


def _ordered_product(P: Sequence[np.ndarray]) -> np.ndarray:
    """P[n-1] ... P[1] P[0] of matrices given as four entry arrays, by
    pairwise tree reduction along their last axis (``_pair_level`` until one
    factor is left).  Returns the 2x2 product, or one for each index of the
    leading axes."""
    while P[0].shape[-1] > 1:
        P = _pair_level(P)
    return np.stack([x[..., 0] for x in P], axis=-1).reshape(P[0].shape[:-1] + (2, 2))


def _block_products(entries, n_steps: int, lam_values: Sequence[complex],
                    h: float) -> np.ndarray:
    """The ordered product of the RK4 step propagators of every lambda, with
    the steps taken ``_BLOCK_STEPS`` at a time.

    ``entries(lo, hi)`` returns M's entry arrays (``_entry_arrays``) at the
    2(hi - lo) + 1 half-step points of steps lo..hi-1.  Each block is asked
    for them once, builds every lambda's propagators from them and reduces
    them by the first ``levels`` levels of the product tree,
    levels = min(v2(n_steps), log2 _BLOCK_STEPS).  Up to that level no level
    has an odd length, and the blocks start at multiples of 2^levels, so a
    block reduces to exactly its slice of the whole tree's level-``levels``
    array; only those partial products outlive the block, and
    ``_ordered_product`` finishes the tree from them, every lambda's in one
    batched product per level.  Every element thus sees the operations of
    the whole-array tree in the same order, and the products do not depend
    on the block size."""
    levels = min((n_steps & -n_steps).bit_length(), _BLOCK_STEPS.bit_length()) - 1
    partial: list[list[tuple[np.ndarray, ...]]] = [[] for _ in lam_values]
    for lo in range(0, n_steps, _BLOCK_STEPS):
        arrays = entries(lo, min(lo + _BLOCK_STEPS, n_steps))
        for lam, parts in zip(lam_values, partial):
            P = _step_propagators(arrays, lam, h)
            for _ in range(levels):
                P = _pair_level(P)
            parts.append(P)
    # entry i of every lambda's partial products: one (lambdas, n_steps / 2^levels) array
    rest = [np.array([np.concatenate([block[i] for block in parts]) for parts in partial])
            for i in range(4)]
    return _ordered_product(rest)


def transfer_matrix(M: LaxMatrix, data, lam_values: Sequence[complex], direction: str,
                    station: int = 0, det_tol: float = 1e-6,
                    substeps: int = 2) -> MonodromySample:
    """Fundamental solution of d/ds Psi = M(s; lam) Psi across one period.

    direction 'along_x': ``data`` is a GridState (one snapshot); the entries
    of M are sampled on a spatial grid supersampled by ``2 * substeps``, and
    the integration step is ``step / substeps``.
    direction 'along_t': ``data`` is a Trajectory recorded with
    ``record_fine=True``, or one that streamed ``station`` to at least M's
    x-derivative order; the entries are evaluated at the x-index ``station``
    for every step, and the integration step is two steps so midpoints are
    available.

    The samples are consumed ``_BLOCK_STEPS`` steps at a time
    (``_block_products``): a block takes its jets (along t from a record,
    ``_station_jets`` of the block's rows, or a slice of the streamed
    jets), evaluates M's entries on them once, and keeps only each lambda's
    partial tree products, so nothing of full length is built beyond the
    jets along x.  Raises ValueError naming the direction, the station
    (along t), the lambda and its determinant error when a matrix is not
    finite or its determinant is more than ``det_tol`` from 1.

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

        def samples(a, b):
            return [d[a:b] for d in derivs]
        npts = psi_fine.size            # a periodic line: the last step ends on point 0
        h = state.step / substeps
        where = "along_x"
    elif direction == "along_t":
        traj: Trajectory = data
        if traj.fine_fields is not None:
            fields = traj.fine_fields
            n = fields.shape[1]
            if not 0 <= station < n:
                raise ValueError(f"station must satisfy 0 <= station < n, got station={station}, n={n}")
            filters = _station_filters(n, traj.half_length, [station], order)

            def samples(a, b):
                return _station_jets(fields[a:b], [station], filters)[0]
        elif station in traj.stations and order < traj.station_jets.shape[1]:
            streamed = traj.station_jets[traj.stations.index(station)]

            def samples(a, b):
                return streamed[:order + 1, a:b]
        else:
            raise ValueError(f"time-direction transfer at station {station} to x-order {order} "
                             "needs a trajectory recorded with record_fine=True or streamed "
                             "at that station to that order")
        npts = traj.fine_times.size
        if npts % 2 == 0:
            raise ValueError("need an even number of steps (odd number of records)")
        h = 2 * (traj.fine_times[1] - traj.fine_times[0])
        where = f"along_t at station {station}"
    else:
        raise ValueError("direction must be 'along_x' or 'along_t'")

    def entries(lo, hi):
        if 2 * hi < npts:
            derivs = samples(2 * lo, 2 * hi + 1)
        else:       # the periodic line's last step ends on the first point
            derivs = [np.concatenate(p) for p in zip(samples(2 * lo, npts), samples(0, 1))]
        return _entry_arrays(M, _jet_values(derivs, jets), data.kappa, derivs[0].size)

    # one lambda at a time within a block: stacking them is no faster and
    # multiplies the block's transient arrays by the number of lambdas
    mats = _block_products(entries, npts // 2, lam_values, h)
    sample = MonodromySample(mats)
    # the passing path takes only the max, no argmax (module docstring)
    errors = sample.det_errors()
    worst = errors.max()
    if not np.isfinite(worst):          # a NaN would pass `worst > det_tol`
        j = next(i for i, e in enumerate(errors) if not math.isfinite(e))
        raise ValueError(f"{where}: transfer matrix is not finite at lam={lam_values[j]} "
                         f"(determinant error {errors[j]})")
    if worst > det_tol:
        j = list(errors).index(worst)
        raise ValueError(f"{where}: transfer matrix determinant deviates from 1 by {worst:.2e} "
                         f"at lam={lam_values[j]} (tolerance {det_tol:.0e})")
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
