"""Grid evolution, charge evaluation and transfer matrices."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nlsdual import numlab as N
from nlsdual.hierarchy import build_u, density_ladder, evolution_rules, generate_partner
from nlsdual.laxalg import LaxMatrix
from helpers import (pj, qj, v, entry_arrays_dense, entry_columns, evolve_nls_per_stage,
                     ordered_product_stacked, rk4_transfer_sequential, station_derivatives_matmul,
                     step_propagators_stacked, transfer_along_t_per_record)

U = build_u()


def _generic_field(n: int = 128) -> N.GridState:
    """A smooth field whose modulus varies in x, so stations differ."""
    L = np.pi
    x = -L + (2 * L / n) * np.arange(n)
    return N.GridState((0.6 + 0.2 * np.cos(x)) * np.exp(1j * np.sin(x)), L, 1.0)


def test_grid_state_validation():
    with pytest.raises(ValueError):
        N.GridState(np.zeros(4), 1.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_grid_state_rejects_non_finite_samples(bad):
    samples = np.ones(32, dtype=complex)
    samples[7] = bad
    with pytest.raises(ValueError, match="finite"):
        N.GridState(samples, np.pi, 1.0)


@pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf])
def test_grid_state_rejects_a_non_finite_kappa(kappa):
    with pytest.raises(ValueError, match="kappa must be finite"):
        N.GridState(np.ones(32, dtype=complex), np.pi, kappa)


@pytest.mark.parametrize("half_length", [0.0, -1.0, np.inf, np.nan])
def test_grid_state_rejects_a_bad_half_length(half_length):
    with pytest.raises(ValueError, match="half_length must be finite and > 0"):
        N.GridState(np.ones(32, dtype=complex), half_length, 1.0)


def test_plane_wave_evolution_matches_dispersion():
    # omega = k^2 + 2 kappa A^2, matched pointwise
    st = N.plane_wave(64, np.pi, 1.0, 0.75, 1)
    traj = N.evolve_nls(st, (0.0, 1.0), 2000, n_snapshots=3)
    exact = N.plane_wave_exact(st, 1, 0.75, 1.0)
    assert np.max(np.abs(traj.snapshots[-1] - exact)) < 1e-8


def test_zero_field_stays_zero():
    st = N.GridState(np.zeros(32), np.pi, 1.0)
    traj = N.evolve_nls(st, (0.0, 1.0), 100, n_snapshots=2)
    assert np.max(np.abs(traj.snapshots[-1])) == 0.0


def test_free_schroedinger_phase_rotation():
    st = N.plane_wave(64, np.pi, 0.0, 0.5, 3)
    traj = N.evolve_nls(st, (0.0, 0.25), 800, n_snapshots=2)
    k = 3.0
    exact = st.samples * np.exp(-1j * k * k * 0.25)
    assert np.max(np.abs(traj.snapshots[-1] - exact)) < 1e-9


def test_evolution_is_bitwise_the_per_stage_reference():
    st = _generic_field(64)
    steps, span = 301, (0.0, 0.1)
    traj = N.evolve_nls(st, span, steps, n_snapshots=4, record_fine=True)
    assert np.array_equal(traj.fine_fields, evolve_nls_per_stage(st, span, steps))
    rows = [int(np.flatnonzero(traj.fine_times == t)[0]) for t in traj.times]
    assert len(rows) == 4 and rows[0] == 0 and rows[-1] == steps
    for row, snap in zip(rows, traj.snapshots):
        assert np.array_equal(snap, traj.fine_fields[row])


def _workload_plane_wave() -> N.GridState:
    """The benchmark's 256-point mode-2 plane wave, whose time period is 1."""
    k = 2.0
    return N.plane_wave(256, np.pi, 1.0, float(np.sqrt((2 * np.pi - k * k) / 2.0)), 2)


@pytest.mark.parametrize("make, span, steps", [
    (lambda: _generic_field(33), (0.0, 0.1), 300),
    (lambda: N.GridState(_generic_field(64).samples, np.pi, -1.0), (0.0, 0.1), 300),
    (_workload_plane_wave, (0.0, 200 / 8000), 200),
    (lambda: _generic_field(16), (0.0, 0.1), 300),
    (lambda: N.GridState(_generic_field(64).samples, np.pi, 0.37), (0.0, 0.1), 300),
], ids=["odd-grid-33", "kappa-minus-1", "workload-plane-wave-256", "min-grid-16", "kappa-0.37"])
def test_evolution_is_bitwise_the_per_stage_reference_across_cases(make, span, steps):
    st = make()
    traj = N.evolve_nls(st, span, steps, n_snapshots=3, record_fine=True)
    assert np.array_equal(traj.fine_fields, evolve_nls_per_stage(st, span, steps))


@pytest.mark.slow
def test_workload_trajectory_is_bitwise_the_per_stage_reference():
    # the benchmark's whole run, 8000 steps over one time period; the default
    # suite checks its first 200 steps
    st = _workload_plane_wave()
    traj = N.evolve_nls(st, (0.0, 1.0), 8000, n_snapshots=5, record_fine=True)
    assert np.array_equal(traj.fine_fields, evolve_nls_per_stage(st, (0.0, 1.0), 8000))


def test_unrecorded_evolution_snapshots_are_bitwise_the_per_stage_reference():
    st = _generic_field(64)
    steps, span = 301, (0.0, 0.1)
    traj = N.evolve_nls(st, span, steps, n_snapshots=5, record_fine=False)
    assert traj.fine_fields is None and traj.fine_times is None
    ref = evolve_nls_per_stage(st, span, steps)
    rows = [round(i * steps / 4) for i in range(5)]
    dt = (span[1] - span[0]) / steps
    assert np.array_equal(traj.times, [span[0] + r * dt for r in rows])
    assert len(traj.snapshots) == 5
    # the stepper updates one row in place, so a snapshot that was a view of
    # it would be overwritten by later steps
    for row, snap in zip(rows, traj.snapshots):
        assert np.array_equal(snap, ref[row])


@pytest.mark.parametrize("n", [16, 33, 256])
def test_fft_kernels_are_bitwise_numpy_fft(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fft, ifft, fwd, inv = N._fft_kernels(n)
    out = np.empty(n, dtype=complex)
    assert fft(a, fwd, out) is out
    assert np.array_equal(out, np.fft.fft(a))
    assert ifft(a, inv, out) is out
    assert np.array_equal(out, np.fft.ifft(a))


def test_numlab_import_does_not_load_numpy_fft():
    # the stepper looks its FFT kernels up on first call, not at import
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, nlsdual.numlab; print(sorted(m for m in sys.modules if m.startswith('numpy.fft')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("span", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)])
def test_evolution_rejects_a_non_finite_time_span(span):
    st = N.plane_wave(32, np.pi, 1.0, 0.5, 1)
    with pytest.raises(ValueError, match="t_span"):
        N.evolve_nls(st, span, 10)


@pytest.mark.parametrize("steps, n_snapshots", [(2, 5), (0, 1), (0, 2), (-3, 2), (10, 0)])
def test_evolution_rejects_snapshot_counts_it_cannot_return(steps, n_snapshots):
    st = N.plane_wave(32, np.pi, 1.0, 0.5, 1)
    with pytest.raises(ValueError, match="n_snapshots"):
        N.evolve_nls(st, (0.0, 0.1), steps, n_snapshots=n_snapshots)


def test_evolution_returns_every_step_as_a_snapshot():
    st = N.plane_wave(32, np.pi, 1.0, 0.5, 1)
    traj = N.evolve_nls(st, (0.0, 0.1), 4, n_snapshots=5)
    assert len(traj.snapshots) == 5
    assert np.allclose(traj.times, np.linspace(0.0, 0.1, 5))


def test_blowup_detection():
    st = N.plane_wave(64, np.pi, 1.0, 2.0, 1)
    with pytest.raises(FloatingPointError):
        N.evolve_nls(st, (0.0, 1.0), 3, n_snapshots=2)  # absurd step size


def test_blowup_detected_at_the_step_it_happens():
    # the step is unstable but not absurd: steps 1-5 stay finite and below
    # 1e6 (|psi_0| + 1), step 6 passes that limit
    st = N.plane_wave(64, np.pi, 1.0, 1.5, 1)
    with pytest.raises(FloatingPointError, match="at step 6:"):
        N.evolve_nls(st, (0.0, 1.0), 60, n_snapshots=2)
    traj = N.evolve_nls(st, (0.0, 5 / 60), 5, n_snapshots=2)
    assert np.isfinite(traj.snapshots[-1]).all()


def test_mass_charge_on_plane_wave_exact():
    A, L = 0.8, np.pi
    st = N.plane_wave(128, L, 1.0, A, 2)
    traj = N.evolve_nls(st, (0.0, 0.5), 1500, n_snapshots=4)
    mass = density_ladder(U, 1)[0]
    ch = N.charge_evaluate(mass, traj)
    assert np.allclose(ch.real, A * A * 2 * L, rtol=1e-10)
    assert np.max(np.abs(ch - ch[0])) / abs(ch[0]) < 1e-10


def test_energy_charge_on_generic_field():
    traj = N.evolve_nls(_generic_field(), (0.0, 0.4), 4000, n_snapshots=5)
    energy = density_ladder(U, 3)[2]
    ch = N.charge_evaluate(energy, traj)
    assert np.max(np.abs(ch - ch[0])) / abs(ch[0]) < 1e-6


def test_corrupted_trajectory_detected():
    st = N.plane_wave(64, np.pi, 1.0, 0.7, 1)
    traj = N.evolve_nls(st, (0.0, 0.5), 1000, n_snapshots=4)
    mass = density_ladder(U, 1)[0]
    base = N.charge_evaluate(mass, traj)
    traj.snapshots[2] = traj.snapshots[2] + 1e-3
    bad = N.charge_evaluate(mass, traj)
    drift = np.max(np.abs(bad - bad[0])) / abs(bad[0])
    assert drift > 1e-7                     # well above the clean-run drift
    assert np.max(np.abs(base - base[0])) / abs(base[0]) < 1e-10


def test_charge_with_t_jets_needs_rules():
    st = N.plane_wave(64, np.pi, 1.0, 0.7, 1)
    traj = N.evolve_nls(st, (0.0, 0.1), 200, n_snapshots=2)
    dens = v(pj(0, [(2, 1)])) * v(qj())
    with pytest.raises(ValueError, match="substitute the evolution rules first"):
        N.charge_evaluate(dens, traj)
    ch = N.charge_evaluate(dens.substitute(evolution_rules(2)), traj)
    assert np.all(np.isfinite(ch))


def test_free_transfer_matrix_closed_form():
    # psi = 0: T = diag(exp(-i lam L), exp(i lam L)) over the cell of width 2L
    zero = N.GridState(np.zeros(64), np.pi, 1.0)
    lam = 1.3
    s = N.transfer_matrix(U, zero, [lam], "along_x", substeps=4)
    want = np.diag([np.exp(-1j * lam * np.pi), np.exp(1j * lam * np.pi)])
    assert np.max(np.abs(s.matrices[0] - want)) < 1e-8
    assert abs(np.trace(s.matrices[0]) - 2 * np.cos(lam * np.pi)) < 1e-8


def test_transfer_of_a_matrix_with_an_entry_zero_at_every_power():
    # the diagonal part of U alone: its off-diagonal entries are zero at
    # every lambda power, and on any field T = diag(exp(-i lam L), exp(i lam L))
    D = LaxMatrix({1: U.coeffs[1]}, xi="x")
    lam = 1.3
    s = N.transfer_matrix(D, _generic_field(64), [lam], "along_x", substeps=4)
    want = np.diag([np.exp(-1j * lam * np.pi), np.exp(1j * lam * np.pi)])
    assert np.max(np.abs(s.matrices[0] - want)) < 1e-8
    # and the zero matrix, which has no lambda power at all, transfers to I
    s = N.transfer_matrix(LaxMatrix({}, xi="x"), _generic_field(64), [lam], "along_x")
    assert np.array_equal(s.matrices[0], np.eye(2))


def test_traces_and_determinant_errors_against_numpy():
    # traces are np.trace bit for bit; the closed-form ad - bc agrees with
    # LAPACK's determinant to round-off
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    s = N.MonodromySample(m)
    assert np.array_equal(s.traces(), np.array([np.trace(x) for x in m]))
    want = np.array([abs(np.linalg.det(x) - 1.0) for x in m])
    assert np.allclose(s.det_errors(), want, rtol=0, atol=1e-14)


def test_transfer_det_one_and_trace_conservation():
    st = N.plane_wave(128, np.pi, 1.0, 0.9, 2)
    traj = N.evolve_nls(st, (0.0, 0.5), 2000, n_snapshots=3)
    lams = [0.4, -1.1, 1.9]
    traces = []
    for i in range(3):
        s = N.transfer_matrix(U, traj.state(i), lams, "along_x", det_tol=1e-8)
        assert s.det_errors().max() < 1e-8
        traces.append(s.traces())
    traces = np.array(traces)
    assert np.max(np.abs(traces - traces[0]) / np.abs(traces[0])) < 1e-6


def test_time_transfer_requires_fine_recording():
    st = N.plane_wave(64, np.pi, 1.0, 0.7, 1)
    traj = N.evolve_nls(st, (0.0, 0.5), 500, n_snapshots=3)
    V2 = generate_partner(U, 1, 2)
    with pytest.raises(ValueError):
        N.transfer_matrix(V2, traj, [1.0], "along_t")


def test_time_transfer_station_independence_on_periodic_wave():
    # one full temporal period of the plane wave: omega = 2 pi
    n, L, kappa, mode = 128, np.pi, 1.0, 2
    k = mode * np.pi / L
    A = float(np.sqrt((2 * np.pi - k * k) / (2 * kappa)))
    st = N.plane_wave(n, L, kappa, A, mode)
    traj = N.evolve_nls(st, (0.0, 1.0), 4000, n_snapshots=3, record_fine=True)
    V2 = generate_partner(U, 1, 2)
    lams = [0.5, -1.2]
    trs = []
    for station in (0, 32, 77):
        s = N.transfer_matrix(V2, traj, lams, "along_t", station=station, det_tol=1e-8)
        trs.append(s.traces())
    trs = np.array(trs)
    assert np.max(np.abs(trs - trs[0]) / np.abs(trs[0])) < 1e-6


def test_time_transfer_matches_per_record_reference_on_generic_field():
    # on a plane wave every station sees the same data up to a phase, so
    # station agreement cannot catch a wrong station derivative; here the
    # matrices are compared against a per-record FFT evaluation instead
    traj = N.evolve_nls(_generic_field(), (0.0, 0.4), 2000, n_snapshots=2, record_fine=True)
    V2 = generate_partner(U, 1, 2)
    lams = [0.5, -1.2]
    for station in (5, 77):
        got = np.array(N.transfer_matrix(V2, traj, lams, "along_t", station=station,
                                         det_tol=1e-8).matrices)
        want = np.array(transfer_along_t_per_record(V2, traj, lams, station))
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def _assert_station_jets_near_the_matmul(jets, fields, half_length, stations, order):
    """``jets`` (stations, order + 1, rows) against one matrix-vector product
    per station and order.  The k-th derivative filter grows like (n/2)^k
    and its sums cancel, so the error is measured against max |psi| *
    sum |filter|, the largest sum of |summands| a row can have, rather than
    against the result."""
    n = fields.shape[1]
    impulse = np.zeros(n, dtype=complex)
    impulse[0] = 1.0
    scale = [np.max(np.abs(fields)) * np.sum(np.abs(N.spectral_derivative(impulse, half_length, k)))
             for k in range(order + 1)]
    assert jets.shape == (len(stations), order + 1, fields.shape[0])
    for got, station in zip(jets, stations):
        want = station_derivatives_matmul(fields, half_length, station, order)
        assert len(want) == order + 1
        for g, w, sc in zip(got, want, scale):
            assert np.max(np.abs(g - w)) <= 1e-12 * sc


@pytest.mark.parametrize("order", [1, 2, 3])
def test_station_derivatives_match_the_matrix_vector_product(order):
    # the kernel's per-row dots, for three stations at once, against the one
    # matrix-vector product per station and order that they replace
    traj = N.evolve_nls(_generic_field(), (0.0, 0.01), 50, n_snapshots=2, record_fine=True)
    fields, L = traj.fine_fields, traj.half_length
    stations = (0, 5, fields.shape[1] - 1)
    jets = N._station_jets(fields, stations, N._station_filters(fields.shape[1], L, stations, order))
    _assert_station_jets_near_the_matmul(jets, fields, L, stations, order)


@pytest.mark.parametrize("station", [-3, -1, 128, 200])
def test_transfer_along_t_rejects_a_station_off_the_grid(station):
    traj = N.evolve_nls(_generic_field(), (0.0, 0.01), 10, n_snapshots=2, record_fine=True)
    V2 = generate_partner(U, 1, 2)
    with pytest.raises(ValueError, match=f"station={station}, n=128"):
        N.transfer_matrix(V2, traj, [0.5], "along_t", station=station)


def _with_wrap(arr: np.ndarray, periodic: bool) -> np.ndarray:
    """The 2n+1 half-step samples that _step_propagators takes: on a periodic
    line the last step ends on the first point, which is appended."""
    return np.concatenate((arr, arr[:1])) if periodic else arr


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 64, 513])
def test_step_propagator_product_matches_sequential_rk4(n_steps, periodic):
    # random entry arrays at half-steps: 2n points on a periodic line, else 2n+1;
    # odd step counts exercise the fold of the odd last factor in the tree
    rng = np.random.default_rng(n_steps)
    npts = 2 * n_steps + (0 if periodic else 1)
    arrays = {p: rng.standard_normal((npts, 2, 2)) + 1j * rng.standard_normal((npts, 2, 2))
              for p in range(3)}
    lams = [0.3, -1.1 + 0.2j, 1.7]
    h = 1.0 / n_steps
    columns = {p: entry_columns(_with_wrap(arr, periodic)) for p, arr in arrays.items()}
    for lam in lams:
        got = N._ordered_product(N._step_propagators(columns, lam, h))
        want = rk4_transfer_sequential(arrays, lam, h, n_steps)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 7, 64, 513, 1001, 1023, 1024, 1025, 2049, 4000])
def test_entry_array_kernels_match_the_stacked_ones_bitwise(n_steps, periodic):
    # the same operations in the same order on one array per entry, so every
    # propagator and every product is bit for bit that of (n, 2, 2) arrays,
    # on whole arrays as on the blocks of transfer_matrix
    rng = np.random.default_rng(1000 + n_steps)
    npts = 2 * n_steps + (0 if periodic else 1)
    arrays = {p: rng.standard_normal((npts, 2, 2)) + 1j * rng.standard_normal((npts, 2, 2))
              for p in range(3)}
    columns = {p: entry_columns(_with_wrap(arr, periodic)) for p, arr in arrays.items()}
    h = 1.0 / n_steps
    for lam in [0.3, -1.1 + 0.2j, 1.7]:
        P = N._step_propagators(columns, lam, h)
        want_P = step_propagators_stacked(arrays, lam, h)
        assert all(np.array_equal(P[i], want_P[:, i // 2, i % 2]) for i in range(4))
        assert np.array_equal(N._ordered_product(P), ordered_product_stacked(want_P))


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("n_steps", [1, 3, 1023, 1024, 1025, 2049, 3000, 4000, 4096])
def test_block_products_are_bitwise_the_stacked_reference(n_steps, periodic):
    # blocks of _BLOCK_STEPS (1024) steps, each reduced by min(v2(n_steps), 10)
    # tree levels before the whole tree is finished: no level at odd n_steps,
    # 3 at 3000, 5 at 4000 and 10 at 1024 and 4096, in one, two or four
    # blocks, the last one full, short or of one step
    rng = np.random.default_rng(2000 + n_steps)
    npts = 2 * n_steps + (0 if periodic else 1)
    arrays = {p: rng.standard_normal((npts, 2, 2)) + 1j * rng.standard_normal((npts, 2, 2))
              for p in range(3)}
    columns = {p: entry_columns(_with_wrap(arr, periodic)) for p, arr in arrays.items()}
    asked = []

    def entries(lo, hi):
        asked.append((lo, hi))
        return {p: tuple(c[2 * lo:2 * hi + 1] for c in cols) for p, cols in columns.items()}

    lams = [0.3, -1.1 + 0.2j, 1.7]
    h = 1.0 / n_steps
    got = N._block_products(entries, n_steps, lams, h)
    # each block's entries are asked for once, not once per lambda
    assert asked == [(lo, min(lo + N._BLOCK_STEPS, n_steps))
                     for lo in range(0, n_steps, N._BLOCK_STEPS)]
    for lam, g in zip(lams, got):
        assert np.array_equal(g, ordered_product_stacked(step_propagators_stacked(arrays, lam, h)))


def _streamed_and_recorded(state, t_end, steps, stations, order):
    """The same run twice: streaming the jets of ``stations`` to ``order``
    from a ring of rows, and recording every step."""
    streamed = N.evolve_nls(state, (0.0, t_end), steps, n_snapshots=2, stations=stations,
                            station_order=order)
    recorded = N.evolve_nls(state, (0.0, t_end), steps, n_snapshots=2, record_fine=True)
    return streamed, recorded


def _assert_streams_the_record(streamed, recorded, order):
    """Streamed jets, times and snapshots bit for bit those of the record, and
    the jets near the matrix-vector product."""
    fields, L, stations = recorded.fine_fields, recorded.half_length, streamed.stations
    filters = N._station_filters(fields.shape[1], L, stations, order)
    assert streamed.fine_fields is None
    assert np.array_equal(streamed.fine_times, recorded.fine_times)
    assert all(np.array_equal(a, b) for a, b in zip(streamed.snapshots, recorded.snapshots))
    assert np.array_equal(streamed.station_jets, N._station_jets(fields, stations, filters))
    _assert_station_jets_near_the_matmul(streamed.station_jets, fields, L, stations, order)


# steps + 1 rows through a ring of _RING_ROWS (64): one row, a last flush one
# row short of the ring, exactly the ring, one row past it, and so on
@pytest.mark.parametrize("steps", [1, 62, 63, 64, 65, 127, 128, 129, 200])
def test_streamed_station_jets_are_bitwise_the_recorded_ones(steps):
    streamed, recorded = _streamed_and_recorded(_generic_field(64), 0.01, steps, (0, 5, 33, 63), 3)
    _assert_streams_the_record(streamed, recorded, 3)


@pytest.mark.parametrize("steps", [2, 62, 64, 66, 128, 130])
def test_streamed_transfers_are_bitwise_the_recorded_ones(steps):
    V2 = generate_partner(U, 1, 2)
    streamed, recorded = _streamed_and_recorded(_generic_field(64), 0.05, steps, (0, 17, 40), 1)
    lams = [0.5, -1.3, 2.2]
    for station in streamed.stations:
        a, b = (N.transfer_matrix(V2, traj, lams, "along_t", station=station, det_tol=np.inf)
                for traj in (streamed, recorded))
        assert np.array_equal(np.array(a.matrices), np.array(b.matrices))


def _custom_profile(kappa: float) -> N.GridState:
    """``nlsdual sim --case custom`` at its default grid and seed."""
    n, L = 256, np.pi
    x = -L + (2 * L / n) * np.arange(n)
    prof = 0.7 + 0.2 * np.cos(x) + 0.1 * np.random.default_rng(0).standard_normal()
    return N.GridState(prof * np.exp(1j * x), L, kappa)


@pytest.mark.parametrize("case", ["workload", "custom"])
def test_streamed_path_is_bitwise_the_record_path_at_full_size(case):
    # 256 points and 8000 steps, V2 at the workload's four stations: the plane
    # wave of the monodromy workload, and sim's custom case at kappa = 0.37
    state = _workload_plane_wave() if case == "workload" else _custom_profile(0.37)
    V2 = generate_partner(U, 1, 2)
    streamed, recorded = _streamed_and_recorded(state, 1.0, 8000, (0, 64, 128, 192), 1)
    _assert_streams_the_record(streamed, recorded, 1)
    lams = [-2.1, 0.4, 1.3, 2.9]
    for station in streamed.stations:
        a, b = (N.transfer_matrix(V2, traj, lams, "along_t", station=station, det_tol=np.inf)
                for traj in (streamed, recorded))
        assert np.array_equal(np.array(a.matrices), np.array(b.matrices))


def test_along_t_transfer_memory_at_the_workload_size():
    # the samples are consumed a block at a time, so beyond the record the
    # transfer holds one block's jets, entries and stages and the partial
    # products: 0.86 MB traced; built at full length it took 1.96 MB
    traj = N.evolve_nls(_workload_plane_wave(), (0.0, 1.0), 8000, n_snapshots=2, record_fine=True)
    V2 = generate_partner(U, 1, 2)
    lams = [-2.1, 0.4, 1.3, 2.9]
    N.transfer_matrix(V2, traj, lams, "along_t", station=64)
    tracemalloc.start()
    try:
        N.transfer_matrix(V2, traj, lams, "along_t", station=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0e6


def test_streamed_transfer_needs_the_station_and_order():
    # streamed to x-order 0 at stations 3 and 7: a matrix without jets (U's
    # diagonal) transfers at either, V2 (x-order 1) at neither
    traj = N.evolve_nls(_generic_field(), (0.0, 0.01), 10, n_snapshots=2, stations=(3, 7))
    D = LaxMatrix({1: U.coeffs[1]}, xi="t")
    N.transfer_matrix(D, traj, [0.5], "along_t", station=7)
    with pytest.raises(ValueError, match="station 5 to x-order 0"):
        N.transfer_matrix(D, traj, [0.5], "along_t", station=5)
    with pytest.raises(ValueError, match="station 3 to x-order 1"):
        N.transfer_matrix(generate_partner(U, 1, 2), traj, [0.5], "along_t", station=3)


@pytest.mark.parametrize("stations, order", [((-1,), 1), ((128,), 1), ((0,), -1)])
def test_evolution_rejects_stations_off_the_grid_and_a_negative_order(stations, order):
    with pytest.raises(ValueError, match="0 <= station < n"):
        N.evolve_nls(_generic_field(), (0.0, 0.01), 10, stations=stations, station_order=order)


@pytest.mark.parametrize("direction", ["along_x", "along_t"])
def test_transfer_on_lax_data_is_bitwise_the_stacked_reference(direction):
    # U along x and V2 along t, whose zero entries transfer_matrix leaves
    # out, against the stacked kernels fed the same samples with the zeros in
    traj = N.evolve_nls(_generic_field(64), (0.0, 0.05), 200, n_snapshots=2, record_fine=True)
    lams = [0.5, -1.3, 2.2]
    if direction == "along_x":
        M, data = U, traj.state(1)
        derivs = N._x_derivatives(N.spectral_resample(data.samples, 4), data.half_length, 1)
        h = data.step / 2
    else:
        M, data = generate_partner(U, 1, 2), traj
        fields = traj.fine_fields
        derivs = N._station_jets(
            fields, [5], N._station_filters(fields.shape[1], traj.half_length, [5], 1))[0]
        h = 2 * (traj.fine_times[1] - traj.fine_times[0])
    assert any(x.is_zero() for e in M.coeffs.values() for x in e)
    got = N.transfer_matrix(M, data, lams, direction, station=5).matrices
    dense = entry_arrays_dense(M, N._jet_values(derivs, M.jets()), data.kappa, derivs[0].size)
    for lam, g in zip(lams, got):
        assert np.array_equal(g, ordered_product_stacked(step_propagators_stacked(dense, lam, h)))


@pytest.mark.parametrize("direction", ["along_x", "along_t"])
def test_transfer_rejects_empty_lam_values(direction):
    # rejected up front, before the data is sampled or even checked
    st = N.plane_wave(64, np.pi, 1.0, 0.7, 1)
    data = st if direction == "along_x" else N.evolve_nls(st, (0.0, 0.001), 4, n_snapshots=2)
    for lams in ([], np.array([], dtype=complex)):
        with pytest.raises(ValueError, match="lam_values"):
            N.transfer_matrix(U, data, lams, direction)


def test_transfer_along_x_rejects_a_non_finite_matrix():
    # at lam = 1e3 the step propagators overflow: entries -inf+nanj, det NaN
    st = N.plane_wave(32, np.pi, 1.0, 0.5, 1)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        N.transfer_matrix(U, st, [1e3], "along_x", det_tol=1e-8)


def test_transfer_along_t_rejects_a_non_finite_trajectory():
    st = N.plane_wave(32, np.pi, 1.0, 0.5, 1)
    traj = N.evolve_nls(st, (0.0, 0.01), 10, n_snapshots=2, record_fine=True)
    traj.fine_fields[3, 5] = np.nan
    V2 = generate_partner(U, +1, 2)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        N.transfer_matrix(V2, traj, [0.5], "along_t", station=5)


@pytest.mark.parametrize("streamed", [False, True])
def test_transfer_errors_name_the_direction_station_and_lambda(streamed):
    st = N.plane_wave(32, np.pi, 1.0, 0.5, 1)
    kw = {"stations": (5,), "station_order": 1} if streamed else {"record_fine": True}
    traj = N.evolve_nls(st, (0.0, 0.01), 10, n_snapshots=2, **kw)
    V2 = generate_partner(U, +1, 2)
    # a NaN in the trajectory makes every matrix NaN: the first lambda is named
    if streamed:
        traj.station_jets[0, 0, 3] = np.nan
    else:
        traj.fine_fields[3, 5] = np.nan
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"^along_t at station 5: transfer matrix is not finite at "
                              r"lam=0\.5 \(determinant error nan\)$"):
        N.transfer_matrix(V2, traj, [0.5, 1.5], "along_t", station=5)
    # 40 steps over a period are too coarse for lam = 2.7: the worst of the
    # lambdas and its error are named
    st = N.plane_wave(16, np.pi, 1.0, 0.5, 1)
    traj = N.evolve_nls(st, (0.0, 1.0), 40, n_snapshots=2, **kw)
    errors = N.transfer_matrix(V2, traj, [0.5, 2.7, 1.5], "along_t", station=5,
                               det_tol=np.inf).det_errors()
    assert np.argmax(errors) == 1 and errors[1] > 1e-8
    with pytest.raises(ValueError, match=rf"^along_t at station 5: transfer matrix determinant "
                                         rf"deviates from 1 by {errors[1]:.2e} at lam=2\.7 "
                                         rf"\(tolerance 1e-08\)$"):
        N.transfer_matrix(V2, traj, [0.5, 2.7, 1.5], "along_t", station=5, det_tol=1e-8)
    with pytest.raises(ValueError, match=r"^along_x: transfer matrix determinant deviates"):
        N.transfer_matrix(U, traj.state(0), [0.5, 40.0], "along_x", det_tol=0.0)


def test_transfer_rejects_surviving_t_jets():
    D3 = __import__("nlsdual.hierarchy", fromlist=["dual_hierarchy"]).dual_hierarchy(2, 3)
    st = N.plane_wave(64, np.pi, 1.0, 0.7, 1)
    with pytest.raises(ValueError, match="substitute the evolution rules first"):
        N.transfer_matrix(D3, st, [1.0], "along_x")


def test_convergence_is_fourth_order():
    rows = N.plane_wave_convergence(base_steps=100, refinements=3)
    assert rows[1]["ratio"] == pytest.approx(16.0, rel=0.25)
    assert rows[2]["ratio"] == pytest.approx(16.0, rel=0.25)


def test_convergence_errors_are_those_of_the_per_stage_reference():
    rows = N.plane_wave_convergence(base_steps=100, refinements=3)
    # plane_wave_convergence's plane wave: 32 points, kappa 1, A = 0.8, mode 1, t = 0.5
    st = N.plane_wave(32, np.pi, 1.0, 0.8, 1)
    exact = N.plane_wave_exact(st, 1, 0.8, 0.5)
    ref = [float(np.max(np.abs(evolve_nls_per_stage(st, (0.0, 0.5), steps)[-1] - exact)))
           for steps in (100, 200, 400)]
    assert [row["steps"] for row in rows] == [100, 200, 400]
    assert [row["error"] for row in rows] == ref


def test_spectral_resample_band_limited():
    def check(n, factor, f):
        x = np.linspace(0, 2 * np.pi, n, endpoint=False)
        g = N.spectral_resample(f(x), factor)
        x_fine = np.linspace(0, 2 * np.pi, factor * n, endpoint=False)
        assert np.max(np.abs(g - f(x_fine))) < 1e-12
        assert np.max(np.abs(g[::factor] - f(x))) < 1e-12   # the input samples are kept

    check(32, 2, lambda x: np.exp(2j * x) + 0.5 * np.exp(-3j * x))
    # the top resolved mode n // 2: the Nyquist mode for even n
    for n in (16, 17):
        for factor in (2, 3):
            check(n, factor, lambda x: np.cos((n // 2) * x) + 0.5 * np.exp(2j * x))


def test_spectral_derivative_at_the_nyquist_mode():
    # cos(8x) on 16 points is the Nyquist mode: real on the grid, so its odd
    # derivatives vanish at every sample and its even ones stay real
    x = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    f = np.cos(8 * x)
    for order in (1, 3):
        assert np.max(np.abs(N.spectral_derivative(f, np.pi, order))) < 1e-12
    assert np.max(np.abs(N.spectral_derivative(f, np.pi, 2) + 64 * f)) < 1e-12


@pytest.mark.parametrize("n", [16, 17, 256])
def test_first_spectral_derivative_is_bitwise_the_power_form(n):
    # the first derivative takes (ik)^1 as ik, without np.power: the same bits,
    # signed zeros included
    L = 1.7
    samples = _generic_field(n).samples
    mult = (1j * (np.fft.fftfreq(n, d=2.0 * L / n) * 2.0 * np.pi)) ** 1
    if n % 2 == 0:
        mult[n // 2] = 0.0
    want = np.fft.ifft(mult * np.fft.fft(samples))
    assert N.spectral_derivative(samples, L, 1).tobytes() == want.tobytes()


def test_spectral_derivative_rejects_a_negative_order():
    f = np.exp(1j * np.linspace(-np.pi, np.pi, 16, endpoint=False))
    with pytest.raises(ValueError, match="order"):
        N.spectral_derivative(f, np.pi, -1)


@pytest.mark.parametrize("factor", [0, -2, 1.5, 2.0])
def test_spectral_resample_rejects_a_factor_that_is_not_a_positive_integer(factor):
    f = np.exp(1j * np.linspace(-np.pi, np.pi, 16, endpoint=False))
    with pytest.raises(ValueError, match="factor"):
        N.spectral_resample(f, factor)
