"""Grid evolution, charge evaluation and transfer matrices."""

import numpy as np
import pytest

from nlsdual import numlab as N
from nlsdual.hierarchy import build_u, density_ladder, evolution_rules, generate_partner
from nlsdual.ringcore import DiffPoly, JetVar
from helpers import (pj, qj, v, mono, cf, evolve_nls_per_stage, rk4_transfer_sequential,
                     transfer_along_t_per_record)

U = build_u()


def _generic_field(n: int = 128) -> N.GridState:
    """A smooth field whose modulus varies in x, so stations differ."""
    L = np.pi
    x = -L + (2 * L / n) * np.arange(n)
    return N.GridState((0.6 + 0.2 * np.cos(x)) * np.exp(1j * np.sin(x)), L, 1.0)


def test_grid_state_validation():
    with pytest.raises(ValueError):
        N.GridState(np.zeros(4), 1.0, 1.0)


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
    with pytest.raises(ValueError):
        N.charge_evaluate(dens, traj)
    ch = N.charge_evaluate(dens, traj, rules=evolution_rules(2))
    assert np.all(np.isfinite(ch))


def test_free_transfer_matrix_closed_form():
    # psi = 0: T = diag(exp(-i lam L), exp(i lam L)) over the cell of width 2L
    zero = N.GridState(np.zeros(64), np.pi, 1.0)
    lam = 1.3
    s = N.transfer_matrix(U, zero, [lam], "along_x", substeps=4)
    want = np.diag([np.exp(-1j * lam * np.pi), np.exp(1j * lam * np.pi)])
    assert np.max(np.abs(s.matrices[0] - want)) < 1e-8
    assert abs(np.trace(s.matrices[0]) - 2 * np.cos(lam * np.pi)) < 1e-8


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
    for lam in lams:
        got = N._ordered_product(N._step_propagators(arrays, lam, h))
        want = rk4_transfer_sequential(arrays, lam, h, n_steps)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("direction", ["along_x", "along_t"])
def test_transfer_rejects_empty_lam_values(direction):
    # rejected up front, before the data is sampled or even checked
    st = N.plane_wave(64, np.pi, 1.0, 0.7, 1)
    data = st if direction == "along_x" else N.evolve_nls(st, (0.0, 0.001), 4, n_snapshots=2)
    for lams in ([], np.array([], dtype=complex)):
        with pytest.raises(ValueError, match="lam_values"):
            N.transfer_matrix(U, data, lams, direction)


def test_transfer_rejects_surviving_t_jets():
    D3 = __import__("nlsdual.hierarchy", fromlist=["dual_hierarchy"]).dual_hierarchy(2, 3)
    st = N.plane_wave(64, np.pi, 1.0, 0.7, 1)
    with pytest.raises(ValueError):
        N.transfer_matrix(D3, st, [1.0], "along_x")


def test_convergence_is_fourth_order():
    rows = N.plane_wave_convergence(base_steps=100, refinements=3)
    assert rows[1]["ratio"] == pytest.approx(16.0, rel=0.25)
    assert rows[2]["ratio"] == pytest.approx(16.0, rel=0.25)


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
