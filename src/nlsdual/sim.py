"""The checks of ``nlsdual sim``: numerical conservation on an NLS run.

``nlsdual.cli`` imports this module when ``sim`` runs and builds the report
from what ``run`` returns, so the exact commands compile neither this module
nor numpy and numlab, which it imports.
"""

from __future__ import annotations

import math
import os
import sys

from . import hierarchy


# the variables by which a user chooses OpenBLAS's thread count, in the order
# OpenBLAS reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run(args) -> tuple[bool, dict]:
    """Whether every check passed, and the report body.  Raises ValueError
    naming the flag for arguments that no run can use."""
    # Nothing sim computes is large enough for OpenBLAS to hand to its worker
    # threads, whose pool starts with numpy and lengthens its import, so sim
    # asks for one thread unless the user chose a count or numpy is loaded
    # already (its pool has started).
    if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy as np
    from . import numlab

    n, L, kappa = args.grid, np.pi, args.kappa
    if not math.isfinite(kappa):
        raise ValueError(f"--kappa must be finite, got {kappa}")
    # checked here so that the error names the flag, not the numlab argument
    # or numpy call it would break
    if n < 16:
        raise ValueError(f"--grid must be at least 16, got {n}")
    if args.steps < 4:
        raise ValueError(f"--steps must be at least 4 (the run records 5 snapshots), got {args.steps}")
    if args.check == "monodromy" and args.steps % 2:
        raise ValueError(f"--check monodromy needs an even --steps (the t-transfer takes two "
                         f"steps at a time), got {args.steps}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    # drift < inf passes whatever the drift, drift < nan or < 0 never passes, and
    # a span of 0 compares the initial state with itself, so every check passes
    for flag, value in (("--tol", args.tol), ("--t-end", args.t_end)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and positive, got {value}")
    if args.csv and args.check != "charges":
        raise ValueError("--csv writes the charge time series, so it needs --check charges")
    if args.case == "planewave":
        if not kappa > 0:
            # the amplitude^2 (2 pi - k^2) / (2 kappa) would be negative or infinite
            raise ValueError(f"the plane-wave case needs --kappa > 0 (defocusing), got {kappa}")
        mode = 2
        k = mode * np.pi / L
        amp = float(np.sqrt((2 * np.pi - k * k) / (2 * kappa)))
        state = numlab.plane_wave(n, L, kappa, amp, mode)
    else:
        # only this case draws a random number: numpy.random loads here alone
        rng = np.random.default_rng(args.seed)
        x = -L + (2 * L / n) * np.arange(n)
        prof = 0.7 + 0.2 * np.cos(x) + 0.1 * rng.standard_normal()
        state = numlab.GridState(prof * np.exp(1j * x), L, kappa)

    U = hierarchy.build_u()
    # the t-transfers' stations and x-order are known up front, so the run
    # streams their jets rather than recording every step
    V2, stations, order = None, (), 0
    if args.check == "monodromy" and args.case == "planewave":
        V2 = hierarchy.generate_partner(U, +1, 2)
        stations = (0, n // 4, n // 2, (3 * n) // 4)
        order = max(v.dx for v in V2.jets())
    traj = numlab.evolve_nls(state, (0.0, args.t_end), args.steps, n_snapshots=5,
                             stations=stations, station_order=order)
    body: dict = {"case": args.case, "kappa": kappa}
    ok = True
    if args.check == "charges":
        ladder = hierarchy.density_ladder(U, 4)
        drifts = []
        series = []
        for i, d in enumerate(ladder, start=1):
            ch = numlab.charge_evaluate(d, traj)
            series.append(ch)
            scale = max(1e-12, float(np.abs(ch[0])))
            drift = float(np.max(np.abs(ch - ch[0])) / scale)
            drifts.append({"n": i, "value": complex(ch[0]), "rel_drift": drift})
            ok = ok and drift < args.tol
        body["charges"] = drifts
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write("time," + ",".join(f"charge_{i}" for i in range(1, len(series) + 1)) + "\n")
                for row, t in enumerate(traj.times):
                    vals = ",".join(repr(float(series[i][row].real)) for i in range(len(series)))
                    fh.write(f"{float(t)!r},{vals}\n")
            body["csv"] = args.csv
    else:
        lams = [0.5, -1.0, 1.5, 2.2, -1.7, 0.8, 2.7, -0.4]
        sub = max(2, 512 // n)      # keep the x-integration step resolution-independent
        traces = []
        for i in range(len(traj.snapshots)):
            s = numlab.transfer_matrix(U, traj.state(i), lams, "along_x",
                                       det_tol=1e-8, substeps=sub)
            traces.append(s.traces())
        traces = np.array(traces)
        drift_u = float(np.max(np.abs(traces - traces[0]) / np.abs(traces[0])))
        body["space_monodromy_trace_drift"] = drift_u
        ok = drift_u < args.tol
        if V2 is not None:
            trs = []
            for station in stations:
                s = numlab.transfer_matrix(V2, traj, lams, "along_t",
                                           station=station, det_tol=1e-8)
                trs.append(s.traces())
            trs = np.array(trs)
            drift_v = float(np.max(np.abs(trs - trs[0]) / np.abs(trs[0])))
            body["time_monodromy_trace_drift"] = drift_v
            ok = ok and drift_v < args.tol
        body["convergence"] = numlab.plane_wave_convergence(base_steps=100)
    return ok, body
