"""Command-line front end: reproducible verification runs, machine output.

Every subcommand emits a JSON report (schema version 1) carrying its own
configuration, and exits nonzero when any requested identity fails.  LaTeX
and plain-text renderings of matrices are available where they make sense.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import hierarchy

REPORT_VERSION = 1


def _report(command: str, config: dict, status: str, body: dict) -> dict:
    return {"report_version": REPORT_VERSION, "command": command,
            "config": config, "status": status, **body}


def _emit(report: dict, args) -> int:
    text = json.dumps(report, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0 if report["status"] == "pass" else 1


def _matrix_payload(M, fmt: str):
    if fmt == "latex":
        return M.to_latex()
    if fmt == "text":
        return repr(M)
    return M.to_json_obj()


def cmd_gen_v(args) -> int:
    U = hierarchy.build_u()
    V = hierarchy.generate_partner(U, args.gamma, args.level)
    ok = V.trace_zero() and V.sigma_symmetric() and V.level == args.level
    rep = _report("gen-v", {"level": args.level, "gamma": args.gamma, "format": args.format},
                  "pass" if ok else "fail",
                  {"matrix": _matrix_payload(V, args.format),
                   "structure": {"traceless": V.trace_zero(),
                                 "sigma_symmetric": V.sigma_symmetric(),
                                 "graded": V.level == args.level}})
    return _emit(rep, args)


def cmd_gen_dual(args) -> int:
    D = hierarchy.dual_hierarchy(args.base, args.level, rewrite_on_shell=args.on_shell)
    ok = D.trace_zero() and D.sigma_symmetric()
    rep = _report("gen-dual",
                  {"base": args.base, "level": args.level, "on_shell": args.on_shell,
                   "format": args.format},
                  "pass" if ok else "fail",
                  {"matrix": _matrix_payload(D, args.format)})
    return _emit(rep, args)


def cmd_charges(args) -> int:
    U = hierarchy.build_u()
    ladder = hierarchy.density_ladder(U, args.count)
    body = {"densities": []}
    ok = True
    for n, d in enumerate(ladder, start=1):
        real = (d.conjugate() - d).is_zero()
        dim = d.scaling_dimension()
        ok = ok and real and dim == n + 1
        body["densities"].append({
            "n": n, "dimension": dim, "real": real,
            "density": d.to_json_obj() if args.format == "json" else repr(d),
        })
    rep = _report("charges", {"count": args.count, "format": args.format},
                  "pass" if ok else "fail", body)
    return _emit(rep, args)


def cmd_verify_zc(args) -> int:
    U = hierarchy.build_u()
    V = hierarchy.generate_partner(U, +1, args.level)
    try:
        rules = hierarchy.solve_evolution(U, V)
        status = "pass"
        rules_repr = {repr(k): repr(v) for k, v in rules.items()}
    except ValueError as exc:
        status = "fail"
        rules_repr = {"error": str(exc)}
    rep = _report("verify-zc", {"level": args.level}, status,
                  {"evolution_rules": rules_repr})
    return _emit(rep, args)


def _level(prefix: str, text: str) -> int:
    """The level N >= 2 of an argument spelled `<prefix>N`, N in decimal with
    no sign and no leading zero: f"{prefix}{N}" spells the argument back."""
    digits = text.removeprefix(prefix)
    if digits.isdecimal() and f"{prefix}{int(digits)}" == text and int(digits) >= 2:
        return int(digits)
    raise argparse.ArgumentTypeError(f"{text!r} is not {prefix}N for a level N >= 2")


def cmd_verify_rmatrix(args) -> int:
    # brackets is imported by the two commands that use it (this and dirac),
    # so the others start without compiling it
    from . import brackets

    U = hierarchy.build_u()
    if args.matrix == "u":
        name, A, gamma = "u", U, +1
        table = brackets.dirac_pipeline(brackets.build_level_lagrangian(2), "time").table
    else:
        lvl = args.matrix
        name, A, gamma = f"v{lvl}", hierarchy.generate_partner(U, +1, lvl), -1
        table = brackets.dirac_pipeline(brackets.build_level_lagrangian(lvl), "space").table
    report = brackets.verify_rmatrix(A, table, gamma)
    rep = _report("verify-rmatrix", {"matrix": name, "gamma": gamma},
                  report["status"], {"result": report})
    return _emit(rep, args)


def cmd_dirac(args) -> int:
    from . import brackets

    lvl = args.lagrangian
    res = brackets.dirac_pipeline(brackets.build_level_lagrangian(lvl), args.direction)
    ham = brackets.hamilton_check(res, hierarchy.evolution_rules(lvl))
    cs = res.constraints
    body = {
        "level": lvl,
        "constraints": {name: repr(c) for name, c in zip(cs.constraint_names, cs.constraints)},
        "constraint_matrix": [[repr(c) for c in row] for row in cs.M],
        "multipliers": [repr(a) for a in cs.multipliers],
        "second_class": cs.second_class,
        "hamiltonian_density": repr(res.hamiltonian_density),
        "bracket_table": {f"{{{a!r}, {b!r}}}": repr(v) for a, b, v in res.table.nonzero_pairs()},
        "hamilton_equations": ham,
    }
    rep = _report("dirac", {"lagrangian": f"l{lvl}", "direction": args.direction},
                  ham["status"], body)
    return _emit(rep, args)


# the variables by which a user chooses OpenBLAS's thread count, in the order
# OpenBLAS reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def cmd_sim(args) -> int:
    # The only numerical command: numpy and numlab are imported here, so the
    # exact commands start without them.  Nothing sim computes is large enough
    # for OpenBLAS to hand to its worker threads, whose pool starts with numpy
    # and lengthens its import, so sim asks for one thread unless the user
    # chose a count or numpy is loaded already (its pool has started).
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
    rep = _report("sim", {"case": args.case, "check": args.check, "grid": n,
                          "steps": args.steps, "t_end": args.t_end, "kappa": kappa,
                          "tol": args.tol, "seed": args.seed},
                  "pass" if ok else "fail", body)
    return _emit(rep, args)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nlsdual",
                                description="exact and numerical verification of the "
                                            "dual Hamiltonian structures of the NLS hierarchy")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="write the JSON report here")

    def formatted(sp):
        # only the commands that print a matrix or density read --format
        common(sp)
        sp.add_argument("--format", choices=("json", "latex", "text"), default="text")

    sp = sub.add_parser("gen-v", help="generate a flow matrix of the hierarchy")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--gamma", type=int, choices=(1, -1), default=1)
    formatted(sp)
    sp.set_defaults(func=cmd_gen_v)

    sp = sub.add_parser("gen-dual", help="generate a dual-hierarchy matrix")
    sp.add_argument("--base", type=int, default=2)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--on-shell", action="store_true", help="rewrite t-jets into x-jets")
    formatted(sp)
    sp.set_defaults(func=cmd_gen_dual)

    sp = sub.add_parser("charges", help="conserved-density ladder")
    sp.add_argument("--count", type=int, default=4)
    formatted(sp)
    sp.set_defaults(func=cmd_charges)

    sp = sub.add_parser("verify-zc", help="zero-curvature evolution extraction")
    sp.add_argument("--level", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_verify_zc)

    sp = sub.add_parser("verify-rmatrix", help="ultralocal r-matrix identity")
    sp.add_argument("--matrix", type=lambda text: text if text == "u" else _level("v", text),
                    required=True, help="u, or vN for a level N >= 2")
    common(sp)
    sp.set_defaults(func=cmd_verify_rmatrix)

    sp = sub.add_parser("dirac", help="Legendre/Dirac analysis of a level Lagrangian")
    sp.add_argument("--lagrangian", type=lambda text: _level("l", text), required=True,
                    help="lN for a level N >= 2")
    sp.add_argument("--direction", choices=("time", "space"), required=True)
    common(sp)
    sp.set_defaults(func=cmd_dirac)

    sp = sub.add_parser("sim", help="numerical conservation checks")
    sp.add_argument("--case", choices=("planewave", "custom"), default="planewave")
    sp.add_argument("--check", choices=("charges", "monodromy"), default="charges")
    sp.add_argument("--grid", type=int, default=256)
    sp.add_argument("--steps", type=int, default=8000)
    sp.add_argument("--t-end", type=float, default=1.0)
    sp.add_argument("--kappa", type=float, default=1.0, help="sign and size of the nonlinearity")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", default=None, help="write the charge time series as CSV")
    common(sp)
    sp.set_defaults(func=cmd_sim)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FloatingPointError, ArithmeticError, OSError) as exc:
        err = {"report_version": REPORT_VERSION, "command": args.command,
               "status": "error", "error": str(exc)}
        print(json.dumps(err, indent=2))
        return 2


if __name__ == "__main__":
    sys.exit(main())
