"""Command-line front end: reproducible verification runs, machine output.

Every subcommand emits a JSON report (schema version 1) carrying its own
configuration, and exits nonzero when any requested identity fails.  LaTeX
and plain-text renderings of matrices are available where they make sense.
"""

from __future__ import annotations

import argparse
import json
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
        # the renderer is compiled only when this format is asked for
        from .latex import to_latex
        return to_latex(M)
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
        # V_lvl reads W up to order lvl; generate_partner would solve two more
        V = hierarchy.generate_partner(U, +1, lvl, hierarchy.solve_W(U, lvl))
        name, A, gamma = f"v{lvl}", V, -1
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
        # stage 2 of the pipeline raises on a singular constraint matrix
        "second_class": True,
        "hamiltonian_density": repr(res.hamiltonian_density),
        "bracket_table": {f"{{{a!r}, {b!r}}}": repr(v) for a, b, v in res.table.nonzero_pairs()},
        "hamilton_equations": ham,
    }
    rep = _report("dirac", {"lagrangian": f"l{lvl}", "direction": args.direction},
                  ham["status"], body)
    return _emit(rep, args)


def cmd_sim(args) -> int:
    # the only numerical command: its checks, and the numpy they load, are
    # compiled only when sim runs
    from . import sim

    ok, body = sim.run(args)
    rep = _report("sim", {"case": args.case, "check": args.check, "grid": args.grid,
                          "steps": args.steps, "t_end": args.t_end, "kappa": args.kappa,
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
