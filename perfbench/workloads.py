"""The benchmark workloads and the checks that make up their ``ops``.

Each workload builds its fixed inputs from the seed (``setup``) and then runs
one pass (``run``) that records every check in a :class:`Checks`.  Only the
public functions of the nlsdual layers are called, always through their
module attributes, so that the traced run sees every call.

Exact artifacts are compared by the SHA-256 of their canonical JSON against
``digests.json``, which was recorded once from the commit that introduced
the benchmark (see ``record_digests.py``).  A mismatch, or an artifact with
no recorded digest, is a failed check.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from nlsdual import brackets, hierarchy, numlab
from nlsdual.brackets import BracketTable
from nlsdual.laxalg import LaxMatrix
from nlsdual.ringcore import Coeff, DiffPoly, JetVar

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


# -- canonical JSON of exact artifacts ---------------------------------------------


def _jet(v: JetVar):
    return [v.field, v.dx, [list(p) for p in v.dt]]


def canonical(obj):
    """A JSON-ready rendering that depends only on the artifact's exact value."""
    if isinstance(obj, LaxMatrix):
        return obj.to_json_obj()
    if isinstance(obj, DiffPoly):
        return obj.to_json_obj()
    if isinstance(obj, BracketTable):
        return {"coords": [_jet(c) for c in obj.coords],
                "entries": [[_jet(a), _jet(b), v.to_json_obj()] for a, b, v in obj.nonzero_pairs()]}
    if isinstance(obj, dict) and all(isinstance(k, JetVar) for k in obj):
        return [[_jet(k), canonical(obj[k])] for k in sorted(obj, key=JetVar.sort_key)]
    return obj


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Counts the checks of a pass, the ones that failed, and measured values.

    Every digest computed is kept in ``digests``; with ``record=True`` they
    are only collected, not compared.
    """

    def __init__(self, expected: dict | None = None, record: bool = False):
        self.expected = expected or {}
        self.record = record
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.values: dict[str, float] = {}

    def check(self, name: str, ok: bool, value: float | None = None) -> None:
        self.attempted += 1
        if value is not None:
            self.values[name] = value
        if not ok:
            self.failures.append(name)

    def at_most(self, name: str, value: float, limit: float) -> None:
        self.check(name, bool(value <= limit), float(value))

    def digest(self, key: str, obj) -> None:
        d = digest(obj)
        if self.record:
            if self.digests.setdefault(key, d) != d:
                raise ValueError(f"two routes produced different artifacts for {key}")
            return
        self.digests[key] = d
        self.check(f"digest {key}", self.expected.get(key) == d)


# -- exact-sweep ---------------------------------------------------------------------


@dataclass
class ExactSweep:
    """Every exact identity in one pass.

    Hierarchy: the partner matrices V0..V_level by the recursion and by the
    generating function, compared entry by entry; the density ladder; the
    on-shell dual hierarchies, each checked against -V_m.  Brackets: the
    time-direction L2 table S with U's r-matrix identity, then for each level
    n = 2..top_level the space-direction Dirac pipeline, the flipped-sign
    identity for V_n, Hamilton's equations and seeded bracket triples.
    """

    top_level: int = 7
    triples: int = 3
    level: int = 9
    ladder: int = 8
    dual_bases: tuple = (2, 3)
    dual_top: int = 4

    def setup(self, seed: int) -> dict:
        return {"U": hierarchy.build_u(), "rng": random.Random(seed)}

    def run(self, inp: dict, checks: Checks) -> None:
        U, rng = inp["U"], inp["rng"]
        rec = [hierarchy.generate_partner(U, +1, m) for m in range(self.level + 1)]
        gen = hierarchy.generating_function_expand(U, +1, self.level + 1)
        checks.check("route count", len(gen) == len(rec))
        for m, (a, b) in enumerate(zip(rec, gen)):
            checks.digest(f"V{m}", a)
            checks.digest(f"V{m}", b)
            checks.check(f"routes agree V{m}", (a - b).is_zero())
        for n, d in enumerate(hierarchy.density_ladder(U, self.ladder), start=1):
            checks.digest(f"h{n}", d)
            checks.check(f"density h{n} real", (d.conjugate() - d).is_zero())
            checks.check(f"density h{n} dimension", d.scaling_dimension() == n + 1)
        for base in self.dual_bases:
            for m in range(self.dual_top + 1):
                D = hierarchy.dual_hierarchy(base, m, rewrite_on_shell=True)
                checks.digest(f"dual{base}.{m}", D)
                checks.check(f"dual{base}.{m} = -V{m} on shell", (D + rec[m]).is_zero())

        S = brackets.dirac_pipeline(brackets.build_level_lagrangian(2), "time").table
        checks.digest("S", S)
        checks.check("rmatrix U", brackets.verify_rmatrix(U, S, +1)["status"] == "pass")
        for n in range(2, self.top_level + 1):
            res = brackets.dirac_pipeline(brackets.build_level_lagrangian(n), "space")
            rules = hierarchy.evolution_rules(n)
            checks.digest(f"T{n}", res.table)
            checks.digest(f"H{n}", res.hamiltonian_density)
            checks.digest(f"rules{n}", rules)
            checks.check(f"rmatrix V{n}",
                         brackets.verify_rmatrix(rec[n], res.table, -1)["status"] == "pass")
            checks.check(f"hamilton T{n}", brackets.hamilton_check(res, rules)["status"] == "pass")
            bracket_triples(res.table, rng, self.triples, checks, f"T{n}")


def random_coeff(rng: random.Random) -> Coeff:
    return Coeff.make(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)),
                      Fraction(rng.randint(-2, 2), rng.randint(1, 2)))


def random_poly(rng: random.Random, coords, n_terms: int = 2, max_deg: int = 2) -> DiffPoly:
    out = DiffPoly.zero()
    for _ in range(n_terms):
        mono = [rng.choice(coords) for _ in range(rng.randint(1, max_deg))]
        out = out + DiffPoly.monomial(mono, random_coeff(rng))
    return out


def bracket_triples(table: BracketTable, rng: random.Random, count: int, checks: Checks,
                    label: str) -> None:
    """Antisymmetry, Leibniz rule and Jacobi identity on random polynomials."""
    lb = brackets.leibniz_bracket
    coords = list(table.coords)
    for i in range(count):
        f, g, h = (random_poly(rng, coords) for _ in range(3))
        checks.check(f"antisymmetry {label}#{i}", lb(f, g, table) == -lb(g, f, table))
        checks.check(f"leibniz {label}#{i}",
                     lb(f * g, h, table) == f * lb(g, h, table) + g * lb(f, h, table))
        jac = (lb(f, lb(g, h, table), table) + lb(g, lb(h, f, table), table)
               + lb(h, lb(f, g, table), table))
        checks.check(f"jacobi {label}#{i}", jac.is_zero())


# -- monodromy ---------------------------------------------------------------------


def closed_form_trace(lam: float, amplitude: float, k: float, kappa: float,
                      half_length: float, mode: int) -> complex:
    """tr T(lam) across [-L, L) for psi = A exp(ikx).

    The gauge diag(exp(-ikx/2), exp(ikx/2)) makes U constant, with
    eigenvalues +-sqrt(kappa A^2 - (lam - k)^2 / 4); the gauge contributes
    the sign (-1)^mode over one period.
    """
    root = np.sqrt(complex(kappa * amplitude**2 - (lam - k) ** 2 / 4))
    return (-1) ** mode * 2 * np.cosh(2 * half_length * root)


def _trace_error(got, ref) -> float:
    # Relative to |ref|, but never to less than 2: a unimodular 2x2 matrix
    # with eigenvalues on the unit circle has |trace| <= 2, and a trace near
    # zero would otherwise turn round-off into a huge relative error.
    return float(abs(got - ref) / max(abs(ref), 2.0))


_MODE = 2      # plane-wave mode number, as in acceptance criterion 09


@dataclass
class Monodromy:
    """Plane wave stepped by RK4 with every step recorded, x-transfer at each
    snapshot against the closed form, t-transfer of V2 at several stations,
    and the convergence table."""

    grid: int = 256
    steps: int = 8000
    snapshots: int = 5
    lambdas: int = 4
    stations: int = 4

    def setup(self, seed: int) -> dict:
        L, kappa = np.pi, 1.0
        k = _MODE * np.pi / L
        amp = float(np.sqrt((2 * np.pi - k * k) / (2 * kappa)))    # time period exactly 1
        lams = [float(x) for x in np.random.default_rng(seed).uniform(-3.0, 3.0, self.lambdas)]
        return {"state": numlab.plane_wave(self.grid, L, kappa, amp, _MODE), "amp": amp,
                "k": k, "lams": lams, "U": hierarchy.build_u()}

    def run(self, inp: dict, checks: Checks) -> None:
        state, lams, U = inp["state"], inp["lams"], inp["U"]
        L, kappa = state.half_length, state.kappa
        traj = numlab.evolve_nls(state, (0.0, 1.0), self.steps,
                                 n_snapshots=self.snapshots, record_fine=True)
        ref = [closed_form_trace(lam, inp["amp"], inp["k"], kappa, L, _MODE) for lam in lams]
        traces = []
        for i in range(len(traj.snapshots)):
            s = numlab.transfer_matrix(U, traj.state(i), lams, "along_x", det_tol=np.inf)
            checks.at_most(f"x det snapshot{i}", float(s.det_errors().max()), 1e-8)
            tr = s.traces()
            traces.append(tr)
            for j, lam in enumerate(lams):
                checks.at_most(f"x closed form snapshot{i} lam{j}", _trace_error(tr[j], ref[j]), 1e-6)
        drift_x = max(_trace_error(t[j], traces[0][j]) for t in traces for j in range(len(lams)))
        checks.at_most("x trace drift along t", drift_x, 1e-6)

        V2 = hierarchy.generate_partner(U, +1, 2)
        st_traces = []
        for q in range(self.stations):
            station = q * self.grid // self.stations
            s = numlab.transfer_matrix(V2, traj, lams, "along_t", station=station, det_tol=np.inf)
            checks.at_most(f"t det station{station}", float(s.det_errors().max()), 1e-8)
            st_traces.append(s.traces())
        drift_t = max(_trace_error(t[j], st_traces[0][j]) for t in st_traces for j in range(len(lams)))
        checks.at_most("t trace station agreement", drift_t, 1e-6)

        convergence_checks(numlab.plane_wave_convergence(base_steps=100, refinements=3),
                           "convergence", checks)


def convergence_checks(rows: list, label: str, checks: Checks) -> None:
    """Fourth-order stepping: each halving of the step divides the error by 16 +- 4."""
    for row in rows[1:] or [{}]:
        ratio = row.get("ratio", 0.0)
        checks.check(f"{label} ratio {row.get('steps')}", abs(ratio - 16.0) <= 4.0, ratio)


# -- cli-reports -------------------------------------------------------------------

# (label, argv, report keys that hold exact payloads; None for numerical runs)
_DIRAC_KEYS = ("level", "constraints", "constraint_matrix", "multipliers", "second_class",
               "hamiltonian_density", "bracket_table", "hamilton_equations")
CLI_RUNS = (
    ("gen-v", ["gen-v", "--level", "4", "--format", "json"], ("matrix", "structure")),
    ("gen-dual", ["gen-dual", "--base", "2", "--level", "3", "--on-shell", "--format", "json"],
     ("matrix",)),
    ("charges", ["charges", "--count", "5", "--format", "json"], ("densities",)),
    ("verify-zc", ["verify-zc", "--level", "3"], ("evolution_rules",)),
    ("verify-rmatrix", ["verify-rmatrix", "--matrix", "v3"], ("result",)),
    ("dirac-time", ["dirac", "--lagrangian", "l3", "--direction", "time"], _DIRAC_KEYS),
    ("dirac-space", ["dirac", "--lagrangian", "l3", "--direction", "space"], _DIRAC_KEYS),
    ("sim-charges", ["sim", "--case", "planewave", "--check", "charges", "--grid", "64",
                     "--steps", "600", "--t-end", "0.25"], None),
    ("sim-monodromy", ["sim", "--case", "planewave", "--check", "monodromy", "--grid", "32",
                       "--steps", "400", "--t-end", "1.0"], None),
)


def check_cli_report(label: str, keys, code: int, stdout: bytes, checks: Checks) -> None:
    """Exit status and report status, then the exact payload digest or the
    numerical tolerances of a ``sim`` report."""
    try:
        report = json.loads(stdout)
    except ValueError:
        report = {}
    checks.check(f"cli {label} status", code == 0 and report.get("status") == "pass")
    if keys is not None:
        checks.digest(f"cli/{label}", {k: report.get(k) for k in keys})
        return
    if label == "sim-charges":
        for ch in report.get("charges") or [{}]:
            checks.at_most(f"cli {label} drift h{ch.get('n')}", ch.get("rel_drift", np.inf), 1e-6)
    else:
        for key in ("space_monodromy_trace_drift", "time_monodromy_trace_drift"):
            checks.at_most(f"cli {label} {key}", report.get(key, np.inf), 1e-6)
        convergence_checks(report.get("convergence", []), f"cli {label}", checks)


WORKLOADS = {
    "exact-sweep": ExactSweep,
    "monodromy": Monodromy,
}
