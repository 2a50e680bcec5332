"""The level sweep beyond the printed levels, and the recorded digests.

For each level n the space-direction Dirac pipeline yields the equal-space
table T_n and the dual density; V_n must satisfy the flipped-sign r-matrix
identity under T_n, and T_n with the density must generate the level-n flow.
Levels 6-8 run in the default suite, 9-13 under ``pytest -m slow``.
"""

import importlib.util
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from nlsdual.brackets import (BracketTable, build_level_lagrangian, dirac_pipeline,
                              hamilton_check, verify_rmatrix)
from nlsdual.hierarchy import build_u, evolution_rules, generate_partner
from helpers import matrix_bracket_per_pair, tensor_entries

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
U = build_u()


@lru_cache(maxsize=None)
def _space(level):
    return dirac_pipeline(build_level_lagrangian(level), "space")


@lru_cache(maxsize=None)
def _partner(level):
    return generate_partner(U, 1, level)


@pytest.mark.parametrize("level", [6, 7, 8] + [pytest.param(n, marks=pytest.mark.slow)
                                             for n in (9, 10, 11, 12, 13)])
def test_level_sweep(level):
    res = _space(level)
    assert res.table.label == f"T{level}"
    assert len(res.table.coords) == 2 * level
    rep = verify_rmatrix(_partner(level), res.table, -1)
    assert rep["status"] == "pass", rep["per_entry_residuals"][:3]
    assert hamilton_check(res, evolution_rules(level))["status"] == "pass"


@pytest.mark.parametrize("kind", ["constant", "field-dependent"])
def test_negated_t8_entry_fails_and_names_the_entries(kind):
    T8 = _space(8).table
    pairs = list(T8.nonzero_pairs())
    a, b, t = next(p for p in pairs if (p[2].constant_value() is not None) == (kind == "constant"))
    bad = BracketTable(T8.coords, {(x, y): -w if (x, y) == (a, b) else w for x, y, w in pairs},
                       label="T8 with one entry negated")
    V8 = _partner(8)
    rep = verify_rmatrix(V8, bad, -1)
    assert rep["status"] == "fail"
    # negating T[a, b] moves {V_1, V_2} by -2 times its bracket under that entry alone
    shift = matrix_bracket_per_pair(V8, V8, BracketTable(T8.coords, {(a, b): t}))
    want = {(pw[0], pw[1], i, j): repr(w.scale(-2)) for pw, i, j, w in tensor_entries(shift)}
    got = {(r["lambda_pow"], r["mu_pow"], r["row"], r["col"]): r["residual"]
           for r in rep["per_entry_residuals"]}
    assert want and got == want


@pytest.mark.parametrize("level", range(2, 8))
def test_rmatrix_mutations_fail_at_every_entry(level):
    # matrix_bracket brackets each distinct entry of V_n once up to sign; no
    # mutation of the sign or of the table may hide behind that reuse
    Vn, Tn = _partner(level), _space(level).table
    assert verify_rmatrix(Vn, Tn, -1)["status"] == "pass"
    assert verify_rmatrix(Vn, Tn, +1)["status"] == "fail"
    pairs = list(Tn.nonzero_pairs())
    for a, b, t in pairs:
        bad = BracketTable(Tn.coords, {(x, y): -w if (x, y) == (a, b) else w for x, y, w in pairs})
        rep = verify_rmatrix(Vn, bad, -1)
        shift = matrix_bracket_per_pair(Vn, Vn, BracketTable(Tn.coords, {(a, b): t}))
        want = {(pw[0], pw[1], i, j): repr(w.scale(-2)) for pw, i, j, w in tensor_entries(shift)}
        got = {(r["lambda_pow"], r["mu_pow"], r["row"], r["col"]): r["residual"]
               for r in rep["per_entry_residuals"]}
        assert rep["status"] == "fail" and want and got == want, (a, b)


def _digest_function():
    """The benchmark's canonical-JSON digest, loaded without touching sys.path."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name].digest


def test_cheap_artifacts_match_recorded_digests():
    recorded = json.loads((PERFBENCH / "digests.json").read_text())
    built = {f"V{m}": _partner(m) for m in range(7)}
    built["S"] = dirac_pipeline(build_level_lagrangian(2), "time").table
    built.update({f"T{n}": _space(n).table for n in range(2, 6)})
    digest = _digest_function()
    assert [k for k, obj in built.items() if digest(obj) != recorded[k]] == []
