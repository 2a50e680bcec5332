"""The level sweep beyond the printed levels, and the recorded digests.

For each level n the space-direction Dirac pipeline yields the equal-space
table T_n and the dual density H_n.  T_n must satisfy the Jacobi identity
on every coordinate triple (``BracketTable`` itself enforces antisymmetry); V_n must satisfy the
flipped-sign r-matrix identity under T_n; T_n with H_n must generate the
level-n flow; and d_x H_n = d_{t_n} h_2 must hold on shell, so that the
momentum density h_2 is the dual Hamiltonian's flux along x.  T_n, H_n, the
rules and V_n must match their recorded digests.  Levels 2-8 run in the
default suite, 9 up to the last level ``record_digests`` records under
``pytest -m slow``.
"""

import json
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest

from nlsdual.brackets import (BracketTable, LegendreResult, build_level_lagrangian,
                              dirac_pipeline, hamilton_check, verify_rmatrix)
from nlsdual.hierarchy import build_u, conserved_density, evolution_rules, generate_partner
from nlsdual.ringcore import DiffPoly, JetVar
from helpers import (PERFBENCH, canonical_digest, jacobi_defect, matrix_bracket_per_pair,
                     tensor_entries)
from record_digests import LEVELS, PARTNERS, merge

TESTS = Path(__file__).resolve().parent
U = build_u()
H2 = conserved_density(U, 2)
# the benchmark's digests through level 7 and V9, and this suite's, which go on to level 14
BENCH_RECORDED = json.loads((PERFBENCH / "digests.json").read_text())
SUITE_RECORDED = json.loads((TESTS / "digests.json").read_text())
RECORDED = {**BENCH_RECORDED, **SUITE_RECORDED}


@lru_cache(maxsize=None)
def _space(level):
    return dirac_pipeline(build_level_lagrangian(level), "space")


@lru_cache(maxsize=None)
def _partner(level):
    return generate_partner(U, 1, level)


@lru_cache(maxsize=None)
def _rules(level):
    return evolution_rules(level)


def _mismatched(built: dict) -> list:
    """The keys whose digest differs from the recorded one, or that have none."""
    return [k for k, obj in built.items() if canonical_digest(obj) != RECORDED.get(k)]


def _assert_jacobi(table):
    for triple in combinations(table.coords, 3):
        assert jacobi_defect(table, *triple).is_zero(), f"Jacobi fails on {triple}"


def _flux_defect(H: DiffPoly, level: int) -> DiffPoly:
    """d_x H - d_{t_level} h_2 with the level's evolution rules substituted."""
    return (H.d_x() - H2.d_t(level)).substitute(_rules(level))


@pytest.mark.parametrize("level", [*range(2, 9)] + [pytest.param(n, marks=pytest.mark.slow)
                                                   for n in range(9, LEVELS.stop)])
def test_level_sweep(level):
    res = _space(level)
    T, H = res.table, res.hamiltonian_density
    assert T.label == f"T{level}"
    assert len(T.coords) == 2 * level
    rep = verify_rmatrix(_partner(level), T, -1)
    assert rep["status"] == "pass", rep["per_entry_residuals"][:3]
    assert hamilton_check(res, _rules(level))["status"] == "pass"
    _assert_jacobi(T)
    assert _flux_defect(H, level).is_zero()
    assert _mismatched({f"T{level}": T, f"H{level}": H, f"rules{level}": _rules(level),
                        f"V{level}": _partner(level)}) == []


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


def test_cheap_artifacts_match_recorded_digests():
    built = {f"V{m}": _partner(m) for m in range(PARTNERS.start)}
    built["S"] = dirac_pipeline(build_level_lagrangian(2), "time").table
    assert _mismatched(built) == []


@pytest.mark.slow
def test_digest_check_sees_a_negated_t10_entry():
    T10 = _space(10).table
    pairs = list(T10.nonzero_pairs())
    a, b, _ = pairs[len(pairs) // 2]
    bad = BracketTable(T10.coords, {(x, y): -w if (x, y) == (a, b) else w for x, y, w in pairs})
    assert _mismatched({"T10": T10}) == [] and _mismatched({"T10": bad}) == ["T10"]


def test_digest_check_sees_h8_in_another_byparts_form():
    # H8 is integrated over t8: c A v_t8 = d_t8(c A v) - c d_t8(A) v, so
    # H8 - d_t8(c A v) is the same Hamiltonian in a different form
    res = _space(8)
    H8 = res.hamiltonian_density
    mono, c = next((m, c) for m, c in H8.terms.items() if any(v.dt for v in m))
    k = next(i for i, v in enumerate(mono) if v.dt == ((8, 1),))
    lowered = mono[:k] + (JetVar(mono[k].field, mono[k].dx),) + mono[k + 1:]
    other = H8 - DiffPoly.monomial(lowered, c).d_t(8)
    same = LegendreResult("x", 8, other, res.table, None)
    assert other != H8 and hamilton_check(same, _rules(8))["status"] == "pass"
    assert _mismatched({"H8": H8}) == [] and _mismatched({"H8": other}) == ["H8"]


def test_recorded_digest_files_share_no_key():
    # a key in both files would let this suite's digest silently replace the benchmark's
    assert BENCH_RECORDED.keys() & SUITE_RECORDED.keys() == set()


def test_recorder_adds_unseen_keys_and_refuses_to_change_a_recorded_one():
    assert merge({"b": "1"}, {"a": "2", "b": "1"}) == {"a": "2", "b": "1"}
    with pytest.raises(ValueError, match=r"\['b'\]"):
        merge({"a": "2", "b": "1"}, {"a": "2", "b": "3", "c": "4"})


@pytest.mark.parametrize("level", range(2, 9))
def test_flux_identity_mutations_fail(level):
    H = _space(level).hamiltonian_density
    assert not (H.d_x() + H2.d_t(level)).substitute(_rules(level)).is_zero()
    for mono, c in list(H.terms.items())[:6]:
        flipped = H - DiffPoly.monomial(mono, c).scale(2)
        assert not _flux_defect(flipped, level).is_zero(), mono


def test_doubled_t7_entry_fails_jacobi_and_names_the_triple():
    T7 = _space(7).table
    pairs = list(T7.nonzero_pairs())
    a, b = next((a, b) for a, b, w in pairs if w.constant_value() is None)
    bad = BracketTable(T7.coords, {(x, y): w.scale(2) if (x, y) == (a, b) else w
                                   for x, y, w in pairs})
    with pytest.raises(AssertionError, match="Jacobi fails on") as err:
        _assert_jacobi(bad)
    triple = next(t for t in combinations(T7.coords, 3) if repr(t) in str(err.value))
    assert not jacobi_defect(bad, *triple).is_zero() and jacobi_defect(T7, *triple).is_zero()
