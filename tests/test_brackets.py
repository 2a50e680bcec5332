"""Bracket tables, Dirac pipelines against the printed structures, r-matrix
identities (with an independent sympy cross-check), normal forms."""

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from nlsdual.ringcore import Coeff, DiffPoly, JetVar
from nlsdual.laxalg import LaxMatrix
from nlsdual import brackets as B
from nlsdual.brackets import (BracketTable, build_level_lagrangian, byparts_normal_form,
                              dirac_pipeline, hamilton_check, integral_bracket, kinetic_term,
                              leibniz_bracket, matrix_bracket, ostrogradski_reduce,
                              verify_rmatrix)
from nlsdual.hierarchy import build_u, conserved_density, evolution_rules, generate_partner
from helpers import (pj, qj, v, mono, cf, random_poly, random_x_poly, nls_hamiltonian_density,
                     leibniz_bracket_per_entry, matrix_bracket_per_pair, euler_lagrange_check,
                     full_euler, is_balanced, jacobi_defect, canonical_table, dirac_bracket,
                     multipliers_from_euler_lagrange, byparts_normal_form_stepwise,
                     invert_coeff_matrix_per_column, verify_rmatrix_by_difference,
                     is_total_x_derivative)
import sympy_oracle as orc

Z = DiffPoly.zero()
I = Coeff.i()
HALF_I = Coeff.make(0, Fraction(1, 2))
U = build_u()


# --- shipped tables (produced by the pipeline) ---------------------------------

def table_S():
    return dirac_pipeline(build_level_lagrangian(2), "time").table


def table_T(n):
    return dirac_pipeline(build_level_lagrangian(n), "space").table


_table_T_once = lru_cache(maxsize=None)(table_T)


def _S_by_hand():
    return BracketTable([pj(), qj()], {(pj(), qj()): DiffPoly.const(I)}, label="S")


# --- leibniz bracket ------------------------------------------------------------

def test_bracket_generators():
    S = table_S()
    assert leibniz_bracket(v(pj()), v(qj()), S) == DiffPoly.const(I)
    T3 = table_T(3)
    assert leibniz_bracket(v(pj(1)), v(qj(1)), T3) == DiffPoly.const(I)


def test_table_refuses_a_disagreeing_mirror_pair_and_a_diagonal_entry():
    with pytest.raises(ValueError, match="not antisymmetric"):
        BracketTable([pj(), qj()], {(pj(), qj()): DiffPoly.const(I), (qj(), pj()): DiffPoly.const(I)})
    with pytest.raises(ValueError, match="not antisymmetric"):
        BracketTable([pj(), qj()], {(pj(), qj()): DiffPoly.const(I), (qj(), pj()): Z})
    with pytest.raises(ValueError, match="not antisymmetric"):
        BracketTable([pj(), qj()], {(pj(), pj()): DiffPoly.const(1)})
    # an agreeing mirror pair is one entry
    T = BracketTable([pj(), qj()], {(pj(), qj()): DiffPoly.const(I), (qj(), pj()): DiffPoly.const(-I)})
    assert T.entries == _S_by_hand().entries


def test_bracket_leibniz_example():
    S = table_S()
    assert leibniz_bracket(mono([pj(), qj()]), v(pj()), S) == v(pj(), -I)


def test_bracket_rejects_undeclared_jets():
    S = table_S()
    with pytest.raises(ValueError):
        leibniz_bracket(v(pj(1)), v(qj()), S)


@pytest.mark.parametrize("level", [3, 4])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_bracket_matches_per_entry_reference(level, seed):
    table = _table_T_once(level)
    rng = random.Random(seed)
    coords = list(table.coords)
    f = random_poly(rng, coords, n_terms=3, max_deg=3)
    g = random_poly(rng, coords, n_terms=3, max_deg=3)
    assert leibniz_bracket(f, g, table) == leibniz_bracket_per_entry(f, g, table)


def test_bracket_is_derivation():
    rng = random.Random(31)
    T2 = table_T(2)
    jets = list(T2.coords)
    for _ in range(20):
        f = random_poly(rng, jets)
        g = random_poly(rng, jets)
        h = random_poly(rng, jets)
        lhs = leibniz_bracket(f * g, h, T2)
        rhs = f * leibniz_bracket(g, h, T2) + g * leibniz_bracket(f, h, T2)
        assert lhs == rhs


def _check_table_properties(table, n_random=100, seed=17):
    coords = list(table.coords)
    for a in coords:
        for b in coords:
            for c in coords:
                assert jacobi_defect(table, a, b, c).is_zero(), (a, b, c)
    rng = random.Random(seed)
    for _ in range(n_random):
        f, g, h = (random_poly(rng, coords, n_terms=2, max_deg=2) for _ in range(3))
        assert leibniz_bracket(f, g, table) == -leibniz_bracket(g, f, table)
        jac = (leibniz_bracket(f, leibniz_bracket(g, h, table), table)
               + leibniz_bracket(g, leibniz_bracket(h, f, table), table)
               + leibniz_bracket(h, leibniz_bracket(f, g, table), table))
        assert jac.is_zero()


def test_table_properties_S():
    _check_table_properties(table_S(), n_random=100)


def test_table_properties_T2():
    _check_table_properties(table_T(2), n_random=100)


def test_table_properties_T3():
    _check_table_properties(table_T(3), n_random=100)


def test_table_properties_T4():
    _check_table_properties(table_T(4), n_random=100)


# --- frozen printed tables -------------------------------------------------------

def test_s_table_is_printed_one():
    S = table_S()
    assert list(S.coords) == [pj(), qj()]
    assert S.entry(pj(), qj()) == DiffPoly.const(I)


def test_t2_table_is_printed_one():
    T2 = table_T(2)
    expected = {
        (pj(), qj(1)): DiffPoly.const(1),
        (qj(), pj(1)): DiffPoly.const(1),
    }
    seen = {(a, b): val for a, b, val in T2.nonzero_pairs()}
    normalized = {}
    for (a, b), val in seen.items():
        if (a, b) in expected or (b, a) not in expected:
            normalized[(a, b)] = val
        else:
            normalized[(b, a)] = -val
    assert normalized == expected
    assert T2.entry(pj(), qj()).is_zero()
    assert T2.entry(pj(1), qj(1)).is_zero()


def test_t3_table_is_printed_one():
    T3 = table_T(3)
    assert T3.entry(pj(), qj()).is_zero()
    assert T3.entry(pj(), pj(1)).is_zero()
    assert T3.entry(pj(), qj(1)).is_zero()
    assert T3.entry(pj(1), pj(2)).is_zero()
    assert T3.entry(pj(1), qj(2)).is_zero()
    assert T3.entry(pj(1), qj(1)) == DiffPoly.const(I)
    assert T3.entry(qj(), pj(2)) == DiffPoly.const(I)
    assert T3.entry(pj(), pj(2)).is_zero()
    assert T3.entry(pj(), qj(2)) == DiffPoly.const(-I)
    assert T3.entry(pj(2), qj(2)) == mono([pj(), qj()], cf(0, -6, 2))


def test_t4_table_derived_artifact():
    # not printed anywhere; frozen from two independent computations of the
    # level-4 reduction (the pipeline and a hand-built canonical chart)
    T4 = table_T(4)
    assert T4.entry(pj(), qj(3)) == DiffPoly.const(-1)
    assert T4.entry(qj(), pj(3)) == DiffPoly.const(-1)
    assert T4.entry(pj(1), qj(2)) == DiffPoly.const(1)
    assert T4.entry(qj(1), pj(2)) == DiffPoly.const(1)
    assert T4.entry(pj(2), qj(2)).is_zero()
    assert T4.entry(pj(2), pj(3)) == mono([pj(), pj()], cf(-2, 0, 2))
    assert T4.entry(pj(2), qj(3)) == mono([pj(), qj()], cf(-8, 0, 2))
    assert T4.entry(qj(2), pj(3)) == mono([pj(), qj()], cf(-8, 0, 2))
    assert T4.entry(pj(3), qj(3)) == mono([pj(), qj(1)], cf(4, 0, 2)) + mono([pj(1), qj()], cf(-4, 0, 2))


# --- r-matrix identities -----------------------------------------------------------

def test_rmatrix_u_s_table():
    rep = verify_rmatrix(U, table_S(), +1)
    assert rep["status"] == "pass"


def test_rmatrix_v2_t2_table():
    rep = verify_rmatrix(generate_partner(U, 1, 2), table_T(2), -1)
    assert rep["status"] == "pass"


def test_rmatrix_v3_t3_table():
    rep = verify_rmatrix(generate_partner(U, 1, 3), table_T(3), -1)
    assert rep["status"] == "pass"


def test_rmatrix_wrong_gamma_fails_with_residuals():
    rep = verify_rmatrix(U, table_S(), -1)
    assert rep["status"] == "fail"
    assert rep["per_entry_residuals"]


@pytest.mark.parametrize("level, table_level, gamma, status", [
    (0, 0, 1, "pass"), (0, 0, -1, "fail"), (2, 2, -1, "pass"), (3, 3, -1, "pass"),
    (3, 3, 1, "fail"), (0, 3, 1, "fail"), (0, 3, -1, "fail")])
def test_rmatrix_report_is_that_of_the_whole_difference(level, table_level, gamma, status):
    # comparing entry by entry reports what the TensorMatrix difference
    # reports, byte for byte, on passing and failing inputs alike (table 0 is S)
    A = U if level == 0 else generate_partner(U, 1, level)
    table = table_S() if table_level == 0 else table_T(table_level)
    got = verify_rmatrix(A, table, gamma)
    assert got["status"] == status
    assert json.dumps(got) == json.dumps(verify_rmatrix_by_difference(A, table, gamma))


def test_matrix_bracket_against_sympy_oracle():
    # both sides recomputed in sympy, independently of the package's engine
    V2 = generate_partner(U, 1, 2)
    T2 = table_T(2)
    table_sym = {}
    for a, b, val in T2.nonzero_pairs():
        table_sym[(orc.sym_of_jet(a), orc.sym_of_jet(b))] = orc.to_sympy(val)
    A = orc.lax_to_sympy(V2)
    lhs = orc.tensor_bracket(A, table_sym, None)
    rhs = orc.rmatrix_rhs(A, -1)
    assert sp.simplify(lhs - rhs) == sp.zeros(4, 4)
    # and the package's lhs agrees with the sympy lhs entry by entry
    mine = matrix_bracket(V2, T2)
    for (lp, mp), e in mine.coeffs.items():
        for idx in range(16):
            got = orc.to_sympy(e[idx]) * orc.lam**lp * orc.mu**mp
            want = sp.expand(lhs[idx // 4, idx % 4]).coeff(orc.lam, lp).coeff(orc.mu, mp) * orc.lam**lp * orc.mu**mp
            assert sp.simplify(got - want) == 0


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_matrix_bracket_matches_per_pair_reference(level):
    T = _table_T_once(level)
    Vn = generate_partner(U, 1, level)
    assert matrix_bracket(Vn, T) == matrix_bracket_per_pair(Vn, Vn, T)


def _random_lax(rng, coords):
    Z = DiffPoly.zero()
    powers = rng.sample(range(-1, 4), rng.randint(1, 3))
    return LaxMatrix({p: tuple(random_poly(rng, coords, n_terms=2, max_deg=2)
                               if rng.random() < 0.7 else Z for _ in range(4))
                      for p in powers})


@pytest.mark.parametrize("level", [3, 4, 5, 6])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_matrix_bracket_matches_per_pair_reference_on_random_matrices(level, seed):
    T = _table_T_once(level)
    rng = random.Random(seed)
    A = _random_lax(rng, list(T.coords))
    assert matrix_bracket(A, T) == matrix_bracket_per_pair(A, A, T)


@pytest.mark.parametrize("level", [3, 4])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_matrix_bracket_with_repeated_and_negated_entries(level, seed):
    # entries drawn from a pool of two polynomials, their negatives and zero,
    # so that equal and opposite entries meet within and across lambda-powers
    T = _table_T_once(level)
    rng = random.Random(seed)
    coords = list(T.coords)
    pool = [random_poly(rng, coords, n_terms=2, max_deg=2) for _ in range(2)]
    pool += [-x for x in pool] + [Z]
    A = LaxMatrix({p: tuple(rng.choice(pool) for _ in range(4)) for p in rng.sample(range(-1, 3), 2)})
    assert matrix_bracket(A, T) == matrix_bracket_per_pair(A, A, T)


def test_matrix_bracket_of_a_matrix_with_one_entry_up_to_sign():
    T = _table_T_once(3)
    x = v(pj(1)) * v(qj(2)) + v(pj(), cf(0, 1, 1))
    A = LaxMatrix({0: (x, -x, x, -x), 1: (-x, Z, x, x)})
    assert matrix_bracket(A, T) == matrix_bracket_per_pair(A, A, T)
    assert matrix_bracket(A, T).coeffs == {}          # {x, +-x} = 0
    B = LaxMatrix({0: (x, -x, Z, Z), 1: (Z, Z, v(qj(2)), -v(qj(2)))})
    assert matrix_bracket(B, T) == matrix_bracket_per_pair(B, B, T)
    assert matrix_bracket(B, T).coeffs


def test_rmatrix_v2_under_t3_closure_error():
    V3 = generate_partner(U, 1, 3)
    with pytest.raises(ValueError):
        matrix_bracket(V3, table_T(2))  # undeclared second-order jets


# --- Lagrangians and normal forms ----------------------------------------------

def test_level_lagrangians_frozen():
    L2 = build_level_lagrangian(2)
    expected2 = kinetic_term(2) - nls_hamiltonian_density()
    assert L2 == expected2

    L3 = build_level_lagrangian(3)
    expected3 = (kinetic_term(3)
                 + mono([qj(1), pj(2)], HALF_I) - mono([pj(1), qj(2)], HALF_I)
                 - mono([pj(), pj(), qj(), qj(1)], cf(0, Fraction(3, 2), 2))
                 + mono([pj(), pj(1), qj(), qj()], cf(0, Fraction(3, 2), 2)))
    assert L3 == expected3


def test_level4_lagrangian_top_term():
    L4 = build_level_lagrangian(4)
    # even case: the highest-order term is proportional to psibar_xx psi_xx
    assert L4.coefficient([pj(2), qj(2)]) == Coeff.make(-1)
    assert L4.max_x_order() == 2


def test_normal_form_is_euler_equivalent_and_balanced():
    for n in (3, 4, 5):
        d = conserved_density(U, n)
        nf = byparts_normal_form(d)
        diff = d - nf
        assert is_total_x_derivative(diff)
        # balanced: no monomial has a jet two or more orders above the rest
        for mono_ in nf.terms:
            if len(mono_) < 2:
                continue
            orders = sorted(v_.dx for v_ in mono_)
            assert orders[-1] <= orders[-2] + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_normal_form_matches_the_stepwise_reference(seed):
    # the second term reaches jet order 4, so depressions chain
    rng = random.Random(seed)
    h = random_x_poly(rng) + random_x_poly(rng) * random_x_poly(rng).d_x().d_x()
    nf = byparts_normal_form(h)
    assert nf == byparts_normal_form_stepwise(h)
    assert is_total_x_derivative(h - nf)
    assert is_balanced(nf)


@pytest.mark.slow
@pytest.mark.parametrize("level", [8, 9, 10, 11, 12])
def test_level_densities_match_the_stepwise_reference(level):
    d = conserved_density(U, level + 1)
    assert byparts_normal_form(d) == byparts_normal_form_stepwise(d)


# psi/psibar x-jet monomials of degree <= 4 and x-order <= 4, and the pairs
# psi_a psibar_(a+1), psibar_a psi_(a+1), whose sum with the conjugate is
# d_x(psi_a psibar_a) while their difference is no total derivative
_X_JETS = st.builds(JetVar, st.sampled_from(["psi", "psibar"]), st.integers(0, 4))
_MONOMIALS = st.one_of(
    st.lists(_X_JETS, min_size=1, max_size=4),
    st.builds(lambda f, a: [JetVar(f, a), JetVar(f, a + 1).conjugate_var()],
              st.sampled_from(["psi", "psibar"]), st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(_MONOMIALS)
def test_pair_decision_is_the_kernel_test(jets):
    # the pair stage antisymmetrises m with its conjugate exactly when
    # m + conj(m) has vanishing Euler derivatives in every field
    m = DiffPoly.monomial(jets)
    mc = m.conjugate()
    assume(m != mc)
    (key,) = m.terms
    (conj,) = mc.terms
    antisymmetrised = conj in B._antisymmetrise({key: Coeff.one()}).terms
    assert antisymmetrised == is_total_x_derivative(m + mc)


def test_normal_form_idempotent():
    d = conserved_density(U, 5)
    nf = byparts_normal_form(d)
    assert byparts_normal_form(nf) == nf


def test_normal_form_rejects_t_jets():
    with pytest.raises(ValueError):
        byparts_normal_form(kinetic_term(2))


# --- Ostrogradski reduction ------------------------------------------------------

def test_reduction_passthrough_first_order():
    L2 = build_level_lagrangian(2)
    red = ostrogradski_reduce(L2)
    assert red.order == 1
    assert red.coord_fields == ("phi1", "phi2")
    assert euler_lagrange_check(red)


def test_reduction_level3_multipliers_printed():
    L3 = build_level_lagrangian(3)
    red = ostrogradski_reduce(L3)
    mus = multipliers_from_euler_lagrange(red)
    m1 = mus[JetVar("m1_1", 0)]
    m2 = mus[JetVar("m1_2", 0)]
    # mu_1 = i vphi_2' - (3 i kappa / 2) phi_2^2 phi_1 and its conjugate twin
    assert m1 == (v(JetVar("c1_2", 1), I)
                  + mono([JetVar("phi1", 0), JetVar("phi2", 0), JetVar("phi2", 0)],
                         cf(0, Fraction(-3, 2), 2)))
    assert m2 == (v(JetVar("c1_1", 1), -I)
                  + mono([JetVar("phi1", 0), JetVar("phi1", 0), JetVar("phi2", 0)],
                         cf(0, Fraction(3, 2), 2)))


def test_reduction_level3_euler_lagrange_reproduced():
    L3 = build_level_lagrangian(3)
    red = ostrogradski_reduce(L3)
    assert euler_lagrange_check(red)
    # the original variational equation is the level-3 flow:
    # the psibar-variation gives i psi_t3 ... here we check the flow form
    el = full_euler(L3, "psibar", 3)
    rules = evolution_rules(3)
    assert el.substitute(rules).is_zero()


def test_full_euler_has_no_order_limit():
    assert full_euler(mono([qj(), pj(11)]), "psi", 2) == -v(qj(11))
    assert full_euler(mono([qj(), pj(0, [(2, 3)])]), "psi", 2) == -v(qj(0, [(2, 3)]))
    with pytest.raises(ValueError):
        full_euler(mono([qj(), pj(0, [(3, 1)])]), "psi", 2)


def test_reduction_level4_euler_lagrange_reproduced():
    L4 = build_level_lagrangian(4)
    red = ostrogradski_reduce(L4)
    assert red.order == 2
    assert euler_lagrange_check(red)


# --- Dirac pipeline: the printed results ------------------------------------------

def test_level2_time_pipeline_printed():
    res = dirac_pipeline(build_level_lagrangian(2), "time")
    cs = res.constraints
    assert len(cs.constraints) == 2
    # {C1, C2} = +i (forced by the momentum-first convention and confirmed by
    # the Dirac table below)
    assert cs.M[0][1] == I
    assert cs.M[1][0] == -I
    P1, P2 = cs.momenta
    f1, f2 = cs.coords

    def D(a, b):
        return dirac_bracket(cs, v(a), v(b))

    assert D(f1, f2) == DiffPoly.const(I)
    assert D(P1, f1) == DiffPoly.const(Coeff.make(Fraction(1, 2)))
    assert D(P2, f2) == DiffPoly.const(Coeff.make(Fraction(1, 2)))
    assert D(P1, f2).is_zero()
    assert D(P1, P2) == DiffPoly.const(cf(0, Fraction(-1, 4)))
    assert res.hamiltonian_density == nls_hamiltonian_density()


def _assert_constraints_dirac_commute(res):
    cs = res.constraints
    # {C_j, g}_D = 0 for every phase-space coordinate g
    for C in cs.constraints:
        for g in list(cs.coords) + list(cs.momenta):
            assert dirac_bracket(cs, C, DiffPoly.var(g)).is_zero()


@pytest.mark.parametrize("level,direction", [(2, "time"), (3, "space"), (4, "space"), (5, "space")],
                         ids=["L2-time", "L3-space", "L4-space", "L5-space"])
def test_constraints_dirac_commute(level, direction):
    _assert_constraints_dirac_commute(dirac_pipeline(build_level_lagrangian(level), direction))


@pytest.mark.parametrize("level,direction", [(2, "time"), (3, "space"), (4, "space"), (5, "space")],
                         ids=["L2-time", "L3-space", "L4-space", "L5-space"])
def test_stage4_table_is_the_dirac_bracket_on_the_surviving_coordinates(level, direction):
    # stage 4 brackets only the coordinates that no constraint eliminates;
    # each entry is the full-phase-space Dirac bracket of the textbook
    # formula with the eliminations substituted
    res = dirac_pipeline(build_level_lagrangian(level), direction)
    cs = res.constraints
    canonical = canonical_table(cs)
    covs = [B._covector(B._gradient(C, canonical), canonical) for C in cs.constraints]
    elim = B._elimination_map(list(cs.constraints))
    phase = list(cs.coords) + list(cs.momenta)
    table = B._dirac_table(phase, covs, canonical, cs.Minv, elim, "stage 4")
    surviving = [c for c in phase if c not in elim]
    assert list(table.coords) == surviving
    for i, a in enumerate(surviving):
        for b in surviving[i + 1:]:
            assert table.entry(a, b) == dirac_bracket(cs, v(a), v(b))._replace_jets(elim), (a, b)
    if direction == "time":
        # the time direction returns stage 4's table itself
        assert table.coords == res.table.coords and table.entries == res.table.entries


@pytest.mark.parametrize("level,direction", [(2, "time")] + [(n, "space") for n in range(3, 9)],
                         ids=["L2-time"] + [f"L{n}-space" for n in range(3, 9)])
def test_constraint_matrix_inverse_is_the_per_column_one(level, direction):
    # one elimination over every column of the identity gives the inverse
    # that one elimination per column gives
    M = [list(row) for row in dirac_pipeline(build_level_lagrangian(level), direction).constraints.M]
    n = len(M)
    assert n >= 2
    Minv = B._invert_coeff_matrix(M)
    assert Minv == invert_coeff_matrix_per_column(M)
    for i in range(n):
        for j in range(n):
            entry = sum((M[i][k] * Minv[k][j] for k in range(n)), Coeff.zero())
            assert entry == (Coeff.one() if i == j else Coeff.zero())


@pytest.mark.parametrize("level", [2, 3])
def test_time_multipliers_solve_the_consistency_conditions(level):
    # {H, C_j} + sum_k alpha_k {C_k, C_j} = 0; in the time direction H holds
    # psi-jets only, so no elimination enters {H, C_j}
    res = dirac_pipeline(build_level_lagrangian(level), "time")
    cs = res.constraints
    assert any(not a.is_zero() for a in cs.multipliers)
    for j, C in enumerate(cs.constraints):
        lhs = integral_bracket(res.hamiltonian_density, C, canonical_table(cs), "x")
        lhs = lhs + DiffPoly.sum(a.scale(cs.M[k][j]) for k, a in enumerate(cs.multipliers))
        assert lhs.is_zero(), j


def test_level2_space_pipeline_printed():
    res = dirac_pipeline(build_level_lagrangian(2), "space")
    # unconstrained Legendre transform
    assert len(res.constraints.constraints) == 0
    # density (i/2)(psi psibar_t - psibar psi_t) - psibar_x psi_x + kappa (psibar psi)^2
    expected = (mono([pj(), qj(0, [(2, 1)])], HALF_I)
                - mono([qj(), pj(0, [(2, 1)])], HALF_I)
                - mono([pj(1), qj(1)])
                + mono([pj(), pj(), qj(), qj()], cf(1, 0, 2)))
    assert res.hamiltonian_density == expected


def test_level3_space_pipeline_printed():
    res = dirac_pipeline(build_level_lagrangian(3), "space")
    cs = res.constraints
    assert len(cs.constraints) == 6
    # constraint matrix: the (1,2) block is [[0, i], [-i, 0]]; the chain/
    # multiplier pairs carry {C3, C5} = -1 = {C4, C6} (the value forced by
    # {momentum, coordinate} = +1 for the multiplier pairs)
    M = cs.M
    zero = Coeff.zero()
    one = Coeff.one()
    expect = [
        [zero, I, zero, zero, zero, zero],
        [-I, zero, zero, zero, zero, zero],
        [zero, zero, zero, zero, -one, zero],
        [zero, zero, zero, zero, zero, -one],
        [zero, zero, one, zero, zero, zero],
        [zero, zero, zero, one, zero, zero],
    ]
    assert [list(r) for r in M] == expect
    # H_T^(3) = i(psibar_x psi_xx - psi_x psibar_xx) - (i/2)(psibar psi_t - psi psibar_t)
    expected = (mono([qj(1), pj(2)], I) - mono([pj(1), qj(2)], I)
                - mono([qj(), pj(0, [(3, 1)])], HALF_I)
                + mono([pj(), qj(0, [(3, 1)])], HALF_I))
    assert res.hamiltonian_density == expected


def test_level3_space_secondaryfree_and_multiplier_structure():
    res = dirac_pipeline(build_level_lagrangian(3), "space")
    cs = res.constraints
    # the kinetic-degeneracy pair and the base pair have no free multipliers
    names = list(cs.constraint_names)
    assert names[0].startswith("C[c1_") and names[2].startswith("C[phi")
    assert len(cs.multipliers) == 6


def test_level4_space_pipeline_structure():
    res = dirac_pipeline(build_level_lagrangian(4), "space")
    cs = res.constraints
    # even level: the chain kinetic term is regular, only base+multiplier
    # constraints remain
    assert len(cs.constraints) == 4
    assert res.table.label == "T4"


def test_field_dependent_constraint_matrix_rejected():
    # a Lagrangian engineered so that two degenerate momenta bracket to a field
    f = mono([pj(), pj(), qj()], HALF_I)
    L = kinetic_term(2) * DiffPoly.const(1) + f * v(pj(0, [(2, 1)]))
    with pytest.raises(ValueError):
        dirac_pipeline(L, "time")


def test_singular_constraint_matrix_rejected():
    # d_t2(psibar psi): its constraints P_psi - psibar and P_psibar - psi
    # bracket to 0, so they are first class.  The dirac report writes
    # "second_class": true because stage 2 raises here
    L = mono([qj(), pj(0, [(2, 1)])]) + mono([pj(), qj(0, [(2, 1)])])
    with pytest.raises(ValueError, match="singular"):
        dirac_pipeline(L, "time")


def test_elimination_that_holds_an_eliminated_coordinate_raises():
    # P_a - b eliminates P_a; P_b - P_a then solves P_b for the eliminated P_a
    Pa, b, Pb = JetVar("P_a"), JetVar("b"), JetVar("P_b")
    with pytest.raises(ValueError, match=f"elimination of {Pb!r} holds"):
        B._elimination_map([v(Pa) - v(b), v(Pb) - v(Pa)])
    assert B._elimination_map([v(Pa) - v(b), v(Pb) - v(b)]) == {Pa: v(b), Pb: v(b)}


# --- Hamilton equations --------------------------------------------------------

def test_hamilton_check_level2_time():
    res = dirac_pipeline(build_level_lagrangian(2), "time")
    rep = hamilton_check(res, evolution_rules(2))
    assert rep["status"] == "pass"


def test_hamilton_check_level2_space():
    res = dirac_pipeline(build_level_lagrangian(2), "space")
    rep = hamilton_check(res, evolution_rules(2))
    assert rep["status"] == "pass"


def test_hamilton_check_level3_space():
    res = dirac_pipeline(build_level_lagrangian(3), "space")
    rep = hamilton_check(res, evolution_rules(3))
    assert rep["status"] == "pass"


def test_hamilton_check_level4_space():
    res = dirac_pipeline(build_level_lagrangian(4), "space")
    rep = hamilton_check(res, evolution_rules(4))
    assert rep["status"] == "pass"


def test_hamiltonian_flows_have_no_order_limit():
    # the psi-variation of psibar psi_13x is -psibar_13x
    flow = integral_bracket(mono([qj(), pj(13)]), v(qj()), _S_by_hand(), "x")
    assert flow == v(qj(13), -I)


def test_integral_bracket_has_no_order_limit():
    S = _S_by_hand()
    h = mono([qj(), pj()])
    flow = integral_bracket(h, v(pj()), S, "x")
    assert flow == v(pj(), -I)
    want = flow
    for _ in range(12):
        want = want.d_x()
    assert integral_bracket(h, v(pj(12)), S, "x") == want


def test_hamilton_check_detects_wrong_rules():
    res = dirac_pipeline(build_level_lagrangian(2), "space")
    rep = hamilton_check(res, evolution_rules(3))
    assert rep["status"] == "fail"


def test_time_table_same_at_level_three():
    # the equal-time structure does not depend on the level
    res2 = dirac_pipeline(build_level_lagrangian(2), "time")
    res3 = dirac_pipeline(build_level_lagrangian(3), "time")
    assert res2.table.entry(pj(), qj()) == res3.table.entry(pj(), qj())
    # and the level-3 time Hamiltonian density is the ladder density
    d3 = byparts_normal_form(conserved_density(U, 4))
    assert res3.hamiltonian_density == d3


def test_level5_pipeline_extends_the_pattern():
    # beyond the stretch probe: odd level with a length-3 auxiliary chain;
    # ten second-class constraints, and the flipped-sign identity still holds
    L5 = build_level_lagrangian(5)
    red = ostrogradski_reduce(L5)
    assert red.order == 3
    assert euler_lagrange_check(red)
    res = dirac_pipeline(L5, "space")
    assert len(res.constraints.constraints) == 10
    assert hamilton_check(res, evolution_rules(5))["status"] == "pass"
    V5 = generate_partner(U, 1, 5)
    assert verify_rmatrix(V5, res.table, -1)["status"] == "pass"
