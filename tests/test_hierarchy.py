"""W-series against the independent Riccati oracle, printed-table
reproduction, evolution extraction and the dual hierarchy."""

from fractions import Fraction

import pytest
import sympy as sp

from nlsdual import hierarchy
from nlsdual.ringcore import Coeff, DiffPoly
from nlsdual.laxalg import LaxMatrix
from nlsdual.hierarchy import (_neumann_series, build_u, conserved_density, density_ladder,
                               dual_hierarchy, evolution_rules, generate_partner,
                               generating_function_expand, on_shell, solve_W,
                               solve_evolution, zero_curvature_residual, WSeries)
from helpers import (pj, qj, v, mono, cf, nls_hamiltonian_density,
                     printed_v, printed_dual, sigma3, alternating_products, check_reality,
                     lower_component, riccati_residual, generating_function_expand_neumann)
import sympy_oracle as orc

Z = DiffPoly.zero()
U = build_u()


# --- W series against the independent Riccati-substitution oracle -------------

def test_solve_w_u_series_matches_oracle():
    W = solve_W(U, 5)
    Worc = orc.riccati_series(orc.lax_to_sympy(U), 1, 5, orc.d_x)
    for n in range(1, 6):
        mine = orc.lax_to_sympy(LaxMatrix({0: W.w(n)}))
        assert sp.simplify(mine - Worc[n]) == sp.zeros(2, 2), n


def test_solve_w_dual_series_matches_oracle():
    V2 = generate_partner(U, 1, 2)
    W = solve_W(V2, 4)
    Worc = orc.riccati_series(orc.lax_to_sympy(V2), 2, 4, orc.d_t)
    for n in range(1, 5):
        mine = orc.lax_to_sympy(LaxMatrix({0: W.w(n)}))
        assert sp.simplify(mine - Worc[n]) == sp.zeros(2, 2), n


def test_w_first_orders_frozen():
    # frozen values computed with the oracle: w1 = psi, w2 = -i psi_x,
    # w3 = kappa psi^2 psibar - psi_xx
    W = solve_W(U, 3)
    assert lower_component(W, 1) == v(pj())
    assert lower_component(W, 2) == v(pj(1), cf(0, -1))
    assert lower_component(W, 3) == mono([pj(), pj(), qj()], cf(1, 0, 2)) - v(pj(2))


def test_w_reality_and_homogeneity():
    W = solve_W(U, 6)
    assert check_reality(W)
    for n in range(1, 7):
        for x in W.w(n):
            assert x.is_zero() or x.scaling_dimension() == n


def test_w_dual_level_one_dimension():
    V2 = generate_partner(U, 1, 2)
    W = solve_W(V2, 1)
    assert check_reality(W)
    assert lower_component(W, 1) == v(pj())  # dimension-1 entries built from psi


def test_solve_w_requires_sigma3_leading():
    bad = LaxMatrix({1: (DiffPoly.const(1), Z, Z, DiffPoly.const(1))})
    with pytest.raises(ValueError):
        solve_W(bad, 2)


def test_solve_w_rejects_degree_zero():
    # at degree 0 the order-n equation involves W^(n) itself
    V0 = generate_partner(U, 1, 0)
    assert V0.degree() == 0
    with pytest.raises(ValueError, match="degree 0"):
        solve_W(V0, 1)


def test_riccati_residual_vanishes_and_detects_corruption():
    for X, K in ((U, 6), (generate_partner(U, 1, 2), 6)):
        W = solve_W(X, K)
        res = riccati_residual(X, W)
        for m, e in res.items():
            assert all(x.is_zero() for x in e), m
    # corrupt the first coefficient
    W = solve_W(U, 3)
    bad = WSeries(U, ((Z, W.w(1)[1], W.w(1)[2] + v(pj()), Z),) + W.entries[1:])
    res = riccati_residual(U, bad)
    assert any(not x.is_zero() for e in res.values() for x in e)


# --- conserved densities -------------------------------------------------------

HALF_I = Coeff.make(0, Fraction(1, 2))


def test_densities_real_and_graded():
    lad = density_ladder(U, 5)
    for n, d in enumerate(lad, start=1):
        assert d.conjugate() == d
        assert d.scaling_dimension() == n + 1


@pytest.mark.parametrize("count", [0, -2])
def test_density_ladder_rejects_count_below_one(count):
    # an empty ladder would pass every check without checking anything
    with pytest.raises(ValueError, match=f"got {count}"):
        density_ladder(U, count)


def test_density_one_is_mass():
    assert conserved_density(U, 1) == mono([pj(), qj()])


def test_density_two_is_momentum():
    # (i/2)(psi psibar_x - psi_x psibar), frozen from the oracle run
    d = conserved_density(U, 2)
    expected = mono([pj(), qj(1)], HALF_I) + mono([pj(1), qj()], -HALF_I)
    assert d == expected


def test_density_three_is_energy_up_to_total_derivative():
    d = conserved_density(U, 3)
    diff = d - nls_hamiltonian_density()
    assert diff.euler("psi").is_zero() and diff.euler("psibar").is_zero()
    assert not (d - nls_hamiltonian_density()).is_zero()  # representatives differ


@pytest.mark.parametrize("level, top", [(1, 10), (2, 5), (3, 4)])
def test_density_needs_w_to_one_order_below_degree_plus_index(level, top, monkeypatch):
    # X_o^(N) is zero, so W^(N+n) only ever multiplies zero
    X = U if level == 1 else generate_partner(U, 1, level)
    N = X.degree()
    W = solve_W(X, N + top)
    for n in range(1, top + 1):
        full = conserved_density(X, n, WSeries(X, W.entries[:N + n]))
        assert conserved_density(X, n) == full
        assert conserved_density(X, n, WSeries(X, W.entries[:N + n - 2])) == full   # re-solved
    monkeypatch.setattr(hierarchy, "solve_W", None)     # a W of order N+n-1 is used as given
    for n in range(1, top + 1):
        short = conserved_density(X, n, WSeries(X, W.entries[:N + n - 1]))
        full = conserved_density(X, n, WSeries(X, W.entries[:N + n]))
        assert short == full and short.to_json_obj() == full.to_json_obj(), n


# --- partner generation: the printed tables, exactly ----------------------------

def test_generate_partner_reproduces_printed_tables():
    for n in range(4):
        V = generate_partner(U, 1, n)
        assert (V - printed_v(n)).is_zero(), n


def test_generated_partners_structural():
    for n in range(5):
        V = generate_partner(U, 1, n)
        assert V.trace_zero()
        assert V.sigma_symmetric()
        assert V.level == n


def test_two_routes_agree():
    W = solve_W(U, 7)
    gen = generating_function_expand(U, 1, 6, W)
    for n in range(6):
        assert (gen[n] - generate_partner(U, 1, n, W)).is_zero(), n


# V2 is the base of the dual hierarchy; the dual member D7 has degree 7, so
# its W-series to order 7 never differentiates along its eta direction
@pytest.mark.parametrize("X", [U, generate_partner(U, 1, 2), dual_hierarchy(2, 7)],
                         ids=["U", "V2", "D7"])
def test_neumann_series_matches_composition_sum(X):
    W = solve_W(X, 7)
    inv = _neumann_series(W, 7)
    one = DiffPoly.const(1)
    assert inv[0] == (one, Z, Z, one)
    for n in range(1, 8):
        assert inv[n] == alternating_products(W, n), n


def test_generating_function_order_zero_and_gamma_flip():
    gen_p = generating_function_expand(U, 1, 4)
    gen_m = generating_function_expand(U, -1, 4)
    half_i = HALF_I
    assert (gen_p[0] - sigma3(half_i)).is_zero()
    for a, b in zip(gen_p, gen_m):
        assert (a + b).is_zero()  # gamma -> -gamma flips every order


# --- the generating-function route against its Neumann-series reference -------

def _partners(Ys):
    return [(Y.xi, Y.coeffs) for Y in Ys]


def _check_against_neumann_reference(X, gamma, K, monkeypatch):
    want = _partners(generating_function_expand_neumann(X, gamma, K))
    assert len(want) == K
    assert _partners(generating_function_expand(X, gamma, K)) == want
    if K >= 2:  # a shorter W is solved again
        assert _partners(generating_function_expand(X, gamma, K, solve_W(X, K - 2))) == want
    # a W of order exactly K-1 is enough: it is used as given, not solved again
    W = solve_W(X, K - 1)

    def no_solve(*args):
        raise AssertionError("solve_W called although W was passed")

    monkeypatch.setattr(hierarchy, "solve_W", no_solve)
    assert _partners(generating_function_expand(X, gamma, K, W)) == want


@pytest.mark.parametrize("K", range(1, 11))
@pytest.mark.parametrize("gamma", [1, -1])
def test_generating_function_matches_neumann_reference_on_u(gamma, K, monkeypatch):
    _check_against_neumann_reference(U, gamma, K, monkeypatch)


@pytest.mark.parametrize("K", range(1, 7))
@pytest.mark.parametrize("level", [2, 3])
def test_generating_function_matches_neumann_reference_on_dual_base(level, K, monkeypatch):
    _check_against_neumann_reference(generate_partner(U, 1, level), -1, K, monkeypatch)


def test_generating_function_does_not_use_the_neumann_series(monkeypatch):
    want = _partners(generating_function_expand_neumann(U, 1, 8))

    def no_neumann(*args):
        raise AssertionError("the generating-function route built the Neumann series")

    monkeypatch.setattr(hierarchy, "_neumann_series", no_neumann)
    assert _partners(generating_function_expand(U, 1, 8)) == want


@pytest.mark.parametrize("K", [0, -1, -5])
def test_generating_function_rejects_order_below_one(K):
    with pytest.raises(ValueError, match=rf"K={K}\b"):
        generating_function_expand(U, 1, K)


@pytest.mark.slow
def test_two_routes_agree_through_v13():
    W = solve_W(U, 13)
    gen = generating_function_expand(U, 1, 14, W)
    assert _partners(gen) == _partners(generate_partner(U, 1, n, W) for n in range(14))


@pytest.mark.parametrize("n", range(2, 9))
def test_evolution_rules_match_the_default_partner(n):
    want = solve_evolution(U, generate_partner(U, 1, n))
    assert list(evolution_rules(n).items()) == list(want.items())


# --- zero curvature ---------------------------------------------------------------

def test_level_one_partner_is_minus_base():
    assert (generate_partner(U, 1, 1) + U).is_zero()


def test_evolution_level_1_is_translation():
    rules = evolution_rules(1)
    assert rules[pj(0, [(1, 1)])] == -v(pj(1))
    assert rules[qj(0, [(1, 1)])] == -v(qj(1))


def test_onshell_conservation_all_levels_through_three():
    lad = density_ladder(U, 4)
    for n in (1, 2, 3):
        rules = evolution_rules(n)
        for h in lad:
            dth = h.d_t(n).substitute(rules)
            assert dth.euler("psi").is_zero() and dth.euler("psibar").is_zero()


def test_dual_flow_direction_has_no_jets():
    D3 = dual_hierarchy(2, 3)
    V2 = generate_partner(U, 1, 2)
    with pytest.raises(ValueError):
        zero_curvature_residual(V2, D3)   # would need eta-jets, out of scope


def test_dual_w_series_beyond_its_degree_needs_eta_jets():
    # order 3 > degree 2 differentiates the dual matrix along its own flow
    D2 = dual_hierarchy(2, 2)
    assert D2.xi == ("eta", 2) and D2.degree() == 2
    with pytest.raises(ValueError):
        solve_W(D2, 3)


def test_evolution_level_2_schrodinger_flow():
    rules = evolution_rules(2)
    i = Coeff.i()
    assert rules[pj(0, [(2, 1)])] == v(pj(2), i) + mono([pj(), pj(), qj()], cf(0, -2, 2))
    assert rules[qj(0, [(2, 1)])] == v(qj(2), -i) + mono([pj(), qj(), qj()], cf(0, 2, 2))


def test_evolution_level_3_mkdv_flow():
    rules = evolution_rules(3)
    assert rules[pj(0, [(3, 1)])] == v(pj(3)) + mono([pj(), pj(1), qj()], cf(-6, 0, 2))


def test_zero_curvature_residual_vanishes_after_substitution():
    for n in (2, 3):
        V = generate_partner(U, 1, n)
        res = zero_curvature_residual(U, V)
        assert not res.is_zero()          # off shell it carries the flow
        rules = solve_evolution(U, V)
        assert res.substitute(rules).is_zero()


def test_solve_evolution_rejects_bad_pair():
    V2 = generate_partner(U, 1, 2)
    # deliberately corrupt the partner so no consistent flow exists
    bad = V2 + LaxMatrix({0: (mono([pj(), qj()]), Z, Z, -mono([pj(), qj()]))})
    with pytest.raises(ValueError):
        solve_evolution(U, bad)


# --- dual hierarchy ------------------------------------------------------------

def test_dual_hierarchy_reproduces_table():
    for m in range(4):
        D = dual_hierarchy(2, m)
        assert (D - printed_dual(m)).is_zero(), m


def test_dual_members_negate_flow_matrices_up_to_level_two():
    for m in range(3):
        D = dual_hierarchy(2, m)
        V = generate_partner(U, 1, m)
        assert (D + V).is_zero(), m


def test_dual_level_three_on_shell_duality():
    D3 = dual_hierarchy(2, 3)
    rules = evolution_rules(2)
    V3 = generate_partner(U, 1, 3)
    assert (on_shell(D3, rules) + V3).is_zero()


def test_dual_level_three_misprint_variant_breaks_zero_curvature():
    """Adding -2 kappa^(3/2)|psi|^2 psi to the t2-derivative entry (a variant
    that circulates in print) is inconsistent: it violates the on-shell
    duality with the level-3 flow matrix and leaves a lambda^2 obstruction in
    the zero-curvature equation that no dual flow can absorb, since the
    lambda^2 coefficient of the base matrix is constant."""
    D3 = dual_hierarchy(2, 3)
    rules = evolution_rules(2)
    V2 = generate_partner(U, 1, 2)
    V3 = generate_partner(U, 1, 3)
    extra = mono([pj(), pj(), qj()], cf(2, 0, 3))
    variant = D3 + LaxMatrix({0: (Z, extra.conjugate(), extra, Z)})
    assert not (on_shell(variant, rules) + V3).is_zero()

    def lam2_coefficient_of_curvature(Y):
        R = V2.matmul(Y) - Y.matmul(V2) - Y.d_along(("t", 2))
        return R.lam_coeff(2)

    assert all(x.is_zero() for x in lam2_coefficient_of_curvature(D3))
    assert any(not x.is_zero() for x in lam2_coefficient_of_curvature(variant))


def test_dual_on_shell_error_when_jets_survive():
    D3 = dual_hierarchy(2, 3)
    with pytest.raises(ValueError):
        on_shell(D3, {pj(0, [(2, 1)]): v(pj(2))})  # no rule for the conjugate jet


def test_on_shell_via_flag():
    D3 = dual_hierarchy(2, 3, rewrite_on_shell=True)
    V3 = generate_partner(U, 1, 3)
    assert (D3 + V3).is_zero()
