"""Exactness, calculus and canonical-form properties of the polynomial ring."""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nlsdual.ringcore import (Coeff, DiffPoly, JetVar, PSI, PSIBAR, SQRT_KAPPA,
                              is_total_x_derivative)
from helpers import (pj, qj, v, mono, cf, random_poly, random_x_poly, x_block, y_block,
                     nls_hamiltonian_density, poly_from_json)


def _polys(seed):
    rng = random.Random(seed)
    return [random_poly(rng) for _ in range(3)]


# --- coefficient ring -------------------------------------------------------

def test_coeff_arithmetic_exact():
    a = cf(Fraction(1, 3), Fraction(-2, 7), 1)
    b = cf(Fraction(2, 5), Fraction(1, 2), -2)
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) * a.inverse() == b * (a * a.inverse())
    assert a * a.inverse() == Coeff.one()
    assert a.conjugate().conjugate() == a


def test_coeff_sqrt_kappa_powers():
    assert SQRT_KAPPA * SQRT_KAPPA == cf(1, 0, 2)
    k32 = SQRT_KAPPA * cf(1, 0, 2)
    assert k32 == cf(1, 0, 3)
    assert cf(2, 0, 3).inverse() == cf(Fraction(1, 2), 0, -3)


def test_coeff_multi_term_not_invertible():
    c = cf(1) + cf(1, 0, 2)
    with pytest.raises(ArithmeticError):
        c.inverse()


# --- ring axioms (randomised, exact) ----------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_ring_axioms(seed):
    a, b, c = _polys(seed)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == DiffPoly.zero()


def _random_pairs(rng):
    """Pairs of random polynomials (sqrt(kappa) powers -1..2, parts that are
    zero, multi-term coefficients), some of them zero and some the negative
    of the pair before, so that their products cancel."""
    pairs = []
    for _ in range(rng.randint(0, 4)):
        a, b = (random_poly(rng) if rng.random() < 0.85 else DiffPoly.zero() for _ in range(2))
        pairs.append((a, b))
        if rng.random() < 0.3:
            pairs.append((-a, b) if rng.random() < 0.5 else (b, -a))
    return pairs


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_dot_is_the_sum_of_products(seed):
    pairs = _random_pairs(random.Random(seed))
    want = DiffPoly.sum(a * b for a, b in pairs)
    got = DiffPoly.dot(iter(pairs))
    assert got == want
    assert got.to_json_obj() == want.to_json_obj()
    assert repr(got) == repr(want)
    # canonical form: Fraction parts, sorted powers, no zero term
    for c in got.terms.values():
        assert c.terms == tuple(sorted(c.terms)) and hash(c) == hash(c.terms)
        assert all(type(x) is Fraction for _, re, im in c.terms for x in (re, im))
        assert all(re or im for _, re, im in c.terms)


def test_dot_edge_cases():
    a = x_block() + DiffPoly.const(cf(Fraction(2, 3), Fraction(-1, 5), -1))
    b = y_block() + v(qj(), cf(0, 3, 2))
    assert DiffPoly.dot([]).terms == {}
    assert DiffPoly.dot([(a, DiffPoly.zero()), (DiffPoly.zero(), b)]).terms == {}
    assert DiffPoly.dot([(a, b), (b, -a)]).terms == {}
    # real, imaginary and mixed parts against each other; the second pair
    # cancels the kappa-free part of the first where c1 is real
    parts = [cf(2), cf(0, 3), cf(1, -2), cf(Fraction(1, 2), 0, 1), cf(0, -1, -1), cf(1) + cf(0, 1, 2)]
    for c1 in parts:
        for c2 in parts:
            pairs = [(v(pj(), c1), v(qj(), c2)), (v(qj(), c2 * cf(-1)), v(pj(), cf(c1.terms[0][1])))]
            assert DiffPoly.dot(pairs) == DiffPoly.sum(x * y for x, y in pairs)
            assert DiffPoly.dot(pairs).to_json_obj() == DiffPoly.sum(x * y for x, y in pairs).to_json_obj()


def test_basic_ring_identities():
    psi = v(pj())
    assert psi + (-psi) == DiffPoly.zero()
    assert v(pj()) * v(qj()) == mono([pj(), qj()])
    pq = mono([pj(), qj()])
    assert pq * pq == mono([pj(), pj(), qj(), qj()])


# --- total derivatives -------------------------------------------------------

def test_dx_basics():
    assert v(pj()).d_x() == v(pj(1))
    assert mono([pj(), qj()]).d_x() == mono([pj(1), qj()]) + mono([pj(), qj(1)])
    assert v(pj(1)).d_t(2) == v(pj(1, [(2, 1)]))


# jets exist along x and the t_n only; the dual flow label ('eta', 2) is not t_2

def test_no_derivative_along_a_dual_flow_label():
    with pytest.raises(ValueError):
        DiffPoly.var(PSI).d_along(("eta", 2))
    assert DiffPoly.var(PSI).d_along(("t", 2)) == v(pj(0, [(2, 1)]))


def test_no_prolongation_along_a_dual_flow_label():
    with pytest.raises(ValueError):
        PSI.prolong_along(("eta", 2))
    assert PSI.prolong_along("x").prolong_along("x") is pj(2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_derivatives_commute_and_leibniz(seed):
    a, b, _ = _polys(seed)
    assert a.d_x().d_t(2) == a.d_t(2).d_x()
    assert a.d_t(2).d_t(3) == a.d_t(3).d_t(2)
    assert (a * b).d_x() == a.d_x() * b + a * b.d_x()
    assert (a * b).d_t(2) == a.d_t(2) * b + a * b.d_t(2)


# --- conjugation -------------------------------------------------------------

def test_conjugate_examples():
    assert v(pj(), Coeff.i()).conjugate() == v(qj(), -Coeff.i())
    assert y_block().conjugate() == v(qj(2), cf(1, 0, 1)) + mono([qj(), qj(), pj()], cf(-2, 0, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_conjugate_involution_and_morphism(seed):
    a, b, _ = _polys(seed)
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.d_x().conjugate() == a.conjugate().d_x()
    assert a.d_t(2).conjugate() == a.conjugate().d_t(2)


# --- scaling dimension -------------------------------------------------------

def test_scaling_dimension_examples():
    assert nls_hamiltonian_density().scaling_dimension() == 4
    assert (v(pj()) + mono([pj(), qj()])).scaling_dimension() is None
    assert x_block().scaling_dimension() == 3
    assert v(pj(0, [(3, 1)])).scaling_dimension() == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_scaling_dimension_grading(seed):
    rng = random.Random(seed)
    # homogeneous pieces: products of jets only (unit coefficients)
    jets = [pj(), qj(), pj(1), qj(2), pj(0, [(2, 1)])]
    a = mono([rng.choice(jets) for _ in range(rng.randint(1, 3))])
    b = mono([rng.choice(jets) for _ in range(rng.randint(1, 3))])
    da, db = a.scaling_dimension(), b.scaling_dimension()
    assert (a * b).scaling_dimension() == da + db
    assert a.d_x().scaling_dimension() == da + 1
    assert a.d_t(2).scaling_dimension() == da + 2


# --- Euler operator ----------------------------------------------------------

def test_euler_examples():
    assert mono([pj(), qj()]).d_x().euler("psi") == DiffPoly.zero()
    quartic = mono([pj(), pj(), qj(), qj()], cf(1, 0, 2))
    assert quartic.euler("psi") == mono([pj(), qj(), qj()], cf(2, 0, 2))
    assert mono([pj(1), qj(1)]).euler("psibar") == -v(pj(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_euler_kills_total_derivatives(seed):
    rng = random.Random(seed)
    a = random_x_poly(rng)
    d = a.d_x()
    assert d.euler("psi") == DiffPoly.zero()
    assert d.euler("psibar") == DiffPoly.zero()
    assert is_total_x_derivative(d)


def test_euler_rejects_t_jets():
    with pytest.raises(ValueError):
        v(pj(0, [(2, 1)])).euler("psi")


# --- substitution ------------------------------------------------------------

def test_substitute_empty_and_direct():
    assert v(pj(1)).substitute({}) == v(pj(1))
    rules = {pj(0, [(2, 1)]): v(pj(1))}
    # prolongation of a translation-like rule
    assert v(pj(1, [(2, 1)])).substitute(rules) == v(pj(2))


def test_substitute_nls_rule():
    # the level-2 flow rule collapses psi_t2 to x-jets
    rule = {pj(0, [(2, 1)]): v(pj(2), Coeff.i()) + mono([pj(), pj(), qj()], cf(0, -2, 2))}
    out = v(pj(0, [(2, 1)])).substitute(rule)
    assert out == v(pj(2), Coeff.i()) + mono([pj(), pj(), qj()], cf(0, -2, 2))
    # mixed jet psi_x,t2 goes through the prolonged rule
    out2 = v(pj(1, [(2, 1)])).substitute(rule)
    expected = (v(pj(2), Coeff.i()) + mono([pj(), pj(), qj()], cf(0, -2, 2))).d_x()
    assert out2 == expected


def test_substitute_cyclic_rejected():
    rules = {pj(): v(pj(1)), pj(1): v(pj())}
    with pytest.raises(ValueError):
        v(pj()).substitute(rules)


def test_substitute_power():
    rules = {pj(): v(qj()) + DiffPoly.const(1)}
    out = mono([pj(), pj()]).substitute(rules)
    assert out == mono([qj(), qj()]) + v(qj(), 2) + DiffPoly.const(1)


# --- serialization -----------------------------------------------------------

def test_json_roundtrip_and_stability():
    a = x_block() + y_block() + DiffPoly.const(cf(Fraction(2, 3), Fraction(-1, 5), -2))
    text = json.dumps(a.to_json_obj(), separators=(",", ":"))
    b = poly_from_json(text)
    assert a == b
    assert json.dumps(b.to_json_obj(), separators=(",", ":")) == text  # stable ordering
    obj = json.loads(text)
    assert all(set(e) == {"coeff", "jets"} for e in obj)


def test_canonical_equality():
    a = mono([pj(), qj(1)]) + mono([qj(1), pj()])
    b = mono([pj(), qj(1)], 2)
    assert a == b
    assert hash(a) == hash(b)


# --- interned jets -------------------------------------------------------------

def test_equal_jets_are_one_object():
    assert JetVar("psi", 2, ((2, 1),)) is JetVar("psi", 2, ((2, 1),))
    assert JetVar("psi", 0, ((3, 1), (2, 2))) is JetVar("psi", 0, ((2, 2), (3, 1)))
    assert JetVar("psi", 1, [(2, 1)]) is pj(1, [(2, 1)])
    assert PSI.prolong_x().prolong_t(2) is PSI.prolong_t(2).prolong_x()
    assert PSIBAR.conjugate_var() is PSI
    assert JetVar("psi", 1) is not JetVar("psibar", 1)
    assert JetVar("psi", 1) != JetVar("psi", 2)


def test_jets_are_frozen():
    v_ = pj(1)
    with pytest.raises(AttributeError):
        v_.dx = 3
    with pytest.raises(AttributeError):
        del v_.field
    assert v_.dx == 1 and v_ is pj(1)


def test_bad_jets_raise_on_every_attempt():
    for _ in range(3):
        with pytest.raises(ValueError):
            JetVar("psi", -1)
        with pytest.raises(ValueError):
            JetVar("psi", 0, ((2, 0),))
        with pytest.raises(ValueError):
            JetVar("psi", 0, ((-1, 1),))


def test_jet_copies_and_pickles_are_the_interned_jet():
    v_ = pj(3, [(2, 1)])
    assert copy.copy(v_) is v_
    assert copy.deepcopy(v_) is v_
    assert pickle.loads(pickle.dumps(v_)) is v_
    a = x_block() + y_block()
    for b in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a)
        assert all(u is w for m1, m2 in zip(sorted(a.terms, key=repr), sorted(b.terms, key=repr))
                   for u, w in zip(m1, m2))


def test_jet_order_is_the_sort_key():
    jets = [qj(1), pj(0, [(2, 1)]), pj(2), qj(), pj()]
    ordered = sorted(jets, key=JetVar.sort_key)
    assert ordered == [pj(), pj(0, [(2, 1)]), pj(2), qj(), qj(1)]
    assert mono(jets) == mono(ordered)
    assert tuple(mono(jets).terms) == (tuple(ordered),)


def test_traced_methods_stay_wrappable():
    # the benchmark's tracer replaces these class attributes at run time
    assert "__eq__" in JetVar.__dict__
    assert DiffPoly.__rmul__ is DiffPoly.__mul__


# --- Euler operators bounded by the input ---------------------------------------

def test_euler_along_has_no_order_limit():
    h = mono([qj(), pj(13)])
    assert h.euler("psi") == -v(qj(13))
    assert h.euler_along(PSI, "x") == h.euler("psi")
    t = mono([qj(), pj(0, [(2, 14)])])
    assert t.euler_along(PSI, ("t", 2)) == v(qj(0, [(2, 14)]))
