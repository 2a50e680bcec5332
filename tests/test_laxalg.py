"""Matrix algebra, tensor operations and the divided-difference r-matrix form."""

import copy
import pickle
import random

import pytest

from nlsdual.ringcore import KAPPA, SQRT_KAPPA, Coeff, DiffPoly
from nlsdual.laxalg import LaxMatrix, TensorMatrix, divided_difference, rmatrix_bracket_rhs
from nlsdual.latex import to_latex
from nlsdual.hierarchy import (WSeries, build_u, generate_partner, generating_function_expand,
                               solve_W)
from helpers import (pj, qj, v, cf, random_poly, embed1, embed2, field_matrix,
                     permutation, sigma3, tensor_matmul)

Z = DiffPoly.zero()


def random_lax(rng, deg=2):
    coeffs = {}
    for p in range(deg + 1):
        coeffs[p] = tuple(random_poly(rng, n_terms=2, max_deg=2) for _ in range(4))
    return LaxMatrix(coeffs)


def test_commutator_antisymmetry_and_self():
    rng = random.Random(7)
    for _ in range(5):
        A, B = random_lax(rng), random_lax(rng)
        assert A.commutator(A).is_zero()
        assert (A.commutator(B) + B.commutator(A)).is_zero()


def test_trace_of_commutator_vanishes():
    rng = random.Random(11)
    for _ in range(5):
        A, B = random_lax(rng), random_lax(rng)
        assert not A.commutator(B).trace()


def test_sigma3_field_matrix_commutator():
    # [sigma3, Q] = 2 sigma3 Q  (oracle: direct 2x2 multiplication)
    s3, Q = sigma3(), field_matrix()
    lhs = s3.commutator(Q)
    rhs = s3.matmul(Q).applyfunc(lambda x: x.scale(2))
    assert (lhs - rhs).is_zero()


def test_u_structure():
    U = build_u()
    assert U.trace_zero()
    assert U.sigma_symmetric()
    assert U.level == 1


def test_sigma_symmetry_closure():
    # the commutator of two symmetric traceless matrices is traceless, and --
    # since entrywise conjugation is multiplicative -- itself sigma-symmetric;
    # multiplying by i breaks the symmetry
    U = build_u()
    V2 = generate_partner(U, 1, 2)
    C = U.commutator(V2)
    assert C.trace_zero()
    assert C.sigma_symmetric()
    assert not C.applyfunc(lambda x: x.scale(Coeff.i())).sigma_symmetric()


def test_grading_of_commutator():
    U = build_u()
    V2 = generate_partner(U, 1, 2)
    C = U.commutator(V2)
    # the levels add: [U, V2] is graded of level 1 + 2
    assert C.level == 3


def test_sums_and_products_keep_only_a_common_direction():
    U = build_u()
    V2, V3 = generate_partner(U, 1, 2), generate_partner(U, 1, 3)
    assert (U.matmul(U).xi, U.matmul(U).level) == ("x", 2)
    assert (V3 - V3.applyfunc(lambda x: x.scale(2))).xi == ("t", 3)
    for A, B in ((U, V2), (U, V3), (V2, V3)):
        C = A.commutator(B)
        assert C.xi is None and C.level == A.level + B.level
        assert (A + B).xi is None and (A + B).level is None    # levels differ
    assert LaxMatrix({}).level is None


def test_sigma2_branch():
    # sqrt(kappa)(psibar E12 - psi E21) would be symmetric in a kappa<0
    # (sigma_2) branch only; sqrt(kappa) is real here, so it is not sigma_1-symmetric
    sk = SQRT_KAPPA
    M = LaxMatrix({0: (Z, v(qj(), sk), v(pj(), -sk), Z)})
    assert not M.sigma_symmetric()


# --- tensor space -------------------------------------------------------------

def test_permutation_squares_to_identity():
    P = permutation()
    PP = tensor_matmul(P, P)
    ident = TensorMatrix({(0, 0): tuple(DiffPoly.const(1) if i % 5 == 0 else Z for i in range(16))})
    assert (PP - ident).is_zero()


def test_permutation_swaps_slots():
    s3 = sigma3()
    P = permutation()
    assert (tensor_matmul(embed1(s3), P) - tensor_matmul(P, embed2(s3))).is_zero()
    rng = random.Random(3)
    A = random_lax(rng, deg=1)
    # P A1 P = A2 needs the mu-grading moved; compare at fixed powers
    lhs = tensor_matmul(tensor_matmul(P, embed1(A)), P)
    rhs = TensorMatrix({(0, p): e for (p, _), e in embed2(A).coeffs.items()})
    # embed2 grades in mu already; embed1 in lambda: P A1 P swaps the slot but
    # keeps the lambda grading
    rhs = TensorMatrix({(p, 0): e for (_, p), e in embed2(A).coeffs.items()})
    assert (lhs - rhs).is_zero()


def test_divided_difference_exactness():
    # (mu - lambda) * DA == A(mu) - A(lambda), compared by bigraded coefficients
    rng = random.Random(5)
    A = random_lax(rng, deg=3)
    DA = divided_difference(A)
    # (mu - lambda) * DA at bigrade (a, b): DA[(a, b-1)] - DA[(a-1, b)]
    prod = {}
    for (a, b), e in DA.items():
        cur = prod.setdefault((a, b + 1), [Z] * 4)
        prod[(a, b + 1)] = [x + y for x, y in zip(cur, e)]
        cur = prod.setdefault((a + 1, b), [Z] * 4)
        prod[(a + 1, b)] = [x - y for x, y in zip(cur, e)]
    # A(mu) - A(lambda): +A_j at (0, j), -A_j at (j, 0)
    want = {}
    for j, e in A.coeffs.items():
        cur = want.setdefault((0, j), [Z] * 4)
        want[(0, j)] = [x + y for x, y in zip(cur, e)]
        cur = want.setdefault((j, 0), [Z] * 4)
        want[(j, 0)] = [x - y for x, y in zip(cur, e)]
    keys = set(prod) | set(want)
    for kk in keys:
        a = prod.get(kk, [Z] * 4)
        b = want.get(kk, [Z] * 4)
        assert all((x - y).is_zero() for x, y in zip(a, b)), kk


def test_rmatrix_rhs_lambda_free_input():
    assert rmatrix_bracket_rhs(sigma3(), 1).is_zero()


def test_rmatrix_rhs_gamma_linearity():
    U = build_u()
    plus = rmatrix_bracket_rhs(U, 1)
    minus = rmatrix_bracket_rhs(U, -1)
    assert (plus + minus).is_zero()


def test_rmatrix_rhs_u_entries():
    # the ((1,2),(2,1)) tensor entry at lambda^0 mu^0 must be -i kappa,
    # matching the equal-time bracket of the two off-diagonal entries of U
    U = build_u()
    R = rmatrix_bracket_rhs(U, 1)
    e = R.coeffs[(0, 0)]
    # row (i,k) = (1,2) -> index 1; column (j,l) = (2,1) -> index 2
    assert e[4 * 1 + 2] == DiffPoly.const(cf(0, -1, 2))
    assert e[4 * 2 + 1] == DiffPoly.const(cf(0, 1, 2))


def test_rmatrix_rhs_against_bruteforce_products():
    # independent route: gamma*kappa*(embed1(DA) - embed2(DA'))*P via tensor products
    U = build_u()
    V2 = generate_partner(U, 1, 2)
    for A in (U, V2):
        DA = divided_difference(A)
        acc = TensorMatrix({})
        P = permutation()
        for (a, b), e in DA.items():
            M1 = embed1(LaxMatrix({0: e}))
            M2 = embed2(LaxMatrix({0: e}))
            term = tensor_matmul(M1 - TensorMatrix({(0, 0): M2.coeffs[(0, 0)]}), P)
            shifted = TensorMatrix({(a, b): ee for (_, _), ee in term.coeffs.items()})
            acc = acc + shifted
        kap = KAPPA
        acc = TensorMatrix({pw: tuple(x.scale(kap) for x in e) for pw, e in acc.coeffs.items()})
        assert (acc - rmatrix_bracket_rhs(A, 1)).is_zero()


def test_divided_difference_holds_the_coefficient_entries_themselves():
    # DA at (a, b) is A_j for a + b = j - 1: every such key, no other, and
    # the entry objects of A_j, not copies or sums
    U = build_u()
    for A in [U] + [generate_partner(U, 1, n) for n in range(2, 8)]:
        DA = divided_difference(A)
        assert sorted(DA) == sorted((a, j - 1 - a) for j in A.coeffs for a in range(j))
        for (a, b), e in DA.items():
            assert all(x is y for x, y in zip(e, A.coeffs[a + b + 1], strict=True))
    one = DiffPoly.const(1)
    e = (one, Z, Z, -one)
    with pytest.raises(ValueError, match="polynomial lambda dependence"):
        divided_difference(LaxMatrix({2: e, -1: e}))


def test_rmatrix_rhs_rejects_laurent():
    M = LaxMatrix({-1: (DiffPoly.const(1), Z, Z, DiffPoly.const(-1))})
    with pytest.raises(ValueError):
        rmatrix_bracket_rhs(M, 1)


def test_latex_and_json_emitters():
    U = build_u()
    tex = to_latex(U)
    assert tex.startswith("\\begin{pmatrix}") and "\\lambda" in tex and "\\psi" in tex
    obj = U.to_json_obj()
    assert set(obj) == {"xi", "level", "coeffs"}


def _value_objects():
    """One LaxMatrix, TensorMatrix and WSeries each, with a copy made
    independently and an unequal instance of the same class."""
    U = build_u()
    W2, W3 = solve_W(U, 2), solve_W(U, 3)
    return [
        (U, build_u(), U.shift_lambda(1)),
        (rmatrix_bracket_rhs(U, 1), rmatrix_bracket_rhs(build_u(), 1), TensorMatrix()),
        (W2, WSeries(X=build_u(), entries=W2.entries), W3),
    ]


@pytest.mark.parametrize("index", range(3), ids=["LaxMatrix", "TensorMatrix", "WSeries"])
def test_value_objects_are_immutable_unhashable_and_compare_by_value(index):
    obj, same, other = _value_objects()[index]
    assert obj == same and not obj != same
    assert obj != other and not obj == other
    assert obj != 3 and not obj == 3
    for name in ("coeffs", "X", "entries", "xi", "level", "anything_new"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    for name in ("coeffs", "X", "entries", "anything_new"):
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(TypeError):
        hash(obj)
    assert obj == same                  # the failed writes changed nothing
    assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_value_object_constructors_and_repr():
    one = DiffPoly.const(1)
    e = (one, Z, Z, one.scale(-1))
    # positional and keyword; entries that are zero are dropped
    A = LaxMatrix({0: e, 3: (Z, Z, Z, Z)})
    B = LaxMatrix(coeffs={0: e}, xi=("t", 2))
    assert A.coeffs == B.coeffs == {0: e}
    assert (A.xi, A.level) == ("x", 0) and (B.xi, B.level) == (("t", 2), 0)
    assert A != B and (A - B).is_zero()  # equal entries, other xi
    assert repr(B) == "LaxMatrix(xi=('t', 2), level=0)\n  lam^0: [[(1), 0], [0, (-1)]]"

    t = (one,) + (Z,) * 15
    assert TensorMatrix().coeffs == {} and TensorMatrix().is_zero()
    assert TensorMatrix({(1, 0): t, (0, 0): (Z,) * 16}).coeffs == {(1, 0): t}
    assert TensorMatrix(coeffs={(1, 0): t}) == TensorMatrix({(1, 0): t})
    assert repr(TensorMatrix()) == "TensorMatrix(coeffs={})"
    assert repr(TensorMatrix({(1, 0): t})) == f"TensorMatrix(coeffs={{(1, 0): {t!r}}})"

    U = build_u()
    W = solve_W(U, 1)
    assert WSeries(U, W.entries) == WSeries(X=U, entries=W.entries) == W
    assert repr(W) == f"WSeries(X={U!r}, entries={W.entries!r})"


def test_equality_compares_direction_and_level():
    # the two partner routes agree on the direction as well as the entries,
    # and the level derived from the entries is the partner's
    U = build_u()
    gen = generating_function_expand(U, +1, 5)
    for n in range(5):
        V = generate_partner(U, +1, n)
        assert V == gen[n] and (V.xi, V.level) == (("t", n), n)
        assert V != LaxMatrix(V.coeffs, xi="x")
        assert V.shift_lambda(1).level == n + 1
