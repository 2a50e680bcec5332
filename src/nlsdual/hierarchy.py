"""Hierarchy engine: abelianisation series, conserved densities, partners.

Given a traceless, sigma-symmetric Lax matrix X of lambda-degree N whose
leading diagonal part is proportional to sigma_3, this module solves the
off-diagonal series W = sum_n W^(n) lambda^-n of the gauge transformation
that diagonalises the auxiliary linear problem, extracts the ladder of real
local conserved densities, and generates the partner matrices of the
hierarchy (the t_n-flow matrices when starting from the x-translation
matrix, or the dual x-type matrices when starting from a t_n-flow matrix
with the opposite bracket sign gamma = -1).

Two independent routes to the partner matrices are provided: the order-by-
order recursion through the Neumann series of (1+W)^-1, and the expansion of
the closed-form generating function, which solves G (1+W) = (1+W) sigma_3
for G = (1+W) sigma_3 (1+W)^-1 instead.  They share only W; they must agree
and are cross-checked in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .ringcore import (Coeff, DiffPoly, JetVar, PSI, PSIBAR, SQRT_KAPPA, KAPPA, _frozen_delattr,
                       _frozen_setattr)
from .laxalg import Entry2, LaxMatrix, _add2, _mul2, _scale2, _zeros2

_Z = DiffPoly.zero()
_I = Coeff.i()
_HALF_I = Coeff.make(0, Fraction(1, 2))


def build_u() -> LaxMatrix:
    """The degree-1 x-translation matrix: -i(lambda/2) sigma_3 + sqrt(kappa) Q."""
    sk = SQRT_KAPPA
    return LaxMatrix(
        {
            1: (DiffPoly.const(Coeff.make(0, Fraction(-1, 2))), _Z, _Z, DiffPoly.const(_HALF_I)),
            0: (_Z, DiffPoly.var(PSIBAR, sk), DiffPoly.var(PSI, sk), _Z),
        },
        xi="x",
    )


# ---------------------------------------------------------------------------
# the W-series
# ---------------------------------------------------------------------------


class WSeries:
    """Coefficients W^(n), n = 1..K of the off-diagonal gauge series for X:
    ``entries[n-1]`` is W^(n).  Immutable and unhashable."""

    __slots__ = ("X", "entries")
    __match_args__ = __slots__
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init__(self, X: LaxMatrix, entries: tuple[Entry2, ...]):
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "entries", entries)

    def __reduce__(self):
        return (WSeries, (self.X, self.entries))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.X, self.entries) == (other.X, other.entries)

    def __repr__(self) -> str:
        return f"WSeries(X={self.X!r}, entries={self.entries!r})"

    @property
    def order(self) -> int:
        return len(self.entries)

    def w(self, n: int) -> Entry2:
        return self.entries[n - 1]


def _leading_sigma3_scale(X: LaxMatrix) -> Coeff:
    N = X.degree()
    top = X.lam_coeff(N)
    a, b, c, d = top
    if not (b.is_zero() and c.is_zero()):
        raise ValueError("leading lambda coefficient must be diagonal")
    if not (a + d).is_zero():
        raise ValueError("leading diagonal part not proportional to sigma_3")
    cc = a.constant_value()
    if not cc:
        raise ValueError("leading diagonal part must be a constant multiple of sigma_3")
    return cc


def solve_W(X: LaxMatrix, K: int) -> WSeries:
    """Solve for W^(1)..W^(K), one lambda-order of the Riccati equation at a time.

    The sign of the quadratic W*X_o*W sums is fixed by consistency with the
    matrix Riccati equation W_xi = X_d W - W X_d + X_o - W X_o W (the tests
    check its residual with ``riccati_residual`` in tests/helpers.py); with
    the opposite sign the series fails the Riccati test at third order already.
    ad(sigma_3) is inverted in closed form on off-diagonal matrices.
    """
    N = X.degree()
    if N < 1:
        # at N = 0 order n reads [c sigma_3, W^(n)] = d_xi W^(n) + ...: no recursion
        raise ValueError(f"solve_W needs a matrix of lambda-degree >= 1, got degree {N}")
    c_lead = _leading_sigma3_scale(X)
    inv2c = (c_lead * Coeff.make(2)).inverse()
    Xd = {j: X.diag_part().lam_coeff(j) for j in range(N + 1)}
    Xo = {j: X.off_part().lam_coeff(j) for j in range(N + 1)}

    def d_xi(e: Entry2) -> Entry2:
        return tuple(x.d_along(X.xi) for x in e)

    def ad_inv(R: Entry2) -> Entry2:
        if not (R[0].is_zero() and R[3].is_zero()):
            raise ValueError("diagonal residue nonzero in ad(sigma_3) inversion")
        # [c*sigma3, W] = R  =>  W = sigma3 R / (2c) for off-diagonal W
        return (_Z, R[1].scale(inv2c), -R[2].scale(inv2c), _Z)

    def comm(A: Entry2, B: Entry2) -> Entry2:
        return _add2(_mul2(A, B), _scale2(_mul2(B, A), -1))

    # order n reads [c sigma_3, W^(n)] = R with
    #   R = seed - sum_(q=1..min(n-1,N)) [X_d^(N-q), W^(n-q)]
    #       + sum_(p=0..N) sum_(a+b=n-N+p; a,b>=1) W^(a) X_o^(p) W^(b),
    # where the seed is -X_o^(N-n) up to order N and d_xi W^(n-N) beyond it
    W: dict[int, Entry2] = {}
    for n in range(1, K + 1):
        R = _scale2(Xo[N - n], -1) if n <= N else d_xi(W[n - N])
        for q in range(1, min(n - 1, N) + 1):
            R = _add2(R, _scale2(comm(Xd[N - q], W[n - q]), -1))
        for pp in range(N + 1):
            tot = pp - N + n
            for a in range(1, tot):
                R = _add2(R, _mul2(_mul2(W[a], Xo[pp]), W[tot - a]))
        W[n] = ad_inv(R)
    return WSeries(X, tuple(W[n] for n in range(1, K + 1)))


# ---------------------------------------------------------------------------
# conserved densities
# ---------------------------------------------------------------------------


def conserved_density(X: LaxMatrix, n: int, W: WSeries | None = None) -> DiffPoly:
    """Density of the n-th real local charge: (1/2i kappa) tr[sigma_3 sum_p X_o^(p) W^(p+n)].

    The sum runs over p = 0..N, N the lambda-degree of X, but X_o^(N) is
    zero: :func:`solve_W` accepts only an X whose leading coefficient is
    diagonal.  So W^(1)..W^(N+n-1) suffice; a W of that order is solved
    when omitted or shorter, and one solved for another matrix raises
    ValueError.  Reality (invariance under conjugation) is asserted.
    """
    if n < 1:
        raise ValueError("density index must be >= 1")
    if W is not None and not (W.X is X or W.X == X):
        raise ValueError("W was solved for another matrix than X")
    N = X.degree()
    if W is None or W.order < N + n - 1:
        W = solve_W(X, N + n - 1)
    Xo = {j: X.off_part().lam_coeff(j) for j in range(N + 1)}
    acc = _zeros2()
    for p in range(N + 1):
        if p + n <= W.order:
            acc = _add2(acc, _mul2(Xo[p], W.w(p + n)))
    # tr[sigma_3 M] = M00 - M11
    tr = acc[0] - acc[3]
    dens = tr.scale((Coeff.make(2) * _I * KAPPA).inverse())
    if not (dens.conjugate() - dens).is_zero():
        raise AssertionError("conserved density failed the reality check")
    return dens


def density_ladder(X: LaxMatrix, count: int) -> list[DiffPoly]:
    """Densities h^(1)..h^(count); h^(n) is homogeneous of dimension n+1 for
    the x-translation-based ladder."""
    if count < 1:
        raise ValueError(f"density count must be >= 1, got {count}")
    W = solve_W(X, X.degree() + count)
    return [conserved_density(X, n, W) for n in range(1, count + 1)]


# ---------------------------------------------------------------------------
# partner generation
# ---------------------------------------------------------------------------


def _neumann_series(W: WSeries, n: int) -> list[Entry2]:
    """inv[0..n]: the mu^-k coefficients of the Neumann series (1+W(mu))^-1.

    From (1+W) inv = 1: inv[0] = 1 and inv[k] = -sum_{j=1..k} W^(j) inv[k-j].
    """
    inv = [(DiffPoly.const(1), _Z, _Z, DiffPoly.const(1))]
    for k in range(1, n + 1):
        prods = [_mul2(W.w(j), inv[k - j]) for j in range(1, k + 1)]
        inv.append(tuple(-DiffPoly.sum(p[i] for p in prods) for i in range(4)))
    return inv


def _partner_direction(X: LaxMatrix, n: int):
    """Label the flow direction of the level-n partner of X."""
    if X.xi == "x":
        return ("t", n)
    return ("eta", n)


def generate_partner(X: LaxMatrix, gamma: int, n: int, W: WSeries | None = None) -> LaxMatrix:
    """Level-n partner matrix via the recursion.

    Base of the recursion: Y^(0) = (i gamma / 2) sigma_3, the value forced by
    the 1/mu expansion of the closed-form generating function (matching the
    printed level-0 matrix); then
    Y^(n) = lambda Y^(n-1) + i gamma sigma_3 * [(1+W)^-1 - 1]_(mu^-n).
    The result is traceless, sigma-symmetric and graded; these properties are
    exercised by the test suite rather than re-asserted on every call.
    Raises ValueError for a W solved for another matrix than X.
    """
    if gamma not in (1, -1):
        raise ValueError("gamma must be +1 or -1")
    if n < 0:
        raise ValueError("partner level must be >= 0")
    if W is not None and not (W.X is X or W.X == X):
        raise ValueError("W was solved for another matrix than X")
    if W is None or W.order < n:
        W = solve_W(X, max(n, 1) + 2)
    half_ig = Coeff.make(0, Fraction(gamma, 2))
    Y = LaxMatrix({0: (DiffPoly.const(half_ig), _Z, _Z, DiffPoly.const(-half_ig))},
                  xi=X.xi)
    ig = Coeff.make(0, Fraction(gamma))
    inv = _neumann_series(W, n)
    for k in range(1, n + 1):
        S = inv[k]
        # i*gamma*sigma_3 * S
        add = (S[0].scale(ig), S[1].scale(ig), -S[2].scale(ig), -S[3].scale(ig))
        Y = Y.shift_lambda(1) + LaxMatrix({0: add}, xi=X.xi)
    return LaxMatrix(Y.coeffs, xi=_partner_direction(X, n))


def generating_function_expand(X: LaxMatrix, gamma: int, K: int, W: WSeries | None = None) -> list[LaxMatrix]:
    """Partner matrices from the closed-form generating function.

    Expands gamma*kappa/(2i(lambda-mu)) G(mu), G = (1+W) sigma_3 (1+W)^-1, in
    1/mu to order K via the geometric series for 1/(lambda-mu), divides out
    the overall kappa of the expansion convention, and returns
    [Y^(0), ..., Y^(K-1)].  These read G[0..K-1] only, which follow from
    G (1+W) = (1+W) sigma_3 without inverting 1+W:
    G[0] = sigma_3 and G[n] = W^(n) sigma_3 - sum_{j=1..n} G[n-j] W^(j),
    so a W of order >= K-1 suffices (it is solved when omitted or shorter).
    The recurrence is linear, so it is run on (i gamma/2) G[n], the factor
    every Y reads, and each entry of a G[n] is one :meth:`DiffPoly.dot`.
    The route shares only W with :func:`generate_partner`, of which it is the
    independent cross-check.  Raises ValueError for K < 1 and for a W solved
    for another matrix than X.
    """
    if gamma not in (1, -1):
        raise ValueError("gamma must be +1 or -1")
    if K < 1:
        raise ValueError(f"generating function order K must be >= 1, got K={K}")
    if W is not None and not (W.X is X or W.X == X):
        raise ValueError("W was solved for another matrix than X")
    if W is None or W.order < K - 1:
        W = solve_W(X, K - 1)
    # With 1/(lambda-mu) = -sum_k lambda^k / mu^(k+1), collecting mu^-m in
    # gamma*kappa/(2i) * G(mu) / (lambda-mu) = kappa*sum Y^(m-1)/mu^m
    # gives Y^(m-1) = (i gamma/2) * sum_{k+n=m-1} lambda^k G[n].  Below G
    # holds (i gamma/2) G[n], so that entry (r, c) of G[n] is
    # W^(n)_rc (i gamma/2) (sigma_3)_cc + sum_(j,k) G[n-j]_rk (-W^(j))_kc
    half_ig = Coeff.make(0, Fraction(gamma, 2))
    seed = (DiffPoly.const(half_ig), DiffPoly.const(-half_ig))
    G = [(seed[0], _Z, _Z, seed[1])]
    neg_W = [None] + [tuple(-x for x in W.w(j)) for j in range(1, K)]
    for n in range(1, K):
        G.append(tuple(
            DiffPoly.dot([(W.w(n)[2 * r + c], seed[c])]
                         + [(G[n - j][2 * r + k], neg_W[j][2 * k + c])
                            for j in range(1, n + 1) for k in range(2)])
            for r in range(2) for c in range(2)))
    # each G[n] is shared by the K - n matrices that read it
    return [LaxMatrix({k: G[m - 1 - k] for k in range(m)}, xi=_partner_direction(X, m - 1))
            for m in range(1, K + 1)]


# ---------------------------------------------------------------------------
# zero curvature and evolution extraction
# ---------------------------------------------------------------------------


def zero_curvature_residual(X: LaxMatrix, Y: LaxMatrix) -> LaxMatrix:
    """d_eta X - d_xi Y + [X, Y] with xi = X.xi and eta = Y.xi."""
    return X.d_along(Y.xi) - Y.d_along(X.xi) + X.commutator(Y)


def solve_evolution(X: LaxMatrix, Y: LaxMatrix) -> dict[JetVar, DiffPoly]:
    """Extract the evolution rules hidden in the zero-curvature residual.

    The residual's entries must be expressible as (constant)*(unknown - F)
    plus terms free of the unknown jets, where the unknowns are the first
    eta-derivatives of the base fields.  Returns {psi_eta: F, psibar_eta: G}
    and verifies that the full residual vanishes identically after
    substitution (with automatic prolongation).  Raises if the residual is
    not reducible to evolution form.
    """
    res = zero_curvature_residual(X, Y)
    eta = Y.xi
    if eta == "x":
        raise ValueError("partner matrix has no evolution direction")
    lvl = eta[1]
    unknowns = [JetVar("psi", 0, ((lvl, 1),)), JetVar("psibar", 0, ((lvl, 1),))]
    rules: dict[JetVar, DiffPoly] = {}
    for u in unknowns:
        for p, e in sorted(res.coeffs.items()):
            for x in e:
                dx = x.diff(u)
                if dx.is_zero():
                    continue
                c = dx.constant_value()
                if not c:
                    continue  # unknown appears nonlinearly or with field-dependent coefficient
                rest = x - DiffPoly.var(u, c)
                if any(v in unknowns for v in rest.jets()):
                    continue
                rules[u] = rest.scale(-(c.inverse()))
                break
            if u in rules:
                break
        if u not in rules:
            raise ValueError(f"could not solve the zero-curvature residual for {u}")
    check = res.substitute(rules)
    if not check.is_zero():
        raise ValueError("zero-curvature residual does not vanish after substitution")
    return rules


def evolution_rules(n: int) -> dict[JetVar, DiffPoly]:
    """Level-n flow of the base fields, from the pair (U, V^(n)).

    V^(n) is the last matrix of the generating-function expansion to order
    n + 1, which reads W^(1)..W^(n) only, so W is solved to that order and
    passed in; that route builds V^(n) without the Neumann series of the
    recursion, and the two routes are equal matrices (the tests check it).
    """
    U = build_u()
    V = generating_function_expand(U, +1, n + 1, solve_W(U, max(n, 1)))[n]
    return solve_evolution(U, V)


# ---------------------------------------------------------------------------
# dual hierarchy
# ---------------------------------------------------------------------------


def dual_hierarchy(base_level: int, m: int, rewrite_on_shell: bool = False) -> LaxMatrix:
    """Partner hierarchy built on top of the level-``base_level`` flow matrix.

    Runs the W-series and partner recursion with X = V^(base_level),
    xi = t_base_level and gamma = -1.  With ``rewrite_on_shell`` the
    t-jets are eliminated in favour of x-jets using the level-``base_level``
    evolution rules; by default the raw form (mixing x- and t-jets exactly as
    produced by the recursion) is returned.
    """
    U = build_u()
    V = generate_partner(U, +1, base_level)
    dual = generate_partner(V, -1, m)
    if rewrite_on_shell:
        dual = on_shell(dual, solve_evolution(U, V))
    return dual


def on_shell(A: LaxMatrix, rules: dict[JetVar, DiffPoly]) -> LaxMatrix:
    """Rewrite t-jets into x-jets via evolution rules (with prolongation).

    Raises if jets of the rules' t-level survive the substitution.
    """
    out = A.substitute(rules)
    levels = {lv for key in rules for lv, _ in key.dt}
    for v in out.jets():
        if any(lv in levels for lv, _ in v.dt):
            raise ValueError(f"substitution cannot eliminate jet {v}")
    return out
