"""Ultralocal Poisson/Dirac bracket engine and the Lagrangian pipeline.

A bracket table declares a finite set of jet coordinates and the delta-
coefficients of their mutual brackets; everything else follows by the
Leibniz rule.  On top of that this module implements

* the variational bracket of an integrated density with a local polynomial,
* the tensor bracket {A_1(lambda), A_2(mu)} of a Lax matrix and the check
  of the ultralocal r-matrix identity against its divided-difference form,
* the Legendre/Dirac analysis of the hierarchy Lagrangians in either the
  time or the space direction, including the auxiliary-field reduction of
  higher-order Lagrangians, yielding the equal-time table and the level-
  dependent equal-space tables together with their Hamiltonian densities,
* integration-by-parts normalisation of densities and the construction of
  the level-n Lagrangian from the conserved-density ladder.

The checks that only the tests run (the Jacobi defect of a table, the full
x/t Euler operator and the Euler-Lagrange check of a reduction) are in
tests/helpers.py.

Conventions: {p, q} = 1 for a momentum p conjugate to a coordinate q, and
f' = {H, f} for the evolution generated by H.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .ringcore import Coeff, DiffPoly, JetVar, PSI, PSIBAR, _accumulate
from . import hierarchy
from .laxalg import LaxMatrix, TensorMatrix, rmatrix_bracket_rhs

_Z = DiffPoly.zero()
_I = Coeff.i()
_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# bracket tables
# ---------------------------------------------------------------------------


class BracketTable:
    """Ultralocal bracket on a declared, ordered set of jet coordinates.

    ``entries`` holds the delta-coefficients for ordered pairs; the
    antisymmetric completion is generated automatically, and closure (every
    entry a polynomial in the declared coordinates) is enforced.  A mirror
    pair that disagrees is refused, and so is a nonzero diagonal entry, its
    own mirror.
    """

    def __init__(self, coords: Sequence[JetVar], entries: Mapping[tuple[JetVar, JetVar], DiffPoly],
                 label: str = ""):
        self.coords = tuple(coords)
        cset = set(self.coords)
        full: dict[tuple[JetVar, JetVar], DiffPoly] = {}
        for (a, b), v in entries.items():
            if a not in cset or b not in cset:
                raise ValueError(f"table entry uses undeclared coordinate {(a, b)}")
            if v.is_zero():
                continue
            if not v.jets() <= cset:
                raise ValueError(f"table entry for {(a, b)} depends on undeclared jets")
            full[(a, b)] = v
            if (b, a) in entries and not (entries[(b, a)] + v).is_zero():
                raise ValueError(f"entries for {(a, b)} and {(b, a)} are not antisymmetric")
            full[(b, a)] = -v
        self.entries = full
        self.rows: dict[JetVar, dict[JetVar, DiffPoly]] = {}   # rows[a][b] = entries[(a, b)]
        for (a, b), v in full.items():
            self.rows.setdefault(a, {})[b] = v
        self.label = label

    def entry(self, a: JetVar, b: JetVar) -> DiffPoly:
        return self.entries.get((a, b), _Z)

    def nonzero_pairs(self):
        seen = set()
        for (a, b), v in sorted(self.entries.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())):
            if (b, a) in seen:
                continue
            seen.add((a, b))
            yield a, b, v

    def __repr__(self) -> str:
        lines = [f"BracketTable({self.label or 'unnamed'}; coords={list(self.coords)})"]
        for a, b, v in self.nonzero_pairs():
            lines.append(f"  {{{a!r}, {b!r}}} = {v!r}")
        return "\n".join(lines)


def _gradient(f: DiffPoly, table: BracketTable) -> dict[JetVar, DiffPoly]:
    """{a: df/da} over the jets a of f, none of them zero; every jet must be
    a declared coordinate (differentiated coordinates are rejected)."""
    jets = f.jets()
    bad = jets.difference(table.coords)
    if bad:
        raise ValueError(f"undeclared jets in bracket argument: {sorted(bad, key=JetVar.sort_key)}")
    return {a: f.diff(a) for a in jets}


def _covector(grad: Mapping[JetVar, DiffPoly], table: BracketTable, only=None) -> dict[JetVar, DiffPoly]:
    """{c: sum_b G_b T[b, c]} for a gradient {b: G_b}, zero components left out,
    and only for the coordinates c in ``only`` when it is given.

    For the gradient of f this is {f, c} for every coordinate c, so that
    {f, g} = sum_c cov[c] dg/dc; for an Euler gradient it is the flow.
    """
    parts: dict[JetVar, list] = {}
    for b, g in grad.items():
        for c, t in table.rows.get(b, {}).items():
            if only is None or c in only:
                parts.setdefault(c, []).append((g, t))
    return {c: s for c, pairs in parts.items() if (s := DiffPoly.dot(pairs))}


def _contract(cov: Mapping[JetVar, DiffPoly], grad: Mapping[JetVar, DiffPoly]) -> DiffPoly:
    """sum_c cov[c] G_c: the bracket of the covector's function with the gradient's."""
    return DiffPoly.dot((cov[c], g) for c, g in grad.items() if c in cov)


def leibniz_bracket(f: DiffPoly, g: DiffPoly, table: BracketTable) -> DiffPoly:
    """Bilinear Leibniz extension of the table; strictly ultralocal.

    Both arguments must be polynomials in the declared coordinates alone;
    differentiated coordinates are rejected.
    """
    df, dg = _gradient(f, table), _gradient(g, table)
    return _contract(_covector(df, table, only=dg), dg)


def _flows(h: DiffPoly, table: BracketTable, w) -> dict[JetVar, DiffPoly]:
    """The nonzero flows {integral of h, c}: the covector of h's Euler gradient."""
    for v in h.jets():
        if _strip_prolongation(v, table.coords, w) is None:
            raise ValueError(f"density contains undeclared jet {v}")
    euler = {b: e for b in table.coords if (e := h.euler_along(b, w))}
    return _covector(euler, table)


def _strip_prolongation(v: JetVar, coords: Sequence[JetVar], w):
    """The coordinate that v is a w-prolongation of, or None."""
    for c in coords:
        if v.prolongation_depth(c, w) is not None:
            return c
    return None


def integral_bracket(h: DiffPoly, g: DiffPoly, table: BracketTable, w) -> DiffPoly:
    """{integral of h, g} for a local polynomial g in the coordinates and
    their w-prolongations."""
    return _bracket_by_flows(_flows(h, table, w), g, table.coords, w)


def _bracket_by_flows(flows: Mapping[JetVar, DiffPoly], g: DiffPoly, coords, w) -> DiffPoly:
    """{integral of h, g} from the flows of h, so that several g can share them."""
    # (v, c, k) for every jet v of g that is a coordinate c prolonged k times
    parts = []
    for v in g.jets():
        found = [(v, c, k) for c in coords if (k := v.prolongation_depth(c, w)) is not None]
        if not found:
            raise ValueError(f"undeclared jet {v} in bracket argument")
        parts += [p for p in found if p[1] in flows]
    # d_w^k of each flow, built up once per coordinate
    lifted = {c: [flows[c]] for _, c, _ in parts}
    for _, c, k in parts:
        while len(lifted[c]) <= k:
            lifted[c].append(lifted[c][-1].d_along(w))
    return DiffPoly.dot((g.diff(v), lifted[c][k]) for v, c, k in parts)


# ---------------------------------------------------------------------------
# tensor bracket of Lax matrices and the r-matrix identity
# ---------------------------------------------------------------------------


def matrix_bracket(A: LaxMatrix, table: BracketTable) -> TensorMatrix:
    """{A_1(lambda), A_2(mu)} entrywise, as a (lambda, mu)-bigraded 4x4.

    Block (pa, pb) holds {A[pa][ij], A[pb][kl]} at row 2i+k, column 2j+l.
    The bracket is antisymmetric, so each unordered pair of entries is
    bracketed once and block (pb, pa) at (kl, ij) gets the negative of block
    (pa, pb) at (ij, kl).  It is also bilinear, so an entry equal to an
    earlier one or to its negative reuses that entry's gradient, covector
    and brackets, and {x, +-x} = 0 is not computed at all: each distinct
    entry up to sign is differentiated and contracted with the table once.
    That is exact for any A; a traceless one, such as every V_n, has at each
    lambda-power an entry that is minus another.
    """
    xs = [(pa, ij, x) for pa, ea in A.coeffs.items() for ij, x in enumerate(ea) if x]
    acc = {(pa, pb): [_Z] * 16 for pa in A.coeffs for pb in A.coeffs}

    def put(pa, ij, pb, kl, v):
        acc[(pa, pb)][4 * (2 * (ij // 2) + kl // 2) + 2 * (ij % 2) + kl % 2] = v

    distinct: list[DiffPoly] = []
    first: dict[DiffPoly, int] = {}
    where = []                              # (index into distinct, sign) per entry
    for _, _, x in xs:
        if (r := first.get(x)) is not None:
            where.append((r, 1))
        elif (r := first.get(-x)) is not None:
            where.append((r, -1))
        else:
            first[x] = len(distinct)
            where.append((len(distinct), 1))
            distinct.append(x)
    grads = [_gradient(x, table) for x in distinct]
    covs = [_covector(g, table) for g in grads]
    done: dict[tuple[int, int], tuple[DiffPoly, DiffPoly] | None] = {}
    for n, (pa, ij, _) in enumerate(xs):
        r, s = where[n]
        for m in range(n + 1, len(xs)):
            q, t = where[m]
            if q == r:
                continue
            sign = s * t if r < q else -s * t
            key = (r, q) if r < q else (q, r)
            if key not in done:
                v = _contract(covs[key[0]], grads[key[1]])
                done[key] = (v, -v) if v else None
            if (vs := done[key]) is not None:
                pb, kl, _ = xs[m]
                v, mirror = vs if sign > 0 else vs[::-1]
                put(pa, ij, pb, kl, v)
                put(pb, kl, pa, ij, mirror)
    return TensorMatrix({k: tuple(v) for k, v in acc.items()})


def verify_rmatrix(A: LaxMatrix, table: BracketTable, gamma: int) -> dict:
    """Check {A_1, A_2} = gamma * [rational-r-matrix form] entry by entry.

    Returns a structured report; status is 'pass' only when every entry of
    the difference vanishes identically.  The two sides are compared block
    by block and entry by entry, and only the entries that differ are
    subtracted.
    """
    lhs = matrix_bracket(A, table).coeffs
    rhs = rmatrix_bracket_rhs(A, gamma).coeffs
    zeros = (_Z,) * 16
    residuals = [
        {"lambda_pow": pw[0], "mu_pow": pw[1], "row": idx // 4, "col": idx % 4,
         "residual": repr(x - y)}
        for pw in sorted(lhs.keys() | rhs.keys())
        for idx, (x, y) in enumerate(zip(lhs.get(pw, zeros), rhs.get(pw, zeros)))
        if x != y
    ]
    return {
        "identity": f"ultralocal r-matrix algebra, table {table.label or 'unnamed'}",
        "gamma": gamma,
        "status": "pass" if not residuals else "fail",
        "per_entry_residuals": residuals,
    }


# ---------------------------------------------------------------------------
# integration-by-parts normal form for densities
# ---------------------------------------------------------------------------


def byparts_normal_form(h: DiffPoly) -> DiffPoly:
    """Equivalent density (same Euler derivatives) in the balanced form.

    First every monomial whose single highest-order jet sits at least two
    orders above the rest is depressed by parts (:func:`_depress`); then
    conjugate monomial pairs whose sum is a total derivative are
    antisymmetrised (:func:`_antisymmetrise`).  For the hierarchy densities
    this lands on the form whose top term is d^p psibar d^p psi (even level)
    or i(d^p psibar d^(p+1) psi - c.c.) (odd level).
    """
    for v in h.jets():
        if v.dt:
            raise ValueError("normal form applies to x-jet densities only")
    return _antisymmetrise(_depress(h))


def _depress(h: DiffPoly) -> dict:
    """The terms of h with every depressible monomial integrated by parts.

    A monomial c * u_k * r qualifies when u_k is its only jet of the top
    order k and the nonempty rest r has orders at most k - 2; modulo a total
    derivative it is -c * u_(k-1) * d_x(r), whose monomials all have top
    order exactly k - 1.  So one sweep over buckets keyed by top order, from
    max_x_order down to 0, terminates: a bucket receives terms only from the
    one above, all of them (cancellations included) before it is processed.
    Depression is linear and takes whole coefficients, so the result does
    not depend on the order in which monomials are processed.
    """
    buckets: list[dict] = [{} for _ in range(h.max_x_order() + 1)]
    for mono, c in h.terms.items():
        buckets[max((v.dx for v in mono), default=0)][mono] = c
    settled = {}
    for k in range(len(buckets) - 1, -1, -1):
        for mono, c in buckets[k].items():
            if not c:
                continue
            top = [v for v in mono if v.dx == k]
            rest = [v for v in mono if v.dx < k]
            if len(top) == 1 and rest and max(v.dx for v in rest) <= k - 2:
                lowered = DiffPoly.var(JetVar(top[0].field, k - 1, top[0].dt), -c)
                _accumulate(buckets[k - 1], (lowered * DiffPoly.monomial(rest).d_x()).terms)
            else:
                settled[mono] = c
    return settled


def _antisymmetrise(terms: dict) -> DiffPoly:
    """Replace the coefficients (cm, cc) of each conjugate monomial pair whose
    sum is a total x-derivative by (a, -a), a = (cm - cc)/2, which changes the
    density by a multiple of that total derivative.

    The pair's sum p = m + conj(m) has no constant term and only x-jets, so
    it is a total x-derivative exactly when its Euler derivatives in psi and
    psibar both vanish (Olver, GTM 107, ch. 4).  Conjugation fixes p and
    carries E_psi(p) to E_psibar(p), so E_psi(p) = 0 decides.
    """
    out = dict(terms)
    done = set()
    for mono in sorted(terms, key=lambda m: tuple(v.sort_key() for v in m)):
        if mono in done:
            continue
        conj = tuple(sorted((v.conjugate_var() for v in mono), key=JetVar.sort_key))
        if conj == mono or conj in done:
            continue
        done.add(mono)
        done.add(conj)
        if (DiffPoly.monomial(mono) + DiffPoly.monomial(conj)).euler_along(PSI, "x"):
            continue
        a = (out[mono] - out.get(conj, Coeff.zero())) * Coeff.make(_HALF)
        out[mono] = a
        out[conj] = -a
    return DiffPoly(out)


def kinetic_term(n: int) -> DiffPoly:
    """(i/2)(psibar * psi_{t_n} - psi * psibar_{t_n})."""
    half_i = Coeff.make(0, _HALF)
    pt = JetVar("psi", 0, ((n, 1),))
    qt = JetVar("psibar", 0, ((n, 1),))
    return DiffPoly.monomial([PSIBAR, pt], half_i) - DiffPoly.monomial([PSI, qt], half_i)


def build_level_lagrangian(n: int) -> DiffPoly:
    """Level-n Lagrangian: kinetic term minus the normalised level-n density.

    The density is the (n+1)-st entry of the conserved-density ladder of the
    x-translation matrix, brought to the balanced by-parts normal form; the
    relative normalisation between the ladder and the Hamiltonian densities
    is exactly 1 in these conventions (fixed by the level-2 match).
    """
    U = hierarchy.build_u()
    dens = hierarchy.conserved_density(U, n + 1)
    return kinetic_term(n) - byparts_normal_form(dens)


# ---------------------------------------------------------------------------
# Ostrogradski reduction of higher-order Lagrangians
# ---------------------------------------------------------------------------

_BASE_FIELDS = ("phi1", "phi2")


def _chain_field(k: int, j: int) -> str:
    return _BASE_FIELDS[j] if k == 0 else f"c{k}_{j + 1}"


def _mu_field(k: int, j: int) -> str:
    return f"m{k}_{j + 1}"


class Reduction:
    """First-order auxiliary system equivalent to a higher-order Lagrangian."""

    __slots__ = ("original", "level", "order", "lagrangian", "coord_fields")

    def __init__(self, original: DiffPoly, level: int, order: int, lagrangian: DiffPoly,
                 coord_fields: tuple[str, ...]):
        self.original = original
        self.level = level                  # t-level of the kinetic term
        self.order = order                  # highest x-derivative in the original
        self.lagrangian = lagrangian        # auxiliary first-order Lagrangian
        self.coord_fields = coord_fields    # phi's, chain fields, multipliers (in order)


def ostrogradski_reduce(L: DiffPoly) -> Reduction:
    """Rewrite a Lagrangian with x-derivatives of order up to K as a first-
    order system, adjoining chain fields for the lower jets and one Lagrange
    multiplier per chain constraint.

    A first-order Lagrangian passes through with only the field renaming.
    """
    levels = L.t_levels()
    if len(levels) != 1:
        raise ValueError("expected exactly one t-level in the Lagrangian")
    level = levels.pop()
    K = max(L.max_x_order(), 1)
    for v in L.jets():
        if v.dt and v.dx:
            raise ValueError("mixed x/t jets are not supported in the Lagrangian")
        if v.field not in ("psi", "psibar"):
            raise ValueError(f"unexpected field {v.field!r} in the Lagrangian")

    rules = {}
    for j, psi_name in enumerate(("psi", "psibar")):
        for dx in range(0, K + 1):
            target = (JetVar(_chain_field(dx, j), 0) if dx < K
                      else JetVar(_chain_field(K - 1, j), 1))
            rules[JetVar(psi_name, dx)] = DiffPoly.var(target)
        rules[JetVar(psi_name, 0, ((level, 1),))] = DiffPoly.var(JetVar(_BASE_FIELDS[j], 0, ((level, 1),)))
    Laux = L._replace_jets(rules)

    coord_fields = list(_BASE_FIELDS)
    for k in range(1, K):
        coord_fields += [_chain_field(k, 0), _chain_field(k, 1)]
    for k in range(1, K):
        for j in range(2):
            mu = JetVar(_mu_field(k, j), 0)
            lower = JetVar(_chain_field(k - 1, j), 1)  # x-velocity of the previous link
            chain = JetVar(_chain_field(k, j), 0)
            Laux = Laux + DiffPoly.var(mu) * (DiffPoly.var(chain) - DiffPoly.var(lower))
            coord_fields.append(_mu_field(k, j))
    return Reduction(L, level, K, Laux, tuple(coord_fields))


# ---------------------------------------------------------------------------
# the Dirac pipeline
# ---------------------------------------------------------------------------


class ConstraintSystem:
    __slots__ = ("coords", "momenta", "lagrangian", "constraints", "constraint_names", "M",
                 "Minv", "multipliers")

    def __init__(self, coords: tuple[JetVar, ...], momenta: tuple[JetVar, ...],
                 lagrangian: DiffPoly, constraints: tuple[DiffPoly, ...],
                 constraint_names: tuple[str, ...], M: tuple[tuple[Coeff, ...], ...],
                 Minv: tuple[tuple[Coeff, ...], ...], multipliers: tuple[DiffPoly, ...]):
        self.coords = coords                # coordinates, in declaration order
        self.momenta = momenta              # conjugate momenta, same order
        self.lagrangian = lagrangian
        self.constraints = constraints      # primary constraints, paper ordering
        self.constraint_names = constraint_names
        self.M = M                          # {C_j, C_k}, constant entries
        self.Minv = Minv
        self.multipliers = multipliers      # fixed by the consistency conditions


class LegendreResult:
    __slots__ = ("direction", "level", "hamiltonian_density", "table", "constraints")

    def __init__(self, direction: object, level: int, hamiltonian_density: DiffPoly,
                 table: BracketTable, constraints: ConstraintSystem | None):
        self.direction = direction          # ('t', n) for time, 'x' for space
        self.level = level
        self.hamiltonian_density = hamiltonian_density  # in psi/psibar jets
        self.table = table                  # in psi/psibar jets
        self.constraints = constraints


def _momentum_of(c: JetVar) -> JetVar:
    return JetVar("P_" + c.field, 0)


def _solve_linear_coeff_system(A: list[list[Coeff]],
                               rhs: list[list[DiffPoly]]) -> list[list[DiffPoly]]:
    """Solve A X = rhs exactly (A constant, entries invertible where pivoted)
    for several right-hand sides in one elimination: row i of ``rhs`` holds
    the i-th entry of each, and row i of the result the i-th entry of each
    solution."""
    n = len(A)
    M = [row[:] for row in A]
    b = [row[:] for row in rhs]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if not M[r][col].is_zero() and M[r][col].is_single_term():
                piv = r
                break
        if piv is None:
            raise ValueError("constraint matrix is singular (first-class constraints present?)")
        M[col], M[piv] = M[piv], M[col]
        b[col], b[piv] = b[piv], b[col]
        inv = M[col][col].inverse()
        M[col] = [x * inv for x in M[col]]
        b[col] = [x.scale(inv) for x in b[col]]
        for r in range(n):
            if r == col or M[r][col].is_zero():
                continue
            f = M[r][col]
            M[r] = [x - f * y for x, y in zip(M[r], M[col])]
            b[r] = [x - y.scale(f) for x, y in zip(b[r], b[col])]
    return b


def _invert_coeff_matrix(A: list[list[Coeff]]) -> list[list[Coeff]]:
    """A^-1, solving for every column of the identity in one elimination."""
    n = len(A)
    one = DiffPoly.const(Coeff.one())
    X = _solve_linear_coeff_system(A, [[one if i == j else _Z for j in range(n)] for i in range(n)])
    return [[x.coefficient(()) for x in row] for row in X]


def _constraint_rank(fieldname: str) -> int:
    """Paper order of the constraints: base fields, then the chain fields from
    the highest link down, then the multipliers."""
    if fieldname.startswith("m"):
        return 2
    if fieldname.startswith("c"):
        return -int(fieldname[1:].split("_")[0])
    return 0


def _legendre(Lwork: DiffPoly, coords: list[JetVar], xi):
    """Stage 1: momenta, canonical Hamiltonian and primary constraints.

    The momentum relations p_i = dL/d(velocity_i) that contain velocities
    are solved for them; the others are the primary constraints, and each
    unsolved velocity must appear in the Hamiltonian multiplied by its own
    constraint, which is then dropped.  Returns the momenta, the canonical
    Hamiltonian, and the constraints with their names in paper order.
    """
    momenta = [_momentum_of(c) for c in coords]
    velocities = [c.prolong_along(xi) for c in coords]
    pi_exprs = [Lwork.diff(v) for v in velocities]
    vel_set = set(velocities)
    constrained = [i for i, e in enumerate(pi_exprs) if not (e.jets() & vel_set)]
    solvable = [i for i in range(len(coords)) if i not in constrained]

    # the regular block is linear with constant coefficients in its velocities
    A, bvec = [], []
    for i in solvable:
        row = [pi_exprs[i].diff(velocities[j]).constant_value() for j in solvable]
        if None in row:
            raise ValueError("momentum relation is not linear with constant coefficients")
        rest = pi_exprs[i] - DiffPoly.sum(DiffPoly.var(velocities[j], c) for j, c in zip(solvable, row))
        A.append(row)
        bvec.append(DiffPoly.var(momenta[i]) - rest)
    sol = _solve_linear_coeff_system(A, [[e] for e in bvec])
    sol_vel = {velocities[i]: x for i, (x,) in zip(solvable, sol)}

    Hc = DiffPoly.sum(DiffPoly.var(p) * DiffPoly.var(v) for p, v in zip(momenta, velocities))
    Hc = (Hc - Lwork)._replace_jets(sol_vel)
    keyed = []
    for i in constrained:
        C = DiffPoly.var(momenta[i]) - pi_exprs[i]
        if Hc.diff(velocities[i]) != C:
            raise AssertionError("unsolved velocity does not factor through its constraint")
        Hc = Hc - DiffPoly.var(velocities[i]) * C
        keyed.append((_constraint_rank(coords[i].field), i, C))
    if Hc.jets() & vel_set:
        raise AssertionError("velocities survive the Legendre transform")
    keyed.sort(key=lambda t: t[:2])
    return (momenta, Hc, [C for _, _, C in keyed],
            [f"C[{coords[i].field}]" for _, i, _ in keyed])


def _constraint_matrix(covs, grads):
    """Stage 2: M[a][b] = {C_a, C_b}, which must be constant, and its inverse.

    ``covs[a]`` and ``grads[a]`` are the covector and the gradient of C_a, so
    {C_a, C_b} is the contraction of the one with the other.
    """
    M = []
    for cov in covs:
        row = [_contract(cov, grad).constant_value() for grad in grads]
        if None in row:
            raise ValueError("field-dependent constraint matrix is not supported")
        M.append(row)
    return M, _invert_coeff_matrix(M)


def _elim_priority(v: JetVar) -> int:
    """Multiplier momenta first, then multipliers, then momenta, then the rest."""
    if v.field.startswith("P_m"):
        return 0
    if v.field.startswith("m"):
        return 1
    if v.field.startswith("P_"):
        return 2
    return 3


def _elimination_map(constraints: list[DiffPoly]) -> dict[JetVar, DiffPoly]:
    """Stage 3: one phase coordinate solved from each constraint.  No right-hand
    side may hold an eliminated coordinate, so no closing substitution is
    needed; ValueError names the coordinate whose elimination holds one."""
    elim: dict[JetVar, DiffPoly] = {}
    for C in constraints:
        cands = sorted((v for v in C.jets() if v not in elim), key=lambda v: (_elim_priority(v), v.sort_key()))
        for v in cands:
            c0 = C.diff(v).constant_value()
            if c0 and c0.is_single_term():
                break
        else:
            raise ValueError("cannot solve a constraint for any variable")
        elim[v] = (DiffPoly.var(v, c0) - C).scale(c0.inverse())
    for v, e in elim.items():
        if not e.jets().isdisjoint(elim):
            raise ValueError(f"the elimination of {v} holds an eliminated coordinate")
    return elim


def _dirac_table(phase: list[JetVar], covs, canonical: BracketTable,
                 Minv, elim: Mapping[JetVar, DiffPoly], label: str) -> BracketTable:
    """Stage 4: the Dirac table on the coordinates that survive elimination.

    {v, u}_D = {v, u} - sum_ab {v, C_a} Minv[a][b] {C_b, u}, where {v, C_a} =
    -covs[a][v] and {C_b, u} = covs[b][u]; the signs cancel against the
    leading minus, so K[v][a] = covs[a][v] is read off unnegated.  Under the
    Dirac bracket the constraints hold strongly, so only the pairs of
    coordinates that are not eliminated are bracketed.

    No entry holds an eliminated coordinate, so none is substituted.  Each
    constraint is P_i - a_i, where a_i, the coefficient of the i-th
    velocity, holds no momentum, so each K[v][a] is a function of the
    fields and the multipliers.  A multiplier m enters the reduced
    Lagrangian only as m (c - c'_x), so the a_i are linear in it with
    constant coefficients, and no K[v][a] of a surviving v holds one.  Each
    constraint holds its own momentum with coefficient 1, so stage 3
    eliminates momenta and multipliers only, never a field.  A field other
    than psi and psibar raises: the space reduction refuses it, and the
    time direction finds an undeclared jet.
    """
    reduced = [v for v in phase if v not in elim]
    K = {v: [cov.get(v, _Z) for cov in covs] for v in reduced}
    minv = [(a, b, c) for a, row in enumerate(Minv) for b, c in enumerate(row) if c]
    entries = {}
    for i, v in enumerate(reduced):
        for u in reduced[i + 1:]:
            Kv, Ku = K[v], K[u]
            entries[(v, u)] = DiffPoly.sum(
                [canonical.entry(v, u)]
                + [(Kv[a] * Ku[b]).scale(c) for a, b, c in minv if Kv[a] and Ku[b]])
    return BracketTable(reduced, entries, label=label)


def _multipliers(Hred: DiffPoly, grads, canonical: BracketTable, w, Minv) -> list[DiffPoly]:
    """Stage 5: the alpha_k fixed by {H*, C_j} + sum_k alpha_k {C_k, C_j} = 0,
    that is alpha = -(M^-1)^T {H*, C}; {H*, C_j} contracts H*'s flows with
    C_j's gradient, and by stage 4's argument holds no eliminated coordinate."""
    flows = _flows(Hred, canonical, w)
    hc = [_contract(flows, g) for g in grads]
    return [-DiffPoly.sum(h.scale(row[k]) for h, row in zip(hc, Minv) if row[k])
            for k in range(len(hc))]


def _invert_jet_map(jet_map: Mapping[JetVar, DiffPoly], jets: list[JetVar], coords, w):
    """The reduced coordinates as polynomials in psi-jets.

    Each jet's expression adds one new reduced coordinate, linearly with a
    constant coefficient, to those of the lower jets; solving in jet order
    inverts the map in one pass.  Raises on the first jet that does not.
    """
    inverse: dict[JetVar, DiffPoly] = {}
    for target in jets:
        e = jet_map[target]
        unknown = [v for v in e.jets() if _strip_prolongation(v, list(inverse), w) is None]
        c0 = e.diff(unknown[0]).constant_value() if len(unknown) == 1 else None
        if not (c0 and c0.is_single_term()):
            raise ValueError(f"jet {target} does not add exactly one solvable phase coordinate")
        rest = (e - DiffPoly.var(unknown[0], c0)).substitute(inverse)
        inverse[unknown[0]] = (DiffPoly.var(target) - rest).scale(c0.inverse())
    missing = [c for c in coords if c not in inverse]
    if missing:
        raise ValueError(f"could not express phase coordinates in jets: {missing}")
    return inverse


def _space_jet_translation(Hred: DiffPoly, reduced: BracketTable, level: int, w):
    """Stage 6 (space direction): the table T_level on the jets psi_k, psibar_k
    (k < level) and the dual Hamiltonian density in those jets.

    The k-th x-jet of a base field is its k-th Dirac-Hamilton x-flow.
    """
    flows = _flows(Hred, reduced, w)
    jet_map = {}
    for fld, psi_name in zip(_BASE_FIELDS, ("psi", "psibar")):
        cur = DiffPoly.var(JetVar(fld, 0))
        jet_map[JetVar(psi_name, 0)] = cur
        for k in range(1, level):
            cur = _bracket_by_flows(flows, cur, reduced.coords, w)
            jet_map[JetVar(psi_name, k)] = cur
    jets = sorted(jet_map, key=lambda v: (v.dx, v.sort_key()))
    rules = _invert_jet_map(jet_map, jets, reduced.coords, w)
    # one gradient per jet, and a covector for each but the last, contracted for each pair
    grads = [_gradient(jet_map[j], reduced) for j in jets]
    covs = [_covector(g, reduced) for g in grads[:-1]]
    entries = {(ja, jb): _contract(covs[a], grads[b]).substitute(rules)
               for a, ja in enumerate(jets) for b, jb in enumerate(jets) if b > a}
    return BracketTable(jets, entries, label=f"T{level}"), Hred.substitute(rules)


def dirac_pipeline(L: DiffPoly, direction: str) -> LegendreResult:
    """Full Legendre / Dirac analysis of a hierarchy Lagrangian.

    direction 'time': momenta taken with respect to the t_n-derivatives; the
    bracket is ultralocal in x and the analysis yields the (level-
    independent) equal-time table on (psi, psibar).
    direction 'space': momenta with respect to x-derivatives, after the
    auxiliary-field reduction when the Lagrangian is of higher order; yields
    the level-n equal-space table on the jets up to order n-1 and the dual
    Hamiltonian density.
    """
    levels = L.t_levels()
    if len(levels) != 1:
        raise ValueError("expected exactly one t-level in the Lagrangian")
    level = levels.pop()
    if direction == "time":
        xi, w, Lwork, coords = ("t", level), "x", L, [PSI, PSIBAR]
    elif direction == "space":
        reduction = ostrogradski_reduce(L)
        xi, w, Lwork = "x", ("t", level), reduction.lagrangian
        coords = [JetVar(f, 0) for f in reduction.coord_fields]
    else:
        raise ValueError("direction must be 'time' or 'space'")

    momenta, Hc, constraints, names = _legendre(Lwork, coords, xi)
    phase = coords + momenta
    canonical = BracketTable(phase, {(p, c): DiffPoly.const(1) for c, p in zip(coords, momenta)},
                             label="canonical")
    grads = [_gradient(C, canonical) for C in constraints]
    covs = [_covector(g, canonical) for g in grads]
    M, Minv = _constraint_matrix(covs, grads)
    elim = _elimination_map(constraints)
    # in the time direction the surviving coordinates are the fields themselves
    reduced = _dirac_table(phase, covs, canonical, Minv, elim,
                           "S" if direction == "time" else "dirac-reduced")
    Hred = Hc._replace_jets(elim)
    alphas = _multipliers(Hred, grads, canonical, w, Minv)
    cs = ConstraintSystem(
        coords=tuple(coords), momenta=tuple(momenta), lagrangian=Lwork,
        constraints=tuple(constraints), constraint_names=tuple(names),
        M=tuple(map(tuple, M)), Minv=tuple(map(tuple, Minv)), multipliers=tuple(alphas))
    if direction == "time":
        return LegendreResult(xi, level, Hred, reduced, cs)
    table, Hdens = _space_jet_translation(Hred, reduced, level, w)
    return LegendreResult("x", level, Hdens, table, cs)


# ---------------------------------------------------------------------------
# Hamilton-equation verification
# ---------------------------------------------------------------------------


def hamilton_check(result: LegendreResult, rules: Mapping[JetVar, DiffPoly]) -> dict:
    """Verify that the produced table and density generate the right flow.

    For the time direction the flow of each field must equal the level's
    evolution rule; for the space direction the flow of every jet coordinate,
    with the evolution rules substituted, must equal its next x-jet.  No
    table coordinate prolongs another, so each flow is read off ``flows``.
    """
    table = result.table
    space = result.direction == "x"
    w = ("t", result.level) if space else "x"
    flows = _flows(result.hamiltonian_density, table, w)
    checks = []
    for c in table.coords:
        flow = flows.get(c, _Z)
        if space:
            ok = (flow.substitute(rules) - DiffPoly.var(c.prolong_x()).substitute(rules)).is_zero()
        else:
            expected = rules.get(c.prolong_t(result.level))
            ok = expected is not None and (flow - expected).is_zero()
        checks.append({
            "coordinate": repr(c),
            "status": "pass" if ok else "fail",
            "flow": repr(flow),
        })
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"identity": "hamilton equations", "status": status, "checks": checks}
